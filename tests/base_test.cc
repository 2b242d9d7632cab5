#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstring>
#include <set>
#include <utility>
#include <vector>

#include "src/base/checksum.h"
#include "src/base/event_queue.h"
#include "src/base/id_allocator.h"
#include "src/base/result.h"
#include "src/base/rng.h"
#include "src/base/serializer.h"
#include "src/base/sim_clock.h"
#include "src/base/units.h"

namespace aurora {
namespace {

TEST(Result, StatusRoundTrip) {
  Status ok = Status::Ok();
  EXPECT_TRUE(ok.ok());
  Status err = Status::Error(Errc::kNotFound, "missing");
  EXPECT_FALSE(err.ok());
  EXPECT_EQ(err.code(), Errc::kNotFound);
  EXPECT_EQ(err.ToString(), "NOT_FOUND: missing");
}

TEST(Result, ValueAndError) {
  Result<int> v = 42;
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(*v, 42);
  Result<int> e = Status::Error(Errc::kBusy, "later");
  EXPECT_FALSE(e.ok());
  EXPECT_EQ(e.status().code(), Errc::kBusy);
}

TEST(Serializer, ScalarRoundTrip) {
  BinaryWriter w;
  w.PutU8(0xab);
  w.PutU16(0x1234);
  w.PutU32(0xdeadbeef);
  w.PutU64(0x1122334455667788ull);
  w.PutI64(-7);
  w.PutBool(true);
  w.PutDouble(3.25);
  w.PutString("aurora");
  BinaryReader r(w.data());
  EXPECT_EQ(*r.U8(), 0xab);
  EXPECT_EQ(*r.U16(), 0x1234);
  EXPECT_EQ(*r.U32(), 0xdeadbeefu);
  EXPECT_EQ(*r.U64(), 0x1122334455667788ull);
  EXPECT_EQ(*r.I64(), -7);
  EXPECT_TRUE(*r.Bool());
  EXPECT_DOUBLE_EQ(*r.Double(), 3.25);
  EXPECT_EQ(*r.String(), "aurora");
  EXPECT_TRUE(r.AtEnd());
}

TEST(Serializer, TruncationFailsCleanly) {
  BinaryWriter w;
  w.PutU64(77);
  w.PutString("hello world");
  const auto& buf = w.data();
  for (size_t cut = 0; cut < buf.size(); cut++) {
    BinaryReader r(buf.data(), cut);
    auto v = r.U64();
    if (!v.ok()) {
      continue;
    }
    auto s = r.String();
    EXPECT_FALSE(s.ok()) << "cut=" << cut;
  }
}

TEST(Serializer, OversizedLengthPrefixRejected) {
  BinaryWriter w;
  w.PutU64(UINT64_MAX);  // claims a huge byte field
  BinaryReader r(w.data());
  EXPECT_FALSE(r.Bytes().ok());
}

TEST(Checksum, Crc32cKnownVector) {
  // RFC 3720 section B.4 test vectors, on both CRC paths.
  std::vector<uint8_t> zeros(32, 0x00);
  std::vector<uint8_t> ones(32, 0xff);
  std::vector<uint8_t> up(32);
  std::vector<uint8_t> down(32);
  for (size_t i = 0; i < 32; i++) {
    up[i] = static_cast<uint8_t>(i);
    down[i] = static_cast<uint8_t>(31 - i);
  }
  const std::pair<const std::vector<uint8_t>*, uint32_t> vectors[] = {
      {&zeros, 0x8a9136aau}, {&ones, 0x62a8ab43u}, {&up, 0x46dd794eu}, {&down, 0x113fdb5cu}};
  for (const auto& [data, want] : vectors) {
    EXPECT_EQ(Crc32c(data->data(), data->size()), want);
    EXPECT_EQ(detail::Crc32cTable(data->data(), data->size(), 0), want);
  }
}

std::vector<uint8_t> SeededBytes(uint64_t seed, size_t len) {
  Rng rng(seed);
  std::vector<uint8_t> out(len);
  for (uint8_t& b : out) {
    b = static_cast<uint8_t>(rng.Next());
  }
  return out;
}

TEST(Checksum, Crc32cMatchesTableReferenceAtEveryLengthAndAlignment) {
  const std::vector<uint8_t> buf = SeededBytes(7, 64 * kKiB + 8);
  for (size_t offset = 0; offset < 8; offset++) {
    for (size_t len = 0; len <= 1024; len++) {
      const uint32_t seed = static_cast<uint32_t>(len * 0x9e3779b9u);
      ASSERT_EQ(Crc32c(buf.data() + offset, len, seed),
                detail::Crc32cTable(buf.data() + offset, len, seed))
          << "offset " << offset << " len " << len;
    }
    for (size_t len : {4 * kKiB, 64 * kKiB}) {
      ASSERT_EQ(Crc32c(buf.data() + offset, len), detail::Crc32cTable(buf.data() + offset, len, 0))
          << "offset " << offset << " len " << len;
    }
  }
}

TEST(Checksum, Crc32cChainsAtEverySplitPoint) {
  const std::vector<uint8_t> buf = SeededBytes(11, 4 * kKiB + 7);
  const uint32_t whole = Crc32c(buf.data(), buf.size());
  for (size_t split = 0; split <= buf.size(); split++) {
    const uint32_t head = Crc32c(buf.data(), split);
    ASSERT_EQ(Crc32c(buf.data() + split, buf.size() - split, head), whole) << "split " << split;
  }
}

TEST(Checksum, Sse42HostSelectsHardwareCrc) {
  // A dispatch bug must fail here, not only show up as a slow benchmark.
#if defined(__x86_64__)
  __builtin_cpu_init();
  EXPECT_EQ(detail::Crc32cUsesSse42(), __builtin_cpu_supports("sse4.2") != 0);
#else
  EXPECT_FALSE(detail::Crc32cUsesSse42());
#endif
}

ContentKey Key(const std::vector<uint8_t>& data) { return ContentHash128(data.data(), data.size()); }

TEST(ContentHash, GoldenKeys) {
  // Keys persist in the v4 metadata's dedup index; an accidental change to
  // the construction must fail here.
  std::vector<uint8_t> aurora = {'a', 'u', 'r', 'o', 'r', 'a'};
  std::vector<uint8_t> pattern(4 * kKiB);
  for (size_t i = 0; i < pattern.size(); i++) {
    pattern[i] = static_cast<uint8_t>(i * 7);
  }
  const std::pair<std::vector<uint8_t>, ContentKey> golden[] = {
      {{}, {0xbdec1badf93aedc6ull, 0x8c4278236871e766ull}},
      {aurora, {0x8f85c437fe3d891eull, 0x6e8352df5b75d0adull}},
      {std::vector<uint8_t>(17, 0x5a), {0x178f2a5a81e9b98eull, 0x3e164f26e663bfe4ull}},
      {std::vector<uint8_t>(4 * kKiB, 0), {0xd75bafdcbda31c92ull, 0x1ab3658fb1d9b43aull}},
      {pattern, {0x8b71a86cebdd6506ull, 0xf349cea9e6436bc3ull}},
  };
  for (const auto& [data, want] : golden) {
    const ContentKey got = Key(data);
    EXPECT_EQ(got.hi, want.hi) << "len " << data.size();
    EXPECT_EQ(got.lo, want.lo) << "len " << data.size();
  }
}

TEST(ContentHash, NoEqualKeysAcrossStructuredCorpus) {
  // Every input below is distinct by construction, so every key must be.
  std::set<ContentKey> keys;
  size_t inputs = 0;
  auto add = [&](const std::vector<uint8_t>& data) {
    const ContentKey key = Key(data);
    EXPECT_FALSE(key.IsZero());
    keys.insert(key);
    inputs++;
  };
  std::vector<uint8_t> page = SeededBytes(3, 4 * kKiB);
  add(page);
  // Every single-bit flip of the seeded page.
  for (size_t bit = 0; bit < page.size() * 8; bit++) {
    page[bit / 8] ^= static_cast<uint8_t>(1u << (bit % 8));
    add(page);
    page[bit / 8] ^= static_cast<uint8_t>(1u << (bit % 8));
  }
  // Pages that differ from it in one 8-byte word (by more than one bit).
  for (size_t word = 0; word < page.size() / 8; word++) {
    std::vector<uint8_t> changed = page;
    uint64_t v;
    std::memcpy(&v, changed.data() + word * 8, sizeof(v));
    v ^= 0x0123456789abcdefull + word;
    std::memcpy(changed.data() + word * 8, &v, sizeof(v));
    add(changed);
  }
  // Pages with the first 16-byte stripe swapped with another: stripe order
  // is hashed.
  for (size_t stripe = 1; stripe < page.size() / 16; stripe++) {
    std::vector<uint8_t> swapped = page;
    std::swap_ranges(swapped.begin(), swapped.begin() + 16, swapped.begin() + stripe * 16);
    add(swapped);
  }
  // The all-zero page and zero pages with the first byte stamped, as
  // BuildAppProfile dirties them (stamp 0 is the zero page itself).
  std::vector<uint8_t> zero(4 * kKiB, 0);
  add(zero);
  for (int stamp = 1; stamp < 256; stamp++) {
    zero[0] = static_cast<uint8_t>(stamp);
    add(zero);
  }
  // Zero buffers of every length up to four stripes: the length is hashed.
  for (size_t len = 0; len <= 64; len++) {
    add(std::vector<uint8_t>(len, 0));
  }
  EXPECT_EQ(keys.size(), inputs);
}

TEST(ContentHash, EachHalfAvalanchesUnderSingleBitFlips) {
  std::vector<uint8_t> page = SeededBytes(5, 4 * kKiB);
  const ContentKey base = Key(page);
  uint64_t hi_flips = 0;
  uint64_t lo_flips = 0;
  const size_t bits = page.size() * 8;
  for (size_t bit = 0; bit < bits; bit++) {
    page[bit / 8] ^= static_cast<uint8_t>(1u << (bit % 8));
    const ContentKey key = Key(page);
    page[bit / 8] ^= static_cast<uint8_t>(1u << (bit % 8));
    hi_flips += static_cast<uint64_t>(std::popcount(key.hi ^ base.hi));
    lo_flips += static_cast<uint64_t>(std::popcount(key.lo ^ base.lo));
  }
  const double hi_share = static_cast<double>(hi_flips) / (64.0 * static_cast<double>(bits));
  const double lo_share = static_cast<double>(lo_flips) / (64.0 * static_cast<double>(bits));
  EXPECT_GE(hi_share, 0.45);
  EXPECT_LE(hi_share, 0.55);
  EXPECT_GE(lo_share, 0.45);
  EXPECT_LE(lo_share, 0.55);
}

TEST(Checksum, DetectsCorruption) {
  std::vector<uint8_t> data(512);
  for (size_t i = 0; i < data.size(); i++) {
    data[i] = static_cast<uint8_t>(i * 7);
  }
  uint32_t crc = Crc32c(data.data(), data.size());
  data[100] ^= 1;
  EXPECT_NE(crc, Crc32c(data.data(), data.size()));
  uint64_t f = Fletcher64(data.data(), data.size());
  data[101] ^= 1;
  EXPECT_NE(f, Fletcher64(data.data(), data.size()));
}

TEST(SimClock, AdvanceSemantics) {
  SimClock clock;
  EXPECT_EQ(clock.now(), 0u);
  clock.Advance(100);
  EXPECT_EQ(clock.now(), 100u);
  EXPECT_EQ(clock.AdvanceTo(50), 0u);  // no going back
  EXPECT_EQ(clock.now(), 100u);
  EXPECT_EQ(clock.AdvanceTo(250), 150u);
  EXPECT_EQ(clock.now(), 250u);
}

TEST(EventQueue, FifoWithinSameTime) {
  SimClock clock;
  EventQueue q(&clock);
  std::vector<int> order;
  q.At(10, [&] { order.push_back(1); });
  q.At(10, [&] { order.push_back(2); });
  q.At(5, [&] { order.push_back(0); });
  q.RunAll();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
  EXPECT_EQ(clock.now(), 10u);
}

TEST(EventQueue, RunUntilStopsAtDeadline) {
  SimClock clock;
  EventQueue q(&clock);
  int fired = 0;
  q.At(10, [&] { fired++; });
  q.At(100, [&] { fired++; });
  q.RunUntil(50);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(clock.now(), 50u);
  q.RunAll();
  EXPECT_EQ(fired, 2);
}

TEST(EventQueue, EventsCanScheduleEvents) {
  SimClock clock;
  EventQueue q(&clock);
  int depth = 0;
  std::function<void()> chain = [&] {
    if (++depth < 5) {
      q.After(10, chain);
    }
  };
  q.After(10, chain);
  q.RunAll();
  EXPECT_EQ(depth, 5);
  EXPECT_EQ(clock.now(), 50u);
}

TEST(Rng, Deterministic) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; i++) {
    EXPECT_EQ(a.Next(), b.Next());
  }
}

TEST(Rng, ExponentialMean) {
  Rng rng(7);
  double sum = 0;
  const int n = 20000;
  for (int i = 0; i < n; i++) {
    sum += rng.NextExponential(100.0);
  }
  EXPECT_NEAR(sum / n, 100.0, 5.0);
}

TEST(Zipf, BoundsAndSkew) {
  ZipfGenerator zipf(1000, 0.99, 42);
  std::vector<int> counts(1000, 0);
  for (int i = 0; i < 50000; i++) {
    uint64_t v = zipf.Next();
    ASSERT_LT(v, 1000u);
    counts[v]++;
  }
  // Heavily skewed: the head must dominate the tail.
  EXPECT_GT(counts[0], counts[500] * 5);
}

TEST(IdAllocator, AllocateReserveRelease) {
  IdAllocator alloc(10, 14);
  EXPECT_EQ(*alloc.Allocate(), 10u);
  EXPECT_EQ(*alloc.Allocate(), 11u);
  EXPECT_TRUE(alloc.Reserve(13).ok());
  EXPECT_FALSE(alloc.Reserve(13).ok());  // already used
  EXPECT_EQ(*alloc.Allocate(), 12u);
  EXPECT_EQ(*alloc.Allocate(), 14u);  // 13 skipped (reserved)
  EXPECT_FALSE(alloc.Allocate().ok());  // exhausted
  alloc.Release(11);
  EXPECT_EQ(*alloc.Allocate(), 11u);
}

TEST(IdAllocator, ReserveOutOfRange) {
  IdAllocator alloc(10, 14);
  EXPECT_EQ(alloc.Reserve(9).code(), Errc::kOutOfRange);
  EXPECT_EQ(alloc.Reserve(15).code(), Errc::kOutOfRange);
}

}  // namespace
}  // namespace aurora
