// Base-layer calibration: host-clock rates of the checksum, content-hash and
// LZ codec primitives on seeded 4 KiB and 64 KiB buffers. Combined with a
// workload's byte counts they estimate the share of host time those
// primitives explain (base.crc_host_share).
#include <vector>

#include "perfbench/workload.h"
#include "src/base/checksum.h"
#include "src/objstore/extent_codec.h"

namespace aurora::perfbench {
namespace {

constexpr uint64_t kBytesPerRate = 32 * kMiB;  // work timed per primitive and size

// Half random, half a repeating record: compressible like checkpoint pages.
std::vector<uint8_t> SeededBuffer(uint64_t seed, size_t len) {
  Rng rng(seed);
  std::vector<uint8_t> buf(len);
  for (size_t i = 0; i < len; i++) {
    buf[i] = i < len / 2 ? static_cast<uint8_t>(rng.Next()) : static_cast<uint8_t>(i % 61);
  }
  return buf;
}

// Runs `fn` over `buf` until kBytesPerRate bytes went through it; GB/s.
template <typename Fn>
double Rate(const std::vector<uint8_t>& buf, Fn fn) {
  const uint64_t iters = kBytesPerRate / buf.size();
  uint64_t sink = 0;
  HostStopwatch watch;
  for (uint64_t i = 0; i < iters; i++) {
    sink += fn(buf);
  }
  const double s = watch.Seconds();
  // Keeps the calls observable; the sum itself is meaningless.
  volatile uint64_t keep = sink;
  (void)keep;
  return s > 0 ? static_cast<double>(iters * buf.size()) / s / 1e9 : 0;
}

}  // namespace

BaseRates CalibrateBase(uint64_t seed) {
  BaseRates r;
  const std::vector<uint8_t> small = SeededBuffer(seed, 4 * kKiB);
  const std::vector<uint8_t> large = SeededBuffer(seed + 1, 64 * kKiB);
  auto crc = [](const std::vector<uint8_t>& b) { return uint64_t{Crc32c(b.data(), b.size())}; };
  auto hash = [](const std::vector<uint8_t>& b) { return ContentHash128(b.data(), b.size()).lo; };
  r.crc32c_gbps_4k = Rate(small, crc);
  r.crc32c_gbps_64k = Rate(large, crc);
  r.content_hash_gbps_4k = Rate(small, hash);
  r.content_hash_gbps_64k = Rate(large, hash);

  LzExtentCodec codec;
  std::vector<uint8_t> out(large.size());
  r.lz_compress_gbps = Rate(large, [&](const std::vector<uint8_t>& b) {
    return uint64_t{codec.Compress(b.data(), b.size(), out.data())};
  });
  const size_t clen = codec.Compress(large.data(), large.size(), out.data());
  std::vector<uint8_t> compressed(out.begin(), out.begin() + static_cast<std::ptrdiff_t>(clen));
  std::vector<uint8_t> back(large.size());
  r.lz_decompress_gbps = Rate(large, [&](const std::vector<uint8_t>& b) {
    Status st = codec.Decompress(compressed.data(), compressed.size(), back.data(), b.size());
    return uint64_t{st.ok() ? back[b.size() / 2] : 0u};
  });
  return r;
}

}  // namespace aurora::perfbench
