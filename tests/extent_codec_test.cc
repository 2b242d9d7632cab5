// The LZ extent codec's stream format and decoder contract (DESIGN.md
// section 17).
//
// A compressed extent's stored length sets how many device blocks it
// occupies, so Compress's exact output and its accept/reject decision are
// part of the on-media format: seeded inputs in six content classes pin the
// return value and the CRC32C of the stream, and no call may write dst[len].
// A seeded mutation harness feeds Decompress damaged streams, wrong output
// lengths and forged tokens. Every call must agree with a byte-at-a-time
// reference decode (the same accept/reject decision, the same bytes) and
// never write outside [dst, dst + dst_len).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "src/base/checksum.h"
#include "src/base/rng.h"
#include "src/objstore/extent_codec.h"
#include "tests/mutation_harness.h"

namespace aurora {
namespace {

enum class Content { kRandom, kHexRecords, kHexLog, kZeros, kTernary, kPageLike };

constexpr Content kContents[] = {Content::kRandom, Content::kHexRecords, Content::kHexLog,
                                 Content::kZeros,  Content::kTernary,    Content::kPageLike};

constexpr char kHex[] = "0123456789abcdef";

// Seeded input of `len` bytes in one content class.
std::vector<uint8_t> MakeInput(Content content, size_t len, uint64_t seed) {
  Rng rng(seed);
  std::vector<uint8_t> buf(len);
  switch (content) {
    case Content::kRandom:  // all literals
      for (uint8_t& b : buf) {
        b = static_cast<uint8_t>(rng.Next());
      }
      break;
    case Content::kHexRecords: {  // 64-byte log records with seeded hex fields
      static constexpr char kTemplate[] =
          "rec ................ field=...... status=ok                    \n";
      static_assert(sizeof(kTemplate) - 1 == 64);
      const uint64_t base = rng.Next();
      for (size_t i = 0; i < len; i += 64) {
        char rec[64];
        std::memcpy(rec, kTemplate, 64);
        const uint64_t id = base + i;
        const uint64_t field = rng.Next();
        for (int d = 0; d < 16; d++) {
          rec[4 + d] = kHex[(id >> (60 - 4 * d)) & 15];
        }
        for (int d = 0; d < 6; d++) {
          rec[27 + d] = kHex[(field >> (4 * d)) & 15];
        }
        std::memcpy(buf.data() + i, rec, std::min<size_t>(64, len - i));
      }
      break;
    }
    case Content::kHexLog: {  // hex lines of seeded length; half repeat a recent line
      std::vector<std::string> recent;
      std::string text;
      while (text.size() < len) {
        std::string line;
        if (!recent.empty() && rng.NextBool(0.5)) {
          line = recent[rng.Below(recent.size())];
        } else {
          for (uint64_t n = rng.Range(4, 60); n > 0; n--) {
            line.push_back(kHex[rng.Below(16)]);
          }
          line.push_back('\n');
          recent.push_back(line);
          if (recent.size() > 8) {
            recent.erase(recent.begin());
          }
        }
        text += line;
      }
      std::copy_n(text.begin(), len, buf.begin());
      break;
    }
    case Content::kZeros:
      break;
    case Content::kTernary:  // short matches everywhere
      for (uint8_t& b : buf) {
        b = static_cast<uint8_t>('a' + rng.Below(3));
      }
      break;
    case Content::kPageLike:  // bench_micro_gbench's input: random half, period-61 half
      for (size_t i = 0; i < len; i++) {
        buf[i] = i < len / 2 ? static_cast<uint8_t>(rng.Next()) : static_cast<uint8_t>(i % 61);
      }
      break;
  }
  return buf;
}

uint64_t InputSeed(Content content, size_t len) {
  return 0x6c7a0000ull + static_cast<uint64_t>(content) * 1000003ull + len;
}

// The fixed edge lengths (minimum match, the 18-byte match cap, 4 KiB and
// 64 KiB blocks and their neighbours), then 20 seeded lengths up to 70 000.
std::vector<size_t> GoldenLengths() {
  std::vector<size_t> lens = {0, 3, 4, 5, 17, 18, 19, 20, 4095, 4096, 4097, 65535, 65536};
  Rng rng(0x1e47);
  for (int k = 0; k < 20; k++) {
    lens.push_back(static_cast<size_t>(rng.Range(1, 70000)));
  }
  return lens;
}

struct Golden {
  Content content;
  size_t len;
  size_t compressed_len;  // 0: Compress declined
  uint32_t crc;           // CRC32C of the stream (0 when declined)
};

constexpr Content R = Content::kRandom;
constexpr Content H = Content::kHexRecords;
constexpr Content L = Content::kHexLog;
constexpr Content Z = Content::kZeros;
constexpr Content T = Content::kTernary;
constexpr Content P = Content::kPageLike;

// Generated from the byte-at-a-time finder this stream format was defined
// by; any change to a row changes what lands on the device.
constexpr Golden kGoldens[] = {
    {R, 0, 0, 0x00000000}, {R, 3, 0, 0x00000000}, {R, 4, 0, 0x00000000},
    {R, 5, 0, 0x00000000}, {R, 17, 0, 0x00000000}, {R, 18, 0, 0x00000000},
    {R, 19, 0, 0x00000000}, {R, 20, 0, 0x00000000}, {R, 4095, 0, 0x00000000},
    {R, 4096, 0, 0x00000000}, {R, 4097, 0, 0x00000000}, {R, 65535, 0, 0x00000000},
    {R, 65536, 0, 0x00000000}, {R, 61791, 0, 0x00000000}, {R, 11528, 0, 0x00000000},
    {R, 66311, 0, 0x00000000}, {R, 36759, 0, 0x00000000}, {R, 63262, 0, 0x00000000},
    {R, 43983, 0, 0x00000000}, {R, 40568, 0, 0x00000000}, {R, 18806, 0, 0x00000000},
    {R, 35456, 0, 0x00000000}, {R, 61972, 0, 0x00000000}, {R, 43205, 0, 0x00000000},
    {R, 3221, 0, 0x00000000}, {R, 9947, 0, 0x00000000}, {R, 11745, 0, 0x00000000},
    {R, 40481, 0, 0x00000000}, {R, 3117, 0, 0x00000000}, {R, 57594, 0, 0x00000000},
    {R, 2391, 0, 0x00000000}, {R, 29350, 0, 0x00000000}, {R, 26663, 0, 0x00000000},
    {H, 0, 0, 0x00000000}, {H, 3, 0, 0x00000000}, {H, 4, 0, 0x00000000},
    {H, 5, 0, 0x00000000}, {H, 17, 0, 0x00000000}, {H, 18, 0, 0x00000000},
    {H, 19, 0, 0x00000000}, {H, 20, 0, 0x00000000}, {H, 4095, 1022, 0xa4f65bbf},
    {H, 4096, 1018, 0xd2b729e5}, {H, 4097, 1022, 0x499cc883}, {H, 65535, 14227, 0x47945228},
    {H, 65536, 14342, 0x8a658918}, {H, 61791, 13402, 0xb04c0d0c}, {H, 11528, 2628, 0xdd7943ac},
    {H, 66311, 14383, 0x718e1802}, {H, 36759, 8167, 0x5b1695bc}, {H, 63262, 13749, 0x3d3949fd},
    {H, 43983, 9629, 0x2549bc70}, {H, 40568, 8832, 0x246c1cd7}, {H, 18806, 4193, 0xeb3bee3a},
    {H, 35456, 7759, 0x4edaad25}, {H, 61972, 13735, 0x3e533f52}, {H, 43205, 9406, 0x11363f47},
    {H, 3221, 825, 0x84c56b24}, {H, 9947, 2285, 0xdb89ceaa}, {H, 11745, 2676, 0xe6a123a9},
    {H, 40481, 8834, 0xf763040d}, {H, 3117, 809, 0x2edda2f4}, {H, 57594, 12663, 0x65d8ab91},
    {H, 2391, 626, 0x7ce747a0}, {H, 29350, 6445, 0xfa99053f}, {H, 26663, 5864, 0xced7f456},
    {L, 0, 0, 0x00000000}, {L, 3, 0, 0x00000000}, {L, 4, 0, 0x00000000},
    {L, 5, 0, 0x00000000}, {L, 17, 0, 0x00000000}, {L, 18, 0, 0x00000000},
    {L, 19, 0, 0x00000000}, {L, 20, 0, 0x00000000}, {L, 4095, 2369, 0xc510f83c},
    {L, 4096, 2151, 0x3a36e234}, {L, 4097, 2379, 0x04a84a27}, {L, 65535, 32905, 0x33ac7ac7},
    {L, 65536, 33850, 0xf255c901}, {L, 61791, 30812, 0xd0f0cb61}, {L, 11528, 5909, 0x3f5aba95},
    {L, 66311, 33090, 0xb82abe77}, {L, 36759, 18094, 0xcbd94f95}, {L, 63262, 32017, 0x9ce5f3b5},
    {L, 43983, 22257, 0xeb43e5c2}, {L, 40568, 21076, 0x53e033ba}, {L, 18806, 9930, 0xdf976f70},
    {L, 35456, 17934, 0x52c3ce12}, {L, 61972, 31013, 0x6105e46a}, {L, 43205, 21325, 0x7d9f748b},
    {L, 3221, 1720, 0x74eb06ab}, {L, 9947, 5302, 0xfdfb5a54}, {L, 11745, 6528, 0x1d4abc7c},
    {L, 40481, 20462, 0x1d30dee3}, {L, 3117, 1644, 0xfa54e78c}, {L, 57594, 28016, 0x7421afe2},
    {L, 2391, 1342, 0x9d6ac8ff}, {L, 29350, 15091, 0x8574c8b0}, {L, 26663, 13851, 0x27196236},
    {Z, 0, 0, 0x00000000}, {Z, 3, 0, 0x00000000}, {Z, 4, 0, 0x00000000},
    {Z, 5, 4, 0x857c2610}, {Z, 17, 4, 0x46f100d4}, {Z, 18, 4, 0x76124965},
    {Z, 19, 4, 0x664c8e0a}, {Z, 20, 5, 0xd9bc8957}, {Z, 4095, 486, 0x9533e9eb},
    {Z, 4096, 486, 0xa5d0a05a}, {Z, 4097, 486, 0xb58e6735}, {Z, 65535, 7739, 0x9760fa1f},
    {Z, 65536, 7739, 0xe6f8ae12}, {Z, 61791, 7297, 0xa4e5f39a}, {Z, 11528, 1364, 0xe4120f27},
    {Z, 66311, 7830, 0x8c505dc6}, {Z, 36759, 4343, 0x4a4f23a9}, {Z, 63262, 7471, 0x6c8944d7},
    {Z, 43983, 5195, 0xc39a148a}, {Z, 40568, 4791, 0x140b0480}, {Z, 18806, 2222, 0xa5506b96},
    {Z, 35456, 4188, 0x7d819ef5}, {Z, 61972, 7318, 0xdf324173}, {Z, 43205, 5104, 0x710fd686},
    {Z, 3221, 382, 0x3160acfd}, {Z, 9947, 1177, 0xc4933d71}, {Z, 11745, 1389, 0x715cb3e2},
    {Z, 40481, 4781, 0x7ba283ac}, {Z, 3117, 371, 0x608992fb}, {Z, 57594, 6802, 0x957f9fce},
    {Z, 2391, 284, 0x98d6b124}, {Z, 29350, 3467, 0xf4108d8c}, {Z, 26663, 3151, 0xf872b13d},
    {T, 0, 0, 0x00000000}, {T, 3, 0, 0x00000000}, {T, 4, 0, 0x00000000},
    {T, 5, 0, 0x00000000}, {T, 17, 16, 0x7e0a8e3b}, {T, 18, 17, 0xf694eec5},
    {T, 19, 0, 0x00000000}, {T, 20, 19, 0x54e7455d}, {T, 4095, 2520, 0xb13516c9},
    {T, 4096, 2469, 0xe2e3a7c7}, {T, 4097, 2444, 0x9d57a036}, {T, 65535, 39783, 0xfe331a8c},
    {T, 65536, 39838, 0x5e578f7b}, {T, 61791, 37436, 0x6ae762b5}, {T, 11528, 6998, 0x8ff70e85},
    {T, 66311, 40293, 0xfc8480d5}, {T, 36759, 22407, 0x861008ef}, {T, 63262, 38410, 0xb24ce0d6},
    {T, 43983, 26725, 0xa5966698}, {T, 40568, 24604, 0x05de1636}, {T, 18806, 11454, 0xd8ae70f5},
    {T, 35456, 21534, 0x4a370335}, {T, 61972, 37674, 0x4fffb88f}, {T, 43205, 26324, 0x3788499b},
    {T, 3221, 1956, 0xce92920a}, {T, 9947, 6027, 0x20f0b779}, {T, 11745, 7136, 0x22ae3204},
    {T, 40481, 24589, 0xec447ada}, {T, 3117, 1897, 0xcd26390f}, {T, 57594, 35004, 0x269e5524},
    {T, 2391, 1480, 0xd51a4461}, {T, 29350, 17766, 0x1fed9ca8}, {T, 26663, 16118, 0x6b6445e7},
    {P, 0, 0, 0x00000000}, {P, 3, 0, 0x00000000}, {P, 4, 0, 0x00000000},
    {P, 5, 0, 0x00000000}, {P, 17, 0, 0x00000000}, {P, 18, 0, 0x00000000},
    {P, 19, 0, 0x00000000}, {P, 20, 0, 0x00000000}, {P, 4095, 2608, 0x23682aff},
    {P, 4096, 2608, 0x237c96c8}, {P, 4097, 2609, 0x2985a166}, {P, 65535, 40787, 0xc35ff954},
    {P, 65536, 40789, 0x35db5dde}, {P, 61791, 38457, 0x33ad98dc}, {P, 11528, 7225, 0x18d79c03},
    {P, 66311, 41268, 0x242b1f23}, {P, 36759, 22902, 0x4121ecdd}, {P, 63262, 39374, 0xc1a0a3ad},
    {P, 43983, 27393, 0xd8b517ff}, {P, 40568, 25273, 0x22e9be2f}, {P, 18806, 11745, 0x62b6f5b4},
    {P, 35456, 22095, 0x2f2c0bf1}, {P, 61972, 38574, 0xd0aa7cf7}, {P, 43205, 26906, 0xb53638f7},
    {P, 3221, 2065, 0xd440e2e6}, {P, 9947, 6244, 0x8b485fd7}, {P, 11745, 7360, 0x4c041a4a},
    {P, 40481, 25220, 0x6940b334}, {P, 3117, 2000, 0xfbd1adc0}, {P, 57594, 35854, 0xcd117429},
    {P, 2391, 1547, 0x5b5d70ec}, {P, 29350, 18303, 0x14e29cd9}, {P, 26663, 16632, 0x89ffdd66},
};

const char* ContentName(Content content) {
  static const char* const kNames[] = {"R", "H", "L", "Z", "T", "P"};
  return kNames[static_cast<int>(content)];
}

TEST(ExtentCodec, CompressedStreamsMatchTheGoldens) {
  const LzExtentCodec codec;
  constexpr size_t kCanary = 16;
  std::vector<Golden> got;
  for (Content content : kContents) {
    for (size_t len : GoldenLengths()) {
      std::vector<uint8_t> in = MakeInput(content, len, InputSeed(content, len));
      std::vector<uint8_t> dst(len + kCanary, 0xa5);
      size_t clen = codec.Compress(in.data(), len, dst.data());
      ASSERT_LT(clen, len == 0 ? 1 : len);
      for (size_t k = len; k < dst.size(); k++) {
        ASSERT_EQ(dst[k], 0xa5) << ContentName(content) << " len " << len << " wrote dst["
                                << k << "]";
      }
      got.push_back(Golden{content, len, clen, clen == 0 ? 0u : Crc32c(dst.data(), clen)});
      if (clen > 0) {
        std::vector<uint8_t> back(len);
        ASSERT_TRUE(codec.Decompress(dst.data(), clen, back.data(), len).ok());
        ASSERT_EQ(back, in) << ContentName(content) << " len " << len;
      }
    }
  }
  bool same = std::size(kGoldens) == got.size();
  for (size_t k = 0; same && k < got.size(); k++) {
    same = kGoldens[k].content == got[k].content && kGoldens[k].len == got[k].len &&
           kGoldens[k].compressed_len == got[k].compressed_len && kGoldens[k].crc == got[k].crc;
  }
  if (!same) {
    for (const Golden& g : got) {
      std::fprintf(stderr, "    {%s, %zu, %zu, 0x%08x},\n", ContentName(g.content), g.len,
                   g.compressed_len, g.crc);
    }
  }
  EXPECT_TRUE(same) << "stream goldens differ; the computed table is on stderr";
}

// The decoder as the format defines it, one byte at a time: the oracle for
// every accept/reject decision and every decoded byte.
bool ReferenceDecode(const std::vector<uint8_t>& src, std::vector<uint8_t>* dst) {
  size_t in = 0;
  size_t out = 0;
  while (in < src.size() && out < dst->size()) {
    uint8_t ctrl = src[in++];
    for (int t = 0; t < 8 && out < dst->size(); t++) {
      if (ctrl & (1u << t)) {
        if (in >= src.size()) {
          return false;
        }
        (*dst)[out++] = src[in++];
      } else {
        if (in + 2 > src.size()) {
          return false;
        }
        size_t tok = src[in] | (static_cast<size_t>(src[in + 1]) << 8);
        in += 2;
        size_t off = (tok & 0xfff) + 1;
        size_t mlen = (tok >> 12) + 3;
        if (off > out || out + mlen > dst->size()) {
          return false;
        }
        for (size_t k = 0; k < mlen; k++, out++) {
          (*dst)[out] = (*dst)[out - off];
        }
      }
    }
  }
  return out == dst->size() && in == src.size();
}

enum class MutantKind { kFlip, kTruncate, kAppend, kDstLen, kForgedOffset, kForgedOverrun };

const char* KindName(MutantKind kind) {
  static const char* const kNames[] = {"flip",   "truncate",      "append",
                                       "dstlen", "forged-offset", "forged-overrun"};
  return kNames[static_cast<int>(kind)];
}

struct Mutant {
  MutantKind kind;
  size_t base;  // index of the valid stream it came from
  std::vector<uint8_t> stream;
  size_t dst_len;
};

struct Base {
  std::vector<uint8_t> input;
  std::vector<uint8_t> stream;
};

void PutCopy(std::vector<uint8_t>* s, size_t off, size_t mlen) {
  uint16_t tok = static_cast<uint16_t>((off - 1) | ((mlen - 3) << 12));
  s->push_back(static_cast<uint8_t>(tok & 0xff));
  s->push_back(static_cast<uint8_t>(tok >> 8));
}

// Valid streams to damage: every compressible golden class at a few sizes.
std::vector<Base> MakeBases() {
  const LzExtentCodec codec;
  std::vector<Base> bases;
  for (Content content : kContents) {
    for (size_t len : {size_t{20}, size_t{300}, size_t{4096}, size_t{65536}}) {
      std::vector<uint8_t> in = MakeInput(content, len, InputSeed(content, len) ^ 0x3c3c);
      std::vector<uint8_t> out(len);
      size_t clen = codec.Compress(in.data(), len, out.data());
      if (clen > 0) {
        out.resize(clen);
        bases.push_back(Base{std::move(in), std::move(out)});
      }
    }
  }
  return bases;
}

std::vector<Mutant> MakeMutants(const std::vector<Base>& bases, uint64_t seed) {
  Rng rng(seed);
  std::vector<Mutant> out;
  for (size_t b = 0; b < bases.size(); b++) {
    const std::vector<uint8_t>& s = bases[b].stream;
    const size_t len = bases[b].input.size();
    for (int k = 0; k < 160; k++) {  // 1-4 byte flips
      Mutant m{MutantKind::kFlip, b, s, len};
      mutation::FlipBytes(rng, &m.stream);
      out.push_back(std::move(m));
    }
    for (int k = 0; k < 24; k++) {
      out.push_back(
          Mutant{MutantKind::kTruncate, b, mutation::Truncated(s, rng.Below(s.size())), len});
      out.push_back(Mutant{MutantKind::kAppend, b, mutation::Appended(rng, s), len});
    }
    for (size_t delta = 1; delta <= 64; delta *= 2) {
      out.push_back(Mutant{MutantKind::kDstLen, b, s, len + delta});
      if (delta <= len) {
        out.push_back(Mutant{MutantKind::kDstLen, b, s, len - delta});
      }
    }
    out.push_back(Mutant{MutantKind::kDstLen, b, s, len + rng.Range(1, 64)});
    out.push_back(Mutant{MutantKind::kDstLen, b, s, len - rng.Range(1, std::min<size_t>(len, 64))});
  }
  for (int k = 0; k < 300; k++) {
    // n literals, then a copy reaching back past the start of the output.
    size_t n = rng.Below(8);
    Mutant m{MutantKind::kForgedOffset, 0, {static_cast<uint8_t>((1u << n) - 1)}, 0};
    for (size_t i = 0; i < n; i++) {
      m.stream.push_back(static_cast<uint8_t>(rng.Next()));
    }
    size_t mlen = rng.Range(3, 18);
    PutCopy(&m.stream, n + rng.Range(1, 4096 - n), mlen);
    m.dst_len = n + mlen + rng.Below(64);
    out.push_back(std::move(m));
  }
  for (int k = 0; k < 300; k++) {
    // n literals, then a copy running `over` bytes past dst_len.
    size_t n = rng.Range(1, 7);
    Mutant m{MutantKind::kForgedOverrun, 0, {static_cast<uint8_t>((1u << n) - 1)}, 0};
    for (size_t i = 0; i < n; i++) {
      m.stream.push_back(static_cast<uint8_t>(rng.Next()));
    }
    size_t mlen = rng.Range(3, 18);
    size_t over = rng.Range(1, mlen - 1);
    PutCopy(&m.stream, rng.Range(1, n), mlen);
    m.dst_len = n + mlen - over;
    out.push_back(std::move(m));
  }
  return out;
}

TEST(ExtentCodecMutation, DecompressMatchesTheReferenceAndStaysInBounds) {
  const LzExtentCodec codec;
  const std::vector<Base> bases = MakeBases();
  ASSERT_GE(bases.size(), 12u);
  const std::vector<Mutant> mutants = MakeMutants(bases, 0x6c7a6d75);
  ASSERT_GE(mutants.size(), 3000u);

  mutation::Tally tally;
  for (const Mutant& m : mutants) {
    mutation::GuardedBuffer buf(m.dst_len);
    uint8_t* dst = buf.data();
    Status st = codec.Decompress(m.stream.data(), m.stream.size(), dst, m.dst_len);
    ASSERT_TRUE(buf.BeforeIntact()) << KindName(m.kind) << ": write before dst";
    ASSERT_TRUE(buf.AfterIntact()) << KindName(m.kind) << ": write past dst_len";
    std::vector<uint8_t> want(m.dst_len);
    bool ref_ok = ReferenceDecode(m.stream, &want);
    ASSERT_EQ(st.ok(), ref_ok) << KindName(m.kind) << ": " << st.message();
    std::string outcome;
    if (!st.ok()) {
      ASSERT_EQ(st.code(), Errc::kCorrupt) << st.message();
      outcome = "corrupt";
    } else {
      ASSERT_EQ(0, std::memcmp(dst, want.data(), m.dst_len)) << KindName(m.kind);
      bool exact = m.kind == MutantKind::kFlip && m.dst_len == bases[m.base].input.size() &&
                   std::memcmp(dst, bases[m.base].input.data(), m.dst_len) == 0;
      outcome = exact ? "exact" : "decoded-other";
    }
    // Only a byte flip can leave a well-formed stream: every other kind
    // changes the stream's length or its output length, or forges a token
    // that reaches outside the output.
    if (m.kind != MutantKind::kFlip) {
      EXPECT_EQ(outcome, "corrupt") << KindName(m.kind);
    }
    tally.Add(std::string(KindName(m.kind)) + "/" + outcome);
  }
  std::fprintf(stderr, "lz decompress: %zu mutants of %zu streams:%s\n", mutants.size(),
               bases.size(), tally.Summary().c_str());
}

}  // namespace
}  // namespace aurora
