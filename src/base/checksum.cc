#include "src/base/checksum.h"

#include <array>
#include <bit>
#include <cstring>

#if defined(__x86_64__)
#include <nmmintrin.h>
#endif

namespace aurora {

namespace {

constexpr std::array<uint32_t, 256> MakeCrc32cTable() {
  std::array<uint32_t, 256> table{};
  constexpr uint32_t kPoly = 0x82f63b78;  // reflected CRC32C polynomial
  for (uint32_t i = 0; i < 256; i++) {
    uint32_t crc = i;
    for (int k = 0; k < 8; k++) {
      crc = (crc & 1) ? (crc >> 1) ^ kPoly : crc >> 1;
    }
    table[i] = crc;
  }
  return table;
}

constexpr std::array<uint32_t, 256> kCrc32cTable = MakeCrc32cTable();

using Crc32cFn = uint32_t (*)(const void* data, size_t len, uint32_t seed);

#if defined(__x86_64__)
// The crc32 instruction computes the same reflected CRC32C step as the table
// loop, eight bytes at a time. Compiled for SSE4.2 by attribute so the build
// needs no flag; only called when the CPU reports SSE4.2.
__attribute__((target("sse4.2"))) uint32_t Crc32cSse42(const void* data, size_t len,
                                                        uint32_t seed) {
  const auto* p = static_cast<const uint8_t*>(data);
  uint64_t crc = ~seed;
  for (; len >= sizeof(uint64_t); len -= sizeof(uint64_t), p += sizeof(uint64_t)) {
    uint64_t word;
    std::memcpy(&word, p, sizeof(word));
    crc = _mm_crc32_u64(crc, word);
  }
  auto crc32 = static_cast<uint32_t>(crc);
  for (; len > 0; len--, p++) {
    crc32 = _mm_crc32_u8(crc32, *p);
  }
  return ~crc32;
}
#endif

// Picks the CRC path once. Crc32c may first run from another translation
// unit's static initializer, before libgcc has probed the CPU, so the probe
// is run here explicitly.
Crc32cFn SelectCrc32c() {
#if defined(__x86_64__)
  __builtin_cpu_init();
  if (__builtin_cpu_supports("sse4.2")) {
    return Crc32cSse42;
  }
#endif
  return detail::Crc32cTable;
}

Crc32cFn Crc32cImpl() {
  static const Crc32cFn impl = SelectCrc32c();
  return impl;
}

uint64_t LoadLe64(const uint8_t* p) {
  uint64_t word;
  std::memcpy(&word, p, sizeof(word));
  if constexpr (std::endian::native == std::endian::big) {
    word = __builtin_bswap64(word);
  }
  return word;
}

// The 64x64->128-bit product folded to 64 bits by xoring its halves.
uint64_t Mum(uint64_t a, uint64_t b) {
  const unsigned __int128 product = static_cast<unsigned __int128>(a) * b;
  return static_cast<uint64_t>(product) ^ static_cast<uint64_t>(product >> 64);
}

// One ContentHash128 lane (see checksum.h). The key enters the second
// operand through the state, so neither operand of a step can be zeroed by
// the data alone.
struct HashLane {
  uint64_t h;
  uint64_t k;

  void Absorb(uint64_t a, uint64_t b) { h = Mum(a ^ h, b ^ (h + k)); }
  uint64_t Finish(uint64_t len) const { return Mum(h ^ len, k ^ kFinishKey); }

  static constexpr uint64_t kFinishKey = 0x1d8e4e27c47d124full;
};

}  // namespace

namespace detail {

uint32_t Crc32cTable(const void* data, size_t len, uint32_t seed) {
  const auto* p = static_cast<const uint8_t*>(data);
  uint32_t crc = ~seed;
  for (size_t i = 0; i < len; i++) {
    crc = kCrc32cTable[(crc ^ p[i]) & 0xff] ^ (crc >> 8);
  }
  return ~crc;
}

bool Crc32cUsesSse42() {
#if defined(__x86_64__)
  return Crc32cImpl() == Crc32cSse42;
#else
  return false;
#endif
}

}  // namespace detail

uint32_t Crc32c(const void* data, size_t len, uint32_t seed) {
  return Crc32cImpl()(data, len, seed);
}

ContentKey ContentHash128(const void* data, size_t len) {
  const auto* p = static_cast<const uint8_t*>(data);
  // Seeds and keys, like HashLane::kFinishKey, are wyhash's default secret
  // words.
  HashLane hi{0xa0761d6478bd642full, 0x8ebc6af09c88c6e3ull};
  HashLane lo{0xe7037ed1a0b428dbull, 0x589965cc75374cc3ull};
  auto absorb = [&hi, &lo](const uint8_t* stripe) {
    const uint64_t a = LoadLe64(stripe);
    const uint64_t b = LoadLe64(stripe + sizeof(uint64_t));
    hi.Absorb(a, b);
    lo.Absorb(a, b);
  };
  constexpr size_t kStripe = 2 * sizeof(uint64_t);
  size_t i = 0;
  for (; i + kStripe <= len; i += kStripe) {
    absorb(p + i);
  }
  if (i < len) {
    uint8_t tail[kStripe] = {};
    std::memcpy(tail, p + i, len - i);
    absorb(tail);
  }
  ContentKey key{hi.Finish(len), lo.Finish(len)};
  // Reserve the all-zero key as "no key" for sentinel use.
  if (key.IsZero()) {
    key.lo = 1;
  }
  return key;
}

uint64_t Fletcher64(const void* data, size_t len) {
  const auto* p = static_cast<const uint8_t*>(data);
  uint64_t a = 0;
  uint64_t b = 0;
  // Process 4 bytes at a time like ZFS fletcher4; tail bytes are zero-padded.
  size_t i = 0;
  for (; i + 4 <= len; i += 4) {
    uint32_t w = static_cast<uint32_t>(p[i]) | (static_cast<uint32_t>(p[i + 1]) << 8) |
                 (static_cast<uint32_t>(p[i + 2]) << 16) | (static_cast<uint32_t>(p[i + 3]) << 24);
    a += w;
    b += a;
  }
  if (i < len) {
    uint32_t w = 0;
    for (size_t j = 0; i + j < len; j++) {
      w |= static_cast<uint32_t>(p[i + j]) << (8 * j);
    }
    a += w;
    b += a;
  }
  return (b << 32) ^ a;
}

}  // namespace aurora
