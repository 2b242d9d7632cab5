#include "src/objstore/extent_codec.h"

#include <array>
#include <bit>
#include <cstring>

namespace aurora {

namespace {

// The word loads below put the first byte in memory in the lowest bits, so a
// prefix is the low 24 bits and count-trailing-zeros finds the first byte
// that differs.
static_assert(std::endian::native == std::endian::little,
              "LZ word loads assume a little-endian host");

constexpr size_t kWindow = 4096;   // sliding-window reach of a copy token
constexpr size_t kMinMatch = 3;    // shortest copy worth a 2-byte token
constexpr size_t kMaxMatch = 18;   // 4-bit length field: kMinMatch + 15
constexpr size_t kHashBits = 13;
// An empty hash slot holds a position more than a window behind every real
// one, so it fails the same window test as a stale candidate. Its four bytes
// are equal, so one memset clears the table.
constexpr int32_t kEmptySlot = static_cast<int32_t>(0x80808080u);
static_assert(kEmptySlot < -static_cast<int32_t>(kWindow));
constexpr uint32_t kPrefixMask = 0xffffff;
constexpr uint32_t kNoMatch = 1u << 24;  // outside every 3-byte prefix

uint32_t Load32(const uint8_t* p) {
  uint32_t v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

uint64_t Load64(const uint8_t* p) {
  uint64_t v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

// The 3 bytes at src[i], as the low 24 bits. Position len - 3 (>= 1, as
// len >= 4) loads the word ending at the last byte instead of reading past it.
uint32_t Prefix3(const uint8_t* src, size_t i, size_t len) {
  return i + 4 <= len ? Load32(src + i) & kPrefixMask : Load32(src + i - 1) >> 8;
}

uint32_t Hash3(uint32_t prefix) { return (prefix * 2654435761u) >> (32 - kHashBits); }

// Length of the common prefix of a and b, which agree on their first
// kMinMatch bytes and have kMaxMatch readable bytes each.
size_t MatchLength(const uint8_t* a, const uint8_t* b) {
  uint64_t x = Load64(a + kMinMatch) ^ Load64(b + kMinMatch);
  if (x != 0) {
    return kMinMatch + static_cast<size_t>(__builtin_ctzll(x)) / 8;
  }
  constexpr size_t kSecond = kMaxMatch - 8;  // the word ending at the cap
  x = Load64(a + kSecond) ^ Load64(b + kSecond);
  return x != 0 ? kSecond + static_cast<size_t>(__builtin_ctzll(x)) / 8 : kMaxMatch;
}

}  // namespace

size_t LzExtentCodec::Compress(const uint8_t* src, size_t len, uint8_t* dst) const {
  if (len < kMinMatch + 1) {
    return 0;
  }
  // Single-probe hash of 3-byte prefixes: deterministic and O(n), trading a
  // little ratio for speed. Each position probes the latest earlier position
  // with the same hash; a stale or empty slot becomes a prefix that cannot
  // match, so the only data-dependent branch is whether 3 bytes matched.
  std::array<int32_t, 1u << kHashBits> head;
  std::memset(head.data(), kEmptySlot & 0xff, sizeof(head));
  const size_t last = len - kMinMatch;  // last position with a 3-byte prefix

  size_t out = 0;
  size_t i = 0;
  while (i < len) {
    if (out >= len) {
      return 0;  // already no smaller than raw
    }
    size_t ctrl_pos = out++;
    uint8_t ctrl = 0;
    for (int t = 0; t < 8 && i < len; t++) {
      size_t m = 0;
      size_t cand = 0;
      if (i <= last) {
        uint32_t prefix = Prefix3(src, i, len);
        uint32_t h = Hash3(prefix);
        cand = static_cast<size_t>(head[h]);  // sign-extends an empty slot
        head[h] = static_cast<int32_t>(i);
        size_t stale = (i - cand) > kWindow;  // unsigned: an empty slot wraps far
        size_t at = cand & (stale - 1);       // a stale probe loads src[0..3]
        uint32_t seen = (Load32(src + at) & kPrefixMask) | static_cast<uint32_t>(stale) * kNoMatch;
        if (seen == prefix) {
          if (len - i >= kMaxMatch) {
            m = MatchLength(src + cand, src + i);
          } else {
            m = kMinMatch;
            while (m < len - i && src[cand + m] == src[i + m]) {
              m++;
            }
          }
        }
      }
      if (m >= kMinMatch) {
        if (out + 2 > len) {
          return 0;
        }
        uint16_t tok = static_cast<uint16_t>((i - cand - 1) | ((m - kMinMatch) << 12));
        dst[out++] = static_cast<uint8_t>(tok & 0xff);
        dst[out++] = static_cast<uint8_t>(tok >> 8);
        size_t end = i + m;
        for (i++; i < end && i <= last; i++) {
          head[Hash3(Prefix3(src, i, len))] = static_cast<int32_t>(i);
        }
        i = end;
      } else {
        if (out + 1 > len) {
          return 0;
        }
        ctrl |= static_cast<uint8_t>(1u << t);
        dst[out++] = src[i];
        i++;
      }
    }
    dst[ctrl_pos] = ctrl;
  }
  return out < len ? out : 0;
}

Status LzExtentCodec::Decompress(const uint8_t* src, size_t src_len, uint8_t* dst,
                                 size_t dst_len) const {
  size_t in = 0;
  size_t out = 0;
  while (in < src_len && out < dst_len) {
    uint8_t ctrl = src[in++];
    if (ctrl == 0xff && src_len - in >= 8 && dst_len - out >= 8) {
      std::memcpy(dst + out, src + in, 8);  // eight literals
      in += 8;
      out += 8;
      continue;
    }
    for (int t = 0; t < 8 && out < dst_len; t++) {
      if (ctrl & (1u << t)) {
        if (in >= src_len) {
          return Status::Error(Errc::kCorrupt, "lz literal truncated");
        }
        dst[out++] = src[in++];
      } else {
        if (in + 2 > src_len) {
          return Status::Error(Errc::kCorrupt, "lz copy token truncated");
        }
        uint16_t tok = static_cast<uint16_t>(src[in]) |
                       (static_cast<uint16_t>(src[in + 1]) << 8);
        in += 2;
        size_t off = static_cast<size_t>(tok & 0xfff) + 1;
        size_t mlen = static_cast<size_t>(tok >> 12) + kMinMatch;
        if (off > out || out + mlen > dst_len) {
          return Status::Error(Errc::kCorrupt, "lz copy out of range");
        }
        if (off >= mlen) {
          std::memcpy(dst + out, dst + out - off, mlen);
          out += mlen;
        } else {
          // The copy reads bytes it writes (a run): byte order matters.
          for (size_t k = 0; k < mlen; k++) {
            dst[out] = dst[out - off];
            out++;
          }
        }
      }
    }
  }
  if (out != dst_len || in != src_len) {
    return Status::Error(Errc::kCorrupt, "lz stream does not reproduce block");
  }
  return Status::Ok();
}

const ExtentCodec* FindExtentCodec(CodecId id) {
  static const LzExtentCodec lz;
  switch (id) {
    case CodecId::kLz:
      return &lz;
    case CodecId::kRaw:
    default:
      return nullptr;
  }
}

}  // namespace aurora
