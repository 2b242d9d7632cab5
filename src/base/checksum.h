// CRC32C checksums for on-disk integrity (superblocks, checkpoint records,
// journal entries, ZFS-like block checksums) and the content keys of the
// dedup index.
#ifndef SRC_BASE_CHECKSUM_H_
#define SRC_BASE_CHECKSUM_H_

#include <cstddef>
#include <cstdint>

namespace aurora {

// CRC32C (Castagnoli); `seed` allows chaining. Runs the SSE4.2 crc32
// instruction where the CPU has it (chosen once, on first use) and a
// byte-at-a-time table loop elsewhere. Both compute the same value, which
// persists in extents, metadata blobs and replication frames.
uint32_t Crc32c(const void* data, size_t len, uint32_t seed = 0);

// 64-bit Fletcher-style checksum used by the ZFS-like baseline file system.
uint64_t Fletcher64(const void* data, size_t len);

// 128-bit content key for content-addressed dedup. One pass over the input
// in 16-byte stripes (the last one zero-padded) drives two 64-bit lanes
// with different seeds and keys. A lane with state h and key k absorbs a
// stripe of little-endian words (a, b) with the MUM step of wyhash and
// MUM-hash: h = fold(a ^ h, b ^ (h + k)), where fold is the 64x64->128-bit
// product with its halves xored together. Each lane then folds in the
// input length, so zero runs of different lengths get different keys.
//
// A false match (different blocks, one key) needs both lanes to collide at
// once. Each step is nonlinear in the lane state and the lanes share no
// seed or key, so for inputs not crafted against these public constants
// that is a ~2^-128 event per pair; it is not a cryptographic bound.
// Nothing backs it up: a dedup hit reuses the indexed extent's own CRC, so
// the per-extent CRC32C never sees a false hit.
struct ContentKey {
  uint64_t hi = 0;
  uint64_t lo = 0;

  bool operator==(const ContentKey& o) const { return hi == o.hi && lo == o.lo; }
  bool operator!=(const ContentKey& o) const { return !(*this == o); }
  bool operator<(const ContentKey& o) const {
    return hi != o.hi ? hi < o.hi : lo < o.lo;
  }
  bool IsZero() const { return hi == 0 && lo == 0; }
};

// Never returns the all-zero key, which stays reserved as "no key".
ContentKey ContentHash128(const void* data, size_t len);

namespace detail {

// For tests: the portable byte-table CRC32C that every other path must
// match, and whether Crc32c dispatches to the SSE4.2 path on this host.
uint32_t Crc32cTable(const void* data, size_t len, uint32_t seed);
bool Crc32cUsesSse42();

}  // namespace detail

}  // namespace aurora

#endif  // SRC_BASE_CHECKSUM_H_
