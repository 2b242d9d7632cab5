// Seeded mutation harness shared by the decoder tests: byte flips,
// truncations, appends, forged u64 count/length fields, guard bytes around
// an output buffer, an outcome tally, and a probe that bounds the largest
// single allocation a decoder makes.
//
// Every decoder of bytes that crossed a device or a wire must be total: a
// mutant of a valid input gives a typed error or a value that encodes and
// decodes back to itself, never a crash, a write outside its output or an
// allocation larger than its input. The generators are deterministic per
// seed, so a tally printed by one run is the tally of every run.
//
// The allocation probe replaces the global operator new, so include this
// header from exactly one translation unit of a test binary.
#ifndef TESTS_MUTATION_HARNESS_H_
#define TESTS_MUTATION_HARNESS_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <map>
#include <new>
#include <string>
#include <vector>

#include "src/base/rng.h"

namespace aurora::mutation {

// Largest single allocation since the last reset. Requests above
// kAllocCeiling fail as if the heap were exhausted, which keeps a runaway
// decode from taking the host's memory with it.
inline size_t g_largest_alloc = 0;
inline constexpr size_t kAllocCeiling = size_t{256} << 20;

// The values a forged count or length field takes: far past any buffer,
// and with the top bit set so a signed view goes negative.
inline constexpr uint64_t kForgedCounts[] = {uint64_t{1} << 40, uint64_t{1} << 63};

// 1-4 random bytes of `bytes`, each XORed with a nonzero value.
inline void FlipBytes(Rng& rng, std::vector<uint8_t>* bytes) {
  for (uint64_t k = rng.Range(1, 4); k > 0; k--) {
    (*bytes)[rng.Below(bytes->size())] ^= static_cast<uint8_t>(rng.Range(1, 255));
  }
}

// The first `len` bytes of `s`.
inline std::vector<uint8_t> Truncated(const std::vector<uint8_t>& s, size_t len) {
  return std::vector<uint8_t>(s.begin(), s.begin() + static_cast<std::ptrdiff_t>(len));
}

// `s` with 1 to `max_extra` random bytes appended.
inline std::vector<uint8_t> Appended(Rng& rng, const std::vector<uint8_t>& s,
                                     uint64_t max_extra = 16) {
  std::vector<uint8_t> grown = s;
  for (uint64_t n = rng.Range(1, max_extra); n > 0; n--) {
    grown.push_back(static_cast<uint8_t>(rng.Next()));
  }
  return grown;
}

inline uint64_t GetLe64(const std::vector<uint8_t>& b, size_t off) {
  uint64_t v = 0;
  for (size_t i = 0; i < 8; i++) {
    v |= static_cast<uint64_t>(b[off + i]) << (8 * i);
  }
  return v;
}

inline void PutLe64(std::vector<uint8_t>* b, size_t off, uint64_t v) {
  for (size_t i = 0; i < 8; i++) {
    (*b)[off + i] = static_cast<uint8_t>(v >> (8 * i));
  }
}

// `s` with the little-endian u64 at `off` replaced by `v`.
inline std::vector<uint8_t> WithU64(const std::vector<uint8_t>& s, size_t off, uint64_t v) {
  std::vector<uint8_t> out = s;
  PutLe64(&out, off, v);
  return out;
}

// An output buffer of `len` bytes between two guard zones, so a test can
// tell whether a decoder wrote outside the span it was handed.
class GuardedBuffer {
 public:
  static constexpr size_t kGuard = 64;
  static constexpr uint8_t kFill = 0x5a;

  explicit GuardedBuffer(size_t len) : len_(len), buf_(kGuard + len + kGuard, kFill) {}
  uint8_t* data() { return buf_.data() + kGuard; }
  bool BeforeIntact() const { return Intact(0); }
  bool AfterIntact() const { return Intact(kGuard + len_); }

 private:
  bool Intact(size_t from) const {
    return std::all_of(buf_.begin() + static_cast<std::ptrdiff_t>(from),
                       buf_.begin() + static_cast<std::ptrdiff_t>(from + kGuard),
                       [](uint8_t b) { return b == kFill; });
  }

  size_t len_;
  std::vector<uint8_t> buf_;
};

// Outcome counts by name, printed as " name=count" in name order.
class Tally {
 public:
  void Add(const std::string& outcome) { counts_[outcome]++; }
  uint64_t operator[](const std::string& outcome) const {
    auto it = counts_.find(outcome);
    return it == counts_.end() ? 0 : it->second;
  }
  uint64_t Total() const {
    uint64_t n = 0;
    for (const auto& [outcome, count] : counts_) {
      n += count;
    }
    return n;
  }
  std::string Summary() const {
    std::string out;
    for (const auto& [outcome, count] : counts_) {
      out += " " + outcome + "=" + std::to_string(count);
    }
    return out;
  }

 private:
  std::map<std::string, uint64_t> counts_;
};

}  // namespace aurora::mutation

// Out of line, so the compiler never sees free() meet operator new's result.
[[gnu::noinline]] void* operator new(size_t n) {
  aurora::mutation::g_largest_alloc = std::max(aurora::mutation::g_largest_alloc, n);
  if (n <= aurora::mutation::kAllocCeiling) {
    if (void* p = std::malloc(n == 0 ? 1 : n)) {
      return p;
    }
  }
  throw std::bad_alloc();
}
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, size_t /*n*/) noexcept { std::free(p); }

#endif  // TESTS_MUTATION_HARNESS_H_
