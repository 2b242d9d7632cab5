// Size and time unit helpers shared across the Aurora code base.
#ifndef SRC_BASE_UNITS_H_
#define SRC_BASE_UNITS_H_

#include <cstdint>

namespace aurora {

inline constexpr uint64_t kKiB = 1024;
inline constexpr uint64_t kMiB = 1024 * kKiB;
inline constexpr uint64_t kGiB = 1024 * kMiB;

// Page size of the simulated MMU. Matches x86-64 base pages, which is what
// the paper's incremental tracking granularity is.
inline constexpr uint64_t kPageSize = 4 * kKiB;
inline constexpr uint64_t kPageShift = 12;

constexpr uint64_t PagesOf(uint64_t bytes) { return bytes / kPageSize + (bytes % kPageSize != 0); }
constexpr uint64_t PageTrunc(uint64_t addr) { return addr & ~(kPageSize - 1); }
constexpr uint64_t PageRound(uint64_t addr) { return (addr + kPageSize - 1) & ~(kPageSize - 1); }

// Simulated time is kept in nanoseconds in a 64-bit counter.
using SimTime = uint64_t;      // absolute nanoseconds since simulation start
using SimDuration = uint64_t;  // nanoseconds

inline constexpr SimDuration kNanosecond = 1;
inline constexpr SimDuration kMicrosecond = 1000;
inline constexpr SimDuration kMillisecond = 1000 * kMicrosecond;
inline constexpr SimDuration kSecond = 1000 * kMillisecond;

constexpr double ToMicros(SimDuration d) { return static_cast<double>(d) / kMicrosecond; }
constexpr double ToMillis(SimDuration d) { return static_cast<double>(d) / kMillisecond; }
constexpr double ToSeconds(SimDuration d) { return static_cast<double>(d) / kSecond; }

}  // namespace aurora

#endif  // SRC_BASE_UNITS_H_
