// Bounded retry with exponential backoff for transient I/O failures.
//
// Real NVMe and network stacks mask transient errors (command timeouts,
// link resets) by retrying a bounded number of times before surfacing the
// failure. Every device IO of Aurora's store goes through this policy, so
// the fault matrix exercises one retry semantics everywhere:
//   * only Errc::kIoError is retried — it marks transient faults. A CRC
//     mismatch (kCorrupt) means the media returned wrong bytes; retrying
//     cannot help and would mask real corruption.
//   * each retry charges its backoff to the simulated clock, so retries are
//     visible in every latency number, not free.
//   * a first-attempt success touches neither the clock nor the metrics
//     registry: fault-free runs are time-identical to the no-retry engine.
#ifndef SRC_BASE_IO_RETRY_H_
#define SRC_BASE_IO_RETRY_H_

#include <algorithm>
#include <utility>

#include "src/base/result.h"
#include "src/base/sim_context.h"
#include "src/base/units.h"

namespace aurora {

struct IoRetryPolicy {
  int max_attempts = 4;  // total attempts, including the first
  SimDuration initial_backoff = 50 * kMicrosecond;
  double backoff_multiplier = 4.0;
  SimDuration max_backoff = 5 * kMillisecond;

  static IoRetryPolicy FromCost(const CostModel& cost) {
    IoRetryPolicy policy;
    policy.initial_backoff = cost.io_retry_backoff;
    return policy;
  }
};

inline bool IsTransientIo(const Status& s) { return s.code() == Errc::kIoError; }
template <typename T>
bool IsTransientIo(const Result<T>& r) {
  return !r.ok() && r.status().code() == Errc::kIoError;
}

// Runs `attempt` until it succeeds, fails with a non-transient error, or the
// policy's attempt budget is exhausted. Works for callables returning either
// Status or Result<T>. Retries count into "io.retries"; an exhausted budget
// counts into "io.giveups" and returns the last transient error.
template <typename Fn>
auto RetryIo(SimContext* sim, const IoRetryPolicy& policy, Fn&& attempt) -> decltype(attempt()) {
  auto r = attempt();
  if (!IsTransientIo(r)) {
    return r;
  }
  SimDuration backoff = policy.initial_backoff;
  for (int tries = 1; tries < policy.max_attempts; tries++) {
    sim->metrics.counter("io.retries").Add();
    sim->clock.Advance(backoff);
    backoff = std::min<SimDuration>(
        static_cast<SimDuration>(static_cast<double>(backoff) * policy.backoff_multiplier),
        policy.max_backoff);
    r = attempt();
    if (!IsTransientIo(r)) {
      return r;
    }
  }
  sim->metrics.counter("io.giveups").Add();
  return r;
}

}  // namespace aurora

#endif  // SRC_BASE_IO_RETRY_H_
