// Bounded retry with exponential backoff for transient I/O failures.
//
// Real NVMe and network stacks mask transient errors (command timeouts,
// link resets) by retrying a bounded number of times before surfacing the
// failure. Every device IO of Aurora's store goes through this policy, so
// the fault matrix exercises one retry semantics everywhere:
//   * only Errc::kIoError is retried — it marks transient faults. A CRC
//     mismatch (kCorrupt) means the media returned wrong bytes; retrying
//     cannot help and would mask real corruption.
//   * each retry waits out its backoff on the submitter's timeline, so
//     retries are visible in every latency number, not free: the
//     application's clock for a foreground I/O, the flush lane's own
//     timeline for a lane's block write (the application keeps running;
//     the block, and the checkpoint's durability, land later).
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

// Runs `attempt(submit)` until it succeeds, fails with a non-transient
// error, or the policy's attempt budget is exhausted. Works for callables
// returning either Status or Result<T>. With `lane` null every attempt
// submits at the clock's now and a backoff advances the clock; otherwise
// every attempt submits at *lane and a backoff advances *lane. Retries count
// into "io.retries"; an exhausted budget counts into "io.giveups" and
// returns the last transient error.
template <typename Fn>
auto RetryIo(SimContext* sim, const IoRetryPolicy& policy, SimTime* lane, Fn&& attempt)
    -> decltype(attempt(SimTime{})) {
  auto submit_at = [&] { return lane != nullptr ? *lane : sim->clock.now(); };
  auto r = attempt(submit_at());
  if (!IsTransientIo(r)) {
    return r;
  }
  SimDuration backoff = policy.initial_backoff;
  for (int tries = 1; tries < policy.max_attempts; tries++) {
    sim->metrics.counter("io.retries").Add();
    if (lane != nullptr) {
      *lane += backoff;
    } else {
      sim->clock.Advance(backoff);
    }
    backoff = std::min<SimDuration>(
        static_cast<SimDuration>(static_cast<double>(backoff) * policy.backoff_multiplier),
        policy.max_backoff);
    r = attempt(submit_at());
    if (!IsTransientIo(r)) {
      return r;
    }
  }
  sim->metrics.counter("io.giveups").Add();
  return r;
}

}  // namespace aurora

#endif  // SRC_BASE_IO_RETRY_H_
