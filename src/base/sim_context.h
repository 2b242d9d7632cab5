// Shared simulation context: the clock, the cost model, the event queue and
// the machine shape. One SimContext corresponds to one simulated machine.
#ifndef SRC_BASE_SIM_CONTEXT_H_
#define SRC_BASE_SIM_CONTEXT_H_

#include <algorithm>
#include <cstddef>
#include <vector>

#include "src/base/cost_model.h"
#include "src/base/event_queue.h"
#include "src/base/sim_clock.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"

namespace aurora {

// Fork/join accounting for work spread over parallel flush lanes. Each lane
// is an independent timeline (a core driving its own device queue); an item
// dispatched to a lane starts no earlier than the lane's previous completion,
// and the join point is the makespan: the max over lane timelines. Lane
// selection is least-loaded-lowest-index, which is fully determined by the
// dispatch order, so reruns are deterministic. With one lane this degrades to
// the serial sum the rest of the cost model already uses.
class LaneSchedule {
 public:
  explicit LaneSchedule(int lanes, SimTime start = 0)
      : free_(static_cast<size_t>(lanes < 1 ? 1 : lanes), start) {}

  // Lane that becomes free earliest (ties break to the lowest index).
  int NextLane() const {
    return static_cast<int>(std::min_element(free_.begin(), free_.end()) - free_.begin());
  }
  // The chosen lane cannot start before its previous item completed.
  SimTime StartOn(int lane, SimTime now) const {
    return std::max(now, free_[static_cast<size_t>(lane)]);
  }
  void Occupy(int lane, SimTime until) {
    free_[static_cast<size_t>(lane)] = std::max(free_[static_cast<size_t>(lane)], until);
  }
  // Join: all lanes have drained.
  SimTime Makespan() const { return *std::max_element(free_.begin(), free_.end()); }
  int lanes() const { return static_cast<int>(free_.size()); }

 private:
  std::vector<SimTime> free_;
};

struct SimContext {
  SimContext() : events(&clock), tracer(&clock) {}
  explicit SimContext(CostModel model) : cost(model), events(&clock), tracer(&clock) {}

  SimClock clock;
  CostModel cost;
  EventQueue events;
  // Unified observability: every subsystem of this machine reports into one
  // registry, and the checkpoint/restore pipelines trace phase spans here.
  // Recording is pure observation and never advances the clock.
  MetricsRegistry metrics;
  SpanTracer tracer;
  // Paper testbed: dual Xeon Silver 4116 = 24 cores / 48 threads. IPI and
  // TLB shootdown costs scale with the cores an application runs on.
  int ncpus = 24;
  // How many cores the checkpoint flusher forks across, fixed per machine:
  // set it before building the store and the backends, which read
  // FlushLanes() once, when they are built. Each lane drives its own device
  // submission queue; 1 keeps the historical serial flush timeline exactly.
  int flush_lanes = 1;
  // The lane count every component builds with: flush_lanes clamped to
  // [1, ncpus].
  int FlushLanes() const { return std::max(1, std::min(flush_lanes, ncpus)); }
};

}  // namespace aurora

#endif  // SRC_BASE_SIM_CONTEXT_H_
