// Discrete-event simulation engine for client/server benchmarks.
//
// The paper's Memcached and RocksDB evaluations are queueing systems: load
// generators, worker threads, periodic checkpoints that stall service.
// EventQueue provides deterministic discrete-event execution on the shared
// SimClock: events fire in (time, sequence) order and may schedule further
// events.
#ifndef SRC_BASE_EVENT_QUEUE_H_
#define SRC_BASE_EVENT_QUEUE_H_

#include <cstdint>
#include <functional>
#include <queue>
#include <vector>

#include "src/base/sim_clock.h"
#include "src/base/units.h"

namespace aurora {

class EventQueue {
 public:
  explicit EventQueue(SimClock* clock) : clock_(clock) {}

  // Schedules `fn` to run at absolute simulated time `when` (clamped to now).
  void At(SimTime when, std::function<void()> fn) {
    if (when < clock_->now()) {
      when = clock_->now();
    }
    events_.push(Event{when, next_seq_++, std::move(fn)});
  }

  // Schedules `fn` to run `delay` nanoseconds from now.
  void After(SimDuration delay, std::function<void()> fn) {
    At(clock_->now() + delay, std::move(fn));
  }

  bool empty() const { return events_.empty(); }
  size_t size() const { return events_.size(); }

  // Runs one event, advancing the clock to its firing time. Returns false if
  // the queue is empty.
  bool RunOne() {
    if (events_.empty()) {
      return false;
    }
    Event ev = events_.top();
    events_.pop();
    clock_->AdvanceTo(ev.when);
    ev.fn();
    return true;
  }

  // Runs events until the queue is empty or the clock passes `deadline`.
  void RunUntil(SimTime deadline) {
    while (!events_.empty() && events_.top().when <= deadline) {
      RunOne();
    }
    clock_->AdvanceTo(deadline);
  }

  void RunAll() {
    while (RunOne()) {
    }
  }

  SimClock* clock() { return clock_; }

 private:
  struct Event {
    SimTime when;
    uint64_t seq;
    std::function<void()> fn;
    bool operator>(const Event& other) const {
      if (when != other.when) {
        return when > other.when;
      }
      return seq > other.seq;
    }
  };

  SimClock* clock_;
  uint64_t next_seq_ = 0;
  std::priority_queue<Event, std::vector<Event>, std::greater<Event>> events_;
};

}  // namespace aurora

#endif  // SRC_BASE_EVENT_QUEUE_H_
