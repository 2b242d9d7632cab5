// Unified metrics layer (observability substrate).
//
// Every subsystem reports into one MetricsRegistry hung off the SimContext:
// named monotonic counters (events, bytes), gauges (instantaneous levels)
// and simulated-time histograms (per-phase latencies). The registry is pure
// observation: recording a metric never advances the simulated clock, so
// instrumented and uninstrumented runs are time-identical.
//
// Naming convention: dotted lowercase paths, "<subsystem>.<what>", e.g.
// "store.blocks_allocated", "device.bytes_written", "ckpt.stop_time".
// References returned by counter()/gauge()/histogram() are stable for the
// registry's lifetime, so hot paths can cache them.
#ifndef SRC_OBS_METRICS_H_
#define SRC_OBS_METRICS_H_

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "src/base/units.h"

namespace aurora {

class Counter {
 public:
  void Add(uint64_t n = 1) { value_ += n; }
  uint64_t value() const { return value_; }

 private:
  uint64_t value_ = 0;
};

class Gauge {
 public:
  void Set(int64_t v) { value_ = v; }
  void Add(int64_t n = 1) { value_ += n; }
  void Sub(int64_t n = 1) { value_ -= n; }
  int64_t value() const { return value_; }

 private:
  int64_t value_ = 0;
};

// Log-bucketed histogram of simulated durations (HdrHistogram-style): 32
// sub-buckets per power of two, so tail percentiles from nanoseconds to
// kiloseconds keep ~3% resolution in bounded memory.
class SimHistogram {
 public:
  SimHistogram();

  void Record(SimDuration nanos);
  void Merge(const SimHistogram& other);
  void Reset();

  uint64_t count() const { return count_; }
  uint64_t sum() const { return sum_; }
  SimDuration Min() const { return count_ ? min_ : 0; }
  SimDuration Max() const { return max_; }
  double MeanNanos() const {
    return count_ ? static_cast<double>(sum_) / static_cast<double>(count_) : 0;
  }
  // Upper bound of the first bucket whose cumulative count reaches
  // p/100 * count() (p in [0,100]), capped at Max().
  SimDuration Percentile(double p) const;

 private:
  static constexpr int kSubBuckets = 32;  // per power of two
  static constexpr int kMaxPower = 44;    // covers up to ~17.6 ks in ns

  size_t BucketFor(SimDuration v) const;
  SimDuration BucketUpper(size_t idx) const;

  std::vector<uint64_t> buckets_;
  uint64_t count_ = 0;
  uint64_t sum_ = 0;
  SimDuration min_ = 0;
  SimDuration max_ = 0;
};

class MetricsRegistry {
 public:
  Counter& counter(const std::string& name) { return counters_[name]; }
  Gauge& gauge(const std::string& name) { return gauges_[name]; }
  SimHistogram& histogram(const std::string& name) { return histograms_[name]; }

  // Value readers for tests and exporters; 0 for a name never recorded.
  uint64_t CounterValue(const std::string& name) const;
  int64_t GaugeValue(const std::string& name) const;

  // Snapshot of every counter under a dotted prefix (e.g. "repl."), in name
  // order — for status verbs that report one subsystem.
  std::vector<std::pair<std::string, uint64_t>> CountersWithPrefix(
      const std::string& prefix) const;

  const std::map<std::string, Counter>& counters() const { return counters_; }
  const std::map<std::string, Gauge>& gauges() const { return gauges_; }
  const std::map<std::string, SimHistogram>& histograms() const { return histograms_; }

  void Reset();

 private:
  // std::map: stable references across inserts, deterministic export order.
  std::map<std::string, Counter> counters_;
  std::map<std::string, Gauge> gauges_;
  std::map<std::string, SimHistogram> histograms_;
};

}  // namespace aurora

#endif  // SRC_OBS_METRICS_H_
