// The benchmark's workload base: the shared open-loop op stream and rate
// sweep, checkpoint/restore recording, registry snapshots and the mapping
// from recorded samples to the named end-to-end and per-layer metrics.
#ifndef PERFBENCH_WORKLOAD_H_
#define PERFBENCH_WORKLOAD_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "perfbench/harness.h"
#include "src/core/cli.h"

namespace aurora::perfbench {

struct Metric {
  double value = 0;
  std::string unit;
};
using MetricMap = std::map<std::string, Metric>;

// Host-clock rates of the base-layer primitives, measured on seeded buffers.
struct BaseRates {
  double crc32c_gbps_4k = 0;
  double crc32c_gbps_64k = 0;
  double content_hash_gbps_4k = 0;
  double content_hash_gbps_64k = 0;
  double lz_compress_gbps = 0;    // 64 KiB extents
  double lz_decompress_gbps = 0;  // 64 KiB extents
};
BaseRates CalibrateBase(uint64_t seed);

// Static shape of a workload, fixed per workload name.
struct Shape {
  double ref_rate = 0;                  // reference op rate (ops/s)
  SimDuration round_length = 0;         // simulated time per measured round
  double sweep_start = 0;               // first rate the sweep tries (ops/s)
  SimDuration sweep_length = 0;         // simulated time per sweep window
  double slo_p99_us = 0;                // latency limit of max_kops_at_slo
  double nominal_round_host_s = 0;      // sizes the round count for --seconds
};

class Workload {
 public:
  Workload(std::string name, uint64_t seed, Shape shape)
      : name_(std::move(name)), seed_(seed), shape_(shape), arrivals_(seed * 0x2545f4914f6cdd1dull + 7) {}
  virtual ~Workload() = default;
  Workload(const Workload&) = delete;
  Workload& operator=(const Workload&) = delete;

  const std::string& name() const { return name_; }
  const Shape& shape() const { return shape_; }
  Tracer* tracer() { return &tracer_; }

  // Builds a fresh simulated machine: format, profile build, warm-up and the
  // baseline checkpoint. Timed as setup_s.
  [[nodiscard]] virtual Status Setup() = 0;
  // One measured round: the workload's fixed input unit. Host seconds spent
  // in correctness checks inside the round accumulate in check_seconds().
  [[nodiscard]] virtual Status Round(int round) = 0;
  // End-of-run drills and correctness checks. Not part of host_s.
  [[nodiscard]] virtual Status Finish() = 0;
  // Digest of the generated inputs (the seed self-check compares it).
  virtual uint64_t InputDigest() const = 0;

  // Open-loop windows at searched rates: 1.25x steps up or down from
  // sweep_start bracket the rate at which the latency limit is reached
  // (p99 or backlog), then geometric bisection narrows the bracket to
  // kSweepResolution. max_kops_at_slo is where a log-log line fitted
  // through the windows near the bracket crosses the limit.
  [[nodiscard]] Status Sweep();
  static constexpr double kSweepResolution = 0.02;

  // Registry snapshot at the start of measurement and at its end; counters
  // in the report are deltas between the two.
  void BeginMeasurement();
  void EndMeasurement();

  void set_rounds_measured(int rounds) { rounds_measured_ = rounds; }
  double check_seconds() const { return check_seconds_; }
  // Host CPU seconds of the current round's segments, checks excluded. A round
  // splits at fixed points of its input: the reference window into
  // kWindowSegments equal slices of simulated time, then whatever follows
  // it (the drill), which EndSegment() after the round closes. Segment k of
  // every round does the same work.
  void BeginRoundSegments();
  void EndSegment();
  const std::vector<double>& round_segments() const { return segments_; }
  static constexpr int kWindowSegments = 8;
  uint64_t attempted() const { return attempted_; }
  uint64_t failed() const { return failed_; }
  bool correct() const { return checks_failed_ == 0; }

  // Simulated-clock metrics and registry counters, deterministic per seed.
  MetricMap SimMetrics() const;
  // Digest of every registry counter's delta over the measurement.
  uint64_t CounterDigest() const;
  // Every per-layer metric; host-clock ones come from the tracer.
  // `measured_host_s` is the host time of the whole measurement, checks
  // excluded.
  MetricMap PerLayer(const BaseRates& rates, double measured_host_s) const;

 protected:
  SimContext& sim() { return machine_->sim; }
  // Installs `machine` as the current one (the tracer follows its clock).
  void Adopt(std::unique_ptr<BenchMachine> machine);
  // Hooks the open loop to this workload's op and checkpoint.
  void ArmLoop(ConsistencyGroup* group);
  // One foreground op at the current simulated time; returns the client-side
  // latency beyond the server timeline.
  [[nodiscard]] virtual Result<SimDuration> Op(uint64_t index) = 0;
  // Per-epoch epilogue after a committed checkpoint (GC, standby pump).
  [[nodiscard]] virtual Status AfterCheckpoint(const CheckpointResult& result) {
    (void)result;
    return Status::Ok();
  }

  // Whether the rate sweep is running: it comes after the last check that
  // reads a workload's content model.
  bool sweeping() const { return sweeping_; }
  // Bytes the checkpoint destination holds, for space_amp.
  virtual uint64_t UsedBytes() const;

  // A periodic checkpoint of `group_`, recorded and traced.
  [[nodiscard]] Result<SimTime> PeriodicCheckpoint();
  [[nodiscard]] Result<CheckpointResult> TracedCheckpoint(ConsistencyGroup* group);
  [[nodiscard]] Result<RestoreResult> TracedRestore(const std::string& group, RestoreMode mode,
                                                    CheckpointBackend* backend = nullptr);
  // Reference-rate window of one round.
  [[nodiscard]] Status RunReferenceWindow();
  // Records a failed correctness check; the run reports correct = false.
  void CheckFailed(const std::string& what);
  // Host time spent on correctness checks and the content model: excluded
  // from host_s, and traced as the "check" layer.
  class CheckTimer {
   public:
    explicit CheckTimer(Workload* w)
        : w_(w), span_(&w->tracer_, "Check", "check", 0), watch_(HostCpuNow) {}
    ~CheckTimer() { w_->check_seconds_ += watch_.Seconds(); }
    CheckTimer(const CheckTimer&) = delete;
    CheckTimer& operator=(const CheckTimer&) = delete;

   private:
    Workload* w_;
    Tracer::Scope span_;
    HostStopwatch watch_;
  };

  // Traced wrappers of the Kernel and vm() calls the workloads make.
  [[nodiscard]] Status VmWrite(Process* proc, uint64_t addr, const void* data, uint64_t len);

  std::string name_;
  uint64_t seed_;
  Shape shape_;
  std::unique_ptr<BenchMachine> machine_;
  ConsistencyGroup* group_ = nullptr;
  Tracer tracer_;
  Rng arrivals_;
  OpenLoop loop_;
  uint64_t epoch_id_ = 0;  // trace id of the current checkpoint epoch

  // --- Recorded samples (simulated clock) ---------------------------------
  WindowStats reference_;
  double max_kops_at_slo_ = 0;
  std::vector<double> stop_us_, quiesce_us_, serialize_us_, shadow_us_, durable_ms_;
  std::vector<double> restore_ms_, lazy_restore_ms_;
  std::vector<double> fs_dirty_bytes_;
  std::vector<double> space_amp_;
  uint64_t checkpoints_ = 0;
  uint64_t aborted_ = 0;
  uint64_t kv_ops_ = 0;
  uint64_t app_bytes_written_ = 0;
  uint64_t failover_delta_pages_ = 0;
  int64_t lag_epochs_max_ = 0;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
  // Live application bytes space_amp divides by, and whether the current
  // round samples it (second half of the run).
  uint64_t live_bytes_ = 0;
  bool sample_space_ = false;
  bool sweeping_ = false;  // checkpoint samples are not recorded in the sweep
  int rounds_measured_ = 0;

 private:
  double check_seconds_ = 0;
  uint64_t checks_failed_ = 0;
  HostStopwatch segment_watch_{HostCpuNow};
  double segment_checks_ = 0;  // check_seconds_ when the segment began
  std::vector<double> segments_;
  // Registry snapshots.
  std::map<std::string, uint64_t> counters_begin_, counters_end_;
  StoreStats store_begin_, store_end_;
  SegmentStats segments_end_;
  uint64_t used_blocks_end_ = 0;
  SimTime sim_begin_ = 0, sim_end_ = 0;
  double queue_delay_p99_us_ = 0;
  int flush_lanes_ = 1;

  // Device bytes written plus replica bytes shipped, as of now.
  uint64_t WrittenBytes() const;
  // write_amp covers the rounds (the reference load), not the sweep.
  uint64_t bytes_written_begin_ = 0;
  uint64_t rounds_bytes_written_ = 0;
  uint64_t rounds_app_bytes_ = 0;

  uint64_t Delta(const std::string& counter) const;
  uint64_t DeltaPrefixSuffix(const std::string& prefix, const std::string& suffix) const;
};

std::unique_ptr<Workload> MakeKvEtc(uint64_t seed);
std::unique_ptr<Workload> MakeAppStandby(uint64_t seed);
std::unique_ptr<Workload> MakeChurnGc(uint64_t seed);

}  // namespace aurora::perfbench

#endif  // PERFBENCH_WORKLOAD_H_
