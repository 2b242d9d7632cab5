// Shared machinery of the repository benchmark: the host stopwatch, sample
// statistics, page-content hashing, the benchmark's own span tracer and the
// open-loop request driver the three workloads share. The simulated machine
// and the Table 6 application profiles come from bench/bench_common.h.
#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "src/base/result.h"
#include "src/base/rng.h"
#include "src/base/sim_context.h"

namespace aurora::perfbench {

// --- Host clock ---------------------------------------------------------------

// Host seconds since an arbitrary origin. With HostCpuNow, the only host
// clock reads in the benchmark: simulated time is the reproduction's claim,
// host time is what the simulator costs to run, and only these helpers may
// observe the latter.
double HostNow();
// Host CPU seconds the calling thread has run. The benchmark is one thread,
// so this is its host time less the time the host ran other tenants instead
// (steal time, which the kernel leaves out of a thread's CPU time).
double HostCpuNow();

class HostStopwatch {
 public:
  explicit HostStopwatch(double (*clock)() = HostNow) : clock_(clock), start_(clock()) {}
  double Seconds() const { return clock_() - start_; }
  void Restart() { start_ = clock_(); }

 private:
  double (*clock_)();
  double start_;
};

// Peak resident set of this process, in MiB.
double PeakRssMib();

// --- Sample statistics ----------------------------------------------------------

// Exact order statistic (nearest rank) of an unsorted sample; 0 when empty.
double Quantile(std::vector<double> samples, double q);
double Median(const std::vector<double>& samples);
// The tail the *_p99_* metrics report, as {percentile, value}: p99 when at
// least ten samples lie beyond it, else p90, else p50.
std::pair<double, double> SupportedTail(const std::vector<double>& samples);

// --- Host speed -------------------------------------------------------------------

// The host's speed while the benchmark runs, from the CPU time of a fixed
// probe: a byte-at-a-time table CRC-32C over a fixed 256 KiB buffer, the kind
// of loop that dominates the workloads' host time. The probe is the
// benchmark's own code, so no change to src/ changes it. On a shared host,
// other tenants slow a thread's CPU for minutes at a time (by up to ~60 %
// measured here), far past any in-run repetition; the probe slows with the
// workload, so host times scaled by it compare across such phases.
class HostSpeed {
 public:
  HostSpeed();
  // Times the probe `times` times.
  void Sample(int times);
  // Median probe CPU seconds over every sample so far.
  double probe_seconds() const { return Median(samples_); }
  // `seconds` measured in this run, at the reference speed: times
  // kReferenceProbeSeconds / probe_seconds().
  double ToReference(double seconds) const;
  // The probe's median on an otherwise idle 4-vCPU KVM guest of a Xeon
  // (Sapphire Rapids) host, which the reported host times are scaled to.
  static constexpr double kReferenceProbeSeconds = 750e-6;

 private:
  uint32_t table_[256];
  std::vector<uint8_t> buf_;
  std::vector<double> samples_;
  uint32_t sink_ = 0;  // keeps each probe's result observable
};

// --- Content hashing (checks only; never on a timed path) -------------------------

uint64_t HashBytes(const void* data, size_t len, uint64_t seed = 0);

// Order-independent digest of a paged image: every page contributes a mix of
// its key and its content hash, and pages combine by XOR, so a single page
// rewrite updates the digest in O(1).
class PageModel {
 public:
  // Records that page `key` now holds content with hash `content`.
  void Set(uint64_t key, uint64_t content);
  uint64_t digest() const { return digest_; }
  uint64_t pages() const { return pages_.size(); }
  // Undo log of every Set since the last Commit; Rollback restores the
  // model to the last committed state.
  void Commit() { undo_.clear(); }
  void Rollback();
  static uint64_t Mix(uint64_t key, uint64_t content);

 private:
  std::map<uint64_t, uint64_t> pages_;
  std::vector<std::pair<uint64_t, std::optional<uint64_t>>> undo_;  // key, old content
  uint64_t digest_ = 0;
};

// --- Span tracer ---------------------------------------------------------------------

// Records host- and simulated-clock spans around the benchmark's calls into
// each layer's public functions. Spans nest through an explicit stack, so a
// span's parent is whichever span was open when it began; per-layer self time
// is a span's duration minus the part its children cover. Disabled, a Scope
// costs one branch.
class Tracer {
 public:
  struct Span {
    const char* name = nullptr;
    const char* layer = nullptr;
    uint64_t id = 0;       // epoch or operation the span belongs to
    int64_t parent = -1;   // index into spans(), -1 = root
    double host_begin = 0;  // host seconds
    double host_end = 0;
    SimTime sim_begin = 0;
    SimTime sim_end = 0;
  };
  struct NameTotals {
    uint64_t calls = 0;
    uint64_t units = 0;  // caller-defined work units (e.g. bytes)
    double host_s = 0;
  };
  struct LayerTotals {
    double self_host_s = 0;
    SimDuration self_sim = 0;
  };

  // Spans read the simulated time of whichever machine is current.
  void set_clock(const SimClock* clock) { clock_ = clock; }
  bool enabled() const { return enabled_; }
  void set_enabled(bool on) { enabled_ = on; }

  class Scope {
   public:
    Scope(Tracer* tracer, const char* name, const char* layer, uint64_t id, uint64_t units = 0);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* tracer_;
    size_t open_ = 0;
  };

  // Totals per span name and per layer, merged across call sites.
  std::map<std::string, NameTotals> by_name() const;
  std::map<std::string, LayerTotals> by_layer() const;
  uint64_t spans_recorded() const { return recorded_; }
  // Chrome trace-event JSON of the kept spans: pid 1 on the host clock, pid 2
  // on the simulated clock.
  bool WriteChromeTrace(const std::string& path) const;

 private:
  struct Open {
    size_t kept = SIZE_MAX;  // index into spans_ (SIZE_MAX = not kept)
    const char* name;
    const char* layer;
    uint64_t units;
    double host_begin;
    SimTime sim_begin;
    double child_host = 0;
    SimDuration child_sim = 0;
  };
  size_t Begin(const char* name, const char* layer, uint64_t id, uint64_t units);
  void End(size_t open);

  static constexpr size_t kMaxKept = 20000;  // spans exported; totals cover all
  const SimClock* clock_ = nullptr;
  bool enabled_ = false;
  std::vector<Open> stack_;
  std::vector<Span> spans_;
  uint64_t recorded_ = 0;
  // Keyed by the literal's address so the hot path never builds a string.
  std::map<const char*, NameTotals> by_name_;
  std::map<const char*, LayerTotals> by_layer_;
};

// --- Open-loop request driver --------------------------------------------------------

// Latency samples and checkpoint results of one measured window.
struct WindowStats {
  std::vector<double> latency_us;     // per op, from its scheduled arrival
  std::vector<double> queue_wait_us;  // per op, arrival to service start
  uint64_t ops = 0;
  uint64_t failed = 0;
  SimDuration span = 0;         // simulated length of the window
  double backlog_us = 0;  // mean queue wait of the last quarter of ops
};

// Drives one workload's foreground ops as Poisson arrivals at `rate_per_sec`
// for `length` of simulated time, firing a checkpoint whenever the period
// elapses (the fig5 loop: ops arriving during a stop wait it out). `op`
// executes one op at the current simulated time and returns the extra
// client-side latency beyond the server timeline (e.g. the network RTT);
// `checkpoint` runs one periodic epoch and returns when the next may start.
struct OpenLoop {
  SimContext* sim = nullptr;
  Rng* arrivals = nullptr;
  std::function<Result<SimDuration>(uint64_t op_index)> op;
  std::function<Result<SimTime>()> checkpoint;
  SimTime next_ckpt = 0;
  uint64_t op_index = 0;

  [[nodiscard]] Status Run(double rate_per_sec, SimDuration length, WindowStats* out);
};

}  // namespace aurora::perfbench

#endif  // PERFBENCH_HARNESS_H_
