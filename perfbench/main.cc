// The repository benchmark's runner (see README.md).
//
//   perfbench --workload <kv_etc|app_standby|churn_gc> --seed <n>
//             --seconds <s> --trace <0|1> [--trace-out <file.json>]
//
// A run sets the workload up several times (setup_s is the median), then
// measures a number of rounds sized from --seconds, sweeps the op rate for
// max_kops_at_slo, and finishes with the workload's correctness checks. The
// last stdout line is one JSON object: correct, attempted, failed, metrics.
// --trace 0 reports the end-to-end metrics; --trace 1 alternates traced and
// untraced rounds and reports the per-layer metrics plus the tracing
// overhead. Simulated-clock metrics depend only on the seed and --seconds;
// the line before the result names the seed and digests of the generated
// inputs and of every registry counter, which run.py --self-check compares.
#include <malloc.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "perfbench/workload.h"

namespace aurora::perfbench {
namespace {

constexpr int kSetups = 3;
constexpr int kProbesPerSample = 8;  // host-speed probes after each set-up and round

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string trace_out;
};

std::unique_ptr<Workload> Make(const std::string& name, uint64_t seed) {
  if (name == "kv_etc") return MakeKvEtc(seed);
  if (name == "app_standby") return MakeAppStandby(seed);
  if (name == "churn_gc") return MakeChurnGc(seed);
  return nullptr;
}

// host_s: each segment of the round at its fastest repetition, summed.
// Other tenants of a shared host only ever slow the program down, in phases
// from under a second to minutes long; a segment is short enough that some
// repetition of it usually falls in a quiet phase even when no whole round
// does. Every round has the same segments, so the sum covers one round's
// whole input once.
double FastestSegmentsSum(const std::vector<std::vector<double>>& rounds) {
  double sum = 0;
  for (size_t k = 0; !rounds.empty() && k < rounds.front().size(); k++) {
    double fastest = rounds.front()[k];
    for (const std::vector<double>& round : rounds) {
      fastest = std::min(fastest, round.at(k));
    }
    sum += fastest;
  }
  return sum;
}

int RoundsFor(const Shape& shape, double seconds) {
  return std::max(4, 2 * static_cast<int>(std::ceil(seconds / shape.nominal_round_host_s / 2)));
}

struct RunResult {
  std::unique_ptr<Workload> workload;
  std::vector<double> setup_s;
  std::vector<double> untraced_round_s;
  std::vector<std::vector<double>> untraced_segments_s;  // per untraced round
  std::vector<double> traced_round_s;
  HostSpeed speed;
  double measured_host_s = 0;  // rounds, sweep and drills, checks excluded
  int rounds = 0;
};

// Set-up, measured rounds, sweep and checks of one workload. Null workload
// on a failure that leaves no result to report.
RunResult Execute(const Options& opt) {
  RunResult run;
  for (int i = 0; i < kSetups; i++) {
    run.workload.reset();  // one machine alive at a time
    std::unique_ptr<Workload> w = Make(opt.workload, opt.seed);
    HostStopwatch watch(HostCpuNow);
    Status st = w->Setup();
    run.setup_s.push_back(watch.Seconds());
    run.speed.Sample(kProbesPerSample);
    if (!st.ok()) {
      std::fprintf(stderr, "perfbench: %s setup failed: %s\n", opt.workload.c_str(),
                   st.message().c_str());
      return RunResult{};
    }
    run.workload = std::move(w);
  }
  Workload* w = run.workload.get();
  Tracer* tracer = w->tracer();
  run.rounds = RoundsFor(w->shape(), opt.seconds);
  HostStopwatch measured(HostCpuNow);
  const double setup_checks = w->check_seconds();
  w->set_rounds_measured(run.rounds);
  w->BeginMeasurement();
  for (int r = 0; r < run.rounds; r++) {
    // Traced and untraced rounds alternate in pairs.
    const bool traced = opt.trace && (r / 2) % 2 == 1;
    tracer->set_enabled(traced);
    const double checks_before = w->check_seconds();
    HostStopwatch watch(HostCpuNow);
    Status st;
    w->BeginRoundSegments();
    {
      Tracer::Scope span(tracer, "Round", "bench", static_cast<uint64_t>(r));
      st = w->Round(r);
    }
    w->EndSegment();
    const double host = watch.Seconds() - (w->check_seconds() - checks_before);
    (traced ? run.traced_round_s : run.untraced_round_s).push_back(host);
    if (!traced) {
      run.untraced_segments_s.push_back(w->round_segments());
    }
    run.speed.Sample(kProbesPerSample);
    if (!st.ok()) {
      std::fprintf(stderr, "perfbench: %s round %d failed: %s\n", opt.workload.c_str(), r,
                   st.message().c_str());
      return RunResult{};
    }
  }
  const double rounds_s = measured.Seconds();
  std::fprintf(stderr, "perfbench %s: untraced round host seconds:", opt.workload.c_str());
  for (double s : run.untraced_round_s) {
    std::fprintf(stderr, " %.3f", s);
  }
  std::fprintf(stderr, "; fastest segments summed: %.3f; host-speed probe median %.1f us\n",
               FastestSegmentsSum(run.untraced_segments_s), run.speed.probe_seconds() * 1e6);
  tracer->set_enabled(opt.trace);
  Status st = w->Sweep();
  if (st.ok()) {
    st = w->Finish();
  }
  tracer->set_enabled(false);
  if (!st.ok()) {
    std::fprintf(stderr, "perfbench: %s failed: %s\n", opt.workload.c_str(), st.message().c_str());
    return RunResult{};
  }
  w->EndMeasurement();
  run.measured_host_s = measured.Seconds() - (w->check_seconds() - setup_checks);
  std::fprintf(stderr,
               "perfbench %s: host seconds: setup %.2f x%d, rounds %.2f, sweep+finish %.2f, "
               "checks %.2f of those\n",
               opt.workload.c_str(), Median(run.setup_s), kSetups, rounds_s,
               measured.Seconds() - rounds_s, w->check_seconds() - setup_checks);
  return run;
}

void PrintResult(const Workload& w, const MetricMap& metrics) {
  std::string out = "{\"correct\": ";
  out += w.correct() ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(w.attempted());
  out += ", \"failed\": " + std::to_string(w.failed());
  out += ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, metric] : metrics) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", std::isfinite(metric.value) ? metric.value : 0.0);
    out += (first ? "\"" : ", \"") + name + "\": {\"value\": " + value + ", \"unit\": \"" +
           metric.unit + "\"}";
    first = false;
  }
  out += "}}\n";
  std::fputs(out.c_str(), stdout);
}

int Benchmark(const Options& opt) {
  RunResult run = Execute(opt);
  if (run.workload == nullptr) {
    return 1;
  }
  Workload& w = *run.workload;
  MetricMap metrics;
  const double host_round_s = Median(run.untraced_round_s);
  if (!opt.trace) {
    metrics = w.SimMetrics();
    metrics["host_s"] = {run.speed.ToReference(FastestSegmentsSum(run.untraced_segments_s)), "s"};
    metrics["setup_s"] = {run.speed.ToReference(Median(run.setup_s)), "s"};
    metrics["peak_rss_mib"] = {PeakRssMib(), "MiB"};
  } else {
    metrics = w.PerLayer(CalibrateBase(opt.seed), run.measured_host_s);
    metrics["trace.overhead_ratio"] = {Median(run.traced_round_s) / host_round_s - 1.0, "ratio"};
    if (!opt.trace_out.empty() && !w.tracer()->WriteChromeTrace(opt.trace_out)) {
      std::fprintf(stderr, "perfbench: cannot write %s\n", opt.trace_out.c_str());
      return 1;
    }
  }
  std::fprintf(stdout,
               "perfbench: workload=%s seed=%llu rounds=%d trace=%d input_digest=%016llx "
               "counter_digest=%016llx correct=%d\n",
               w.name().c_str(), static_cast<unsigned long long>(opt.seed), run.rounds,
               opt.trace ? 1 : 0, static_cast<unsigned long long>(w.InputDigest()),
               static_cast<unsigned long long>(w.CounterDigest()), w.correct() ? 1 : 0);
  PrintResult(w, metrics);
  return 0;
}

bool Parse(int argc, char** argv, Options* opt) {
  for (int i = 1; i < argc; i++) {
    std::string arg = argv[i];
    auto next = [&]() -> const char* { return i + 1 < argc ? argv[++i] : nullptr; };
    const char* v = nullptr;
    if (arg == "--workload" && (v = next())) {
      opt->workload = v;
    } else if (arg == "--seed" && (v = next())) {
      opt->seed = std::strtoull(v, nullptr, 10);
    } else if (arg == "--seconds" && (v = next())) {
      opt->seconds = std::strtod(v, nullptr);
    } else if (arg == "--trace" && (v = next())) {
      opt->trace = std::strcmp(v, "0") != 0;
    } else if (arg == "--trace-out" && (v = next())) {
      opt->trace_out = v;
    } else {
      return false;
    }
  }
  return Make(opt->workload, opt->seed) != nullptr && opt->seconds > 0;
}

}  // namespace
}  // namespace aurora::perfbench

int main(int argc, char** argv) {
  // Keep freed heap memory in the process: the workloads free and
  // reallocate hundreds of MiB of page buffers per round (crash, promotion,
  // restore), and returning it to the kernel makes every round re-fault it,
  // which puts the host's page-fault noise into host_s.
  mallopt(M_TRIM_THRESHOLD, -1);
  mallopt(M_MMAP_THRESHOLD, 64 << 20);
  aurora::perfbench::Options opt;
  if (!aurora::perfbench::Parse(argc, argv, &opt)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload <kv_etc|app_standby|churn_gc> --seed <n> "
                 "--seconds <s> --trace <0|1> [--trace-out <file>]\n");
    return 2;
  }
  return aurora::perfbench::Benchmark(opt);
}
