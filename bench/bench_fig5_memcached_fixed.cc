// Figure 5: Memcached latency at a fixed 120 k ops/s (15% of peak) over
// varying checkpoint periods — the worst case for transparent persistence,
// because there is no network queueing to hide checkpoint stalls behind.
//
// Open-loop Poisson arrivals against the aggregate server pipeline: requests
// that arrive during a checkpoint stop wait it out, and the post-checkpoint
// fault storm inflates the ops that repopulate the MMU.
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <string>

#include "bench/bench_common.h"
#include "src/apps/kv_server.h"
#include "src/apps/workloads.h"
#include "src/base/rng.h"
#include "src/obs/metrics.h"

namespace aurora {
namespace {

struct RunResult {
  double avg_us = 0;
  double p95_us = 0;
  double achieved_ops = 0;
};

RunResult RunFixedLoad(SimDuration period, double target_ops_per_sec, SimDuration sim_time) {
  BenchMachine m(32 * kGiB, 4096);  // page-granular store blocks for memory flushes
  KvServerConfig config;
  config.num_keys = 64 << 10;
  config.value_size = 200;
  config.op_cpu = 920;  // 12-worker aggregate pipeline
  KvServer server(&m.sim, m.kernel.get(), config);
  AURORA_IGNORE_STATUS(server.Warmup(), "warmup traffic; failures would surface in the measured phase");

  ConsistencyGroup* group = nullptr;
  if (period > 0) {
    group = *m.sls->CreateGroup("memcached");
    AURORA_IGNORE_STATUS(m.sls->Attach(group, server.process()), "attaching a freshly created process to its group cannot fail here");
    auto first = m.sls->Checkpoint(group);
    if (!first.ok()) std::abort();  // a failed operation invalidates the measurement
    m.sim.clock.AdvanceTo(first->durable_at);
  }

  EtcWorkload workload(config.num_keys, 77);
  Rng arrivals(99);
  SimHistogram latency;
  SimClock& clock = m.sim.clock;
  SimTime start = clock.now();
  SimTime deadline = start + sim_time;
  SimTime next_ckpt = start + (period > 0 ? period : sim_time * 2);
  double mean_interarrival_ns = 1e9 / target_ops_per_sec;

  SimTime next_arrival = start;
  uint64_t completed = 0;
  while (next_arrival < deadline) {
    next_arrival += static_cast<SimDuration>(arrivals.NextExponential(mean_interarrival_ns));
    if (group != nullptr && clock.now() >= next_ckpt) {
      auto ckpt = m.sls->Checkpoint(group);
      if (!ckpt.ok()) std::abort();  // a failed operation invalidates the measurement
      next_ckpt = std::max(ckpt->durable_at, clock.now() + period);
    }
    // Server idle until the request arrives.
    clock.AdvanceTo(next_arrival);
    // A checkpoint may fire between arrival and service.
    if (group != nullptr && clock.now() >= next_ckpt) {
      auto ckpt = m.sls->Checkpoint(group);
      if (!ckpt.ok()) std::abort();  // a failed operation invalidates the measurement
      next_ckpt = std::max(ckpt->durable_at, clock.now() + period);
    }
    KvRequest req = workload.Next();
    auto service = req.op == KvOp::kSet
                       ? server.ExecuteSet(req.key, static_cast<uint8_t>(req.key))
                       : server.ExecuteGet(req.key);
    if (!service.ok()) {
      break;
    }
    // Client-observed latency: network RTT + the op's worker-side service.
    // The clock paces ops at the 12-worker aggregate rate; a single request
    // still occupies one worker for the full per-op CPU time.
    constexpr SimDuration kWorkerCpu = 11 * kMicrosecond;
    latency.Record(clock.now() - next_arrival + m.sim.cost.net_rtt + kWorkerCpu -
                   config.op_cpu);
    completed++;
  }
  RunResult out;
  out.avg_us = latency.MeanNanos() / 1000.0;
  out.p95_us = ToMicros(latency.Percentile(95));
  out.achieved_ops = static_cast<double>(completed) / ToSeconds(clock.now() - start);
  return out;
}

}  // namespace
}  // namespace aurora

int main() {
  aurora::BenchReport report("fig5_memcached_fixed");
  using namespace aurora;
  constexpr double kLoad = 120000;
  constexpr SimDuration kRun = 2 * kSecond;

  PrintHeader(
      "Figure 5: Memcached latency at a fixed 120k ops/s vs checkpoint period\n"
      "(paper: baseline avg 157us; with transparent persistence the low-load\n"
      "latency impact is much larger than at saturation — avg 607us at 100 ms)");
  RunResult base = RunFixedLoad(0, kLoad, kRun);
  // Every printed cell is also a results row; the paper states the average
  // latency of the baseline (157 us) and of the 100 ms period (607 us).
  auto record = [&report](const std::string& period, const RunResult& r, double paper_avg) {
    report.AddResult(period + " avg", r.avg_us, paper_avg, "us");
    report.AddResult(period + " p95", r.p95_us, 0, "us");
    report.AddResult(period + " ops/s", r.achieved_ops, 0, "ops/s");
  };
  std::printf("  %-12s %10s %10s %12s\n", "period", "avg(us)", "p95(us)", "ops/s");
  std::printf("  %-12s %10.1f %10.1f %12.0f   (paper avg: 157us)\n", "baseline", base.avg_us,
              base.p95_us, base.achieved_ops);
  record("baseline", base, 157);
  for (SimDuration period : {10, 20, 40, 60, 80, 100}) {
    RunResult r = RunFixedLoad(period * kMillisecond, kLoad, kRun);
    std::printf("  %-12llu %10.1f %10.1f %12.0f%s\n",
                static_cast<unsigned long long>(period), r.avg_us, r.p95_us, r.achieved_ops,
                period == 100 ? "   (paper avg: 607us)" : "");
    record(std::to_string(period) + " ms", r, period == 100 ? 607 : 0);
  }
  std::printf(
      "\nNote: our simulation reproduces the paper's direction (persistence visibly\n"
      "inflates low-load latency, p95 >> avg) but underestimates the magnitude at\n"
      "long periods; see EXPERIMENTS.md for the discussion.\n");
  return 0;
}
