// Figure 4: Memcached at max throughput over varying checkpoint periods.
//
// Closed-loop load (4 machines x 12 threads x 12 connections in the paper;
// here 48 logical connections with zero think time) against the KvServer.
// Aurora transparently checkpoints the consistency group at each period;
// overhead comes from three real mechanisms: checkpoint stop time, the
// post-checkpoint COW/soft fault storm (TLB and shadow repopulation), and
// flush backpressure. Per the paper's section 8, external synchrony is off.
#include <cstdio>
#include <cstdlib>
#include <string>

#include "bench/bench_common.h"
#include "src/apps/kv_server.h"
#include "src/apps/workloads.h"
#include "src/obs/metrics.h"

namespace aurora {
namespace {

struct RunResult {
  double mops = 0;  // throughput, ops/s
  double avg_us = 0;
  double p95_us = 0;
};

// Closed-loop G/G/1 simulation: the aggregate server pipeline processes
// requests in issue order; `conns` requests are always outstanding.
RunResult RunClosedLoop(SimDuration period, SimDuration sim_time, int conns) {
  BenchMachine m(32 * kGiB, 4096);  // page-granular store blocks for memory flushes
  KvServerConfig config;
  // Working set scaled so the dirty-page rate vs checkpoint period matches
  // the paper's dynamics at simulable page counts (see EXPERIMENTS.md).
  config.num_keys = 64 << 10;
  config.value_size = 200;
  // Aggregate server pipeline: 12 workers at ~11 us/op each.
  config.op_cpu = 920;
  KvServer server(&m.sim, m.kernel.get(), config);
  AURORA_IGNORE_STATUS(server.Warmup(), "warmup traffic; failures would surface in the measured phase");

  ConsistencyGroup* group = nullptr;
  if (period > 0) {
    group = *m.sls->CreateGroup("memcached");
    AURORA_IGNORE_STATUS(m.sls->Attach(group, server.process()), "attaching a freshly created process to its group cannot fail here");
    group->period = period;
    auto first = m.sls->Checkpoint(group);
    if (!first.ok()) std::abort();  // a failed operation invalidates the measurement
    m.sim.clock.AdvanceTo(first->durable_at);
  }

  EtcWorkload workload(config.num_keys, 1234);
  SimHistogram latency;
  SimClock& clock = m.sim.clock;
  SimTime start = clock.now();
  SimTime deadline = start + sim_time;
  SimTime next_ckpt = start + (period > 0 ? period : sim_time * 2);

  // Closed loop: every connection has exactly one request outstanding; the
  // server is saturated, so requests are processed back to back and each
  // op's latency is its queueing delay (conns ahead of it) plus service.
  std::deque<SimTime> issue_times;
  for (int c = 0; c < conns; c++) {
    issue_times.push_back(clock.now());
  }
  uint64_t completed = 0;
  while (clock.now() < deadline) {
    // Checkpoint trigger (the paper waits for the previous flush before
    // starting the next checkpoint).
    if (group != nullptr && clock.now() >= next_ckpt) {
      auto ckpt = m.sls->Checkpoint(group);
      if (!ckpt.ok()) std::abort();  // a failed operation invalidates the measurement
      next_ckpt = std::max(ckpt->durable_at, clock.now() + period);
    }
    KvRequest req = workload.Next();
    Result<SimDuration> service =
        req.op == KvOp::kSet ? server.ExecuteSet(req.key, static_cast<uint8_t>(req.key))
                             : server.ExecuteGet(req.key);
    if (!service.ok()) {
      break;
    }
    SimTime issued = issue_times.front();
    issue_times.pop_front();
    // Client-observed latency includes the 10 GbE round trip.
    latency.Record(clock.now() - issued + m.sim.cost.net_rtt);
    issue_times.push_back(clock.now());  // zero think time: reissue
    completed++;
  }
  RunResult out;
  double seconds = ToSeconds(clock.now() - start);
  out.mops = static_cast<double>(completed) / seconds;
  out.avg_us = latency.MeanNanos() / 1000.0;
  out.p95_us = ToMicros(latency.Percentile(95));
  return out;
}

}  // namespace
}  // namespace aurora

int main() {
  aurora::BenchReport report("fig4_memcached_peak");
  using namespace aurora;
  constexpr int kConns = 192;
  constexpr SimDuration kRun = 2 * kSecond;

  PrintHeader(
      "Figure 4: Memcached max throughput / latency vs checkpoint period\n"
      "(paper shape: baseline ~1M ops/s flat; Aurora rises toward baseline as the\n"
      "period grows; latency falls with longer periods)");
  RunResult baseline = RunClosedLoop(0, kRun, kConns);
  // Every printed cell is also a results row. The paper states ~1M ops/s
  // for the baseline, a 45-55% band at 10 ms (recorded as its centre) and
  // ~90% at 100 ms.
  auto record = [&report](const std::string& period, const RunResult& r, double vs_base,
                          double paper_ops, double paper_vs_base) {
    report.AddResult(period + " ops/s", r.mops, paper_ops, "ops/s");
    report.AddResult(period + " avg", r.avg_us, 0, "us");
    report.AddResult(period + " p95", r.p95_us, 0, "us");
    report.AddResult(period + " vs base", vs_base, paper_vs_base, "%");
  };
  std::printf("  %-12s %12s %10s %10s %10s\n", "period", "ops/s", "avg(us)", "p95(us)",
              "vs base");
  std::printf("  %-12s %12.0f %10.1f %10.1f %9.0f%%\n", "baseline", baseline.mops,
              baseline.avg_us, baseline.p95_us, 100.0);
  record("baseline", baseline, 100.0, 1e6, 100.0);
  for (SimDuration period : {10, 20, 40, 60, 80, 100}) {
    RunResult r = RunClosedLoop(period * kMillisecond, kRun, kConns);
    double vs_base = 100.0 * r.mops / baseline.mops;
    std::printf("  %-12llu %12.0f %10.1f %10.1f %9.0f%%\n",
                static_cast<unsigned long long>(period), r.mops, r.avg_us, r.p95_us, vs_base);
    record(std::to_string(period) + " ms", r, vs_base, 0,
           period == 10 ? 50.0 : (period == 100 ? 90.0 : 0.0));
  }
  std::printf("\nPaper anchor points: ~45-55%% of baseline at 10 ms, ~90%% at 100 ms;\n"
              "between 10 and 20 ms the frequency halves and throughput rises sharply.\n");
  return 0;
}
