// Figure 6: RocksDB configurations under the Facebook Prefix_dist workload.
//
//   RocksDB       (No Sync) — mini-LSM, WAL disabled: no persistence at all.
//   Aurora-100Hz  (No Sync) — the same ephemeral store, transparently
//                             checkpointed every 10 ms.
//   RocksDB+WAL   (Sync)    — WAL with group-commit fsync; memtable flushes
//                             + compaction when the WAL fills.
//   Aurora+WAL    (Sync)    — the paper's customized store: sls_journal WAL,
//                             checkpoint-on-journal-full, no LSM tree.
//
// The Aurora+WAL advantage is mechanical: when the WAL fills, stock RocksDB
// serializes and rewrites the whole memtable as an SSTable (and later
// compacts it again), while Aurora's MMU-tracked checkpoint flushes only the
// pages dirtied since the previous checkpoint.
#include <cstdio>
#include <cstdlib>
#include <string>

#include "bench/bench_common.h"
#include "src/apps/aurora_kv.h"
#include "src/apps/lsm_db.h"
#include "src/apps/workloads.h"
#include "src/obs/metrics.h"

namespace aurora {
namespace {

constexpr uint64_t kNumKeys = 200000;
constexpr uint64_t kOps = 400000;
constexpr SimDuration kClientCpu = 120;  // aggregate client/server op overhead

struct RunResult {
  double ops_per_sec = 0;
  double write_p99_us = 0;
  double write_p999_us = 0;
};

void Preload(const std::function<void(uint64_t, const std::string&)>& put) {
  for (uint64_t k = 0; k < kNumKeys; k++) {
    put(k, std::string(200, static_cast<char>('a' + k % 26)));
  }
}

RunResult RunLsm(bool wal, bool wal_sync, bool transparent_aurora) {
  BenchMachine m(32 * kGiB, transparent_aurora ? 4096u : 64 * 1024u);
  // Stock RocksDB runs on the conventional file system; the transparent
  // Aurora configuration runs the same ephemeral store under checkpoints.
  auto raw_device = std::make_unique<MemBlockDevice>(&m.sim.clock, (16 * kGiB) / kPageSize);
  FfsLikeFs ffs(&m.sim, raw_device.get(), 64 * kKiB);
  Filesystem* fs = transparent_aurora ? static_cast<Filesystem*>(m.fs.get())
                                      : static_cast<Filesystem*>(&ffs);
  LsmOptions options;
  options.wal_enabled = wal;
  options.wal_sync = wal_sync;
  // Memtable sized so the whole database fits (the paper's setup): flushes
  // happen only when the WAL-full policy forces them.
  options.memtable_bytes = 96 * kMiB;
  LsmDb db(&m.sim, m.kernel.get(), fs, options);

  ConsistencyGroup* group = nullptr;
  SimTime next_ckpt = 0;
  if (transparent_aurora) {
    group = *m.sls->CreateGroup("rocksdb");
    AURORA_IGNORE_STATUS(m.sls->Attach(group, db.process()), "attaching a freshly created process to its group cannot fail here");
  }

  Preload([&](uint64_t k, const std::string& v) {
    AURORA_IGNORE_STATUS(db.Put(PrefixDistWorkload::EncodeKey(k), v), "workload op; success is implied by the measured throughput");
  });
  if (transparent_aurora) {
    auto first = m.sls->Checkpoint(group);
    if (!first.ok()) std::abort();  // a failed operation invalidates the measurement
    m.sim.clock.AdvanceTo(first->durable_at);
    next_ckpt = m.sim.clock.now() + 10 * kMillisecond;
  }

  PrefixDistWorkload workload(kNumKeys, 4242);
  SimHistogram write_latency;
  SimClock& clock = m.sim.clock;
  SimTime start = clock.now();
  for (uint64_t i = 0; i < kOps; i++) {
    if (transparent_aurora && clock.now() >= next_ckpt) {
      auto ckpt = m.sls->Checkpoint(group);
      if (!ckpt.ok()) std::abort();  // a failed operation invalidates the measurement
      next_ckpt = std::max(ckpt->durable_at, clock.now() + 10 * kMillisecond);
    }
    clock.Advance(kClientCpu);
    KvRequest req = workload.Next();
    std::string key = PrefixDistWorkload::EncodeKey(req.key);
    if (req.op == KvOp::kSet) {
      SimTime t0 = clock.now();
      AURORA_IGNORE_STATUS(db.Put(key, std::string(req.value_size, 'v')), "workload op; success is implied by the measured throughput");
      write_latency.Record(clock.now() - t0);
    } else if (req.op == KvOp::kSeek) {
      AURORA_IGNORE_STATUS(db.Seek(key, req.value_size), "workload op; success is implied by the measured throughput");
    } else {
      AURORA_IGNORE_STATUS(db.Get(key), "workload op; success is implied by the measured throughput");
    }
  }
  RunResult out;
  out.ops_per_sec = static_cast<double>(kOps) / ToSeconds(clock.now() - start);
  out.write_p99_us = ToMicros(write_latency.Percentile(99));
  out.write_p999_us = ToMicros(write_latency.Percentile(99.9));
  return out;
}

double g_ckpt_wait_ms = 0;  // paper: the p99.9 mechanism (WAL-full checkpoint wait)

RunResult RunAuroraKv() {
  BenchMachine m(32 * kGiB, 4096);
  Process* proc = *m.kernel->CreateProcess("aurora-kv");
  ConsistencyGroup* group = *m.sls->CreateGroup("aurora-kv");
  AURORA_IGNORE_STATUS(m.sls->Attach(group, proc), "attaching a freshly created process to its group cannot fail here");
  AuroraKvOptions options;
  options.memtable_bytes = 256 * kMiB;
  options.journal_bytes = 8 * kMiB;
  AuroraKv db(m.sls.get(), group, proc, options);

  Preload([&](uint64_t k, const std::string& v) {
    AURORA_IGNORE_STATUS(db.Put(PrefixDistWorkload::EncodeKey(k), v), "workload op; success is implied by the measured throughput");
  });
  auto first = m.sls->Checkpoint(group);
  if (!first.ok()) std::abort();  // a failed operation invalidates the measurement
  m.sim.clock.AdvanceTo(first->durable_at);
  AURORA_IGNORE_STATUS(m.sls->JournalReset(db.journal()), "journal reset is a workload step; failure would distort the bench visibly");

  PrefixDistWorkload workload(kNumKeys, 4242);
  SimHistogram write_latency;
  SimClock& clock = m.sim.clock;
  SimTime start = clock.now();
  for (uint64_t i = 0; i < kOps; i++) {
    clock.Advance(kClientCpu);
    KvRequest req = workload.Next();
    std::string key = PrefixDistWorkload::EncodeKey(req.key);
    if (req.op == KvOp::kSet) {
      SimTime t0 = clock.now();
      AURORA_IGNORE_STATUS(db.Put(key, std::string(req.value_size, 'v')), "workload op; success is implied by the measured throughput");
      write_latency.Record(clock.now() - t0);
    } else if (req.op == KvOp::kSeek) {
      // Memtable-ordered scan.
      auto it = db.memtable().index().lower_bound(key);
      for (uint32_t n = 0; n < req.value_size && it != db.memtable().index().end(); n++, ++it) {
        clock.Advance(m.sim.cost.cacheline_miss * 2);
      }
    } else {
      AURORA_IGNORE_STATUS(db.Get(key), "workload op; success is implied by the measured throughput");
    }
  }
  RunResult out;
  out.ops_per_sec = static_cast<double>(kOps) / ToSeconds(clock.now() - start);
  out.write_p99_us = ToMicros(write_latency.Percentile(99));
  out.write_p999_us = ToMicros(write_latency.Percentile(99.9));
  g_ckpt_wait_ms = ToMillis(db.stats().last_checkpoint_wait);
  return out;
}

}  // namespace
}  // namespace aurora

int main() {
  aurora::BenchReport report("fig6_rocksdb");
  using namespace aurora;
  PrintHeader(
      "Figure 6: RocksDB configurations, Facebook Prefix_dist workload\n"
      "(paper shape: ephemeral RocksDB fastest; Aurora-100Hz ~17% of it;\n"
      "Aurora+WAL ~75% faster than RocksDB+WAL with better p99, worse p99.9)");

  RunResult rocks = RunLsm(/*wal=*/false, /*wal_sync=*/false, /*transparent=*/false);
  RunResult aurora_100hz = RunLsm(false, false, /*transparent=*/true);
  RunResult rocks_wal = RunLsm(/*wal=*/true, /*wal_sync=*/true, false);
  RunResult aurora_wal = RunAuroraKv();

  std::printf("  %-14s | %12s %8s | %10s %10s\n", "config", "ops/s", "vs rdb", "p99(us)",
              "p99.9(us)");
  // Every printed cell is also a results row, with the paper's share of
  // RocksDB's throughput where it states one.
  auto row = [&](const char* name, const RunResult& r, double paper_vs_rdb) {
    double vs_rdb = 100.0 * r.ops_per_sec / rocks.ops_per_sec;
    std::printf("  %-14s | %12.0f %7.0f%% | %10.1f %10.1f\n", name, r.ops_per_sec, vs_rdb,
                r.write_p99_us, r.write_p999_us);
    const std::string label = name;
    report.AddResult(label + " ops/s", r.ops_per_sec, 0, "ops/s");
    report.AddResult(label + " vs rdb", vs_rdb, paper_vs_rdb, "%");
    report.AddResult(label + " p99", r.write_p99_us, 0, "us");
    report.AddResult(label + " p99.9", r.write_p999_us, 0, "us");
  };
  row("RocksDB", rocks, 100);
  row("Aurora-100Hz", aurora_100hz, 17);
  row("RocksDB+WAL", rocks_wal, 34);
  row("Aurora+WAL", aurora_wal, 60);

  double speedup = 100.0 * (aurora_wal.ops_per_sec / rocks_wal.ops_per_sec - 1.0);
  report.AddResult("Aurora+WAL vs RocksDB+WAL throughput", speedup, 75, "%");
  report.AddResult("Aurora+WAL checkpoint wait", g_ckpt_wait_ms, 0, "ms");
  std::printf("\nShape checks: Aurora+WAL vs RocksDB+WAL throughput: %+.0f%% (paper: +75%%);\n"
              "Aurora+WAL p99 %s RocksDB+WAL p99 (paper: better).\n",
              speedup, aurora_wal.write_p99_us < rocks_wal.write_p99_us ? "<" : ">");
  std::printf("Paper's p99.9 mechanism (a write that trips journal-full waits for the whole\n"
              "checkpoint): measured wait = %.1f ms. A single-pipeline simulation spreads\n"
              "this over one op rather than every in-flight writer; see EXPERIMENTS.md.\n",
              g_ckpt_wait_ms);
  return 0;
}
