// Long-horizon soak: the segment log under a retention policy must hold
// space flat over 10^4+ epochs of overwrite churn, and paced background
// compaction must not move the foreground flush tail.
//
//   Part A: 12,000 epochs, hot/cold churn, retention keep=4, online GC.
//           Used blocks at end-of-run must be within 10% of the mid-run
//           steady state ("<label> end/mid used" row; ci.sh gates on it).
//   Part C: fig3 write profile (random 64 KiB writes, 10 ms sync cadence)
//           with GC enabled vs disabled: flush-makespan p99 ratio <= 1.15.
//
// Part B ran the same churn on the retired free-list layout; its figures are
// frozen in EXPERIMENTS.md.
#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "src/base/rng.h"
#include "src/objstore/segment_gc.h"

namespace aurora {
namespace {

// Syscall entry/exit + copyin for one file system call (as in bench_fig3).
constexpr SimDuration kSyscallCost = 2000;

// --- Part A: store-level churn soak ---------------------------------------------

constexpr uint32_t kChurnBlock = 8 * 1024;
constexpr uint64_t kColdBlocks = 24;
constexpr uint64_t kHotBlocks = 7;

// One machine's worth of overwrite churn. Each epoch rewrites every hot
// block plus one rotating cold block, so sealed segments carry a few
// long-lived blocks among the soon-dead ones — space only relocation (not
// inline whole-segment reclaim) can recover.
struct ChurnStore {
  SimContext sim;
  std::unique_ptr<MemBlockDevice> device;
  std::unique_ptr<ObjectStore> store;
  Oid oid = kInvalidOid;

  ChurnStore() {
    device = std::make_unique<MemBlockDevice>(&sim.clock, (512 * kMiB) / kPageSize);
    StoreOptions options;
    options.block_size = kChurnBlock;
    options.segment_blocks = 8;
    store = *ObjectStore::Format(device.get(), &sim, options);
    oid = *store->CreateObject(ObjType::kMemory);
  }

  void Epoch(uint64_t epoch) {
    std::vector<uint8_t> data(kChurnBlock);
    auto put = [&](uint64_t block) {
      for (size_t i = 0; i < data.size(); i++) {
        data[i] = static_cast<uint8_t>(epoch * 37 + block + i * 31);
      }
      AURORA_IGNORE_STATUS(store->WriteAt(oid, block * kChurnBlock, data.data(), data.size()), "outcome intentionally ignored in this scenario");
    };
    for (uint64_t h = 0; h < kHotBlocks; h++) {
      put(kColdBlocks + h);
    }
    put(epoch % kColdBlocks);
    AURORA_IGNORE_STATUS(store->CommitCheckpoint(""), "steady-state retention churn; failures would skew the figures visibly");
  }
};

// Part A: segment log + retention (keep the newest `keep` epochs, exactly
// the policy Sls::ApplyRetention applies) + online compaction.
void RunSegmentSoak(BenchReport& report, uint64_t epochs) {
  ChurnStore m;
  constexpr uint64_t kKeepEpochs = 4;
  GcConfig config;
  config.bytes_per_sec = 512 * kMiB;  // paced like a background scrubber
  SegmentGc gc(m.store.get(), config);

  uint64_t used_mid = 0;
  uint64_t first_epoch_hits = 0;
  for (uint64_t e = 1; e <= epochs; e++) {
    m.Epoch(e);
    if (e == 1) {
      // Hits so far are intra-epoch; everything beyond this is content the
      // store first saw in an EARLIER epoch resurfacing (the cross-epoch
      // dedup claim — ci.sh gates on the delta row staying positive).
      first_epoch_hits = m.store->stats().dedup_hits;
    }
    std::vector<CheckpointInfo> ckpts = m.store->ListCheckpoints();
    if (ckpts.size() > kKeepEpochs) {
      AURORA_IGNORE_STATUS(m.store->DeleteCheckpointsBefore(ckpts[ckpts.size() - kKeepEpochs].epoch), "steady-state retention churn; failures would skew the figures visibly");
    }
    AURORA_IGNORE_STATUS(gc.Run(), "outcome intentionally ignored in this scenario");
    if (e == epochs / 2) {
      used_mid = m.store->UsedPhysicalBlocks();
    }
  }
  uint64_t used_end = m.store->UsedPhysicalBlocks();

  PrintRow("segment-log used blocks (mid-run)", static_cast<double>(used_mid), 0, "blocks");
  PrintRow("segment-log used blocks (end)", static_cast<double>(used_end), 0, "blocks");
  // ci.sh gates on this row: paper column is the 1.10 flatness bound.
  PrintRow("segment-log end/mid used", static_cast<double>(used_end) / static_cast<double>(used_mid),
           1.10, "ratio");
  PrintRow("gc segments reclaimed",
           static_cast<double>(m.sim.metrics.counter("gc.segments_reclaimed").value()), 0, "segs");
  PrintRow("cross-epoch dedup hits",
           static_cast<double>(m.store->stats().dedup_hits - first_epoch_hits), 0, "hits");
  report.AddMetrics("soak_segment_log", m.sim);
}

// --- Part C: foreground flush tail under background GC -----------------------

// The fig3 aurora write profile: random 64 KiB writes into a 256 MiB file
// with the 10 ms kernel-syncer cadence. Returns the p99 flush makespan in
// seconds; with `gc_enabled` a paced compactor runs after every commit.
double FlushTailP99(BenchReport& report, bool gc_enabled) {
  // Raw flush path: this part measures how background compaction pacing
  // moves the foreground flush tail, which needs real physical writes —
  // the constant-content write buffer would otherwise dedup to nothing.
  StoreOptions base;
  base.dedup = false;
  base.codec = CodecId::kRaw;
  BenchMachine m(16 * kGiB, 64 * 1024, base);
  m.metrics_label = gc_enabled ? "fig3_gc_on" : "fig3_gc_off";
  GcConfig config;
  config.bytes_per_sec = 512 * kMiB;
  SegmentGc gc(m.store.get(), config);

  auto vn = *m.fs->Create("bigfile");
  const uint64_t file_size = 256 * kMiB;
  const uint64_t io_size = 64 * kKiB;
  std::vector<uint8_t> buf(io_size, 0xd1);
  Rng rng(42);
  SimClock& clock = m.sim.clock;
  SimDuration sync_period = 10 * kMillisecond;
  SimTime next_sync = clock.now() + sync_period;

  std::vector<double> makespans;
  for (uint64_t i = 0; i < 16384; i++) {
    clock.Advance(kSyscallCost);
    uint64_t pos = rng.Below(file_size / io_size) * io_size;
    AURORA_IGNORE_STATUS(vn->Write(pos, buf.data(), buf.size()), "workload I/O into a mapping created above");
    if (clock.now() >= next_sync || m.fs->DirtyBytes() > 128 * kMiB) {
      SimTime start = clock.now();
      auto done = m.fs->FlushAll();
      AURORA_IGNORE_STATUS(m.store->CommitCheckpoint(""), "steady-state retention churn; failures would skew the figures visibly");
      if (done.ok()) {
        makespans.push_back(ToSeconds(*done - start));
        if (m.fs->DirtyBytes() > 128 * kMiB) {
          clock.AdvanceTo(*done);  // backpressure, as in the fig3 loop
        }
      }
      AURORA_IGNORE_STATUS(m.store->DeleteCheckpointsBefore(m.store->current_epoch() - 1), "steady-state retention churn; failures would skew the figures visibly");
      if (gc_enabled) {
        AURORA_IGNORE_STATUS(gc.Run(), "outcome intentionally ignored in this scenario");
      }
      next_sync = clock.now() + sync_period;
    }
  }
  (void)report;
  std::sort(makespans.begin(), makespans.end());
  return makespans.empty() ? 0.0 : makespans[makespans.size() * 99 / 100];
}

}  // namespace
}  // namespace aurora

int main() {
  aurora::BenchReport report("soak");
  using namespace aurora;

  PrintHeader("Soak part A: segment log + retention keep=4 + online GC, 12000 epochs\n"
              "(flat: end-of-run used blocks within 10% of mid-run steady state)");
  PrintColumns();
  RunSegmentSoak(report, 12000);

  PrintHeader("Soak part C: fig3 write profile, flush-makespan p99, GC on vs off\n"
              "(paced background compaction must stay out of the foreground tail)");
  PrintColumns();
  double off = FlushTailP99(report, false);
  double on = FlushTailP99(report, true);
  PrintRow("flush p99, GC off", off * 1e3, 0, "ms");
  PrintRow("flush p99, GC on", on * 1e3, 0, "ms");
  PrintRow("flush p99 GC-on/GC-off", off > 0 ? on / off : 0.0, 1.15, "ratio");
  return 0;
}
