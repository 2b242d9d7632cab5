// Table 6: checkpoint stop times and restore times for application
// profiles (firefox, mosh, pillow, tomcat, vim).
//
// The real binaries cannot run on a simulated kernel, so each application is
// a synthetic profile with the paper's reported footprint and an OS-state
// complexity consistent with its description (see DESIGN.md section 4). As
// in the paper, the applications are mostly idle for the incremental row.
#include <cstdio>
#include <cstdlib>
#include <string>

#include "bench/bench_common.h"

namespace aurora {
namespace {

struct PaperRow {
  AppProfile profile;
  double mem_ckpt_ms;
  double full_ckpt_ms;
  double incr_ckpt_ms;
  double mem_restore_ms;
  double full_restore_ms;
  double lazy_restore_ms;
};

std::vector<PaperRow> PaperRows() {
  std::vector<PaperRow> rows;
  rows.push_back({{"firefox", 198 * kMiB, 4, 60, 225, 45, 2}, 1.4, 1.8, 1.9, 0.9, 12.4, 6.3});
  rows.push_back({{"mosh", 24 * kMiB, 1, 2, 120, 24, 1}, 0.4, 0.4, 0.4, 0.2, 1.9, 0.9});
  rows.push_back({{"pillow", 75 * kMiB, 1, 4, 640, 40, 1}, 0.7, 0.9, 0.6, 0.2, 8.2, 0.2});
  rows.push_back({{"tomcat", 197 * kMiB, 1, 80, 1100, 260, 4}, 2.7, 3.2, 2.1, 0.5, 33.6, 3.1});
  rows.push_back({{"vim", 48 * kMiB, 1, 1, 520, 20, 1}, 0.7, 0.8, 0.7, 0.3, 4.1, 2.4});
  return rows;
}

struct Measured {
  double mem_ckpt_ms;
  double full_ckpt_ms;
  double incr_ckpt_ms;
  double mem_restore_ms;
  double full_restore_ms;
  double lazy_restore_ms;
};

Measured MeasureApp(const AppProfile& profile) {
  Measured out{};
  {
    // Memory-only checkpoint + restore-from-memory.
    BenchMachine m(8 * kGiB);
    auto procs = BuildAppProfile(m, profile);
    ConsistencyGroup* g = *m.sls->CreateGroup(profile.name);
    for (Process* p : procs) {
      AURORA_IGNORE_STATUS(m.sls->Attach(g, p), "attaching a freshly created process to its group cannot fail here");
    }
    auto mem = m.sls->Checkpoint(g, "", CheckpointMode::kMemoryOnly);
    if (!mem.ok()) std::abort();  // a failed operation invalidates the measurement
    out.mem_ckpt_ms = ToMillis(mem->stop_time);
    auto restored = m.sls->RestoreFromMemory(profile.name);
    if (!restored.ok()) std::abort();  // a failed operation invalidates the measurement
    out.mem_restore_ms = ToMillis(restored->restore_time);
  }
  {
    // Full checkpoint; then an incremental one with the app mostly idle.
    BenchMachine m(8 * kGiB);
    auto procs = BuildAppProfile(m, profile);
    ConsistencyGroup* g = *m.sls->CreateGroup(profile.name);
    for (Process* p : procs) {
      AURORA_IGNORE_STATUS(m.sls->Attach(g, p), "attaching a freshly created process to its group cannot fail here");
    }
    auto full = m.sls->Checkpoint(g);
    if (!full.ok()) std::abort();  // a failed operation invalidates the measurement
    out.full_ckpt_ms = ToMillis(full->stop_time);
    m.sim.clock.AdvanceTo(full->durable_at);
    // Mostly idle: touch a little memory between checkpoints.
    AURORA_IGNORE_STATUS(procs[0]->vm().DirtyRange(0x40000000, 16 * kPageSize), "dirty-tracking hint on a mapping created above");
    auto incr = m.sls->Checkpoint(g);
    if (!incr.ok()) std::abort();  // a failed operation invalidates the measurement
    out.incr_ckpt_ms = ToMillis(incr->stop_time);
    m.sim.clock.AdvanceTo(incr->durable_at);

    auto full_restore = m.sls->Restore(profile.name, 0, RestoreMode::kFull);
    if (!full_restore.ok()) std::abort();  // a failed operation invalidates the measurement
    out.full_restore_ms = ToMillis(full_restore->restore_time);
    auto lazy_restore = m.sls->Restore(profile.name, 0, RestoreMode::kLazy);
    if (!lazy_restore.ok()) std::abort();  // a failed operation invalidates the measurement
    out.lazy_restore_ms = ToMillis(lazy_restore->restore_time);

    // Steady state: many mostly-idle epochs, so the group's stop-time
    // percentiles (ckpt.stop_time in the BENCH JSON) reflect the incremental
    // path rather than the one-off cold checkpoint. The restores above tore
    // down the original processes and rebound the group to the restored
    // incarnation, so address the app through the group, not through procs.
    Process* app = g->processes[0];
    for (int epoch = 0; epoch < 120; epoch++) {
      AURORA_IGNORE_STATUS(app->vm().DirtyRange(0x40000000, 16 * kPageSize), "dirty-tracking hint on a mapping created above");
      auto steady = m.sls->Checkpoint(g);
      if (steady.ok()) {
        m.sim.clock.AdvanceTo(steady->durable_at);
      }
    }
  }
  return out;
}

}  // namespace
}  // namespace aurora

int main() {
  aurora::BenchReport report("table6_apps");
  using namespace aurora;
  PrintHeader("Table 6: application checkpoint stop times and restore times (ms)");
  std::printf("  %-9s | %-6s |  %5s %7s | %5s %7s | %5s %7s\n", "", "", "meas", "(paper)",
              "meas", "(paper)", "meas", "(paper)");
  for (const PaperRow& row : PaperRows()) {
    Measured msr = MeasureApp(row.profile);
    // Every printed cell is also a results row, with the paper's value.
    const std::string& app = row.profile.name;
    report.AddResult(app + " ckpt mem", msr.mem_ckpt_ms, row.mem_ckpt_ms, "ms");
    report.AddResult(app + " ckpt full", msr.full_ckpt_ms, row.full_ckpt_ms, "ms");
    report.AddResult(app + " ckpt incr", msr.incr_ckpt_ms, row.incr_ckpt_ms, "ms");
    report.AddResult(app + " restore mem", msr.mem_restore_ms, row.mem_restore_ms, "ms");
    report.AddResult(app + " restore full", msr.full_restore_ms, row.full_restore_ms, "ms");
    report.AddResult(app + " restore lazy", msr.lazy_restore_ms, row.lazy_restore_ms, "ms");
    std::printf("  %-9s | ckpt   |  mem %5.1f %5.1f | full %5.1f %5.1f | incr %5.1f %5.1f\n",
                row.profile.name.c_str(), msr.mem_ckpt_ms, row.mem_ckpt_ms, msr.full_ckpt_ms,
                row.full_ckpt_ms, msr.incr_ckpt_ms, row.incr_ckpt_ms);
    std::printf("  %-9s | restore|  mem %5.1f %5.1f | full %5.1f %5.1f | lazy %5.1f %5.1f\n", "",
                msr.mem_restore_ms, row.mem_restore_ms, msr.full_restore_ms, row.full_restore_ms,
                msr.lazy_restore_ms, row.lazy_restore_ms);
  }
  std::printf(
      "\nShape checks: stop time tracks OS-state complexity (tomcat/firefox worst),\n"
      "full restores track RSS; lazy restores approach memory restores.\n");
  return 0;
}
