// Table 5: checkpoint stop times for userspace data objects, by mode.
//
//   Incremental — full transparent checkpoint (all OS state + dirty memory)
//   Atomic      — sls_memckpt of the single region
//   Journaled   — sls_journal synchronous write of the data
//
// Stop time scales linearly with the dirty set (per-page COW arming in the
// page tables); the journal is latency-bound until ~64 KiB and
// bandwidth-bound after.
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench/bench_common.h"

namespace aurora {
namespace {

struct PaperRow {
  uint64_t bytes;
  double incr_us;
  double atomic_us;
  double journal_us;
};

const PaperRow kPaper[] = {
    {4 * kKiB, 185, 80, 28},          {16 * kKiB, 185, 83, 32},
    {64 * kKiB, 183, 74, 55},         {256 * kKiB, 186, 81, 121},
    {1 * kMiB, 186, 72, 443},         {4 * kMiB, 226, 114, 1800},
    {16 * kMiB, 304, 184, 6600},      {64 * kMiB, 600, 492, 25900},
    {256 * kMiB, 1900, 1600, 104700}, {1 * kGiB, 6100, 6300, 417200},
};

// The paper's measurement process: a realistic server footprint whose OS
// state gives the fixed cost, plus the variable dirty region.
struct Harness {
  explicit Harness(uint64_t region_bytes) : machine(16 * kGiB) {
    AppProfile profile;
    profile.name = "table5";
    profile.rss_bytes = 8 * kMiB;
    profile.threads = 4;
    profile.map_entries = 64;
    profile.fds = 52;  // a connected server: sockets dominate
    procs = BuildAppProfile(machine, profile);
    group = *machine.sls->CreateGroup("table5");
    for (Process* p : procs) {
      AURORA_IGNORE_STATUS(machine.sls->Attach(group, p), "attaching a freshly created process to its group cannot fail here");
    }
    auto obj = VmObject::CreateAnonymous(PageRound(region_bytes));
    region = *procs[0]->vm().Map(0x900000000ull, PageRound(region_bytes),
                                 kProtRead | kProtWrite, std::move(obj), 0, false);
    // Baseline checkpoint so later ones are incremental.
    AURORA_IGNORE_STATUS(procs[0]->vm().DirtyRange(region, region_bytes), "dirty-tracking hint on a mapping created above");
    auto first = machine.sls->Checkpoint(group);
    if (!first.ok()) std::abort();  // a failed operation invalidates the measurement
    machine.sim.clock.AdvanceTo(first->durable_at);
  }

  BenchMachine machine;
  std::vector<Process*> procs;
  ConsistencyGroup* group = nullptr;
  uint64_t region = 0;
};

double MeasureIncremental(uint64_t bytes) {
  Harness h(bytes);
  AURORA_IGNORE_STATUS(h.procs[0]->vm().DirtyRange(h.region, bytes), "dirty-tracking hint on a mapping created above");
  auto ckpt = h.machine.sls->Checkpoint(h.group);
  if (!ckpt.ok()) std::abort();  // a failed operation invalidates the measurement
  return ToMicros(ckpt->stop_time);
}

double MeasureAtomic(uint64_t bytes) {
  Harness h(bytes);
  AURORA_IGNORE_STATUS(h.procs[0]->vm().DirtyRange(h.region, bytes), "dirty-tracking hint on a mapping created above");
  auto ckpt = h.machine.sls->MemCheckpoint(h.procs[0], h.region);
  if (!ckpt.ok()) std::abort();  // a failed operation invalidates the measurement
  return ToMicros(ckpt->stop_time);
}

double MeasureJournal(uint64_t bytes) {
  BenchMachine m(16 * kGiB);
  auto journal = *m.sls->JournalCreate(2 * kGiB);
  std::vector<uint8_t> data(bytes, 0x7a);
  SimStopwatch watch(m.sim.clock);
  AURORA_IGNORE_STATUS(m.sls->JournalAppend(journal, data.data(), data.size()), "outcome intentionally ignored in this scenario");
  return ToMicros(watch.Elapsed());
}

}  // namespace
}  // namespace aurora

int main() {
  aurora::BenchReport report("table5_memory_objects");
  using namespace aurora;
  PrintHeader(
      "Table 5: stop time vs dirty object size (us)\n"
      "columns: measured-incr paper-incr | measured-atomic paper-atomic | "
      "measured-journal paper-journal");
  std::printf("  %10s | %9s %9s | %9s %9s | %10s %10s\n", "size", "incr", "(paper)", "atomic",
              "(paper)", "journal", "(paper)");
  for (const auto& row : kPaper) {
    double incr = MeasureIncremental(row.bytes);
    double atomic_us = MeasureAtomic(row.bytes);
    double journal = MeasureJournal(row.bytes);
    const char* label = row.bytes >= kGiB ? "GiB" : (row.bytes >= kMiB ? "MiB" : "KiB");
    double scaled = static_cast<double>(row.bytes) /
                    static_cast<double>(row.bytes >= kGiB ? kGiB : (row.bytes >= kMiB ? kMiB : kKiB));
    std::printf("  %7.0f%3s | %9.0f %9.0f | %9.0f %9.0f | %10.0f %10.0f\n", scaled, label, incr,
                row.incr_us, atomic_us, row.atomic_us, journal, row.journal_us);
    // Every printed cell is also a results row, with the paper's value.
    char size[16];
    std::snprintf(size, sizeof(size), "%.0f%s", scaled, label);
    report.AddResult(std::string(size) + " incr", incr, row.incr_us, "us");
    report.AddResult(std::string(size) + " atomic", atomic_us, row.atomic_us, "us");
    report.AddResult(std::string(size) + " journal", journal, row.journal_us, "us");
  }
  std::printf("\nShape checks: incremental slope ~23ns/page; journal = 26us + bytes/2.575GBps\n");
  return 0;
}
