// Shared benchmark machinery: one simulated machine per benchmark, paper
// reference values printed alongside measurements, and synthetic process
// builders (the Table 5/6 application profiles).
#ifndef BENCH_BENCH_COMMON_H_
#define BENCH_BENCH_COMMON_H_

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "src/base/sim_context.h"
#include "src/core/cli.h"
#include "src/core/sls.h"
#include "src/fs/aurora_fs.h"
#include "src/fs/baseline_fs.h"
#include "src/objstore/object_store.h"
#include "src/obs/json.h"
#include "src/posix/kernel.h"
#include "src/storage/block_device.h"

namespace aurora {

// Machine-readable companion to the printed tables: each bench binary
// declares one BenchReport at the top of main(), PrintRow feeds every table
// row into it, and BenchMachine teardown snapshots the machine's metrics
// registry (counters/gauges/histograms plus the newest phase spans). The
// destructor writes BENCH_<name>.json next to the binary's working
// directory so runs can be diffed without parsing stdout.
class BenchReport {
 public:
  explicit BenchReport(const std::string& name);
  ~BenchReport();

  void AddResult(const std::string& label, double measured, double paper,
                 const std::string& unit);
  // Snapshots `sim`'s registry under `label` ("machineN" when empty).
  void AddMetrics(const std::string& label, const SimContext& sim);
  void Write();

  static BenchReport* Current();

 private:
  struct Row {
    std::string label;
    double measured;
    double paper;
    std::string unit;
  };

  std::string name_;
  std::vector<Row> rows_;
  std::vector<std::pair<std::string, std::string>> metrics_;  // label -> JSON
  uint64_t machines_dropped_ = 0;
  bool written_ = false;
};

// One simulated machine matching the paper's testbed storage, with
// `flush_lanes` flush lanes for its lifetime (SimContext::flush_lanes).
struct BenchMachine {
  explicit BenchMachine(uint64_t store_bytes = 8 * kGiB, uint32_t store_block = 64 * 1024,
                        StoreOptions base = {}, int flush_lanes = 1) {
    sim.flush_lanes = flush_lanes;
    device = MakePaperTestbedStore(&sim.clock, store_bytes, kPageSize, &sim.metrics);
    StoreOptions options = base;
    options.block_size = store_block;
    store = *ObjectStore::Format(device.get(), &sim, options);
    fs = std::make_unique<AuroraFs>(&sim, store.get());
    kernel = std::make_unique<Kernel>(&sim);
    sls = std::make_unique<Sls>(&sim, kernel.get(), store.get(), fs.get());
  }

  ~BenchMachine() {
    if (BenchReport* report = BenchReport::Current()) {
      report->AddMetrics(metrics_label, sim);
    }
  }

  SimContext sim;
  std::unique_ptr<BlockDevice> device;
  std::unique_ptr<ObjectStore> store;
  std::unique_ptr<AuroraFs> fs;
  std::unique_ptr<Kernel> kernel;
  std::unique_ptr<Sls> sls;
  // Names this machine's section in the BENCH_*.json metrics dump.
  std::string metrics_label;
};

// Synthetic application profile (DESIGN.md section 4): a process tree with a
// given memory footprint and OS-state complexity.
struct AppProfile {
  std::string name;
  uint64_t rss_bytes = 0;
  int processes = 1;
  int threads = 1;          // total across the tree
  int map_entries = 32;     // per process, beyond the data regions
  int fds = 16;             // per process, mixed types
  int kqueues = 1;
};

// Builds the profile inside `m` and returns the process tree.
std::vector<Process*> BuildAppProfile(BenchMachine& m, const AppProfile& profile);

// --- Table printing -----------------------------------------------------------

inline void PrintHeader(const char* title) {
  std::printf("\n================================================================\n");
  std::printf("%s\n", title);
  std::printf("================================================================\n");
}

inline void PrintRow(const char* label, double measured, double paper, const char* unit) {
  std::printf("  %-34s %12.1f %12.1f  %s\n", label, measured, paper, unit);
  if (BenchReport* report = BenchReport::Current()) {
    report->AddResult(label, measured, paper, unit);
  }
}

inline void PrintRowStr(const char* label, const std::string& measured,
                        const std::string& paper) {
  std::printf("  %-34s %12s %12s\n", label, measured.c_str(), paper.c_str());
}

inline void PrintColumns() {
  std::printf("  %-34s %12s %12s\n", "", "measured", "paper");
}

}  // namespace aurora

#endif  // BENCH_BENCH_COMMON_H_
