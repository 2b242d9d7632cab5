// Parallel flush lanes: more lanes must never make the flush slower, and the
// lane count must never change what lands on the device — the lane schedule
// only decides *when* each store block's write completes, never *what* is
// written or in which allocation order.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/base/sim_context.h"
#include "src/core/sls.h"
#include "src/fs/aurora_fs.h"
#include "src/objstore/object_store.h"
#include "src/storage/block_device.h"

namespace aurora {
namespace {

// The paper testbed: four NVMe devices striped at 64 KiB, 64 KiB store
// blocks — the configuration the flush lanes fan their queues over. The
// lane count is fixed when the machine is built.
struct Machine {
  explicit Machine(int lanes, bool content_stage = false) {
    sim.flush_lanes = lanes;
    device = MakePaperTestbedStore(&sim.clock, 2 * kGiB, kPageSize, &sim.metrics);
    StoreOptions options;
    options.block_size = 64 * kKiB;
    // Raw store by default: lane scaling then measures device-bandwidth
    // parallelism, which only shows when every page actually hits the
    // device at full size. With the content stage on, the flush is bound by
    // the lanes' hashing and compression instead.
    options.dedup = content_stage;
    options.codec = content_stage ? CodecId::kLz : CodecId::kRaw;
    store = *ObjectStore::Format(device.get(), &sim, options);
    fs = std::make_unique<AuroraFs>(&sim, store.get());
    kernel = std::make_unique<Kernel>(&sim);
    sls = std::make_unique<Sls>(&sim, kernel.get(), store.get(), fs.get());
  }

  SimContext sim;
  std::unique_ptr<BlockDevice> device;
  std::unique_ptr<ObjectStore> store;
  std::unique_ptr<AuroraFs> fs;
  std::unique_ptr<Kernel> kernel;
  std::unique_ptr<Sls> sls;
};

struct LaneRun {
  SimDuration flush_makespan = 0;
  // Every object in the committed checkpoint, fully read back at that epoch.
  std::map<Oid, std::vector<uint8_t>> contents;
};

// The fig3 append profile: a fresh region dirtied front to back, then one
// full checkpoint — the flush is a single streaming burst.
LaneRun RunAppendCheckpoint(Machine& m) {
  constexpr uint64_t kMem = 64 * kMiB;
  Process* proc = *m.kernel->CreateProcess("append");
  auto obj = VmObject::CreateAnonymous(kMem);
  uint64_t addr = *proc->vm().Map(0x400000, kMem, kProtRead | kProtWrite, obj, 0, false);
  uint64_t value = 0;
  for (uint64_t off = 0; off + kPageSize <= kMem; off += kPageSize) {
    value++;
    AURORA_IGNORE_STATUS(proc->vm().Write(addr + off, &value, sizeof(value)), "workload I/O into a mapping created above");
  }
  ConsistencyGroup* group = *m.sls->CreateGroup("append");
  EXPECT_TRUE(m.sls->Attach(group, proc).ok());

  SimTime t0 = m.sim.clock.now();
  auto ckpt = m.sls->Checkpoint(group, "lanes");
  EXPECT_TRUE(ckpt.ok());

  LaneRun run;
  SimTime resume_at = t0 + ckpt->stop_time;
  run.flush_makespan = ckpt->durable_at > resume_at ? ckpt->durable_at - resume_at : 0;
  for (const auto& [oid, info] : **m.store->TableAt(ckpt->epoch)) {
    std::vector<uint8_t> data(info.size);
    if (!data.empty()) {
      EXPECT_TRUE(m.store->ReadAtEpoch(ckpt->epoch, oid, 0, data.data(), data.size()).ok());
    }
    run.contents.emplace(oid, std::move(data));
  }
  return run;
}

LaneRun RunAppendCheckpoint(int lanes, bool content_stage = false) {
  Machine m(lanes, content_stage);
  EXPECT_EQ(m.sim.metrics.gauge("flush.lanes").value(), lanes);
  return RunAppendCheckpoint(m);
}

TEST(LaneScaling, MakespanMonotoneAndParallelSpeedup) {
  LaneRun one = RunAppendCheckpoint(1);
  LaneRun two = RunAppendCheckpoint(2);
  LaneRun four = RunAppendCheckpoint(4);
  ASSERT_GT(one.flush_makespan, 0);

  // More lanes never slow the flush down (the sim is deterministic, so this
  // is exact, not statistical).
  EXPECT_LE(two.flush_makespan, one.flush_makespan);
  EXPECT_LE(four.flush_makespan, two.flush_makespan);
  // The acceptance bar: four lanes at least halve the streaming-append flush.
  EXPECT_LE(2 * four.flush_makespan, one.flush_makespan)
      << "4 lanes must give >= 2x on the append flush, got "
      << static_cast<double>(one.flush_makespan) / static_cast<double>(four.flush_makespan)
      << "x";
}

// The content stage's hashing and compression run on each block's lane, so
// more lanes split that CPU work as they split device queues.
TEST(LaneScaling, ContentStageSpeedsUpWithLanes) {
  LaneRun one = RunAppendCheckpoint(1, true);
  LaneRun four = RunAppendCheckpoint(4, true);
  ASSERT_GT(one.flush_makespan, 0);
  EXPECT_LE(2 * four.flush_makespan, one.flush_makespan)
      << "4 lanes must give >= 2x on the content-stage flush, got "
      << static_cast<double>(one.flush_makespan) / static_cast<double>(four.flush_makespan)
      << "x";
  EXPECT_TRUE(four.contents == one.contents) << "the lane count changed what was stored";
}

TEST(LaneScaling, StoreContentsByteIdenticalAcrossLaneCounts) {
  LaneRun one = RunAppendCheckpoint(1);
  for (int lanes : {2, 4}) {
    LaneRun parallel = RunAppendCheckpoint(lanes);
    ASSERT_EQ(parallel.contents.size(), one.contents.size()) << "lanes=" << lanes;
    auto a = one.contents.begin();
    auto b = parallel.contents.begin();
    for (; a != one.contents.end(); ++a, ++b) {
      EXPECT_EQ(a->first.value, b->first.value) << "lanes=" << lanes;
      EXPECT_EQ(a->second, b->second)
          << "object " << a->first.value << " diverged at lanes=" << lanes;
    }
  }
}

// A machine asked for more lanes than it has cores runs one lane per core:
// the gauge reports the clamped width, and the flush touches no lane past it.
TEST(LaneScaling, LaneCountClampedToNcpus) {
  constexpr int kAsked = 64;
  Machine m(kAsked);
  const int ncpus = m.sim.ncpus;
  ASSERT_LT(ncpus, kAsked);
  EXPECT_EQ(m.sim.metrics.gauge("flush.lanes").value(), ncpus);

  LaneRun run = RunAppendCheckpoint(m);
  ASSERT_GT(run.flush_makespan, 0);
  const auto& counters = m.sim.metrics.counters();
  for (int lane = 0; lane < kAsked; lane++) {
    bool used = counters.count("flush.lane" + std::to_string(lane) + ".bytes") > 0;
    EXPECT_EQ(used, lane < ncpus) << "lane " << lane;
  }
  // The clamped machine flushes exactly like one built with ncpus lanes.
  EXPECT_EQ(run.flush_makespan, RunAppendCheckpoint(ncpus).flush_makespan);
}

}  // namespace
}  // namespace aurora
