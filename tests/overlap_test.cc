// Epoch-overlap backpressure: with the default in-flight limit of 1 a new
// epoch never begins before the previous flush is durable, whether the
// periodic timer, a direct Sls::Checkpoint call or sls_memckpt opens it; with
// limit 2 serialization overlaps the in-flight flush (and still commits in
// order), reducing checkpoint-to-checkpoint stall.
#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "src/base/sim_context.h"
#include "src/core/sls.h"
#include "src/fs/aurora_fs.h"
#include "src/objstore/object_store.h"
#include "src/storage/block_device.h"

namespace aurora {
namespace {

struct Machine {
  explicit Machine(uint64_t store_bytes = 1 * kGiB) {
    // One deliberately slow device (500 MB/s) instead of the four-way
    // striped testbed: the flush must outlast the checkpoint period for the
    // in-flight limit to matter at all.
    DeviceProfile slow;
    slow.write_bytes_per_ns = 0.5;
    slow.read_bytes_per_ns = 1.0;
    device = std::make_unique<MemBlockDevice>(&sim.clock, store_bytes / kPageSize, kPageSize, slow);
    // Raw store: overlap needs flushes slow enough to outlast the checkpoint
    // period; dedup/compression would collapse the patterned pages and make
    // every flush complete inside its own epoch.
    StoreOptions raw;
    raw.dedup = false;
    raw.codec = CodecId::kRaw;
    store = *ObjectStore::Format(device.get(), &sim, raw);
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

// Runs an append-heavy app under periodic checkpoints for `run_for`
// simulated time. The app writes fresh pages (log-style) faster than the
// slow device drains them, so every flush outlasts the period and the
// in-flight-epochs limit is what paces the pipeline. Appends matter:
// rewriting checkpointed pages would COW-fault against objects the flusher
// holds busy, serializing the mutator on the flush regardless of the limit.
ConsistencyGroup* RunDirtyWorkload(Machine& m, uint32_t in_flight, SimDuration run_for) {
  constexpr uint64_t kMem = 256 * kMiB;
  Process* proc = *m.kernel->CreateProcess("dirty");
  auto obj = VmObject::CreateAnonymous(kMem);
  uint64_t addr = *proc->vm().Map(0x400000, kMem, kProtRead | kProtWrite, obj, 0, false);

  ConsistencyGroup* group = *m.sls->CreateGroup("dirty");
  EXPECT_TRUE(m.sls->Attach(group, proc).ok());
  group->period = 1 * kMillisecond;
  group->max_in_flight_epochs = in_flight;
  m.sls->StartPeriodicCheckpoints(group);

  uint64_t value = 0;
  uint64_t cursor = 0;
  SimTime deadline = m.sim.clock.now() + run_for;
  while (m.sim.clock.now() < deadline) {
    // Append 512 KiB of fresh pages each iteration (~2.3 MB per simulated
    // ms, several times the device's bandwidth).
    for (int i = 0; i < 128 && cursor + kPageSize <= kMem; i++) {
      value++;
      AURORA_IGNORE_STATUS(proc->vm().Write(addr + cursor, &value, sizeof(value)), "workload I/O into a mapping created above");
      cursor += kPageSize;
    }
    m.sim.clock.Advance(200 * kMicrosecond);
    m.sim.events.RunUntil(m.sim.clock.now());
  }
  m.sls->StopPeriodicCheckpoints(group);
  return group;
}

TEST(EpochOverlap, LimitOneNeverStartsBeforePreviousFlushIsDurable) {
  Machine m;
  ConsistencyGroup* group = RunDirtyWorkload(m, 1, 50 * kMillisecond);
  const auto& h = group->ckpt_history;
  ASSERT_GE(h.size(), 3u);
  for (size_t i = 1; i < h.size(); i++) {
    EXPECT_GE(h[i].begin, h[i - 1].durable)
        << "epoch " << h[i].epoch << " began before epoch " << h[i - 1].epoch
        << " was durable";
  }
}

// Back-to-back direct checkpoints obey the same window as the timer: with
// limit 1, each waits for the previous flush to be durable before it begins,
// although its caller asked for it at once.
TEST(EpochOverlap, DirectCheckpointsHonorTheInFlightLimit) {
  Machine m;
  constexpr uint64_t kDirty = 8 * kMiB;
  constexpr uint64_t kMem = kDirty + 4 * kPageSize;
  Process* proc = *m.kernel->CreateProcess("direct");
  auto obj = VmObject::CreateAnonymous(kMem);
  uint64_t addr = *proc->vm().Map(0x400000, kMem, kProtRead | kProtWrite, obj, 0, false);
  uint64_t value = 0;
  for (uint64_t off = 0; off < kDirty; off += kPageSize) {
    value++;
    ASSERT_TRUE(proc->vm().Write(addr + off, &value, sizeof(value)).ok());
  }
  ConsistencyGroup* group = *m.sls->CreateGroup("direct");
  ASSERT_TRUE(m.sls->Attach(group, proc).ok());
  group->max_in_flight_epochs = 1;

  for (uint64_t i = 0; i < 3; i++) {
    value++;
    ASSERT_TRUE(proc->vm().Write(addr + kDirty + i * kPageSize, &value, sizeof(value)).ok());
    ASSERT_TRUE(m.sls->Checkpoint(group).ok());
  }
  const auto& h = group->ckpt_history;
  ASSERT_EQ(h.size(), 3u);
  ASSERT_GT(h[0].durable, h[0].begin + 10 * kMillisecond)
      << "the first flush must outlast the calls that follow it";
  for (size_t i = 1; i < h.size(); i++) {
    EXPECT_GE(h[i].begin, h[i - 1].durable)
        << "epoch " << h[i].epoch << " began before epoch " << h[i - 1].epoch
        << " was durable";
  }
}

TEST(EpochOverlap, LimitTwoOverlapsAndCommitsInOrder) {
  Machine base;
  ConsistencyGroup* serial = RunDirtyWorkload(base, 1, 50 * kMillisecond);

  Machine m;
  ConsistencyGroup* group = RunDirtyWorkload(m, 2, 50 * kMillisecond);
  const auto& h = group->ckpt_history;
  ASSERT_GE(h.size(), 3u);

  size_t overlapped = 0;
  for (size_t i = 1; i < h.size(); i++) {
    if (h[i].begin < h[i - 1].durable) {
      overlapped++;
    }
    EXPECT_GT(h[i].epoch, h[i - 1].epoch) << "commits must stay in order";
    EXPECT_GE(h[i].durable, h[i - 1].durable)
        << "durability must be monotone across overlapping epochs";
  }
  EXPECT_GT(overlapped, 0u) << "limit=2 must overlap serialization with the in-flight flush";

  // The whole point of overlap: less stall between checkpoints, so the same
  // wall-clock window fits more epochs than the serial pipeline.
  EXPECT_GT(h.size(), serial->ckpt_history.size());
}

// An app whose one 8 MiB region is dirty end to end, in a group with the
// given in-flight limit: a flush of the region outlasts the calls that
// follow it on the slow device.
struct RegionApp {
  RegionApp(Machine& m, uint32_t in_flight) {
    proc = *m.kernel->CreateProcess("region");
    auto obj = VmObject::CreateAnonymous(kMem);
    addr = *proc->vm().Map(0x400000, kMem, kProtRead | kProtWrite, obj, 0, false);
    uint64_t value = 0;
    for (uint64_t off = 0; off < kMem; off += kPageSize) {
      value++;
      EXPECT_TRUE(proc->vm().Write(addr + off, &value, sizeof(value)).ok());
    }
    group = *m.sls->CreateGroup("region");
    EXPECT_TRUE(m.sls->Attach(group, proc).ok());
    group->max_in_flight_epochs = in_flight;
  }

  // Dirties one more page, so the next checkpoint has something to flush.
  void Touch(uint64_t page) {
    uint64_t value = ~page;
    EXPECT_TRUE(proc->vm().Write(addr + page * kPageSize, &value, sizeof(value)).ok());
  }

  static constexpr uint64_t kMem = 8 * kMiB;
  Process* proc = nullptr;
  uint64_t addr = 0;
  ConsistencyGroup* group = nullptr;
};

// sls_memckpt is the checkpoint pipeline over one region, so it shares the
// group's window: with limit 1 a second back-to-back call begins only once
// the first is durable; with limit 2 it begins at once.
TEST(EpochOverlap, MemCheckpointsHonorTheInFlightLimit) {
  for (uint32_t limit : {1u, 2u}) {
    SCOPED_TRACE("limit " + std::to_string(limit));
    Machine m;
    RegionApp app(m, limit);
    auto first = m.sls->MemCheckpoint(app.proc, app.addr);
    ASSERT_TRUE(first.ok()) << first.status().message();
    ASSERT_GT(first->durable_at, m.sim.clock.now() + 10 * kMillisecond)
        << "the first flush must outlast the call that follows it";

    app.Touch(1);
    SimTime called = m.sim.clock.now();
    auto second = m.sls->MemCheckpoint(app.proc, app.addr);
    ASSERT_TRUE(second.ok()) << second.status().message();
    const auto& h = app.group->ckpt_history;
    ASSERT_EQ(h.size(), 2u) << "each sls_memckpt is an epoch of the window";
    EXPECT_EQ(h[0].durable, first->durable_at);
    if (limit == 1) {
      EXPECT_GE(h[1].begin, first->durable_at);
    } else {
      EXPECT_EQ(h[1].begin, called);
    }
    EXPECT_GT(second->epoch, first->epoch);
  }
}

// A full checkpoint issued while an sls_memckpt flush is in flight waits for
// it under limit 1, as it would for another full checkpoint.
TEST(EpochOverlap, FullCheckpointWaitsForAnInFlightMemCheckpoint) {
  Machine m;
  RegionApp app(m, 1);
  auto atomic = m.sls->MemCheckpoint(app.proc, app.addr);
  ASSERT_TRUE(atomic.ok()) << atomic.status().message();
  ASSERT_GT(atomic->durable_at, m.sim.clock.now() + 10 * kMillisecond);

  app.Touch(2);
  auto full = m.sls->Checkpoint(app.group);
  ASSERT_TRUE(full.ok()) << full.status().message();
  const auto& h = app.group->ckpt_history;
  ASSERT_EQ(h.size(), 2u);
  EXPECT_GE(h[1].begin, atomic->durable_at);
}

}  // namespace
}  // namespace aurora
