// Fault matrix: deterministic device fault injection swept over the
// checkpoint and restore phases of an object-store workload, plus the
// SLS-level graceful-degradation contract.
//
//  - Transient read/write errors at modest rates are masked by the bounded
//    retry policy; contents stay byte-identical and io.retries counts. A
//    flush lane's retried write backs off on the lane: it delays
//    durability, not the application's clock.
//  - Latent sector errors and silent bit flips are never silently read
//    back: every read either returns the committed bytes or a typed
//    kIoError / kCorrupt.
//  - The crash fuse composes with transient faults: recovery still lands on
//    an exact committed epoch.
//  - One seed ⇒ one fault schedule: stats, corrupted-LBA sets and retry
//    counts replay exactly.
//  - A zero-rate profile consumes no randomness and is time- and
//    byte-identical to running with no injector at all.
//  - Flush failure aborts only the in-flight epoch: the application keeps
//    running on the last durable epoch and the dirty pages ride the next
//    successful checkpoint. So do the pages of a failed sls_memckpt.
//  - A suspend whose checkpoint aborts fails and leaves the group running.
//  - A restore that fails closes its trace span at the time it failed.
//  - A flush write or a journal header write that fails gives its
//    allocation back: the live bitmap stays the one the tables derive.
//  - The scrubber finds every injected flip that lands in a committed data
//    block, with no false positives.
#include <gtest/gtest.h>

#include <cstring>
#include <set>

#include "src/base/sim_context.h"
#include "src/core/cli.h"
#include "src/core/sls.h"
#include "src/fs/aurora_fs.h"
#include "src/objstore/object_store.h"
#include "src/objstore/scrubber.h"
#include "src/storage/block_device.h"
#include "src/storage/fault_injector.h"

namespace aurora {
namespace {

constexpr uint64_t kDeviceBlocks = (64 * kMiB) / kPageSize;

std::vector<uint8_t> Pattern(size_t len, uint8_t seed) {
  std::vector<uint8_t> out(len);
  for (size_t i = 0; i < len; i++) {
    out[i] = static_cast<uint8_t>(seed + i * 31);
  }
  return out;
}

FaultRule RateRule(double read_rate, double write_rate, double flip_rate = 0.0,
                   double latent_rate = 0.0) {
  FaultRule rule;
  rule.read_error_rate = read_rate;
  rule.write_error_rate = write_rate;
  rule.bit_flip_rate = flip_rate;
  rule.latent_sector_rate = latent_rate;
  return rule;
}

// Writes `nblocks` full store blocks of deterministic contents to `oid`.
Status WriteBlocks(ObjectStore* store, Oid oid, uint64_t nblocks, uint8_t seed) {
  std::vector<uint8_t> data = Pattern(nblocks * store->block_size(), seed);
  return store->WriteAt(oid, 0, data.data(), data.size()).status();
}

// Every read must be byte-identical to the committed pattern or fail with a
// typed media error — silent corruption is the one forbidden outcome.
// Returns true when the read succeeded (contents verified).
bool ExpectReadTypedOrExact(ObjectStore* store, Oid oid, uint64_t nblocks, uint8_t seed) {
  std::vector<uint8_t> want = Pattern(nblocks * store->block_size(), seed);
  std::vector<uint8_t> back(want.size());
  Status read = store->ReadAt(oid, 0, back.data(), back.size());
  if (!read.ok()) {
    EXPECT_TRUE(read.code() == Errc::kCorrupt || read.code() == Errc::kIoError)
        << "read failed untyped: " << read.message();
    return false;
  }
  EXPECT_EQ(back, want) << "silent corruption: read succeeded with wrong bytes";
  return true;
}

// The standard two-commit workload: obj1 at c1, obj2 at c2, each region
// written exactly once so every data block stays live in the final epoch.
struct Workload {
  Oid obj1 = kInvalidOid;
  Oid obj2 = kInvalidOid;
  static constexpr uint64_t kObj1Blocks = 3;
  static constexpr uint64_t kObj2Blocks = 2;

  Status Run(ObjectStore* store) {
    AURORA_ASSIGN_OR_RETURN(obj1, store->CreateObject(ObjType::kMemory));
    AURORA_RETURN_IF_ERROR(WriteBlocks(store, obj1, kObj1Blocks, 1));
    AURORA_RETURN_IF_ERROR(store->CommitCheckpoint("c1").status());
    AURORA_ASSIGN_OR_RETURN(obj2, store->CreateObject(ObjType::kMemory));
    AURORA_RETURN_IF_ERROR(WriteBlocks(store, obj2, kObj2Blocks, 2));
    AURORA_RETURN_IF_ERROR(store->CommitCheckpoint("c2").status());
    return Status::Ok();
  }
};

TEST(FaultMatrix, TransientWriteErrorsMaskedByRetry) {
  SimContext sim;
  MemBlockDevice device(&sim.clock, kDeviceBlocks);
  device.set_metrics(&sim.metrics);
  // Raw store: the fault schedule is keyed to the device-write sequence the
  // patterned workload generates; dedup/compression would thin it out.
  StoreOptions raw;
  raw.dedup = false;
  raw.codec = CodecId::kRaw;
  auto store = *ObjectStore::Format(&device, &sim, raw);
  device.InstallFaults(0xA11CE, {RateRule(0.0, 0.10)});

  Workload w;
  ASSERT_TRUE(w.Run(store.get()).ok()) << "10% transient write errors must be masked";
  device.ClearFaults();

  EXPECT_GE(sim.metrics.counter("io.retries").value(), 1u);
  EXPECT_EQ(sim.metrics.counter("io.giveups").value(), 0u);
  EXPECT_TRUE(ExpectReadTypedOrExact(store.get(), w.obj1, Workload::kObj1Blocks, 1));
  EXPECT_TRUE(ExpectReadTypedOrExact(store.get(), w.obj2, Workload::kObj2Blocks, 2));
}

// A flush lane's block write that fails transiently is resubmitted after a
// backoff on the lane's own timeline: the write's completion, and with it
// the checkpoint's durability, moves later, while the application's clock
// stays where a clean write leaves it.
TEST(FaultMatrix, RetriedLaneWriteDelaysDurabilityNotTheClock) {
  struct Flush {
    SimDuration clock_moved = 0;
    SimDuration completion = 0;
    uint64_t retries = 0;
  };
  auto flush = [](bool faulty) {
    Flush out;
    SimContext sim;
    MemBlockDevice device(&sim.clock, kDeviceBlocks);
    device.set_metrics(&sim.metrics);
    StoreOptions raw;
    raw.dedup = false;
    raw.codec = CodecId::kRaw;
    auto store = *ObjectStore::Format(&device, &sim, raw);
    Oid oid = *store->CreateObject(ObjType::kMemory);
    std::vector<uint8_t> block = Pattern(store->block_size(), 7);
    if (faulty) {
      // This seed fails the block's first write attempt and passes its
      // second.
      device.InstallFaults(0x5EED5, {RateRule(0.0, 0.5)});
    }
    const SimTime t0 = sim.clock.now();
    auto done = store->WriteAt(oid, 0, block.data(), block.size());
    device.ClearFaults();
    EXPECT_TRUE(done.ok());
    out.clock_moved = sim.clock.now() - t0;
    out.completion = done.ok() ? *done - t0 : 0;
    out.retries = sim.metrics.counter("io.retries").value();
    EXPECT_TRUE(ExpectReadTypedOrExact(store.get(), oid, 1, 7));
    return out;
  };
  const Flush clean = flush(false);
  const Flush retried = flush(true);
  ASSERT_EQ(clean.retries, 0u);
  ASSERT_EQ(retried.retries, 1u) << "the seed must fail exactly the first attempt";
  EXPECT_EQ(retried.clock_moved, clean.clock_moved)
      << "a lane's retry backoff stalled the application";
  EXPECT_EQ(retried.completion,
            clean.completion + IoRetryPolicy::FromCost(CostModel()).initial_backoff)
      << "the backoff must delay the write's completion";
}

TEST(FaultMatrix, TransientReadErrorsMaskedByRetry) {
  SimContext sim;
  MemBlockDevice device(&sim.clock, kDeviceBlocks);
  device.set_metrics(&sim.metrics);
  auto store = *ObjectStore::Format(&device, &sim);
  Workload w;
  ASSERT_TRUE(w.Run(store.get()).ok());

  // Restore-phase faults: a fresh mount plus every read under 10% transient
  // read errors.
  device.InstallFaults(0xB0B, {RateRule(0.10, 0.0)});
  auto reopened = ObjectStore::Open(&device, &sim);
  ASSERT_TRUE(reopened.ok()) << "transient read errors must not fail the mount";
  EXPECT_TRUE(ExpectReadTypedOrExact(reopened->get(), w.obj1, Workload::kObj1Blocks, 1));
  EXPECT_TRUE(ExpectReadTypedOrExact(reopened->get(), w.obj2, Workload::kObj2Blocks, 2));
  EXPECT_GE(sim.metrics.counter("io.retries").value(), 1u);
  EXPECT_EQ(sim.metrics.counter("io.giveups").value(), 0u);
}

TEST(FaultMatrix, LatentSectorReadsFailTyped) {
  SimContext sim;
  MemBlockDevice device(&sim.clock, kDeviceBlocks);
  device.set_metrics(&sim.metrics);
  auto store = *ObjectStore::Format(&device, &sim);
  Workload w;
  ASSERT_TRUE(w.Run(store.get()).ok());

  // Rot every device block past the superblock ring: all committed data is
  // now sticky-unreadable, and retries must never mask it. (The whole device
  // is rotted so the test holds for any layout's physical placement.)
  uint32_t dps = store->block_size() / device.block_size();
  device.InstallFaults(0xDEAD, {});
  for (uint64_t lba = dps; lba < device.block_count(); lba++) {
    device.fault_injector()->AddLatentSector(lba);
  }
  std::vector<uint8_t> back(store->block_size());
  Status read = store->ReadAt(w.obj1, 0, back.data(), back.size());
  ASSERT_FALSE(read.ok()) << "latent sector read must not succeed";
  EXPECT_EQ(read.code(), Errc::kIoError);
  EXPECT_GE(sim.metrics.counter("io.giveups").value(), 1u);
  read = store->ReadAt(w.obj2, 0, back.data(), back.size());
  ASSERT_FALSE(read.ok());
  EXPECT_EQ(read.code(), Errc::kIoError);

  // A rewrite replaces the rotten cells: the COW overwrite lands on freshly
  // written blocks whose latent marks clear, so obj1 reads exactly again.
  ASSERT_TRUE(WriteBlocks(store.get(), w.obj1, Workload::kObj1Blocks, 7).ok());
  EXPECT_TRUE(ExpectReadTypedOrExact(store.get(), w.obj1, Workload::kObj1Blocks, 7));
}

TEST(FaultMatrix, BitFlipsNeverSilentlyReadBack) {
  SimContext sim;
  MemBlockDevice device(&sim.clock, kDeviceBlocks);
  device.set_metrics(&sim.metrics);
  auto store = *ObjectStore::Format(&device, &sim);
  device.InstallFaults(0xF11B, {RateRule(0.0, 0.0, 0.05)});
  Workload w;
  ASSERT_TRUE(w.Run(store.get()).ok()) << "write-time flips are silent at write time";
  uint64_t flips = device.fault_injector()->stats().bit_flips;
  ASSERT_GE(flips, 1u) << "seed produced no flips; the test has no teeth";
  device.ClearFaults();

  // Reads through the CRC path: exact bytes or typed kCorrupt, never garbage.
  ExpectReadTypedOrExact(store.get(), w.obj1, Workload::kObj1Blocks, 1);
  ExpectReadTypedOrExact(store.get(), w.obj2, Workload::kObj2Blocks, 2);
}

TEST(FaultMatrix, CrashFuseComposesWithTransientFaults) {
  // Arm the crash fuse at a handful of points inside the second commit while
  // 1% transient faults are live: recovery must still land on an exact
  // committed epoch (the full point sweep lives in crash_matrix_test).
  for (uint64_t crash_at : {20u, 40u, 60u, 90u}) {
    SimContext sim;
    MemBlockDevice device(&sim.clock, kDeviceBlocks);
    device.set_metrics(&sim.metrics);
    auto store = *ObjectStore::Format(&device, &sim);
    device.InstallFaults(0xC0DE + crash_at, {RateRule(0.01, 0.01)});
    device.CrashAfterWrites(crash_at);

    Workload w;
    AURORA_IGNORE_STATUS(w.Run(store.get()), "crash fuse may fire anywhere in the run; teardown is the scenario");  // may tear anywhere once the fuse fires
    device.DisarmCrash();

    auto reopened = ObjectStore::Open(&device, &sim);
    if (!reopened.ok()) {
      // Power lost before the first commit: an unmountable store is sound.
      continue;
    }
    bool has_c1 = false;
    bool has_c2 = false;
    for (const CheckpointInfo& ckpt : (*reopened)->ListCheckpoints()) {
      has_c1 |= ckpt.name == "c1";
      has_c2 |= ckpt.name == "c2";
    }
    if (has_c1 || has_c2) {
      EXPECT_TRUE(ExpectReadTypedOrExact(reopened->get(), w.obj1, Workload::kObj1Blocks, 1))
          << "crash point " << crash_at;
    }
    if (has_c2) {
      EXPECT_TRUE(ExpectReadTypedOrExact(reopened->get(), w.obj2, Workload::kObj2Blocks, 2))
          << "crash point " << crash_at;
    }
  }
}

TEST(FaultMatrix, SameSeedReplaysSameSchedule) {
  auto run = [](uint64_t* retries, FaultStats* stats, std::set<uint64_t>* corrupted,
                std::set<uint64_t>* latent) {
    SimContext sim;
    MemBlockDevice device(&sim.clock, kDeviceBlocks);
    device.set_metrics(&sim.metrics);
    auto store = *ObjectStore::Format(&device, &sim);
    device.InstallFaults(0x5EED, {RateRule(0.05, 0.05, 0.02, 0.02)});
    Workload w;
    AURORA_IGNORE_STATUS(w.Run(store.get()), "crash fuse may fire anywhere in the run; teardown is the scenario");
    *retries = sim.metrics.counter("io.retries").value();
    *stats = device.fault_injector()->stats();
    *corrupted = device.fault_injector()->corrupted_lbas();
    *latent = device.fault_injector()->latent_lbas();
  };

  uint64_t retries_a = 0;
  uint64_t retries_b = 0;
  FaultStats stats_a;
  FaultStats stats_b;
  std::set<uint64_t> corrupted_a;
  std::set<uint64_t> corrupted_b;
  std::set<uint64_t> latent_a;
  std::set<uint64_t> latent_b;
  run(&retries_a, &stats_a, &corrupted_a, &latent_a);
  run(&retries_b, &stats_b, &corrupted_b, &latent_b);

  EXPECT_EQ(retries_a, retries_b);
  EXPECT_EQ(stats_a.read_errors, stats_b.read_errors);
  EXPECT_EQ(stats_a.write_errors, stats_b.write_errors);
  EXPECT_EQ(stats_a.bit_flips, stats_b.bit_flips);
  EXPECT_EQ(stats_a.latent_marks, stats_b.latent_marks);
  EXPECT_EQ(stats_a.latent_hits, stats_b.latent_hits);
  EXPECT_EQ(stats_a.tail_delays, stats_b.tail_delays);
  EXPECT_EQ(corrupted_a, corrupted_b);
  EXPECT_EQ(latent_a, latent_b);
}

TEST(FaultMatrix, ZeroRateProfileIsTimeAndByteIdentical) {
  auto run = [](bool attach_injector, SimTime* end, uint64_t* writes,
                std::vector<uint8_t>* back1) {
    SimContext sim;
    MemBlockDevice device(&sim.clock, kDeviceBlocks);
    device.set_metrics(&sim.metrics);
    auto store = *ObjectStore::Format(&device, &sim);
    if (attach_injector) {
      // A matching-everything rule whose rates are all zero: attached but
      // inert, and forbidden from consuming any randomness.
      device.InstallFaults(0x1D, {FaultRule{}});
    }
    Workload w;
    ASSERT_TRUE(w.Run(store.get()).ok());
    back1->resize(Workload::kObj1Blocks * store->block_size());
    ASSERT_TRUE(store->ReadAt(w.obj1, 0, back1->data(), back1->size()).ok());
    *end = sim.clock.now();
    *writes = device.stats().writes;
    EXPECT_EQ(sim.metrics.counter("io.retries").value(), 0u);
    EXPECT_EQ(sim.metrics.counter("io.giveups").value(), 0u);
  };

  SimTime end_plain = 0;
  SimTime end_faulty = 0;
  uint64_t writes_plain = 0;
  uint64_t writes_faulty = 0;
  std::vector<uint8_t> back_plain;
  std::vector<uint8_t> back_faulty;
  run(false, &end_plain, &writes_plain, &back_plain);
  run(true, &end_faulty, &writes_faulty, &back_faulty);

  EXPECT_EQ(end_plain, end_faulty) << "zero-rate injector changed the timeline";
  EXPECT_EQ(writes_plain, writes_faulty);
  EXPECT_EQ(back_plain, back_faulty);
}

TEST(FaultMatrix, ScrubDetectsEveryCommittedFlip) {
  SimContext sim;
  MemBlockDevice device(&sim.clock, kDeviceBlocks);
  device.set_metrics(&sim.metrics);
  // Raw store: the flip-coverage argument needs data blocks to occupy enough
  // of the device that random flips land in them; compression would shrink
  // the data footprint to a handful of LBAs.
  StoreOptions raw;
  raw.dedup = false;
  raw.codec = CodecId::kRaw;
  auto store = *ObjectStore::Format(&device, &sim, raw);
  device.InstallFaults(0x5C2B, {RateRule(0.0, 0.0, 0.05)});

  // Write-once workload: every data block written stays live in the final
  // epoch, so each data-block flip must surface as exactly one bad block.
  Oid obj1 = *store->CreateObject(ObjType::kMemory);
  ASSERT_TRUE(WriteBlocks(store.get(), obj1, 8, 1).ok());
  ASSERT_TRUE(store->CommitCheckpoint("c1").ok());
  Oid obj2 = *store->CreateObject(ObjType::kMemory);
  ASSERT_TRUE(WriteBlocks(store.get(), obj2, 6, 2).ok());
  ASSERT_TRUE(store->CommitCheckpoint("c2").ok());

  std::set<uint64_t> corrupted = device.fault_injector()->corrupted_lbas();
  ASSERT_GE(corrupted.size(), 1u) << "seed produced no flips; the test has no teeth";

  Scrubber scrubber(store.get());
  auto report = scrubber.ScrubAll();
  ASSERT_TRUE(report.ok());

  uint32_t dps = store->block_size() / device.block_size();
  auto in_bad_block = [&](uint64_t lba) {
    for (const ScrubBadBlock& bad : report->bad_blocks) {
      if (lba >= bad.phys * dps && lba < (bad.phys + 1) * dps) {
        return true;
      }
    }
    return false;
  };

  // No false positives: every CRC-mismatch block holds an injected flip.
  for (const ScrubBadBlock& bad : report->bad_blocks) {
    ASSERT_EQ(bad.error, Errc::kCorrupt);
    bool has_flip = false;
    for (uint64_t lba = bad.phys * dps; lba < (bad.phys + 1) * dps; lba++) {
      has_flip |= corrupted.count(lba) > 0;
    }
    EXPECT_TRUE(has_flip) << "scrub flagged phys " << bad.phys << " without an injected flip";
  }

  // Full coverage: every flip inside a CRC-covered committed data block must
  // be flagged. Flips elsewhere (metadata padding, the superblock ring) are
  // covered by the meta blob CRC / the next mount instead.
  uint64_t data_flips = 0;
  for (uint64_t lba : corrupted) {
    if (report->data_phys.count(lba / dps) == 0) {
      continue;
    }
    data_flips++;
    EXPECT_TRUE(in_bad_block(lba)) << "flip at device lba " << lba << " missed by scrub";
  }
  ASSERT_GE(data_flips, 1u) << "no flip landed in a data block; the test has no teeth";

  // A clean store scrubs clean.
  SimContext clean_sim;
  MemBlockDevice clean_device(&clean_sim.clock, kDeviceBlocks);
  auto clean_store = *ObjectStore::Format(&clean_device, &clean_sim);
  Workload clean;
  ASSERT_TRUE(clean.Run(clean_store.get()).ok());
  Scrubber clean_scrubber(clean_store.get());
  auto clean_report = clean_scrubber.ScrubAll();
  ASSERT_TRUE(clean_report.ok());
  EXPECT_TRUE(clean_report->clean());
  EXPECT_TRUE(clean_report->bad_blocks.empty());
  EXPECT_EQ(clean_report->epochs.size(), clean_store->ListCheckpoints().size());
}

// A raw store on a 64 MiB device with 64 KiB blocks: one device write per
// flushed block, so a total write outage fails exactly the write under test.
std::unique_ptr<ObjectStore> RawStore(MemBlockDevice* device, SimContext* sim) {
  StoreOptions raw;
  raw.dedup = false;
  raw.codec = CodecId::kRaw;
  return *ObjectStore::Format(device, sim, raw);
}

TEST(FaultMatrix, FailedFlushWriteFreesItsBlock) {
  SimContext sim;
  MemBlockDevice device(&sim.clock, kDeviceBlocks);
  auto store = RawStore(&device, &sim);
  Oid oid = *store->CreateObject(ObjType::kMemory);
  const uint64_t free_before = store->FreeBlocks();
  const uint64_t live_before = store->GetSegmentStats().live_blocks;

  device.InstallFaults(0x1EA4, {RateRule(0.0, 1.0)});
  std::vector<uint8_t> block = Pattern(store->block_size(), 3);
  auto wrote = store->WriteAt(oid, 0, block.data(), block.size());
  device.ClearFaults();
  ASSERT_FALSE(wrote.ok());
  EXPECT_EQ(wrote.status().code(), Errc::kIoError);
  EXPECT_EQ(store->FreeBlocks(), free_before) << "the failed write kept its block";
  EXPECT_EQ(store->GetSegmentStats().live_blocks, live_before);
  Status bitmap = store->CheckLiveBitmap();
  EXPECT_TRUE(bitmap.ok()) << bitmap.message();
}

TEST(FaultMatrix, FailedJournalHeaderFreesItsRun) {
  SimContext sim;
  MemBlockDevice device(&sim.clock, kDeviceBlocks);
  auto store = RawStore(&device, &sim);
  const uint64_t free_before = store->FreeBlocks();

  device.InstallFaults(0x10A1, {RateRule(0.0, 1.0)});
  auto journal = store->CreateJournal(256 * kKiB);
  device.ClearFaults();
  ASSERT_FALSE(journal.ok());
  EXPECT_EQ(journal.status().code(), Errc::kIoError);
  EXPECT_EQ(store->FreeBlocks(), free_before) << "the failed journal kept its run";
  EXPECT_EQ(store->GetSegmentStats().segments_journal, 0u);
  Status bitmap = store->CheckLiveBitmap();
  EXPECT_TRUE(bitmap.ok()) << bitmap.message();
}

// SLS machine with a raw MemBlockDevice so faults can be armed precisely.
struct FaultMachine {
  FaultMachine() {
    device = std::make_unique<MemBlockDevice>(&sim.clock, kDeviceBlocks);
    device->set_metrics(&sim.metrics);
    store = *ObjectStore::Format(device.get(), &sim);
    fs = std::make_unique<AuroraFs>(&sim, store.get());
    kernel = std::make_unique<Kernel>(&sim);
    sls = std::make_unique<Sls>(&sim, kernel.get(), store.get(), fs.get());
  }
  void Reboot() {
    store = *ObjectStore::Open(device.get(), &sim);
    fs = std::make_unique<AuroraFs>(&sim, store.get());
    kernel = std::make_unique<Kernel>(&sim);
    sls = std::make_unique<Sls>(&sim, kernel.get(), store.get(), fs.get());
  }
  SimContext sim;
  std::unique_ptr<MemBlockDevice> device;
  std::unique_ptr<ObjectStore> store;
  std::unique_ptr<AuroraFs> fs;
  std::unique_ptr<Kernel> kernel;
  std::unique_ptr<Sls> sls;
};

TEST(EpochAbort, FlushFailureAbortsOnlyTheInFlightEpoch) {
  FaultMachine m;
  Process* proc = *m.kernel->CreateProcess("app");
  auto obj = VmObject::CreateAnonymous(256 * kKiB);
  uint64_t addr = *proc->vm().Map(0x400000, 256 * kKiB, kProtRead | kProtWrite, obj, 0, false);
  ConsistencyGroup* group = *m.sls->CreateGroup("app");
  ASSERT_TRUE(m.sls->Attach(group, proc).ok());

  std::vector<uint8_t> v1(256 * kKiB, 0x11);
  ASSERT_TRUE(proc->vm().Write(addr, v1.data(), v1.size()).ok());
  auto first = m.sls->Checkpoint(group, "one");
  ASSERT_TRUE(first.ok());
  ASSERT_FALSE(first->aborted);
  ASSERT_TRUE(m.sls->Barrier(group).ok());
  SimTime durable_one = first->durable_at;

  // Total write outage: every attempt fails, retries exhaust, the epoch
  // aborts — but the checkpoint call itself reports the degradation rather
  // than failing the application.
  m.device->InstallFaults(0xAB027, {RateRule(0.0, 1.0)});
  std::vector<uint8_t> v2(256 * kKiB, 0x22);
  ASSERT_TRUE(proc->vm().Write(addr, v2.data(), v2.size()).ok());
  auto degraded = m.sls->Checkpoint(group, "two");
  ASSERT_TRUE(degraded.ok()) << degraded.status().message();
  EXPECT_TRUE(degraded->aborted);
  EXPECT_EQ(degraded->epoch, 0u);
  EXPECT_EQ(degraded->durable_at, durable_one) << "abort must keep the last durable epoch";
  EXPECT_EQ(group->epochs_aborted, 1u);
  EXPECT_EQ(m.sim.metrics.counter("ckpt.epochs_aborted").value(), 1u);
  EXPECT_GE(m.sim.metrics.counter("io.giveups").value(), 1u);

  // The application keeps running through the outage.
  std::vector<uint8_t> v3(4 * kKiB, 0x33);
  EXPECT_TRUE(proc->vm().Write(addr, v3.data(), v3.size()).ok());

  // Device recovers: the next checkpoint flushes the aborted epoch's frozen
  // pages along with the new writes.
  m.device->ClearFaults();
  auto recovered = m.sls->Checkpoint(group, "three");
  ASSERT_TRUE(recovered.ok()) << recovered.status().message();
  EXPECT_FALSE(recovered->aborted);
  EXPECT_GT(recovered->epoch, 0u);
  EXPECT_GT(recovered->durable_at, durable_one);
  EXPECT_EQ(group->epochs_aborted, 1u);

  // After a reboot the newest restore sees the post-outage state: v2
  // overlaid with v3 — nothing from the aborted epoch was lost.
  m.Reboot();
  auto restored = m.sls->Restore("app");
  ASSERT_TRUE(restored.ok()) << restored.status().message();
  Process* back = restored->group->processes[0];
  std::vector<uint8_t> got(256 * kKiB);
  ASSERT_TRUE(back->vm().Read(addr, got.data(), got.size()).ok());
  std::vector<uint8_t> want = v2;
  std::copy(v3.begin(), v3.end(), want.begin());
  EXPECT_EQ(got, want);

  // And the recovered store scrubs clean through the CLI verb.
  SlsCli cli(m.sls.get());
  auto lines = cli.Scrub();
  ASSERT_TRUE(lines.ok());
  ASSERT_FALSE(lines->empty());
  EXPECT_NE(lines->back().find("CLEAN"), std::string::npos) << lines->back();
}

TEST(EpochAbort, PreviousEpochRestorableAfterAbort) {
  FaultMachine m;
  Process* proc = *m.kernel->CreateProcess("app");
  auto obj = VmObject::CreateAnonymous(128 * kKiB);
  uint64_t addr = *proc->vm().Map(0x400000, 128 * kKiB, kProtRead | kProtWrite, obj, 0, false);
  ConsistencyGroup* group = *m.sls->CreateGroup("app");
  ASSERT_TRUE(m.sls->Attach(group, proc).ok());

  std::vector<uint8_t> v1(128 * kKiB, 0x44);
  ASSERT_TRUE(proc->vm().Write(addr, v1.data(), v1.size()).ok());
  ASSERT_TRUE(m.sls->Checkpoint(group, "one").ok());
  ASSERT_TRUE(m.sls->Barrier(group).ok());

  m.device->InstallFaults(0xBAD, {RateRule(0.0, 1.0)});
  std::vector<uint8_t> v2(128 * kKiB, 0x55);
  ASSERT_TRUE(proc->vm().Write(addr, v2.data(), v2.size()).ok());
  auto degraded = m.sls->Checkpoint(group, "two");
  ASSERT_TRUE(degraded.ok());
  ASSERT_TRUE(degraded->aborted);

  // Reboot with nothing but the first epoch durable: restore must reproduce
  // it exactly (the aborted epoch left no partial state behind).
  m.device->ClearFaults();
  m.Reboot();
  auto restored = m.sls->Restore("app");
  ASSERT_TRUE(restored.ok()) << restored.status().message();
  Process* back = restored->group->processes[0];
  std::vector<uint8_t> got(128 * kKiB);
  ASSERT_TRUE(back->vm().Read(addr, got.data(), got.size()).ok());
  EXPECT_EQ(got, v1);
}

// A failed sls_memckpt must not lose the region's pages from the store: its
// frozen shadow stays owed to the group and rides the next full checkpoint,
// even though the region's oid already counts as persisted.
TEST(EpochAbort, FailedMemCheckpointPagesRideTheNextCheckpoint) {
  FaultMachine m;
  constexpr uint64_t kRegion = 256 * kKiB;
  Process* proc = *m.kernel->CreateProcess("app");
  auto obj = VmObject::CreateAnonymous(kRegion);
  uint64_t addr = *proc->vm().Map(0x400000, kRegion, kProtRead | kProtWrite, obj, 0, false);
  ConsistencyGroup* group = *m.sls->CreateGroup("app");
  ASSERT_TRUE(m.sls->Attach(group, proc).ok());

  std::vector<uint8_t> v1(kRegion, 0x11);
  ASSERT_TRUE(proc->vm().Write(addr, v1.data(), v1.size()).ok());
  auto first = m.sls->Checkpoint(group, "one");
  ASSERT_TRUE(first.ok());
  ASSERT_FALSE(first->aborted);
  ASSERT_TRUE(m.sls->Barrier(group).ok());

  // The atomic region checkpoint runs into a total write outage.
  std::vector<uint8_t> v2(kRegion, 0x22);
  ASSERT_TRUE(proc->vm().Write(addr, v2.data(), v2.size()).ok());
  m.device->InstallFaults(0x3E3C, {RateRule(0.0, 1.0)});
  auto atomic = m.sls->MemCheckpoint(proc, addr);
  ASSERT_FALSE(atomic.ok());
  EXPECT_EQ(atomic.status().code(), Errc::kIoError);

  // Device recovers; one more page changes and a full checkpoint commits.
  m.device->ClearFaults();
  std::vector<uint8_t> v3(kPageSize, 0x33);
  ASSERT_TRUE(proc->vm().Write(addr, v3.data(), v3.size()).ok());
  auto full = m.sls->Checkpoint(group, "two");
  ASSERT_TRUE(full.ok()) << full.status().message();
  ASSERT_FALSE(full->aborted);
  ASSERT_TRUE(m.sls->Barrier(group).ok());

  std::vector<uint8_t> want = v2;
  std::copy(v3.begin(), v3.end(), want.begin());
  std::vector<uint8_t> running(kRegion);
  ASSERT_TRUE(proc->vm().Read(addr, running.data(), running.size()).ok());
  ASSERT_EQ(running, want);

  m.Reboot();
  auto restored = m.sls->Restore("app");
  ASSERT_TRUE(restored.ok()) << restored.status().message();
  std::vector<uint8_t> got(kRegion);
  ASSERT_TRUE(restored->group->processes[0]->vm().Read(addr, got.data(), got.size()).ok());
  EXPECT_EQ(got, want) << "the failed memckpt's pages never reached the store";
}

// A suspend whose checkpoint aborts must not tear the group down: the image
// on the device is older than what the processes wrote. The call fails, the
// processes keep running with their in-memory checkpoint and owed shadows,
// and a suspend after the outage persists what they wrote.
TEST(EpochAbort, AbortedSuspendKeepsTheGroupRunning) {
  FaultMachine m;
  constexpr uint64_t kRegion = 128 * kKiB;
  Process* proc = *m.kernel->CreateProcess("app");
  auto obj = VmObject::CreateAnonymous(kRegion);
  uint64_t addr = *proc->vm().Map(0x400000, kRegion, kProtRead | kProtWrite, obj, 0, false);
  ConsistencyGroup* group = *m.sls->CreateGroup("app");
  ASSERT_TRUE(m.sls->Attach(group, proc).ok());

  std::vector<uint8_t> v1(kRegion, 0x11);
  ASSERT_TRUE(proc->vm().Write(addr, v1.data(), v1.size()).ok());
  ASSERT_TRUE(m.sls->Checkpoint(group, "one").ok());
  ASSERT_TRUE(m.sls->Barrier(group).ok());
  std::vector<uint8_t> v2(kRegion, 0x22);
  ASSERT_TRUE(proc->vm().Write(addr, v2.data(), v2.size()).ok());

  m.device->InstallFaults(0x5005, {RateRule(0.0, 1.0)});
  auto suspended = m.sls->Suspend(group);
  ASSERT_FALSE(suspended.ok()) << "a suspend that persisted nothing reported success";
  EXPECT_EQ(suspended.status().code(), Errc::kIoError);
  EXPECT_FALSE(group->suspended);
  ASSERT_EQ(group->processes.size(), 1u);
  std::vector<uint8_t> running(kRegion);
  ASSERT_TRUE(proc->vm().Read(addr, running.data(), running.size()).ok());
  EXPECT_EQ(running, v2);

  m.device->ClearFaults();
  auto retried = m.sls->Suspend(group);
  ASSERT_TRUE(retried.ok()) << retried.status().message();
  ASSERT_FALSE(retried->aborted);
  auto resumed = m.sls->ResumeSuspended("app");
  ASSERT_TRUE(resumed.ok()) << resumed.status().message();
  std::vector<uint8_t> got(kRegion);
  ASSERT_TRUE(resumed->group->processes[0]->vm().Read(addr, got.data(), got.size()).ok());
  EXPECT_EQ(got, v2) << "the writes since the last durable epoch were lost";
}

// A restore that fails closes its trace span where it failed, after the
// time its retries spent, instead of leaving it open at its begin time.
TEST(FaultMatrix, FailedRestoreClosesItsSpan) {
  FaultMachine m;
  Process* proc = *m.kernel->CreateProcess("app");
  auto obj = VmObject::CreateAnonymous(128 * kKiB);
  uint64_t addr = *proc->vm().Map(0x400000, 128 * kKiB, kProtRead | kProtWrite, obj, 0, false);
  ConsistencyGroup* group = *m.sls->CreateGroup("app");
  ASSERT_TRUE(m.sls->Attach(group, proc).ok());
  std::vector<uint8_t> v1(128 * kKiB, 0x44);
  ASSERT_TRUE(proc->vm().Write(addr, v1.data(), v1.size()).ok());
  ASSERT_TRUE(m.sls->Checkpoint(group, "one").ok());
  ASSERT_TRUE(m.sls->Barrier(group).ok());

  // Total read outage after a reboot: the restore cannot read its manifest.
  m.Reboot();
  m.device->InstallFaults(0x5EAD, {RateRule(1.0, 0.0)});
  SimTime began = m.sim.clock.now();
  auto restored = m.sls->Restore("app");
  ASSERT_FALSE(restored.ok());
  SimTime failed_at = m.sim.clock.now();
  ASSERT_GT(failed_at, began) << "the read retries must spend simulated time";

  std::vector<Span> spans = m.sim.tracer.SpansNamed("restore");
  ASSERT_FALSE(spans.empty());
  EXPECT_EQ(spans.back().begin, began);
  EXPECT_EQ(spans.back().end, failed_at);
}

}  // namespace
}  // namespace aurora
