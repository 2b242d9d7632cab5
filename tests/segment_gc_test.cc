// Segment-log GC: online compaction reclaims dead space without ever
// changing what any retained epoch reads back, scrub and GC agree on block
// integrity, pacing bounds GC I/O, and the Sls-level retention policy drives
// the whole loop (DESIGN.md section 16).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/base/rng.h"
#include "src/base/sim_context.h"
#include "src/core/cli.h"
#include "src/core/sls.h"
#include "src/fs/aurora_fs.h"
#include "src/objstore/object_store.h"
#include "src/objstore/scrubber.h"
#include "src/objstore/segment_gc.h"
#include "src/storage/block_device.h"

namespace aurora {
namespace {

constexpr uint32_t kBlock = 8 * 1024;
constexpr uint64_t kDeviceBlocks = (64 * kMiB) / kPageSize;

std::vector<uint8_t> Pattern(size_t len, uint8_t seed) {
  std::vector<uint8_t> out(len);
  for (size_t i = 0; i < len; i++) {
    out[i] = static_cast<uint8_t>(seed + i * 31);
  }
  return out;
}

StoreOptions SmallSegments() {
  StoreOptions options;
  options.block_size = kBlock;
  options.segment_blocks = 8;
  // These tests pin down raw relocation mechanics (block counts, token
  // pacing, segment liveness); dedup/compression would collapse the
  // patterned payloads. The dedup/GC interplay has dedicated coverage in
  // dedup_test.cc and crash_matrix_test.cc.
  options.dedup = false;
  options.codec = CodecId::kRaw;
  return options;
}

// Overwrite-heavy churn: each round rewrites the same logical blocks of one
// object, commits, and prunes history down to `keep` epochs. With the
// compactor running, space must stay flat; without it, sealed segments pile
// up dead.
struct Churn {
  SimContext sim;
  MemBlockDevice device{&sim.clock, kDeviceBlocks};
  std::unique_ptr<ObjectStore> store;
  Oid oid = kInvalidOid;

  explicit Churn(StoreOptions options) {
    store = *ObjectStore::Format(&device, &sim, options);
    oid = *store->CreateObject(ObjType::kMemory);
  }

  // Hot/cold churn. Each round rewrites every hot block plus ONE cold block,
  // so each appended segment holds mostly soon-dead hot copies around a
  // long-lived cold copy. Fully-dead segments are reclaimed inline by the
  // store; these mixed ones pin a segment with a few live blocks — exactly
  // the space only relocation can recover.
  static constexpr uint64_t kColdBlocks = 24;
  static constexpr uint64_t kHotBlocks = 7;

  void Round(int round, uint64_t keep) {
    auto put = [&](uint64_t block) {
      std::vector<uint8_t> data =
          Pattern(kBlock, static_cast<uint8_t>(round * 37 + static_cast<int>(block)));
      ASSERT_TRUE(store->WriteAt(oid, block * kBlock, data.data(), data.size()).ok());
    };
    for (uint64_t h = 0; h < kHotBlocks; h++) {
      put(kColdBlocks + h);
    }
    put(static_cast<uint64_t>(round) % kColdBlocks);
    ASSERT_TRUE(store->CommitCheckpoint("r" + std::to_string(round)).ok());
    std::vector<CheckpointInfo> ckpts = store->ListCheckpoints();
    if (ckpts.size() > keep) {
      ASSERT_TRUE(store->DeleteCheckpointsBefore(ckpts[ckpts.size() - keep].epoch).ok());
    }
  }
};

TEST(SegmentGc, CompactionKeepsChurnSpaceFlat) {
  Churn with_gc(SmallSegments());
  SegmentGc gc(with_gc.store.get());
  // Used blocks swing by about one segment from round to round, so steady
  // state is the peak over a window of rounds, not one sample. The live set
  // grows until every cold block is written (round 24) and the first cold
  // copies die a cycle later (round 48), so the windows start past that: the
  // peak of the last ten rounds must stay within 10 % of rounds 51-60's.
  uint64_t peak_mid = 0;
  uint64_t peak_end = 0;
  const int kRounds = 90;
  for (int r = 1; r <= kRounds; r++) {
    with_gc.Round(r, 2);
    auto report = gc.Run();
    ASSERT_TRUE(report.ok());
    uint64_t used = with_gc.store->UsedPhysicalBlocks();
    if (r > 50 && r <= 60) {
      peak_mid = std::max(peak_mid, used);
    } else if (r > kRounds - 10) {
      peak_end = std::max(peak_end, used);
    }
  }
  uint64_t used_end = with_gc.store->UsedPhysicalBlocks();
  EXPECT_LE(peak_end, peak_mid + peak_mid / 10)
      << "segment log grew past steady state despite GC";
  EXPECT_GT(with_gc.sim.metrics.counter("gc.segments_reclaimed").value(), 0u);
  EXPECT_GT(with_gc.sim.metrics.counter("gc.blocks_relocated").value(), 0u);

  // The identical churn without a compactor leaks dead sealed segments.
  Churn no_gc(SmallSegments());
  for (int r = 1; r <= kRounds; r++) {
    no_gc.Round(r, 2);
  }
  EXPECT_GT(no_gc.store->UsedPhysicalBlocks(), used_end + used_end / 2)
      << "the no-GC baseline should accumulate dead space the compactor frees";
}

TEST(SegmentGc, RelocationPreservesEveryRetainedEpoch) {
  SimContext sim;
  MemBlockDevice device(&sim.clock, kDeviceBlocks);
  auto store = *ObjectStore::Format(&device, &sim, SmallSegments());

  Oid oid = *store->CreateObject(ObjType::kMemory);
  std::map<uint64_t, std::vector<uint8_t>> images;  // epoch -> full contents
  std::vector<uint8_t> contents = Pattern(6 * kBlock, 1);
  ASSERT_TRUE(store->WriteAt(oid, 0, contents.data(), contents.size()).ok());
  for (int round = 0; round < 5; round++) {
    uint64_t epoch = store->current_epoch();
    ASSERT_TRUE(store->CommitCheckpoint("e" + std::to_string(epoch)).ok());
    images[epoch] = contents;
    // Rewrite two blocks per round; the rest stay live at their old homes.
    std::vector<uint8_t> delta = Pattern(2 * kBlock, static_cast<uint8_t>(40 + round));
    uint64_t off = (static_cast<uint64_t>(round) % 3) * 2 * kBlock;
    std::copy(delta.begin(), delta.end(), contents.begin() + static_cast<long>(off));
    ASSERT_TRUE(store->WriteAt(oid, off, delta.data(), delta.size()).ok());
  }
  ASSERT_TRUE(store->CommitCheckpoint("last").ok());
  images[store->current_epoch() - 1] = contents;

  // Prune to the newest three epochs, compact aggressively, seal the result.
  std::vector<CheckpointInfo> ckpts = store->ListCheckpoints();
  ASSERT_TRUE(store->DeleteCheckpointsBefore(ckpts[ckpts.size() - 3].epoch).ok());
  GcConfig config;
  config.utilization_threshold = 1.1;
  SegmentGc gc(store.get(), config);
  auto report = gc.Run();
  ASSERT_TRUE(report.ok());
  EXPECT_GT(report->blocks_relocated, 0u);
  ASSERT_TRUE(store->CommitCheckpoint("sealed").ok());

  auto verify = [&](ObjectStore* s) {
    for (const CheckpointInfo& ckpt : s->ListCheckpoints()) {
      auto want = images.find(ckpt.epoch);
      if (want == images.end()) {
        continue;  // the post-GC "sealed" epoch duplicates `contents`
      }
      std::vector<uint8_t> back(want->second.size());
      ASSERT_TRUE(s->ReadAtEpoch(ckpt.epoch, oid, 0, back.data(), back.size()).ok());
      EXPECT_EQ(back, want->second)
          << "epoch " << ckpt.epoch << " changed after compaction";
    }
  };
  verify(store.get());

  // The relocation map must survive a reboot: historic epochs still
  // translate to the moved blocks after mount.
  auto reopened = ObjectStore::Open(&device, &sim);
  ASSERT_TRUE(reopened.ok());
  verify(reopened->get());
}

TEST(SegmentGc, GcAndScrubInterleaveWithZeroFalsePositives) {
  Churn churn(SmallSegments());
  GcConfig config;
  config.utilization_threshold = 0.8;
  SegmentGc gc(churn.store.get(), config);
  uint64_t relocated = 0;
  for (int r = 1; r <= 12; r++) {
    churn.Round(r, 2);
    auto report = gc.Run();
    ASSERT_TRUE(report.ok());
    relocated += report->blocks_relocated;
    EXPECT_EQ(report->crc_errors, 0u);
    // Immediately after each compaction pass, a full scrub of every retained
    // epoch must verify clean: relocated blocks carried their CRCs, historic
    // epochs translate to the new locations, and nothing reads torn.
    Scrubber scrubber(churn.store.get());
    auto scrub = scrubber.ScrubAll();
    ASSERT_TRUE(scrub.ok());
    EXPECT_TRUE(scrub->clean()) << "scrub false positive after GC round " << r;
    EXPECT_TRUE(scrub->bad_blocks.empty());
  }
  EXPECT_GT(relocated, 0u) << "interleave test never exercised relocation";
}

TEST(SegmentGc, CorruptBlockIsQuarantinedAndLeftForScrub) {
  SimContext sim;
  MemBlockDevice device(&sim.clock, kDeviceBlocks);
  auto store = *ObjectStore::Format(&device, &sim, SmallSegments());

  // Fill several segments so the earliest data phys is in a sealed one.
  Oid oid = *store->CreateObject(ObjType::kMemory);
  std::vector<uint8_t> data = Pattern(24 * kBlock, 5);
  ASSERT_TRUE(store->WriteAt(oid, 0, data.data(), data.size()).ok());
  ASSERT_TRUE(store->CommitCheckpoint("c1").ok());

  // Find a committed data block via the scrubber's coverage set (no layout
  // assumptions) and silently rot its media bytes.
  Scrubber scrubber(store.get());
  auto before = scrubber.ScrubAll();
  ASSERT_TRUE(before.ok());
  ASSERT_TRUE(before->clean());
  ASSERT_FALSE(before->data_phys.empty());
  uint64_t victim_phys = *before->data_phys.begin();
  uint32_t dps = kBlock / device.block_size();
  std::vector<uint8_t> garbage(kBlock, 0xEE);
  ASSERT_TRUE(device.WriteAsync(0, sim.clock.now(), victim_phys * dps, garbage.data(), dps).ok());

  GcConfig config;
  config.utilization_threshold = 1.1;  // every sealed segment is a victim
  SegmentGc gc(store.get(), config);
  auto report = gc.Run();
  ASSERT_TRUE(report.ok());
  EXPECT_GE(report->crc_errors, 1u) << "GC read the rotten block without noticing";
  EXPECT_GE(gc.quarantined_segments(), 1u);

  // The damaged block stayed put for the scrubber, which pins it precisely.
  auto after = scrubber.ScrubAll();
  ASSERT_TRUE(after.ok());
  bool found = false;
  for (const ScrubBadBlock& bad : after->bad_blocks) {
    EXPECT_EQ(bad.error, Errc::kCorrupt);
    found |= bad.phys == victim_phys;
  }
  EXPECT_TRUE(found) << "scrub lost track of the corrupt block after the GC pass";

  // A second pass skips the quarantined segment instead of re-reading it.
  auto again = gc.Run();
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again->crc_errors, 0u);
}

TEST(SegmentGc, TokenBucketPacesRelocationIo) {
  Churn churn(SmallSegments());
  for (int r = 1; r <= 8; r++) {
    churn.Round(r, 2);
  }
  GcConfig config;
  config.utilization_threshold = 1.1;
  config.bytes_per_sec = 1;  // starvation rate: only the initial burst moves
  config.burst_bytes = 2 * kBlock;  // one read+write pair
  SegmentGc gc(churn.store.get(), config);
  auto report = gc.Run();
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->throttled);
  EXPECT_LE(report->blocks_relocated, 1u);
  EXPECT_GE(churn.sim.metrics.counter("gc.throttle_defers").value(), 1u);

  // Unthrottled, the deferred work completes.
  config.bytes_per_sec = 0;
  gc.set_config(config);
  auto rest = gc.Run();
  ASSERT_TRUE(rest.ok());
  EXPECT_GT(rest->blocks_relocated, 0u);
  EXPECT_FALSE(rest->throttled);
}

// --- Sls-level retention + auto-GC ------------------------------------------

struct Machine {
  Machine() {
    device = MakePaperTestbedStore(&sim.clock, 1 * kGiB);
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
  std::unique_ptr<BlockDevice> device;
  std::unique_ptr<ObjectStore> store;
  std::unique_ptr<AuroraFs> fs;
  std::unique_ptr<Kernel> kernel;
  std::unique_ptr<Sls> sls;
};

// Runs `epochs` checkpoints of a deterministic dirty-page workload and
// returns the final heap bytes (read back after reboot + restore). When
// `written` is non-null it receives what the workload wrote: the content
// model the restored heap must equal.
std::vector<uint8_t> RunRetainedWorkload(Machine& m, bool retention, int epochs,
                                         uint64_t mem_bytes = 2 * kMiB,
                                         std::vector<uint8_t>* written = nullptr) {
  Process* proc = *m.kernel->CreateProcess("app");
  auto obj = VmObject::CreateAnonymous(mem_bytes);
  uint64_t addr = *proc->vm().Map(0x400000, mem_bytes, kProtRead | kProtWrite, obj, 0, false);
  ConsistencyGroup* group = *m.sls->CreateGroup("app");
  EXPECT_TRUE(m.sls->Attach(group, proc).ok());
  if (retention) {
    m.sls->SetRetentionPolicy(group, RetentionPolicy{.keep_epochs = 3});
  }

  std::vector<uint8_t> model(mem_bytes, 0);
  Rng rng(0x6C06);
  for (int e = 0; e < epochs; e++) {
    for (int w = 0; w < 150; w++) {
      uint64_t v = rng.Next();
      uint64_t off = rng.Below(mem_bytes - 8);
      EXPECT_TRUE(proc->vm().Write(addr + off, &v, sizeof(v)).ok());
      std::memcpy(model.data() + off, &v, sizeof(v));
    }
    auto ckpt = m.sls->Checkpoint(group);
    EXPECT_TRUE(ckpt.ok());
    if (ckpt.ok()) {
      m.sim.clock.AdvanceTo(ckpt->durable_at);
    }
  }

  if (written != nullptr) {
    *written = model;
  }
  m.Reboot();
  auto restored = m.sls->Restore("app");
  EXPECT_TRUE(restored.ok());
  if (!restored.ok()) {
    return {};
  }
  Process* rp = restored->group->processes[0];
  std::vector<uint8_t> out(mem_bytes);
  for (uint64_t off = 0; off < mem_bytes; off += kPageSize) {
    EXPECT_TRUE(rp->vm().Read(addr + off, out.data() + off, kPageSize).ok());
  }
  return out;
}

TEST(SegmentGc, RetentionPolicyDrivesPruneAndAutoGc) {
  Machine m;
  std::vector<uint8_t> heap = RunRetainedWorkload(m, /*retention=*/true, 12);
  ASSERT_FALSE(heap.empty());

  // History stayed bounded (the directory can exceed keep_epochs only by the
  // epochs committed since the last prune ran).
  EXPECT_LE(m.store->ListCheckpoints().size(), 5u);
  EXPECT_GT(m.sim.metrics.counter("ckpt.retention_pruned").value(), 0u);
  EXPECT_GT(m.sim.metrics.counter("gc.runs").value(), 0u);
  // The pass is visible as a span and through the CLI report.
  EXPECT_FALSE(m.sim.tracer.SpansNamed("gc").empty());
  SlsCli cli(m.sls.get());
  auto gc_report = cli.Gc();
  ASSERT_TRUE(gc_report.ok());
  ASSERT_FALSE(gc_report->empty());
  EXPECT_NE((*gc_report)[0].find("segments:"), std::string::npos);
}

// sls_memckpt obeys the group's retention policy. A region commit leaves
// the group's manifest live, so its epoch restores the group with the
// region's bytes and counts against the policy like a full checkpoint.
TEST(SegmentGc, RegionCheckpointsObeyTheRetentionPolicy) {
  Machine m;
  constexpr uint64_t kRegion = 256 * kKiB;
  Process* proc = *m.kernel->CreateProcess("app");
  uint64_t addr = *proc->vm().Map(0x400000, kRegion, kProtRead | kProtWrite,
                                  VmObject::CreateAnonymous(kRegion), 0, false);
  ConsistencyGroup* group = *m.sls->CreateGroup("app");
  ASSERT_TRUE(m.sls->Attach(group, proc).ok());
  m.sls->SetRetentionPolicy(group, RetentionPolicy{.keep_epochs = 3});
  ASSERT_TRUE(proc->vm().DirtyRange(addr, kRegion).ok());
  auto full = m.sls->Checkpoint(group);
  ASSERT_TRUE(full.ok());
  m.sim.clock.AdvanceTo(full->durable_at);

  uint64_t v = 0;
  for (uint64_t round = 1; round <= 10; round++) {
    v = 0x5eed0000 + round;
    ASSERT_TRUE(proc->vm().Write(addr + kPageSize, &v, sizeof(v)).ok());
    auto region = m.sls->MemCheckpoint(proc, addr);
    ASSERT_TRUE(region.ok()) << region.status().message();
    m.sim.clock.AdvanceTo(region->durable_at);
  }
  EXPECT_EQ(m.store->ListCheckpoints().size(), 3u);

  m.Reboot();
  auto restored = m.sls->Restore("app");
  ASSERT_TRUE(restored.ok()) << restored.status().message();
  uint64_t got = 0;
  ASSERT_TRUE(
      restored->group->processes[0]->vm().Read(addr + kPageSize, &got, sizeof(got)).ok());
  EXPECT_EQ(got, v) << "the newest region checkpoint restores";
  EXPECT_EQ(m.sls->Restore("app", full->epoch).status().code(), Errc::kNotFound)
      << "the full checkpoint's epoch was pruned";
}

TEST(SegmentGc, AutoGcNeverChangesRestoredImage) {
  // GC-on vs GC-off: identical workloads, byte-identical restored heaps.
  Machine gc_on;
  Machine gc_off;
  std::vector<uint8_t> written;
  std::vector<uint8_t> with_gc =
      RunRetainedWorkload(gc_on, /*retention=*/true, 10, 2 * kMiB, &written);
  std::vector<uint8_t> without_gc = RunRetainedWorkload(gc_off, /*retention=*/false, 10);
  ASSERT_FALSE(with_gc.empty());
  EXPECT_EQ(with_gc, without_gc)
      << "retention + compaction changed what the application restores to";
  EXPECT_EQ(without_gc, written) << "the restored heap is not what the workload wrote";
  EXPECT_GT(gc_on.sim.metrics.counter("gc.runs").value(), 0u);
  EXPECT_EQ(gc_off.sim.metrics.counter("gc.runs").value(), 0u)
      << "auto-GC must not run for groups without a retention policy";
}

// A store remounted by a machine with fewer flush lanes than the one that
// wrote it seals the extra lanes' open segments: once their blocks die they
// are reclaimed instead of staying open, out of reach of reclaim and GC.
TEST(SegmentGc, RemountWithFewerLanesReclaimsTheExtraLanesSegments) {
  SimContext sim;
  sim.flush_lanes = 4;
  MemBlockDevice device{&sim.clock, kDeviceBlocks};
  std::unique_ptr<ObjectStore> store = *ObjectStore::Format(&device, &sim, SmallSegments());
  Oid oid = *store->CreateObject(ObjType::kMemory);
  std::vector<uint8_t> data = Pattern(32 * kBlock, 9);
  std::vector<ObjectStore::IoRun> runs{{0, data.data(), data.size()}};
  ASSERT_TRUE(store->WriteAtBatch(oid, runs).ok());
  ASSERT_TRUE(store->CommitCheckpoint("four-lanes").ok());
  ASSERT_EQ(store->GetSegmentStats().segments_open, 4u) << "one open segment per lane";

  sim.flush_lanes = 1;
  store = *ObjectStore::Open(&device, &sim);
  ASSERT_TRUE(store->DeleteObject(oid).ok());
  ASSERT_TRUE(store->CommitCheckpoint("dead").ok());
  std::vector<CheckpointInfo> ckpts = store->ListCheckpoints();
  ASSERT_TRUE(store->DeleteCheckpointsBefore(ckpts.back().epoch).ok());
  SegmentGc gc(store.get());
  ASSERT_TRUE(gc.Run().ok());

  SegmentStats after = store->GetSegmentStats();
  EXPECT_EQ(after.segments_open, 1u) << "only lane 0 still appends";
  EXPECT_EQ(after.segments_sealed, 0u) << "every dead segment is reclaimed";
}

}  // namespace
}  // namespace aurora
