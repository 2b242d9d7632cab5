// Content-addressed dedup + extent compression on the flush path
// (DESIGN.md section 17): index hits install references instead of device
// writes, refcounts track live-table extents exactly, the index and the
// quarantine state survive remounts, compressed extents read back
// byte-identical, and GC moves a shared block once for all its referents.
#include <gtest/gtest.h>

#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/base/sim_context.h"
#include "src/objstore/object_store.h"
#include "src/objstore/scrubber.h"
#include "src/objstore/segment_gc.h"
#include "src/storage/block_device.h"

namespace aurora {
namespace {

constexpr uint32_t kBlock = 8 * 1024;
constexpr uint64_t kDeviceBlocks = (64 * kMiB) / kPageSize;

StoreOptions DedupOptions(CodecId codec = CodecId::kLz, uint32_t block_size = kBlock) {
  StoreOptions options;
  options.block_size = block_size;
  options.segment_blocks = 8;
  options.dedup = true;
  options.codec = codec;
  return options;
}

// Incompressible, per-seed-unique block: every byte depends on a multiplied
// index so the LZ pass finds no window matches worth a device block.
std::vector<uint8_t> Unique(uint8_t seed, uint32_t size = kBlock) {
  std::vector<uint8_t> out(size);
  uint32_t x = 0x9E3779B9u * (seed + 1);
  for (size_t i = 0; i < out.size(); i++) {
    x = x * 1664525u + 1013904223u;
    out[i] = static_cast<uint8_t>(x >> 24);
  }
  return out;
}

// Highly compressible but per-seed-unique: long runs keyed by the seed.
std::vector<uint8_t> Compressible(uint8_t seed, uint32_t size = kBlock) {
  std::vector<uint8_t> out(size, seed);
  for (size_t i = 0; i < out.size(); i += 512) {
    out[i] = static_cast<uint8_t>(seed + i / 512);
  }
  return out;
}

struct Store {
  SimContext sim;
  MemBlockDevice device{&sim.clock, kDeviceBlocks};
  std::unique_ptr<ObjectStore> store;

  explicit Store(StoreOptions options = DedupOptions()) {
    store = *ObjectStore::Format(&device, &sim, options);
  }

  void Remount() { store = *ObjectStore::Open(&device, &sim); }
};

TEST(Dedup, HitInstallsReferenceInsteadOfAWrite) {
  Store m;
  Oid oid = *m.store->CreateObject(ObjType::kMemory);
  std::vector<uint8_t> block = Unique(1);

  ASSERT_TRUE(m.store->WriteAt(oid, 0, block.data(), block.size()).ok());
  uint64_t stored_once = m.store->stats().bytes_stored;
  ASSERT_GT(stored_once, 0u);

  // Same content at three more logical blocks: no new physical bytes.
  for (uint64_t lb = 1; lb <= 3; lb++) {
    ASSERT_TRUE(m.store->WriteAt(oid, lb * kBlock, block.data(), block.size()).ok());
  }
  EXPECT_EQ(m.store->stats().bytes_stored, stored_once);
  EXPECT_EQ(m.store->stats().dedup_hits, 3u);
  EXPECT_EQ(m.store->stats().bytes_deduped, 3u * kBlock);
  EXPECT_EQ(m.store->DedupEntries(), 1u);
  EXPECT_TRUE(m.store->CheckDedupInvariants().ok());

  std::vector<uint8_t> back(4 * kBlock);
  ASSERT_TRUE(m.store->ReadAt(oid, 0, back.data(), back.size()).ok());
  for (uint64_t lb = 0; lb < 4; lb++) {
    EXPECT_EQ(0, std::memcmp(back.data() + lb * kBlock, block.data(), kBlock))
        << "logical block " << lb;
  }
}

TEST(Dedup, IdenticalRewriteIsRefcountNeutral) {
  Store m;
  Oid oid = *m.store->CreateObject(ObjType::kMemory);
  std::vector<uint8_t> block = Unique(7);
  ASSERT_TRUE(m.store->WriteAt(oid, 0, block.data(), block.size()).ok());
  ASSERT_TRUE(m.store->CommitCheckpoint("c1").ok());

  uint64_t stored_before = m.store->stats().bytes_stored;
  // Rewriting the same bytes kills the old reference and takes an index hit
  // on the same entry: the refcount and physical footprint are unchanged.
  ASSERT_TRUE(m.store->WriteAt(oid, 0, block.data(), block.size()).ok());
  ASSERT_TRUE(m.store->CommitCheckpoint("c2").ok());
  EXPECT_EQ(m.store->stats().bytes_stored, stored_before);
  EXPECT_EQ(m.store->DedupEntries(), 1u);
  EXPECT_TRUE(m.store->CheckDedupInvariants().ok());

  std::vector<uint8_t> back(kBlock);
  ASSERT_TRUE(m.store->ReadAt(oid, 0, back.data(), back.size()).ok());
  EXPECT_EQ(back, block);
}

TEST(Dedup, IndexAndOptionsSurviveRemount) {
  Store m;
  Oid oid = *m.store->CreateObject(ObjType::kMemory);
  std::vector<uint8_t> a = Unique(2);
  std::vector<uint8_t> b = Unique(3);
  ASSERT_TRUE(m.store->WriteAt(oid, 0 * kBlock, a.data(), a.size()).ok());
  ASSERT_TRUE(m.store->WriteAt(oid, 1 * kBlock, b.data(), b.size()).ok());
  ASSERT_TRUE(m.store->WriteAt(oid, 2 * kBlock, a.data(), a.size()).ok());
  ASSERT_TRUE(m.store->CommitCheckpoint("c1").ok());
  uint64_t entries = m.store->DedupEntries();
  ASSERT_EQ(entries, 2u);

  m.Remount();
  EXPECT_EQ(m.store->DedupEntries(), entries);
  EXPECT_TRUE(m.store->CheckDedupInvariants().ok());

  // The recovered index still resolves new writes of old content.
  uint64_t stored_before = m.store->stats().bytes_stored;
  ASSERT_TRUE(m.store->WriteAt(oid, 3 * kBlock, b.data(), b.size()).ok());
  EXPECT_EQ(m.store->stats().bytes_stored, stored_before);
  EXPECT_EQ(m.store->stats().dedup_hits, 1u);

  std::vector<uint8_t> back(kBlock);
  ASSERT_TRUE(m.store->ReadAt(oid, 2 * kBlock, back.data(), back.size()).ok());
  EXPECT_EQ(back, a);
}

TEST(Dedup, DedupOffStaysOffAcrossRemount) {
  StoreOptions raw = DedupOptions(CodecId::kRaw);
  raw.dedup = false;
  Store m(raw);
  Oid oid = *m.store->CreateObject(ObjType::kMemory);
  std::vector<uint8_t> block = Unique(4);
  ASSERT_TRUE(m.store->WriteAt(oid, 0, block.data(), block.size()).ok());
  ASSERT_TRUE(m.store->CommitCheckpoint("c1").ok());
  EXPECT_EQ(m.store->DedupEntries(), 0u);

  // The ablation baseline must not silently regain dedup on mount: the
  // flush-path options are persisted with the meta blob.
  m.Remount();
  uint64_t stored_before = m.store->stats().bytes_stored;
  ASSERT_TRUE(m.store->WriteAt(oid, 1 * kBlock, block.data(), block.size()).ok());
  EXPECT_EQ(m.store->stats().dedup_hits, 0u);
  EXPECT_EQ(m.store->DedupEntries(), 0u);
  EXPECT_EQ(m.store->stats().bytes_stored, stored_before + kBlock);
}

TEST(Dedup, PruneDecrementsSharedBlocksInsteadOfFreeingThem) {
  Store m;
  Oid a = *m.store->CreateObject(ObjType::kMemory);
  Oid b = *m.store->CreateObject(ObjType::kMemory);
  std::vector<uint8_t> shared = Unique(9);
  ASSERT_TRUE(m.store->WriteAt(a, 0, shared.data(), shared.size()).ok());
  ASSERT_TRUE(m.store->WriteAt(b, 0, shared.data(), shared.size()).ok());
  ASSERT_TRUE(m.store->CommitCheckpoint("c1").ok());

  // Drop object a and prune every epoch that could still reference it. The
  // shared block must survive: b's extent still points at it.
  ASSERT_TRUE(m.store->DeleteObject(a).ok());
  ASSERT_TRUE(m.store->CommitCheckpoint("c2").ok());
  ASSERT_TRUE(m.store->DeleteCheckpointsBefore(m.store->current_epoch() - 1).ok());
  EXPECT_EQ(m.store->DedupEntries(), 1u);
  EXPECT_TRUE(m.store->CheckDedupInvariants().ok());
  std::vector<uint8_t> back(kBlock);
  ASSERT_TRUE(m.store->ReadAt(b, 0, back.data(), back.size()).ok());
  EXPECT_EQ(back, shared);

  // Dropping the last reference retires the entry through the deadlist.
  ASSERT_TRUE(m.store->DeleteObject(b).ok());
  ASSERT_TRUE(m.store->CommitCheckpoint("c3").ok());
  ASSERT_TRUE(m.store->DeleteCheckpointsBefore(m.store->current_epoch() - 1).ok());
  EXPECT_EQ(m.store->DedupEntries(), 0u);
  EXPECT_TRUE(m.store->CheckDedupInvariants().ok());
}

// Store block sizes the codec tests run at: two device blocks, where a
// compressed block can save one, and exactly one device block, where nothing
// can be saved and the flush path skips the codec.
constexpr uint32_t kCodecBlockSizes[] = {kBlock, static_cast<uint32_t>(kPageSize)};

TEST(Dedup, CompressionRoundTripsAndSavesDeviceBytes) {
  for (uint32_t block_size : kCodecBlockSizes) {
    SCOPED_TRACE(block_size);
    Store m(DedupOptions(CodecId::kLz, block_size));
    Oid oid = *m.store->CreateObject(ObjType::kMemory);
    std::vector<uint8_t> image;
    for (uint8_t s = 0; s < 6; s++) {
      std::vector<uint8_t> block = Compressible(s, block_size);
      image.insert(image.end(), block.begin(), block.end());
    }
    ASSERT_TRUE(m.store->WriteAt(oid, 0, image.data(), image.size()).ok());
    ASSERT_TRUE(m.store->CommitCheckpoint("c1").ok());
    if (block_size > kPageSize) {
      EXPECT_GT(m.store->stats().bytes_compressed_saved, 0u);
      EXPECT_LT(m.store->stats().bytes_stored, image.size());
    } else {
      // Compressible, but a single device block cannot shrink: stored raw.
      EXPECT_EQ(m.store->stats().bytes_compressed_saved, 0u);
      EXPECT_EQ(m.store->stats().bytes_stored, image.size());
    }

    std::vector<uint8_t> back(image.size());
    ASSERT_TRUE(m.store->ReadAt(oid, 0, back.data(), back.size()).ok());
    EXPECT_EQ(back, image);

    // Committed extents decode identically after a remount, and the
    // scrubber verifies their stored spans clean.
    uint64_t epoch = m.store->current_epoch() - 1;
    m.Remount();
    std::fill(back.begin(), back.end(), 0);
    ASSERT_TRUE(m.store->ReadAtEpoch(epoch, oid, 0, back.data(), back.size()).ok());
    EXPECT_EQ(back, image);
    Scrubber scrubber(m.store.get());
    auto verdict = scrubber.ScrubAll();
    ASSERT_TRUE(verdict.ok());
    EXPECT_TRUE(verdict->clean());
  }
}

TEST(Dedup, IncompressibleBlocksStoreRaw) {
  for (uint32_t block_size : kCodecBlockSizes) {
    SCOPED_TRACE(block_size);
    Store m(DedupOptions(CodecId::kLz, block_size));
    Oid oid = *m.store->CreateObject(ObjType::kMemory);
    std::vector<uint8_t> block = Unique(11, block_size);
    ASSERT_TRUE(m.store->WriteAt(oid, 0, block.data(), block.size()).ok());
    EXPECT_EQ(m.store->stats().bytes_compressed_saved, 0u);
    EXPECT_EQ(m.store->stats().bytes_stored, block_size);
    std::vector<uint8_t> back(block_size);
    ASSERT_TRUE(m.store->ReadAt(oid, 0, back.data(), back.size()).ok());
    EXPECT_EQ(back, block);
  }
}

// The content stage is flusher CPU, and it runs on the block's flush lane
// (DESIGN.md section 12): hashing and compressing a batch leaves the
// application's clock short of even one block's content charge, while the
// batch's completion includes every block's, which one lane runs back to
// back.
TEST(Dedup, ContentChargesRunOnTheLaneNotTheClock) {
  Store m;
  Oid oid = *m.store->CreateObject(ObjType::kMemory);
  constexpr uint8_t kBlocks = 16;
  std::vector<uint8_t> image;
  for (uint8_t s = 0; s < kBlocks; s++) {
    std::vector<uint8_t> block = Compressible(s);
    image.insert(image.end(), block.begin(), block.end());
  }
  const SimDuration content = m.sim.cost.ContentHash(kBlock) + m.sim.cost.Compress(kBlock);
  const SimTime t0 = m.sim.clock.now();
  auto done = m.store->WriteAt(oid, 0, image.data(), image.size());
  ASSERT_TRUE(done.ok());
  EXPECT_LT(m.sim.clock.now() - t0, m.sim.cost.ContentHash(kBlock))
      << "the application paid for the flusher's hashing or compression";
  EXPECT_GE(*done - t0, kBlocks * content)
      << "the flush's completion must include every block's content charges";
  EXPECT_GT(m.store->stats().bytes_compressed_saved, 0u);

  std::vector<uint8_t> back(image.size());
  ASSERT_TRUE(m.store->ReadAt(oid, 0, back.data(), back.size()).ok());
  EXPECT_EQ(back, image);
}

// A store block of one device block never runs the codec, so it charges no
// compression: its flush completes exactly when a raw store's does.
TEST(Dedup, OneDeviceBlockStoreChargesNoCompression) {
  auto flush = [](CodecId codec) {
    StoreOptions options = DedupOptions(codec, static_cast<uint32_t>(kPageSize));
    options.dedup = false;
    Store m(options);
    Oid oid = *m.store->CreateObject(ObjType::kMemory);
    std::vector<uint8_t> image;
    for (uint8_t s = 0; s < 4; s++) {
      std::vector<uint8_t> block = Compressible(s, static_cast<uint32_t>(kPageSize));
      image.insert(image.end(), block.begin(), block.end());
    }
    const SimTime t0 = m.sim.clock.now();
    auto done = m.store->WriteAt(oid, 0, image.data(), image.size());
    EXPECT_TRUE(done.ok());
    return done.ok() ? *done - t0 : SimDuration{0};
  };
  const SimDuration raw = flush(CodecId::kRaw);
  ASSERT_GT(raw, 0);
  EXPECT_EQ(flush(CodecId::kLz), raw);
}

TEST(Dedup, FlushBytesCollapseOnRepetitiveData) {
  // The tentpole acceptance shape: a dirty set whose content repeats must
  // flush >= 3x fewer physical bytes than its logical size.
  Store m;
  Oid oid = *m.store->CreateObject(ObjType::kMemory);
  constexpr uint64_t kLogicalBlocks = 64;
  for (uint64_t lb = 0; lb < kLogicalBlocks; lb++) {
    std::vector<uint8_t> block = Unique(static_cast<uint8_t>(lb % 8));
    ASSERT_TRUE(m.store->WriteAt(oid, lb * kBlock, block.data(), block.size()).ok());
  }
  ASSERT_TRUE(m.store->CommitCheckpoint("c1").ok());
  uint64_t logical = kLogicalBlocks * kBlock;
  EXPECT_LE(m.store->stats().bytes_stored * 3, logical)
      << "dedup shipped " << m.store->stats().bytes_stored << " of " << logical;
  EXPECT_TRUE(m.store->CheckDedupInvariants().ok());
}

TEST(Dedup, GcRelocatesASharedBlockOnceForAllReferents) {
  Store m;
  Oid a = *m.store->CreateObject(ObjType::kMemory);
  Oid b = *m.store->CreateObject(ObjType::kMemory);
  std::vector<uint8_t> shared = Unique(21);
  ASSERT_TRUE(m.store->WriteAt(a, 0, shared.data(), shared.size()).ok());
  ASSERT_TRUE(m.store->WriteAt(b, 0, shared.data(), shared.size()).ok());
  ASSERT_TRUE(m.store->WriteAt(b, kBlock, shared.data(), shared.size()).ok());
  // Pad the segment with soon-dead blocks so it becomes a GC victim.
  for (int round = 0; round < 3; round++) {
    for (uint64_t lb = 2; lb < 7; lb++) {
      std::vector<uint8_t> churn = Unique(static_cast<uint8_t>(100 + round * 8 + lb));
      ASSERT_TRUE(m.store->WriteAt(a, lb * kBlock, churn.data(), churn.size()).ok());
    }
    ASSERT_TRUE(m.store->CommitCheckpoint("r" + std::to_string(round)).ok());
  }
  ASSERT_TRUE(m.store->DeleteCheckpointsBefore(m.store->current_epoch() - 1).ok());

  GcConfig config;
  config.utilization_threshold = 1.1;
  SegmentGc gc(m.store.get(), config);
  auto report = gc.Run();
  ASSERT_TRUE(report.ok());
  ASSERT_GT(report->blocks_relocated, 0u);
  EXPECT_EQ(report->crc_errors, 0u);
  // The index followed the moved block and the refcounts still balance.
  EXPECT_TRUE(m.store->CheckDedupInvariants().ok());

  std::vector<uint8_t> back(kBlock);
  ASSERT_TRUE(m.store->ReadAt(a, 0, back.data(), back.size()).ok());
  EXPECT_EQ(back, shared);
  for (uint64_t lb = 0; lb < 2; lb++) {
    ASSERT_TRUE(m.store->ReadAt(b, lb * kBlock, back.data(), back.size()).ok());
    EXPECT_EQ(back, shared) << "b block " << lb;
  }

  // Sealed + remounted, everything still verifies.
  ASSERT_TRUE(m.store->CommitCheckpoint("sealed").ok());
  m.Remount();
  EXPECT_TRUE(m.store->CheckDedupInvariants().ok());
  ASSERT_TRUE(m.store->ReadAt(a, 0, back.data(), back.size()).ok());
  EXPECT_EQ(back, shared);
}

TEST(Dedup, QuarantinedSegmentStaysPinnedAcrossRemount) {
  // Satellite: quarantine is segment state, not GC-process memory. A segment
  // that failed its evacuation CRC walk must stay pinned after a remount —
  // never re-selected as a victim, never reclaimed.
  StoreOptions raw = DedupOptions(CodecId::kRaw);
  raw.dedup = false;  // raw blocks so on-media rot maps to exactly one extent
  Store m(raw);
  Oid oid = *m.store->CreateObject(ObjType::kMemory);
  std::vector<uint8_t> data;
  for (uint8_t s = 0; s < 24; s++) {
    std::vector<uint8_t> block = Unique(s);
    data.insert(data.end(), block.begin(), block.end());
  }
  ASSERT_TRUE(m.store->WriteAt(oid, 0, data.data(), data.size()).ok());
  ASSERT_TRUE(m.store->CommitCheckpoint("c1").ok());

  Scrubber scrubber(m.store.get());
  auto before = scrubber.ScrubAll();
  ASSERT_TRUE(before.ok());
  ASSERT_FALSE(before->data_phys.empty());
  uint64_t victim_phys = *before->data_phys.begin();
  uint32_t dps = kBlock / m.device.block_size();
  std::vector<uint8_t> garbage(kBlock, 0xEE);
  ASSERT_TRUE(m.device.WriteAsync(0, m.sim.clock.now(), victim_phys * dps, garbage.data(), dps).ok());

  GcConfig config;
  config.utilization_threshold = 1.1;
  SegmentGc gc(m.store.get(), config);
  auto report = gc.Run();
  ASSERT_TRUE(report.ok());
  ASSERT_GE(report->crc_errors, 1u);
  ASSERT_GE(m.store->GetSegmentStats().segments_quarantined, 1u);
  uint64_t quarantined = m.store->GetSegmentStats().segments_quarantined;

  // Commit persists the segment table; the remount must recover the
  // quarantine flag, not forget it the way the old in-memory set did.
  ASSERT_TRUE(m.store->CommitCheckpoint("after-gc").ok());
  m.Remount();
  EXPECT_EQ(m.store->GetSegmentStats().segments_quarantined, quarantined);

  // A post-remount GC pass skips the segment entirely (no re-read, no
  // repeat CRC error) and never reclaims it even after further churn.
  SegmentGc gc2(m.store.get(), config);
  auto again = gc2.Run();
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again->crc_errors, 0u);
  std::vector<uint8_t> more = Unique(99);
  ASSERT_TRUE(m.store->WriteAt(oid, 40 * kBlock, more.data(), more.size()).ok());
  ASSERT_TRUE(m.store->CommitCheckpoint("c2").ok());
  ASSERT_TRUE(m.store->DeleteCheckpointsBefore(m.store->current_epoch() - 1).ok());
  EXPECT_EQ(m.store->GetSegmentStats().segments_quarantined, quarantined);
}

}  // namespace
}  // namespace aurora
