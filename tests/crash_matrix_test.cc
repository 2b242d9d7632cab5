// Crash matrix: sweep a power-loss crash over EVERY device write of a
// deterministic two-checkpoint object-store workload, then mount and check
// that the store always recovers to a checksummed prefix epoch — the exact
// state of some committed checkpoint, never a torn mixture. The mount
// rebuilds the allocator from the recovered tables, so each sweep then
// writes and commits on the recovered store and checks that no retained
// epoch changed: a rebuild that hands out a block some epoch still reads
// fails there.
//
// The 8 KiB store-block configuration regression-tests the superblock-ring
// reservation bug: the ring spans kSuperSlots device blocks, and with store
// blocks smaller than that the allocator used to hand out store blocks 1..3
// inside the ring, letting later superblock commits overwrite committed
// data and metadata.
#include <gtest/gtest.h>

#include <cstring>
#include <map>

#include "src/base/sim_context.h"
#include "src/objstore/object_store.h"
#include "src/objstore/segment_gc.h"
#include "src/storage/block_device.h"

namespace aurora {
namespace {

std::vector<uint8_t> Pattern(size_t len, uint8_t seed) {
  std::vector<uint8_t> out(len);
  for (size_t i = 0; i < len; i++) {
    out[i] = static_cast<uint8_t>(seed + i * 31);
  }
  return out;
}

struct Workload {
  // Store-block geometry under test.
  uint32_t store_block;

  // Fixed shapes, derived from the geometry so both configs cover multiple
  // blocks per object.
  std::vector<uint8_t> a;  // obj1 contents at checkpoint c1
  std::vector<uint8_t> b;  // obj1 overwrite, committed at c2
  std::vector<uint8_t> c;  // obj2 contents, committed at c2
  std::vector<std::vector<uint8_t>> records;  // journal appends (4 pre-c1, 3 post-c1)

  explicit Workload(uint32_t block_size) : store_block(block_size) {
    a = Pattern(3 * store_block, 1);
    b = Pattern(2 * store_block, 2);
    c = Pattern(store_block + 100, 3);
    for (int i = 0; i < 7; i++) {
      records.push_back(Pattern(120 + 10 * static_cast<size_t>(i), static_cast<uint8_t>(10 + i)));
    }
  }

  struct Ids {
    Oid obj1 = kInvalidOid;
    Oid obj2 = kInvalidOid;
    Oid journal = kInvalidOid;
  };

  // Runs the whole workload against a fresh device. Post-crash the device
  // silently drops writes, so this always completes; stage write counts are
  // only meaningful on an un-crashed run. Returns the oids used.
  Ids Run(MemBlockDevice* device, SimContext* sim, uint64_t* writes_after_format,
          uint64_t* writes_after_c1) const {
    StoreOptions options;
    options.block_size = store_block;
    auto store = *ObjectStore::Format(device, sim, options);
    if (writes_after_format != nullptr) {
      *writes_after_format = device->stats().writes;
    }

    Ids ids;
    ids.obj1 = *store->CreateObject(ObjType::kMemory);
    EXPECT_TRUE(store->WriteAt(ids.obj1, 0, a.data(), a.size()).ok());
    ids.journal = *store->CreateJournal(64 * kKiB);
    for (int i = 0; i < 4; i++) {
      EXPECT_TRUE(store->JournalAppend(ids.journal, records[i].data(), records[i].size()).ok());
    }
    AURORA_IGNORE_STATUS(store->CommitCheckpoint("c1"), "crash fuse may fire mid-operation; both outcomes are exercised");
    if (writes_after_c1 != nullptr) {
      *writes_after_c1 = device->stats().writes;
    }

    EXPECT_TRUE(store->WriteAt(ids.obj1, 0, b.data(), b.size()).ok());
    ids.obj2 = *store->CreateObject(ObjType::kMemory);
    EXPECT_TRUE(store->WriteAt(ids.obj2, 0, c.data(), c.size()).ok());
    for (int i = 4; i < 7; i++) {
      EXPECT_TRUE(store->JournalAppend(ids.journal, records[i].data(), records[i].size()).ok());
    }
    AURORA_IGNORE_STATUS(store->CommitCheckpoint("c2"), "crash fuse may fire mid-operation; both outcomes are exercised");
    return ids;
  }
};

// Reads `len` bytes of `oid` and compares against `want`; the prefix of
// `over` (if non-empty) must NOT be visible (no torn mixing).
void ExpectContents(ObjectStore* store, Oid oid, const std::vector<uint8_t>& want) {
  std::vector<uint8_t> back(want.size());
  ASSERT_TRUE(store->ReadAt(oid, 0, back.data(), back.size()).ok());
  EXPECT_EQ(back, want) << "recovered object contents are not the committed epoch's";
}

// Every object of every retained epoch, read in full, by epoch and oid.
using EpochImages = std::map<uint64_t, std::map<uint64_t, std::vector<uint8_t>>>;
EpochImages ReadRetainedEpochs(ObjectStore* store) {
  EpochImages out;
  for (const CheckpointInfo& ckpt : store->ListCheckpoints()) {
    auto table = store->TableAt(ckpt.epoch);
    EXPECT_TRUE(table.ok()) << "epoch " << ckpt.epoch << " unreadable";
    if (!table.ok()) {
      continue;
    }
    for (const auto& [oid, info] : **table) {
      std::vector<uint8_t> bytes(info.size);
      EXPECT_TRUE(store->ReadAtEpoch(ckpt.epoch, oid, 0, bytes.data(), bytes.size()).ok());
      out[ckpt.epoch][oid.value] = std::move(bytes);
    }
  }
  return out;
}

// Reuse after recovery: overwrite `oid` on the recovered store (a fresh
// object when the recovered epoch predates it) and commit. A second mount
// must then read every retained epoch exactly as the first one did, and the
// live bitmap must be the one the tables derive.
void ExpectReuseKeepsRetainedEpochs(ObjectStore* store, MemBlockDevice* device, SimContext* sim,
                                    Oid oid) {
  const EpochImages before = ReadRetainedEpochs(store);
  if (!store->Exists(oid)) {
    oid = *store->CreateObject(ObjType::kMemory);
  }
  std::vector<uint8_t> data = Pattern(2 * store->block_size() + 100, 0x5a);
  ASSERT_TRUE(store->WriteAt(oid, 0, data.data(), data.size()).ok());
  ASSERT_TRUE(store->CommitCheckpoint("reuse").ok());
  Status bitmap = store->CheckLiveBitmap();
  EXPECT_TRUE(bitmap.ok()) << bitmap.message();

  auto remounted = ObjectStore::Open(device, sim);
  ASSERT_TRUE(remounted.ok()) << remounted.status().message();
  EpochImages after = ReadRetainedEpochs(remounted->get());
  for (const auto& [epoch, objects] : before) {
    EXPECT_TRUE(after[epoch] == objects) << "epoch " << epoch << " changed after reuse";
  }
}

void SweepCrashMatrix(uint32_t store_block) {
  const Workload w(store_block);
  const uint64_t device_blocks = (64 * kMiB) / kPageSize;

  // Un-crashed reference run: stage boundaries in device-write counts.
  uint64_t format_writes = 0;
  uint64_t c1_writes = 0;
  uint64_t total_writes = 0;
  {
    SimContext sim;
    MemBlockDevice device(&sim.clock, device_blocks);
    w.Run(&device, &sim, &format_writes, &c1_writes);
    total_writes = device.stats().writes;
    // Sanity: the reference run must recover to c2 with everything intact.
    auto reopened = ObjectStore::Open(&device, &sim);
    ASSERT_TRUE(reopened.ok());
  }
  ASSERT_GT(format_writes, 0u);
  ASSERT_GT(c1_writes, format_writes);
  ASSERT_GT(total_writes, c1_writes);

  for (uint64_t n = 0; n <= total_writes; n++) {
    SimContext sim;
    MemBlockDevice device(&sim.clock, device_blocks);
    device.CrashAfterWrites(n);
    Workload::Ids ids = w.Run(&device, &sim, nullptr, nullptr);
    EXPECT_EQ(device.crashed(), n < total_writes) << "crash fuse did not fire at write " << n;
    device.DisarmCrash();

    auto reopened = ObjectStore::Open(&device, &sim);
    if (n < format_writes) {
      // Power was lost before the store ever committed; both outcomes —
      // mount failure or recovery to the empty formatted store — are sound.
      if (!reopened.ok()) {
        continue;
      }
    } else {
      ASSERT_TRUE(reopened.ok()) << "store unmountable after crash at write " << n
                                 << " (c1 committed at " << c1_writes << ")";
    }
    ObjectStore* store = reopened->get();

    // Which epoch did we land on? Identify it by checkpoint name, then hold
    // recovery to that epoch's exact contents.
    bool has_c1 = false;
    bool has_c2 = false;
    for (const CheckpointInfo& ckpt : store->ListCheckpoints()) {
      has_c1 |= ckpt.name == "c1";
      has_c2 |= ckpt.name == "c2";
    }
    if (n >= total_writes) {
      EXPECT_TRUE(has_c2) << "clean run must recover the last checkpoint";
    }
    if (n >= c1_writes) {
      // c1 was fully durable before the crash: recovery may never fall
      // below it (this is what the superblock-ring bug violated).
      EXPECT_TRUE(has_c1 || has_c2)
          << "durable checkpoint c1 lost by crash at write " << n;
    }

    if (has_c2) {
      ExpectContents(store, ids.obj1, w.b);
      ExpectContents(store, ids.obj2, w.c);
    } else if (has_c1) {
      ExpectContents(store, ids.obj1, w.a);
      // obj2 was created after c1; it must not exist at this epoch.
      std::vector<uint8_t> buf(16);
      EXPECT_FALSE(store->ReadAt(ids.obj2, 0, buf.data(), buf.size()).ok())
          << "object from an uncommitted epoch visible after recovery";
    }

    // The journal is synchronously durable: replay must return a prefix of
    // the appended records (a torn tail record is discarded, never mixed).
    if (has_c1 || has_c2) {
      auto replayed = store->JournalReplay(ids.journal);
      ASSERT_TRUE(replayed.ok());
      ASSERT_LE(replayed->size(), w.records.size());
      for (size_t i = 0; i < replayed->size(); i++) {
        EXPECT_EQ((*replayed)[i], w.records[i]) << "journal record " << i << " corrupted";
      }
      if (n >= total_writes) {
        EXPECT_EQ(replayed->size(), w.records.size());
      }
    }
    ExpectReuseKeepsRetainedEpochs(store, &device, &sim, ids.obj1);
  }
}

TEST(CrashMatrix, EveryCrashPointRecoversPaperGeometry) {
  SweepCrashMatrix(64 * 1024);  // the paper's 64 KiB store blocks
}

TEST(CrashMatrix, EveryCrashPointRecoversSmallBlockGeometry) {
  // Store blocks (8 KiB) smaller than the kSuperSlots-device-block
  // superblock ring: regression for the ring reservation fix.
  SweepCrashMatrix(8 * 1024);
}

// Crash-during-compaction sweep: a workload that ends with a retention prune,
// a full GC pass (every sealed segment evacuated) and a sealing commit, with
// the power-loss fuse swept over EVERY device write — including each
// compaction copy. Recovery must always land on an exact committed image:
// before the post-GC commit that means the pre-GC block locations (zombies
// are still intact), after it the relocated ones.
TEST(CrashMatrix, EveryCrashPointDuringCompactionRecoversExactImage) {
  const uint32_t bs = 8 * 1024;
  const uint64_t device_blocks = (64 * kMiB) / kPageSize;
  const std::vector<uint8_t> a = Pattern(4 * bs, 1);     // obj1 at c1
  const std::vector<uint8_t> head = Pattern(2 * bs, 2);  // c2 overwrites blocks 0-1
  const std::vector<uint8_t> b = Pattern(4 * bs, 3);     // obj2, deleted at c2
  // obj1 from c2 on: rewritten head, surviving tail. The tail blocks stay
  // live inside an otherwise-dead sealed segment — exactly what GC relocates.
  std::vector<uint8_t> a2 = head;
  a2.insert(a2.end(), a.begin() + 2 * bs, a.end());

  struct Ids {
    Oid obj1 = kInvalidOid;
    Oid obj2 = kInvalidOid;
  };
  auto run = [&](MemBlockDevice* device, SimContext* sim) {
    StoreOptions options;
    options.block_size = bs;
    options.segment_blocks = 8;
    // Raw store: this sweep pins the compaction write sequence; the dedup
    // variant of the sweep lives in the dedup fuse tests below.
    options.dedup = false;
    options.codec = CodecId::kRaw;
    auto store = *ObjectStore::Format(device, sim, options);

    Ids ids;
    ids.obj1 = *store->CreateObject(ObjType::kMemory);
    EXPECT_TRUE(store->WriteAt(ids.obj1, 0, a.data(), a.size()).ok());
    ids.obj2 = *store->CreateObject(ObjType::kMemory);
    EXPECT_TRUE(store->WriteAt(ids.obj2, 0, b.data(), b.size()).ok());
    AURORA_IGNORE_STATUS(store->CommitCheckpoint("c1"), "crash fuse may fire mid-operation; both outcomes are exercised");

    EXPECT_TRUE(store->WriteAt(ids.obj1, 0, head.data(), head.size()).ok());
    AURORA_IGNORE_STATUS(store->DeleteObject(ids.obj2), "crash fuse may fire mid-operation; both outcomes are exercised");
    AURORA_IGNORE_STATUS(store->CommitCheckpoint("c2"), "crash fuse may fire mid-operation; both outcomes are exercised");

    // Retention prune: drop c1 and free its deadlists, leaving the sealed
    // segments partially dead; then compact everything that still lives.
    uint64_t c2_epoch = store->ListCheckpoints().back().epoch;
    AURORA_IGNORE_STATUS(store->DeleteCheckpointsBefore(c2_epoch), "crash fuse may fire mid-operation; both outcomes are exercised");
    GcConfig config;
    config.utilization_threshold = 1.1;  // every sealed segment is a victim
    SegmentGc gc(store.get(), config);
    auto report = gc.Run();
    EXPECT_TRUE(report.ok());
    AURORA_IGNORE_STATUS(store->CommitCheckpoint("c3"), "crash fuse may fire mid-operation; both outcomes are exercised");
    return ids;
  };

  // Reference run: the compactor must actually move blocks or the sweep
  // proves nothing.
  uint64_t total_writes = 0;
  {
    SimContext sim;
    MemBlockDevice device(&sim.clock, device_blocks);
    run(&device, &sim);
    total_writes = device.stats().writes;
    EXPECT_GE(sim.metrics.counter("gc.blocks_relocated").value(), 2u)
        << "workload produced no relocations; the crash sweep has no teeth";
  }

  for (uint64_t n = 0; n <= total_writes; n++) {
    SCOPED_TRACE(testing::Message() << "crash at write " << n << " of " << total_writes);
    SimContext sim;
    MemBlockDevice device(&sim.clock, device_blocks);
    device.CrashAfterWrites(n);
    Ids ids = run(&device, &sim);
    device.DisarmCrash();

    auto reopened = ObjectStore::Open(&device, &sim);
    if (!reopened.ok()) {
      // Sound only while the very first commit was still in flight.
      EXPECT_LT(n, total_writes) << "clean run failed to mount";
      continue;
    }
    ObjectStore* store = reopened->get();
    bool has_c1 = false;
    bool has_c2 = false;
    bool has_c3 = false;
    for (const CheckpointInfo& ckpt : store->ListCheckpoints()) {
      has_c1 |= ckpt.name == "c1";
      has_c2 |= ckpt.name == "c2";
      has_c3 |= ckpt.name == "c3";
    }
    if (n >= total_writes) {
      EXPECT_TRUE(has_c3) << "clean run must recover the post-GC checkpoint";
    }
    if (has_c2 || has_c3) {
      // From c2 on — crucially, from every fuse point inside the GC pass —
      // obj1 must read back byte-identical and obj2 must stay deleted.
      ExpectContents(store, ids.obj1, a2);
      std::vector<uint8_t> buf(16);
      EXPECT_FALSE(store->ReadAt(ids.obj2, 0, buf.data(), buf.size()).ok())
          << "deleted object resurfaced after crash at write " << n;
    } else if (has_c1) {
      ExpectContents(store, ids.obj1, a);
      ExpectContents(store, ids.obj2, b);
    }
    ExpectReuseKeepsRetainedEpochs(store, &device, &sim, ids.obj1);
  }
}

// Dedup fuse sweep: the same power-loss treatment for the content-addressed
// index. The workload forces every index transition — hit-installs-reference
// during a duplicate-heavy flush, refcount decrements when a retention prune
// frees the old epoch's deadlists, and a GC evacuation of an extent whose
// physical block is shared by two live references — and the fuse is swept
// over EVERY device write. After each crash the store must mount to a
// committed epoch with the dedup invariants intact: refcounts equal to the
// live-table reference count, reverse map mirroring the index, and no
// indexed block on a deadlist.
TEST(CrashMatrix, EveryCrashPointKeepsDedupIndexConsistent) {
  const uint32_t bs = 8 * 1024;
  const uint64_t device_blocks = (64 * kMiB) / kPageSize;
  const std::vector<uint8_t> x = Pattern(bs, 5);
  const std::vector<uint8_t> y = Pattern(bs, 6);
  const std::vector<uint8_t> z = Pattern(bs, 7);
  auto concat = [](std::initializer_list<const std::vector<uint8_t>*> parts) {
    std::vector<uint8_t> out;
    for (const auto* p : parts) {
      out.insert(out.end(), p->begin(), p->end());
    }
    return out;
  };
  // Unique filler pads c1 past a segment boundary (dedup collapses duplicate
  // blocks, so without it nothing ever seals and GC has no victim); it all
  // dies with obj2, leaving the sealed segment mostly dead. Pattern() cannot
  // provide it: its byte sequence has period 256, which divides the block
  // size, so every Pattern block beyond the first would dedup to the first.
  std::vector<uint8_t> filler(8 * bs);
  uint64_t lcg = 0x9e3779b97f4a7c15ull;
  for (auto& byte : filler) {
    lcg = lcg * 6364136223846793005ull + 1442695040888963407ull;
    byte = static_cast<uint8_t>(lcg >> 56);
  }
  const std::vector<uint8_t> a = concat({&x, &y, &x, &y});     // obj1 at c1: 2 dup blocks
  const std::vector<uint8_t> b = concat({&x, &z, &filler});    // obj2: shares x with obj1
  const std::vector<uint8_t> head = concat({&z, &z});          // c2 head: shares z twice
  const std::vector<uint8_t> a2 = concat({&z, &z, &x, &y});    // obj1 from c2 on

  struct Ids {
    Oid obj1 = kInvalidOid;
    Oid obj2 = kInvalidOid;
  };
  auto run = [&](MemBlockDevice* device, SimContext* sim) {
    StoreOptions options;
    options.block_size = bs;
    options.segment_blocks = 8;
    options.dedup = true;
    options.codec = CodecId::kLz;
    auto store = *ObjectStore::Format(device, sim, options);

    Ids ids;
    ids.obj1 = *store->CreateObject(ObjType::kMemory);
    EXPECT_TRUE(store->WriteAt(ids.obj1, 0, a.data(), a.size()).ok());
    ids.obj2 = *store->CreateObject(ObjType::kMemory);
    EXPECT_TRUE(store->WriteAt(ids.obj2, 0, b.data(), b.size()).ok());
    AURORA_IGNORE_STATUS(store->CommitCheckpoint("c1"), "crash fuse may fire mid-operation; both outcomes are exercised");

    EXPECT_TRUE(store->WriteAt(ids.obj1, 0, head.data(), head.size()).ok());
    AURORA_IGNORE_STATUS(store->DeleteObject(ids.obj2), "crash fuse may fire mid-operation; both outcomes are exercised");
    AURORA_IGNORE_STATUS(store->CommitCheckpoint("c2"), "crash fuse may fire mid-operation; both outcomes are exercised");

    // Retention prune: unreferences the c1-only duplicates (x/y instances
    // behind the overwritten head, all of obj2) — the decrement path.
    uint64_t c2_epoch = store->ListCheckpoints().back().epoch;
    AURORA_IGNORE_STATUS(store->DeleteCheckpointsBefore(c2_epoch), "crash fuse may fire mid-operation; both outcomes are exercised");
    // Full compaction: relocates the surviving extents, including the one
    // physical z referenced by both of obj1's head blocks.
    GcConfig config;
    config.utilization_threshold = 1.1;
    SegmentGc gc(store.get(), config);
    auto report = gc.Run();
    EXPECT_TRUE(report.ok());
    AURORA_IGNORE_STATUS(store->CommitCheckpoint("c3"), "crash fuse may fire mid-operation; both outcomes are exercised");
    return ids;
  };

  // Reference run: dedup and relocation must both fire or the sweep is
  // toothless; the clean image itself must hold the invariants.
  uint64_t total_writes = 0;
  {
    SimContext sim;
    MemBlockDevice device(&sim.clock, device_blocks);
    run(&device, &sim);
    total_writes = device.stats().writes;
    EXPECT_GT(sim.metrics.counter("store.dedup_hits").value(), 0u)
        << "workload produced no dedup hits; the crash sweep has no teeth";
    EXPECT_GE(sim.metrics.counter("gc.blocks_relocated").value(), 1u)
        << "workload produced no relocations; the crash sweep has no teeth";
    auto reopened = ObjectStore::Open(&device, &sim);
    ASSERT_TRUE(reopened.ok());
    ASSERT_TRUE((*reopened)->CheckDedupInvariants().ok());
  }

  for (uint64_t n = 0; n <= total_writes; n++) {
    SCOPED_TRACE(testing::Message() << "crash at write " << n << " of " << total_writes);
    SimContext sim;
    MemBlockDevice device(&sim.clock, device_blocks);
    device.CrashAfterWrites(n);
    Ids ids = run(&device, &sim);
    device.DisarmCrash();

    auto reopened = ObjectStore::Open(&device, &sim);
    if (!reopened.ok()) {
      EXPECT_LT(n, total_writes) << "clean run failed to mount";
      continue;
    }
    ObjectStore* store = reopened->get();
    Status invariants = store->CheckDedupInvariants();
    EXPECT_TRUE(invariants.ok()) << "dedup index inconsistent after crash at write " << n << ": "
                                 << invariants.message();

    bool has_c1 = false;
    bool has_c2 = false;
    bool has_c3 = false;
    for (const CheckpointInfo& ckpt : store->ListCheckpoints()) {
      has_c1 |= ckpt.name == "c1";
      has_c2 |= ckpt.name == "c2";
      has_c3 |= ckpt.name == "c3";
    }
    if (n >= total_writes) {
      EXPECT_TRUE(has_c3) << "clean run must recover the post-GC checkpoint";
    }
    if (has_c2 || has_c3) {
      ExpectContents(store, ids.obj1, a2);
      std::vector<uint8_t> buf(16);
      EXPECT_FALSE(store->ReadAt(ids.obj2, 0, buf.data(), buf.size()).ok())
          << "deleted object resurfaced after crash at write " << n;
    } else if (has_c1) {
      ExpectContents(store, ids.obj1, a);
      ExpectContents(store, ids.obj2, b);
    }
  }
}

TEST(CrashMatrix, SuperblockRingCyclingDoesNotTrampleData) {
  // The superblock ring reservation bug needs no crash at all: with 8 KiB
  // store blocks the ring's 8 device blocks span store blocks 0..3, and the
  // unfixed allocator handed blocks 1..3 to the first object. Once the epoch
  // counter cycles all the way around the ring (8 commits), the superblock
  // for epoch e lands on device block e % 8 — straight through the middle of
  // that object's committed data.
  SimContext sim;
  MemBlockDevice device(&sim.clock, (64 * kMiB) / kPageSize);
  StoreOptions options;
  options.block_size = 8 * 1024;
  auto store = *ObjectStore::Format(&device, &sim, options);

  Oid oid = *store->CreateObject(ObjType::kMemory);
  std::vector<uint8_t> data = Pattern(4 * options.block_size, 9);
  ASSERT_TRUE(store->WriteAt(oid, 0, data.data(), data.size()).ok());
  ASSERT_TRUE(store->CommitCheckpoint("base").ok());

  for (int i = 0; i < 10; i++) {
    ASSERT_TRUE(store->CommitCheckpoint("pad" + std::to_string(i)).ok());
  }

  std::vector<uint8_t> back(data.size());
  ASSERT_TRUE(store->ReadAt(oid, 0, back.data(), back.size()).ok());
  EXPECT_EQ(back, data) << "superblock ring cycled over committed object data";

  // And the store must still mount to the same contents after a reboot.
  auto reopened = ObjectStore::Open(&device, &sim);
  ASSERT_TRUE(reopened.ok());
  std::fill(back.begin(), back.end(), 0);
  ASSERT_TRUE((*reopened)->ReadAt(oid, 0, back.data(), back.size()).ok());
  EXPECT_EQ(back, data);
}

}  // namespace
}  // namespace aurora
