#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>

#include "src/base/checksum.h"
#include "src/base/rng.h"
#include "src/base/serializer.h"
#include "src/base/sim_context.h"
#include "src/objstore/object_store.h"
#include "src/storage/block_device.h"

namespace aurora {
namespace {

class ObjStoreTest : public ::testing::Test {
 protected:
  ObjStoreTest() {
    device_ = std::make_unique<MemBlockDevice>(&sim_.clock, (256 * kMiB) / kPageSize);
    store_ = *ObjectStore::Format(device_.get(), &sim_);
  }

  std::vector<uint8_t> Pattern(size_t len, uint8_t seed) {
    std::vector<uint8_t> out(len);
    for (size_t i = 0; i < len; i++) {
      out[i] = static_cast<uint8_t>(seed + i * 31);
    }
    return out;
  }

  SimContext sim_;
  std::unique_ptr<MemBlockDevice> device_;
  std::unique_ptr<ObjectStore> store_;
};

TEST_F(ObjStoreTest, CreateWriteRead) {
  auto oid = *store_->CreateObject(ObjType::kMemory);
  auto data = Pattern(200 * kKiB, 3);
  ASSERT_TRUE(store_->WriteAt(oid, 0, data.data(), data.size()).ok());
  std::vector<uint8_t> back(data.size());
  ASSERT_TRUE(store_->ReadAt(oid, 0, back.data(), back.size()).ok());
  EXPECT_EQ(back, data);
  EXPECT_EQ(*store_->SizeOf(oid), data.size());
}

TEST_F(ObjStoreTest, PartialBlockReadModifyWrite) {
  auto oid = *store_->CreateObject(ObjType::kFile);
  auto base = Pattern(store_->block_size(), 1);
  ASSERT_TRUE(store_->WriteAt(oid, 0, base.data(), base.size()).ok());
  // Overwrite 100 bytes in the middle; the rest must survive COW RMW.
  std::vector<uint8_t> patch(100, 0xee);
  ASSERT_TRUE(store_->WriteAt(oid, 1000, patch.data(), patch.size()).ok());
  std::vector<uint8_t> back(base.size());
  ASSERT_TRUE(store_->ReadAt(oid, 0, back.data(), back.size()).ok());
  EXPECT_EQ(0, std::memcmp(back.data(), base.data(), 1000));
  EXPECT_EQ(back[1000], 0xee);
  EXPECT_EQ(0, std::memcmp(back.data() + 1100, base.data() + 1100, base.size() - 1100));
}

TEST_F(ObjStoreTest, SparseReadsAreZero) {
  auto oid = *store_->CreateObject(ObjType::kMemory);
  auto data = Pattern(kPageSize, 5);
  ASSERT_TRUE(store_->WriteAt(oid, 10 * store_->block_size(), data.data(), data.size()).ok());
  std::vector<uint8_t> back(kPageSize, 0xff);
  ASSERT_TRUE(store_->ReadAt(oid, 0, back.data(), back.size()).ok());
  for (uint8_t b : back) {
    EXPECT_EQ(b, 0);
  }
}

TEST_F(ObjStoreTest, CheckpointHistoryReadable) {
  auto oid = *store_->CreateObject(ObjType::kMemory);
  auto v1 = Pattern(64 * kKiB, 1);
  ASSERT_TRUE(store_->WriteAt(oid, 0, v1.data(), v1.size()).ok());
  auto e1 = store_->current_epoch();
  ASSERT_TRUE(store_->CommitCheckpoint("one").ok());

  auto v2 = Pattern(64 * kKiB, 2);
  ASSERT_TRUE(store_->WriteAt(oid, 0, v2.data(), v2.size()).ok());
  auto e2 = store_->current_epoch();
  ASSERT_TRUE(store_->CommitCheckpoint("two").ok());

  std::vector<uint8_t> back(v1.size());
  ASSERT_TRUE(store_->ReadAtEpoch(e1, oid, 0, back.data(), back.size()).ok());
  EXPECT_EQ(back, v1) << "old checkpoint must keep its contents (COW)";
  ASSERT_TRUE(store_->ReadAtEpoch(e2, oid, 0, back.data(), back.size()).ok());
  EXPECT_EQ(back, v2);
  ASSERT_TRUE(store_->ReadAt(oid, 0, back.data(), back.size()).ok());
  EXPECT_EQ(back, v2);
}

TEST_F(ObjStoreTest, RecoveryAfterCleanCommit) {
  auto oid = *store_->CreateObject(ObjType::kFile);
  auto data = Pattern(128 * kKiB, 9);
  ASSERT_TRUE(store_->WriteAt(oid, 0, data.data(), data.size()).ok());
  ASSERT_TRUE(store_->CommitCheckpoint("durable").ok());

  auto reopened = ObjectStore::Open(device_.get(), &sim_);
  ASSERT_TRUE(reopened.ok());
  EXPECT_TRUE((*reopened)->Exists(oid));
  std::vector<uint8_t> back(data.size());
  ASSERT_TRUE((*reopened)->ReadAt(oid, 0, back.data(), back.size()).ok());
  EXPECT_EQ(back, data);
}

TEST_F(ObjStoreTest, UncommittedWritesRollBackOnRecovery) {
  auto oid = *store_->CreateObject(ObjType::kFile);
  auto committed = Pattern(64 * kKiB, 1);
  ASSERT_TRUE(store_->WriteAt(oid, 0, committed.data(), committed.size()).ok());
  ASSERT_TRUE(store_->CommitCheckpoint("good").ok());
  auto uncommitted = Pattern(64 * kKiB, 2);
  ASSERT_TRUE(store_->WriteAt(oid, 0, uncommitted.data(), uncommitted.size()).ok());
  // Crash before commit.
  auto reopened = ObjectStore::Open(device_.get(), &sim_);
  ASSERT_TRUE(reopened.ok());
  std::vector<uint8_t> back(committed.size());
  ASSERT_TRUE((*reopened)->ReadAt(oid, 0, back.data(), back.size()).ok());
  EXPECT_EQ(back, committed);
}

TEST_F(ObjStoreTest, DeadlistReclamationFreesSpace) {
  auto oid = *store_->CreateObject(ObjType::kFile);
  auto data = Pattern(4 * kMiB, 1);
  ASSERT_TRUE(store_->WriteAt(oid, 0, data.data(), data.size()).ok());
  ASSERT_TRUE(store_->CommitCheckpoint("a").ok());
  uint64_t free_after_a = store_->FreeBlocks();

  // Overwrite everything: the old blocks are dead but still referenced by
  // checkpoint "a".
  ASSERT_TRUE(store_->WriteAt(oid, 0, data.data(), data.size()).ok());
  uint64_t overwrite_epoch = store_->current_epoch();
  ASSERT_TRUE(store_->CommitCheckpoint("b").ok());
  EXPECT_LT(store_->FreeBlocks(), free_after_a);

  ASSERT_TRUE(store_->DeleteCheckpointsBefore(overwrite_epoch).ok());
  // Dead blocks from the overwrite are reclaimed.
  EXPECT_GE(store_->FreeBlocks() + 8, free_after_a);  // metadata slack allowed
}

TEST_F(ObjStoreTest, SameEpochOverwriteFreesImmediately) {
  auto oid = *store_->CreateObject(ObjType::kFile);
  auto data = Pattern(1 * kMiB, 1);
  ASSERT_TRUE(store_->WriteAt(oid, 0, data.data(), data.size()).ok());
  uint64_t free1 = store_->FreeBlocks();
  // Overwriting within the same uncommitted epoch cannot leak blocks.
  for (int i = 0; i < 5; i++) {
    ASSERT_TRUE(store_->WriteAt(oid, 0, data.data(), data.size()).ok());
  }
  EXPECT_EQ(store_->FreeBlocks(), free1);
}

// TableAt is a committed epoch's table as its blob recorded it: each
// object's type, size and extents with their births. An epoch the directory
// lacks, the open one included, is kNotFound.
TEST_F(ObjStoreTest, TableAtServesCommittedEpochsOnly) {
  const uint32_t bs = store_->block_size();
  auto oid = *store_->CreateObject(ObjType::kMemory);
  auto data = Pattern(bs, 5);
  ASSERT_TRUE(store_->WriteAt(oid, 0, data.data(), data.size()).ok());
  ASSERT_TRUE(store_->WriteAt(oid, 2 * bs, data.data(), data.size()).ok());
  uint64_t e1 = store_->current_epoch();
  ASSERT_TRUE(store_->CommitCheckpoint("e1").ok());
  ASSERT_TRUE(store_->WriteAt(oid, 2 * bs, data.data(), 100).ok());
  uint64_t e2 = store_->current_epoch();
  ASSERT_TRUE(store_->CommitCheckpoint("e2").ok());

  auto table = store_->TableAt(e2);
  ASSERT_TRUE(table.ok()) << table.status().message();
  ASSERT_EQ((*table)->count(oid), 1u);
  const ObjectInfo& info = (*table)->at(oid);
  EXPECT_EQ(info.type, ObjType::kMemory);
  EXPECT_EQ(info.size, 3 * bs);
  ASSERT_EQ(info.extents.size(), 2u);
  EXPECT_EQ(info.extents.at(0).birth, e1);
  EXPECT_EQ(info.extents.at(2).birth, e2);
  EXPECT_EQ((*store_->TableAt(e1))->at(oid).extents.at(2).birth, e1);

  EXPECT_EQ(store_->TableAt(store_->current_epoch()).status().code(), Errc::kNotFound);
  EXPECT_EQ(store_->TableAt(e2 + 100).status().code(), Errc::kNotFound);
}

TEST_F(ObjStoreTest, DeleteObjectThenRecoverEarlierEpoch) {
  auto oid = *store_->CreateObject(ObjType::kManifest);
  auto data = Pattern(64 * kKiB, 4);
  ASSERT_TRUE(store_->WriteAt(oid, 0, data.data(), data.size()).ok());
  uint64_t e = store_->current_epoch();
  ASSERT_TRUE(store_->CommitCheckpoint("with-object").ok());
  ASSERT_TRUE(store_->DeleteObject(oid).ok());
  ASSERT_TRUE(store_->CommitCheckpoint("without-object").ok());

  EXPECT_FALSE(store_->Exists(oid));
  // But it is still readable at the earlier checkpoint.
  auto table = store_->TableAt(e);
  ASSERT_TRUE(table.ok());
  EXPECT_EQ((*table)->count(oid), 1u);
  std::vector<uint8_t> back(data.size());
  ASSERT_TRUE(store_->ReadAtEpoch(e, oid, 0, back.data(), back.size()).ok());
  EXPECT_EQ(back, data);
}

TEST_F(ObjStoreTest, JournalAppendReplay) {
  auto j = *store_->CreateJournal(1 * kMiB);
  for (int i = 0; i < 10; i++) {
    std::string rec = "record-" + std::to_string(i);
    ASSERT_TRUE(store_->JournalAppend(j, rec.data(), rec.size()).ok());
  }
  auto records = store_->JournalReplay(j);
  ASSERT_TRUE(records.ok());
  ASSERT_EQ(records->size(), 10u);
  EXPECT_EQ(std::string((*records)[7].begin(), (*records)[7].end()), "record-7");
}

TEST_F(ObjStoreTest, JournalLatencyMatchesPaper) {
  auto j = *store_->CreateJournal(64 * kMiB);
  std::vector<uint8_t> page(4 * kKiB, 0xab);
  SimTime t0 = sim_.clock.now();
  ASSERT_TRUE(store_->JournalAppend(j, page.data(), page.size()).ok());
  double micros = ToMicros(sim_.clock.now() - t0);
  // Paper section 7: a synchronous 4 KiB journal append takes 28 us.
  EXPECT_NEAR(micros, 28.0, 3.0);
}

TEST_F(ObjStoreTest, JournalResetAfterCommitDropsOldRecords) {
  auto j = *store_->CreateJournal(1 * kMiB);
  ASSERT_TRUE(store_->JournalAppend(j, "old", 3).ok());
  ASSERT_TRUE(store_->CommitCheckpoint("ckpt").ok());
  ASSERT_TRUE(store_->JournalReset(j).ok());
  ASSERT_TRUE(store_->JournalAppend(j, "new", 3).ok());
  auto records = store_->JournalReplay(j);
  ASSERT_TRUE(records.ok());
  ASSERT_EQ(records->size(), 1u);
  EXPECT_EQ(std::string((*records)[0].begin(), (*records)[0].end()), "new");
}

TEST_F(ObjStoreTest, JournalSurvivesReopen) {
  auto j = *store_->CreateJournal(1 * kMiB);
  ASSERT_TRUE(store_->CommitCheckpoint("journal-created").ok());
  ASSERT_TRUE(store_->JournalAppend(j, "alpha", 5).ok());
  ASSERT_TRUE(store_->JournalAppend(j, "beta", 4).ok());
  // Crash without a commit: journal data is non-COW and independently
  // durable — this is the whole point of sls_journal.
  auto reopened = ObjectStore::Open(device_.get(), &sim_);
  ASSERT_TRUE(reopened.ok());
  auto records = (*reopened)->JournalReplay(j);
  ASSERT_TRUE(records.ok());
  ASSERT_EQ(records->size(), 2u);
  EXPECT_EQ(std::string((*records)[1].begin(), (*records)[1].end()), "beta");
  // And the write offset recovered: further appends continue the sequence.
  ASSERT_TRUE((*reopened)->JournalAppend(j, "gamma", 5).ok());
  records = (*reopened)->JournalReplay(j);
  ASSERT_EQ(records->size(), 3u);
}

TEST_F(ObjStoreTest, JournalFullReported) {
  auto j = *store_->CreateJournal(64 * kKiB);
  std::vector<uint8_t> big(32 * kKiB, 1);
  // 32 KiB + header pads to 36 KiB; 16 KiB + header pads to 20 KiB; the
  // third append cannot fit in the remaining 8 KiB.
  ASSERT_TRUE(store_->JournalAppend(j, big.data(), big.size()).ok());
  ASSERT_TRUE(store_->JournalAppend(j, big.data(), 16 * kKiB).ok());
  EXPECT_EQ(store_->JournalAppend(j, big.data(), big.size()).code(), Errc::kNoSpace);
}

TEST_F(ObjStoreTest, PrunedEpochEvictsCachedTable) {
  auto oid = *store_->CreateObject(ObjType::kMemory);
  auto v1 = Pattern(64 * kKiB, 1);
  ASSERT_TRUE(store_->WriteAt(oid, 0, v1.data(), v1.size()).ok());
  uint64_t e1 = store_->current_epoch();
  ASSERT_TRUE(store_->CommitCheckpoint("one").ok());

  auto v2 = Pattern(64 * kKiB, 2);
  ASSERT_TRUE(store_->WriteAt(oid, 0, v2.data(), v2.size()).ok());
  uint64_t e2 = store_->current_epoch();
  ASSERT_TRUE(store_->CommitCheckpoint("two").ok());

  // Warm the epoch cache for both checkpoints.
  std::vector<uint8_t> back(v1.size());
  ASSERT_TRUE(store_->ReadAtEpoch(e1, oid, 0, back.data(), back.size()).ok());
  EXPECT_EQ(back, v1);
  ASSERT_TRUE(store_->ReadAtEpoch(e2, oid, 0, back.data(), back.size()).ok());
  EXPECT_EQ(back, v2);

  ASSERT_TRUE(store_->DeleteCheckpointsBefore(e2).ok());

  // The pruned epoch must report kNotFound, never serve the stale cached
  // table (its blocks may already be reallocated).
  EXPECT_EQ(store_->ReadAtEpoch(e1, oid, 0, back.data(), back.size()).code(), Errc::kNotFound);
  EXPECT_EQ(store_->TableAt(e1).status().code(), Errc::kNotFound);
  // The surviving checkpoint stays readable.
  ASSERT_TRUE(store_->ReadAtEpoch(e2, oid, 0, back.data(), back.size()).ok());
  EXPECT_EQ(back, v2);
}

// The newest committed meta blob, located through the superblock ring, with
// the offsets of its option bytes found by walking the v5 blob layout.
struct NewestMetaBlob {
  uint64_t lba = 0;          // first device block of the blob
  uint32_t dev_blocks = 0;   // device blocks the blob spans
  std::vector<uint8_t> raw;  // those device blocks, blob first
  uint64_t len = 0;          // blob bytes, trailing CRC32C included
  size_t deadlists_off = 0;
  size_t layout_off = 0;
  size_t reloc_off = 0;
  size_t codec_off = 0;
};

NewestMetaBlob FindNewestMetaBlob(MemBlockDevice* device) {
  // Superblock: magic u32, version u32, epoch u64, block_size u32,
  // total_blocks u64, meta_block u64, meta_len u64, ... (little-endian).
  const uint32_t dev_bs = device->block_size();
  NewestMetaBlob out;
  uint64_t newest = 0;
  uint32_t store_bs = 0;
  uint64_t meta_block = 0;
  std::vector<uint8_t> slot(dev_bs);
  for (uint64_t s = 0; s < 8; s++) {
    EXPECT_TRUE(device->ReadSync(s, slot.data(), 1).ok());
    BinaryReader r(slot);
    if (*r.U32() != 0x41555253 || *r.U32() != 5) {
      continue;
    }
    uint64_t epoch = *r.U64();
    uint32_t bs = *r.U32();
    EXPECT_TRUE(r.U64().ok());  // total_blocks
    uint64_t block = *r.U64();
    uint64_t len = *r.U64();
    if (epoch > newest) {
      newest = epoch;
      store_bs = bs;
      meta_block = block;
      out.len = len;
    }
  }
  EXPECT_GT(newest, 0u);
  out.lba = meta_block * (store_bs / dev_bs);
  out.dev_blocks = static_cast<uint32_t>((out.len + dev_bs - 1) / dev_bs);
  out.raw.resize(static_cast<size_t>(out.dev_blocks) * dev_bs);
  EXPECT_TRUE(device->ReadSync(out.lba, out.raw.data(), out.dev_blocks).ok());

  BinaryReader r(out.raw.data(), out.len - 4);
  auto skip = [&r](uint64_t n) {
    std::vector<uint8_t> field(n);
    EXPECT_TRUE(r.Raw(field.data(), field.size()).ok());
  };
  EXPECT_EQ(*r.U32(), 0x4155524du);  // "AURM"
  skip(16);                          // epoch, next_oid
  EXPECT_EQ(*r.U64(), 0u) << "walker expects no objects";
  out.deadlists_off = r.pos();
  EXPECT_EQ(*r.U64(), 0u) << "walker expects no deadlists";
  uint64_t nckpts = *r.U64();
  for (uint64_t i = 0; i < nckpts; i++) {
    skip(8);                       // epoch
    EXPECT_TRUE(r.String().ok());  // name
    skip(24);                      // committed_at, meta_block, meta_len
  }
  out.layout_off = r.pos();
  skip(1 + 4);          // layout, segment_blocks
  out.reloc_off = r.pos();
  skip(*r.U64() * 24);  // relocation map entries
  skip(*r.U64() * 12);  // open data segments: lane u32, segment u64
  skip(*r.U64() * 8);   // quarantined segments
  skip(1);              // dedup flag
  out.codec_off = r.pos();
  return out;
}

// Writes `blob` back with `patch` laid over its bytes at `off` and the
// trailing CRC32C re-sealed, so only the typed checks can reject it.
void WritePatchedBlob(MemBlockDevice* device, const NewestMetaBlob& blob, size_t off,
                      const std::vector<uint8_t>& patch) {
  std::vector<uint8_t> raw = blob.raw;
  std::copy(patch.begin(), patch.end(), raw.begin() + static_cast<ptrdiff_t>(off));
  uint32_t crc = Crc32c(raw.data(), blob.len - 4);
  for (size_t i = 0; i < 4; i++) {
    raw[blob.len - 4 + i] = static_cast<uint8_t>(crc >> (8 * i));
  }
  ASSERT_TRUE(device->WriteSync(blob.lba, raw.data(), blob.dev_blocks).ok());
}

TEST_F(ObjStoreTest, BadMetaOptionBytesAreTypedErrors) {
  NewestMetaBlob blob = FindNewestMetaBlob(device_.get());
  ASSERT_EQ(blob.raw[blob.layout_off], 1) << "segment-log layout byte";
  ASSERT_EQ(blob.raw[blob.codec_off], static_cast<uint8_t>(CodecId::kLz));

  struct Case {
    size_t off;
    uint8_t value;
    Errc want;
  };
  const Case cases[] = {
      {blob.layout_off, 1, Errc::kOk},            // control: walk and re-seal are exact
      {blob.layout_off, 0, Errc::kNotSupported},  // the retired free-list layout
      {blob.layout_off, 2, Errc::kCorrupt},
      {blob.layout_off, 0xff, Errc::kCorrupt},
      {blob.codec_off, static_cast<uint8_t>(CodecId::kRaw), Errc::kOk},
      {blob.codec_off, 2, Errc::kCorrupt},
      {blob.codec_off, 0xff, Errc::kCorrupt},
  };
  for (const Case& c : cases) {
    WritePatchedBlob(device_.get(), blob, c.off, {c.value});
    auto opened = ObjectStore::Open(device_.get(), &sim_);
    Errc got = opened.ok() ? Errc::kOk : opened.status().code();
    EXPECT_EQ(got, c.want) << "byte " << c.off << " = " << static_cast<int>(c.value)
                           << " opened as " << ErrcName(got);
  }
  WritePatchedBlob(device_.get(), blob, blob.layout_off, {1});

  // The layout is fixed at format time, so an intact older epoch cannot
  // help: layout 0 in the newest blob is kNotSupported, not a fallback.
  ASSERT_TRUE(store_->CommitCheckpoint("second").ok());
  NewestMetaBlob second = FindNewestMetaBlob(device_.get());
  ASSERT_NE(second.lba, blob.lba);
  WritePatchedBlob(device_.get(), second, second.layout_off, {0});
  EXPECT_EQ(ObjectStore::Open(device_.get(), &sim_).status().code(), Errc::kNotSupported);
}

std::vector<uint8_t> Le64Bytes(uint64_t v) {
  std::vector<uint8_t> out(8);
  for (size_t i = 0; i < 8; i++) {
    out[i] = static_cast<uint8_t>(v >> (8 * i));
  }
  return out;
}

TEST_F(ObjStoreTest, HugeMetaCountsAreCorrupt) {
  // A count read from the blob must not size an allocation before the bytes
  // it counts are known to be there: a deadlist entry count or a relocation
  // count of 2^40 or 2^63 is kCorrupt, not std::bad_alloc.
  NewestMetaBlob blob = FindNewestMetaBlob(device_.get());
  for (uint64_t count : {uint64_t{1} << 40, uint64_t{1} << 63}) {
    // One deadlist: its epoch is whatever u64 follows, its entry count the
    // u64 after that.
    std::vector<uint8_t> deadlist = Le64Bytes(1);
    auto epoch_at = blob.raw.begin() + static_cast<ptrdiff_t>(blob.deadlists_off + 8);
    deadlist.insert(deadlist.end(), epoch_at, epoch_at + 8);
    std::vector<uint8_t> entries = Le64Bytes(count);
    deadlist.insert(deadlist.end(), entries.begin(), entries.end());
    const std::pair<size_t, std::vector<uint8_t>> cases[] = {
        {blob.deadlists_off, deadlist},
        {blob.reloc_off, Le64Bytes(count)},
    };
    for (const auto& [off, patch] : cases) {
      WritePatchedBlob(device_.get(), blob, off, patch);
      EXPECT_EQ(ObjectStore::Open(device_.get(), &sim_).status().code(), Errc::kCorrupt)
          << "count " << count << " at byte " << off;
    }
  }
  WritePatchedBlob(device_.get(), blob, blob.layout_off, {1});
  EXPECT_TRUE(ObjectStore::Open(device_.get(), &sim_).ok()) << "control: the unpatched blob";
}

// Crash-injection property: arm the device fuse at every write count within
// a commit window; recovery must always land on a consistent checkpoint
// (either the old or — if the superblock made it — the new one).
class TornWriteTest : public ::testing::TestWithParam<int> {};

TEST_P(TornWriteTest, RecoveryAlwaysConsistent) {
  SimContext sim;
  MemBlockDevice device(&sim.clock, (64 * kMiB) / kPageSize);
  auto store = *ObjectStore::Format(&device, &sim);

  auto oid = *store->CreateObject(ObjType::kFile);
  std::vector<uint8_t> v1(128 * kKiB, 0x11);
  ASSERT_TRUE(store->WriteAt(oid, 0, v1.data(), v1.size()).ok());
  ASSERT_TRUE(store->CommitCheckpoint("v1").ok());

  std::vector<uint8_t> v2(128 * kKiB, 0x22);
  ASSERT_TRUE(store->WriteAt(oid, 0, v2.data(), v2.size()).ok());
  // Crash after N more block writes during the second commit.
  device.CrashAfterWrites(static_cast<uint64_t>(GetParam()));
  AURORA_IGNORE_STATUS(store->CommitCheckpoint("v2"), "crash fuse may fire mid-operation; both outcomes are exercised");  // may or may not land
  device.DisarmCrash();

  auto reopened = ObjectStore::Open(&device, &sim);
  ASSERT_TRUE(reopened.ok()) << "no valid checkpoint after crash at write " << GetParam();
  std::vector<uint8_t> back(v1.size());
  ASSERT_TRUE((*reopened)->ReadAt(oid, 0, back.data(), back.size()).ok());
  bool is_v1 = back == v1;
  bool is_v2 = back == v2;
  EXPECT_TRUE(is_v1 || is_v2) << "recovered to a torn state at write " << GetParam();
}

INSTANTIATE_TEST_SUITE_P(CrashPoints, TornWriteTest, ::testing::Range(0, 24));

}  // namespace
}  // namespace aurora
