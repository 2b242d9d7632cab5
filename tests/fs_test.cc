#include <gtest/gtest.h>

#include <cstring>

#include "src/base/sim_context.h"
#include "src/fs/aurora_fs.h"
#include "src/fs/baseline_fs.h"
#include "src/objstore/object_store.h"
#include "src/storage/block_device.h"

namespace aurora {
namespace {

class AuroraFsTest : public ::testing::Test {
 protected:
  AuroraFsTest() {
    device_ = std::make_unique<MemBlockDevice>(&sim_.clock, (256 * kMiB) / kPageSize);
    store_ = *ObjectStore::Format(device_.get(), &sim_);
    fs_ = std::make_unique<AuroraFs>(&sim_, store_.get());
  }

  SimContext sim_;
  std::unique_ptr<MemBlockDevice> device_;
  std::unique_ptr<ObjectStore> store_;
  std::unique_ptr<AuroraFs> fs_;
};

TEST_F(AuroraFsTest, CreateWriteRead) {
  auto vn = *fs_->Create("data.bin");
  std::vector<uint8_t> data(100 * kKiB);
  for (size_t i = 0; i < data.size(); i++) {
    data[i] = static_cast<uint8_t>(i);
  }
  ASSERT_TRUE(vn->Write(0, data.data(), data.size()).ok());
  EXPECT_EQ(vn->size(), data.size());
  std::vector<uint8_t> back(data.size());
  auto n = vn->Read(0, back.data(), back.size());
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(*n, data.size());
  EXPECT_EQ(back, data);
}

TEST_F(AuroraFsTest, ReadPastEofTruncated) {
  auto vn = *fs_->Create("short");
  ASSERT_TRUE(vn->Write(0, "abc", 3).ok());
  char buf[16];
  auto n = vn->Read(1, buf, sizeof(buf));
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(*n, 2u);
  auto zero = vn->Read(100, buf, sizeof(buf));
  ASSERT_TRUE(zero.ok());
  EXPECT_EQ(*zero, 0u);
}

TEST_F(AuroraFsTest, LookupByInoFindsFile) {
  auto vn = *fs_->Create("x");
  auto by_ino = fs_->LookupByIno(vn->ino());
  ASSERT_TRUE(by_ino.ok());
  EXPECT_EQ(by_ino->get(), vn.get());
  EXPECT_EQ(*fs_->PathOfIno(vn->ino()), "x");
}

TEST_F(AuroraFsTest, AnonymousFilesRetainedWhileReferenced) {
  auto vn = *fs_->Create("tmpfile");
  ASSERT_TRUE(vn->Write(0, "precious", 8).ok());
  vn->AddHiddenRef();  // an open descriptor
  ASSERT_TRUE(fs_->Unlink("tmpfile").ok());
  EXPECT_FALSE(fs_->Lookup("tmpfile").ok());
  // Still reachable by inode: data survives.
  auto by_ino = fs_->LookupByIno(vn->ino());
  ASSERT_TRUE(by_ino.ok());
  char buf[8];
  ASSERT_TRUE((*by_ino)->Read(0, buf, 8).ok());
  EXPECT_EQ(0, std::memcmp(buf, "precious", 8));
  // PathOfIno reports it as anonymous.
  EXPECT_FALSE(fs_->PathOfIno(vn->ino()).ok());
  // Dropping the last hidden reference reclaims it.
  vn->DropHiddenRef();
  ASSERT_TRUE(fs_->Unlink("nonexistent").code() == Errc::kNotFound);
}

TEST_F(AuroraFsTest, FsyncIsNoOpUnderCheckpointConsistency) {
  auto vn = *fs_->Create("log");
  std::vector<uint8_t> data(1 * kMiB, 0x42);
  ASSERT_TRUE(vn->Write(0, data.data(), data.size()).ok());
  SimTime t0 = sim_.clock.now();
  ASSERT_TRUE(vn->Fsync().ok());
  EXPECT_LT(sim_.clock.now() - t0, kMicrosecond) << "fsync must not do IO";
  EXPECT_GT(fs_->DirtyBytes(), 0u) << "data still dirty; the checkpoint flushes it";
}

TEST_F(AuroraFsTest, FlushPersistsThroughStoreCheckpoint) {
  auto vn = *fs_->Create("db");
  std::vector<uint8_t> data(300 * kKiB, 0x5c);
  ASSERT_TRUE(vn->Write(0, data.data(), data.size()).ok());
  ASSERT_TRUE(fs_->FlushAll().ok());
  EXPECT_EQ(fs_->DirtyBytes(), 0u);
  ASSERT_TRUE(store_->CommitCheckpoint("fs-flush").ok());

  // Crash + reopen: rebuild the FS over the recovered store and read back
  // through a fresh vnode registered at the same inode.
  auto store2 = *ObjectStore::Open(device_.get(), &sim_);
  AuroraFs fs2(&sim_, store2.get());
  auto vn2 = *fs2.RegisterAnonymousIno(vn->ino());
  vn2->set_size(data.size());
  std::vector<uint8_t> back(data.size());
  ASSERT_TRUE(vn2->Read(0, back.data(), back.size()).ok());
  EXPECT_EQ(back, data);
}

TEST_F(AuroraFsTest, NamespacePersistAndRestore) {
  auto a = *fs_->Create("alpha");
  ASSERT_TRUE(a->Write(0, "AAAA", 4).ok());
  auto b = *fs_->Create("beta");
  ASSERT_TRUE(b->Write(0, "BB", 2).ok());
  ASSERT_TRUE(fs_->FlushAll().ok());
  auto ns = *fs_->PersistNamespace(kInvalidOid);
  uint64_t epoch = store_->current_epoch();
  ASSERT_TRUE(store_->CommitCheckpoint("ns").ok());

  auto store2 = *ObjectStore::Open(device_.get(), &sim_);
  AuroraFs fs2(&sim_, store2.get());
  ASSERT_TRUE(fs2.RestoreNamespace(epoch, ns).ok());
  auto ra = fs2.Lookup("alpha");
  ASSERT_TRUE(ra.ok());
  char buf[4];
  ASSERT_TRUE((*ra)->Read(0, buf, 4).ok());
  EXPECT_EQ(0, std::memcmp(buf, "AAAA", 4));
  EXPECT_TRUE(fs2.Lookup("beta").ok());
}

TEST_F(AuroraFsTest, TruncateDropsTail) {
  auto vn = *fs_->Create("t");
  std::vector<uint8_t> data(128 * kKiB, 0x7);
  ASSERT_TRUE(vn->Write(0, data.data(), data.size()).ok());
  ASSERT_TRUE(vn->Truncate(10).ok());
  EXPECT_EQ(vn->size(), 10u);
  char buf[16];
  auto n = vn->Read(0, buf, sizeof(buf));
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(*n, 10u);
}

TEST_F(AuroraFsTest, MmapPagerReadsFileData) {
  auto vn = *fs_->Create("lib.so");
  std::vector<uint8_t> data(3 * kPageSize);
  for (size_t i = 0; i < data.size(); i++) {
    data[i] = static_cast<uint8_t>(i / kPageSize + 1);
  }
  ASSERT_TRUE(vn->Write(0, data.data(), data.size()).ok());
  auto obj = vn->MakeVmObject();
  EXPECT_EQ(obj->backing_ino(), vn->ino());
  auto found = obj->LookupChain(1);
  ASSERT_NE(found.page, nullptr);
  EXPECT_EQ(found.page->data()[0], 2);
}

// --- Baseline file systems -----------------------------------------------------

class BaselineFsTest : public ::testing::Test {
 protected:
  BaselineFsTest() : device_(&sim_.clock, (256 * kMiB) / kPageSize) {}
  SimContext sim_;
  MemBlockDevice device_;
};

TEST_F(BaselineFsTest, FfsRoundTrip) {
  FfsLikeFs fs(&sim_, &device_, 64 * kKiB);
  auto vn = *fs.Create("f");
  std::vector<uint8_t> data(200 * kKiB, 0x3c);
  ASSERT_TRUE(vn->Write(0, data.data(), data.size()).ok());
  ASSERT_TRUE(fs.FlushAll().ok());
  std::vector<uint8_t> back(data.size());
  ASSERT_TRUE(vn->Read(0, back.data(), back.size()).ok());
  EXPECT_EQ(back, data);
}

TEST_F(BaselineFsTest, ZfsRoundTripWithChecksums) {
  ZfsLikeFs fs(&sim_, &device_, 64 * kKiB, /*checksums=*/true);
  auto vn = *fs.Create("f");
  std::vector<uint8_t> data(200 * kKiB, 0x3c);
  ASSERT_TRUE(vn->Write(0, data.data(), data.size()).ok());
  ASSERT_TRUE(fs.FlushAll().ok());
  std::vector<uint8_t> back(data.size());
  ASSERT_TRUE(vn->Read(0, back.data(), back.size()).ok());
  EXPECT_EQ(back, data);
}

TEST_F(BaselineFsTest, FsyncCostOrdering) {
  // Aurora's fsync is free; FFS pays a journal write; ZFS pays a ZIL write
  // covering the dirty bytes. This ordering drives Fig. 3c/d.
  MemBlockDevice dev2(&sim_.clock, (256 * kMiB) / kPageSize);
  auto store = *ObjectStore::Format(&dev2, &sim_);
  AuroraFs aurora(&sim_, store.get());
  FfsLikeFs ffs(&sim_, &device_, 64 * kKiB);
  ZfsLikeFs zfs(&sim_, &device_, 64 * kKiB, true);

  auto time_fsync = [&](Filesystem& fs) {
    auto vn = *fs.Create("f");
    std::vector<uint8_t> data(64 * kKiB, 1);
    EXPECT_TRUE(vn->Write(0, data.data(), data.size()).ok());
    SimTime t0 = sim_.clock.now();
    EXPECT_TRUE(vn->Fsync().ok());
    return sim_.clock.now() - t0;
  };
  SimDuration t_aurora = time_fsync(aurora);
  SimDuration t_ffs = time_fsync(ffs);
  SimDuration t_zfs = time_fsync(zfs);
  EXPECT_LT(t_aurora, t_ffs);
  EXPECT_LT(t_ffs, t_zfs);
}

TEST_F(BaselineFsTest, ConventionalFsDropsAnonymousFiles) {
  FfsLikeFs fs(&sim_, &device_, 64 * kKiB);
  auto vn = *fs.Create("tmp");
  vn->AddHiddenRef();
  ASSERT_TRUE(fs.Unlink("tmp").ok());
  // Unlike AuroraFS, the conventional FS reclaims it despite the open ref.
  EXPECT_FALSE(fs.LookupByIno(vn->ino()).ok());
}

TEST_F(BaselineFsTest, SmallWriteCostFfsBeatsZfs) {
  FfsLikeFs ffs(&sim_, &device_, 64 * kKiB);
  ZfsLikeFs zfs(&sim_, &device_, 64 * kKiB, true);
  auto vf = *ffs.Create("a");
  auto vz = *zfs.Create("a");
  std::vector<uint8_t> four_k(4 * kKiB, 1);

  SimTime t0 = sim_.clock.now();
  for (int i = 0; i < 64; i++) {
    ASSERT_TRUE(vf->Write(static_cast<uint64_t>(i) * 4 * kKiB, four_k.data(), four_k.size()).ok());
  }
  SimDuration ffs_time = sim_.clock.now() - t0;
  t0 = sim_.clock.now();
  for (int i = 0; i < 64; i++) {
    ASSERT_TRUE(vz->Write(static_cast<uint64_t>(i) * 4 * kKiB, four_k.data(), four_k.size()).ok());
  }
  SimDuration zfs_time = sim_.clock.now() - t0;
  EXPECT_LT(ffs_time, zfs_time);
}

}  // namespace
}  // namespace aurora
