// A small object store that holds every kind of record its metadata blob
// can carry: LZ-compressed and raw extents, a dedup hit, extents and a
// dedup entry the segment compactor relocated (with relocation-map
// entries), deadlists, a journal with a reset generation, and a checkpoint
// directory spanning a remount. It is built through the public API only,
// from a fixed script on a simulated clock, so every build of the store
// writes the same device image from it.
#ifndef TESTS_STORE_FIXTURE_H_
#define TESTS_STORE_FIXTURE_H_

#include <gtest/gtest.h>

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "src/base/rng.h"
#include "src/base/sim_context.h"
#include "src/base/units.h"
#include "src/objstore/object_store.h"
#include "src/objstore/segment_gc.h"
#include "src/storage/block_device.h"

namespace aurora {

struct FixtureStore {
  static constexpr uint32_t kBlock = 64 * 1024;
  static constexpr uint64_t kDeviceBytes = 8 * kMiB;

  SimContext sim;
  std::unique_ptr<MemBlockDevice> device;
  std::unique_ptr<ObjectStore> store;
  Oid journal;
  GcRunReport gc;
  StoreStats before_reopen;  // the flush path's dedup and codec counters
};

// One store block of LZ-friendly text, distinct per `salt`.
inline std::vector<uint8_t> TextBlock(int salt) {
  std::vector<uint8_t> block;
  for (int line = 0; block.size() < FixtureStore::kBlock; line++) {
    char text[64];
    int n = std::snprintf(text, sizeof(text), "record %05d salt %03d: the quick brown fox\n",
                          line, salt);
    block.insert(block.end(), text, text + n);
  }
  block.resize(FixtureStore::kBlock);
  return block;
}

// One store block of incompressible bytes.
inline std::vector<uint8_t> NoiseBlock(uint64_t seed) {
  Rng rng(seed);
  std::vector<uint8_t> block(FixtureStore::kBlock);
  for (uint8_t& b : block) {
    b = static_cast<uint8_t>(rng.Next());
  }
  return block;
}

// The script: format; four LZ blocks, a dedup hit and four raw blocks;
// commit; overwrite two blocks and delete an object; commit; prune and run
// the compactor over the now sparse segment; overwrite one more block;
// create a journal, append twice; commit; reset the journal, append once;
// commit; reboot and reopen; commit.
inline std::unique_ptr<FixtureStore> BuildFixtureStore() {
  auto f = std::make_unique<FixtureStore>();
  f->device =
      std::make_unique<MemBlockDevice>(&f->sim.clock, FixtureStore::kDeviceBytes / kPageSize);
  StoreOptions options;
  options.block_size = FixtureStore::kBlock;
  options.segment_blocks = 8;
  f->store = *ObjectStore::Format(f->device.get(), &f->sim, options);
  ObjectStore* s = f->store.get();
  auto write = [s](Oid oid, uint64_t block, const std::vector<uint8_t>& bytes) {
    EXPECT_TRUE(s->WriteAt(oid, block * FixtureStore::kBlock, bytes.data(), bytes.size()).ok());
  };

  Oid text = *s->CreateObject(ObjType::kMemory);
  Oid mixed = *s->CreateObject(ObjType::kFile);
  Oid noise = *s->CreateObject(ObjType::kPosixRecord);
  for (int i = 0; i < 4; i++) {
    write(text, static_cast<uint64_t>(i), TextBlock(i));
  }
  write(mixed, 0, TextBlock(0));  // dedup hit on text's block 0
  write(mixed, 1, NoiseBlock(1));
  for (uint64_t i = 0; i < 3; i++) {
    write(noise, i, NoiseBlock(10 + i));
  }
  EXPECT_TRUE(s->CommitCheckpoint("one").ok());

  write(text, 1, TextBlock(41));
  write(text, 2, TextBlock(42));
  EXPECT_TRUE(s->DeleteObject(noise).ok());
  uint64_t two = s->current_epoch();
  EXPECT_TRUE(s->CommitCheckpoint("two").ok());
  EXPECT_TRUE(s->DeleteCheckpointsBefore(two).ok());
  f->gc = *SegmentGc(s).Run();
  write(text, 3, TextBlock(43));  // a deadlist entry that outlives the prune

  f->journal = *s->CreateJournal(2 * FixtureStore::kBlock);
  const std::string first = "journal record one";
  const std::string second = "journal record two, a little longer than the first";
  EXPECT_TRUE(s->JournalAppend(f->journal, first.data(), first.size()).ok());
  EXPECT_TRUE(s->JournalAppend(f->journal, second.data(), second.size()).ok());
  EXPECT_TRUE(s->CommitCheckpoint("three").ok());
  EXPECT_TRUE(s->JournalReset(f->journal).ok());
  const std::string third = "journal record after the reset";
  EXPECT_TRUE(s->JournalAppend(f->journal, third.data(), third.size()).ok());
  EXPECT_TRUE(s->CommitCheckpoint("four").ok());

  f->before_reopen = s->stats();
  // The reboot takes a second of simulated time, so the commit after it is
  // stamped the same however many reads the mount itself issues: the image
  // pins the formats, not mount latency.
  SimTime rebooted = f->sim.clock.now() + kSecond;
  f->store = *ObjectStore::Open(f->device.get(), &f->sim);
  f->sim.clock.AdvanceTo(rebooted);
  EXPECT_TRUE(f->store->CommitCheckpoint("five").ok());
  return f;
}

}  // namespace aurora

#endif  // TESTS_STORE_FIXTURE_H_
