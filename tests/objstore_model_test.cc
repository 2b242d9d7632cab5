// Property test: the object store against a trivial in-memory reference
// model, across random writes, epochs, object lifecycles and reopen cycles.
// After every operation the live bitmap is the one the tables derive, and a
// reopen, which rebuilds the allocator, holds exactly the blocks the commit
// before it held.
#include <gtest/gtest.h>

#include <cstring>
#include <map>

#include "src/base/rng.h"
#include "src/base/sim_context.h"
#include "src/objstore/object_store.h"
#include "src/storage/block_device.h"

namespace aurora {
namespace {

// Reference model: byte arrays per object per committed epoch.
struct Model {
  std::map<uint64_t, std::vector<uint8_t>> live;                   // oid -> bytes
  std::map<uint64_t, std::map<uint64_t, std::vector<uint8_t>>> epochs;  // epoch -> snapshot
};

class StoreModelTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(StoreModelTest, RandomOpsMatchReferenceModel) {
  SimContext sim;
  MemBlockDevice device(&sim.clock, (256 * kMiB) / kPageSize);
  auto store = *ObjectStore::Format(&device, &sim);
  Model model;
  Rng rng(GetParam());
  std::vector<uint64_t> oids;
  constexpr uint64_t kMaxObjectSize = 512 * 1024;

  auto verify_live = [&](uint64_t oid) {
    const auto& expect = model.live[oid];
    std::vector<uint8_t> got(expect.size());
    if (!expect.empty()) {
      ASSERT_TRUE(store->ReadAt(Oid{oid}, 0, got.data(), got.size()).ok());
      ASSERT_EQ(got, expect) << "live mismatch oid " << oid;
    }
  };

  for (int step = 0; step < 400; step++) {
    double dice = rng.NextDouble();
    if (dice < 0.15 || oids.empty()) {
      auto oid = *store->CreateObject(ObjType::kMemory);
      oids.push_back(oid.value);
      model.live[oid.value] = {};
    } else if (dice < 0.70) {
      // Random write (possibly extending) through either path.
      uint64_t oid = oids[rng.Below(oids.size())];
      if (model.live.count(oid) == 0) {
        continue;
      }
      uint64_t off = rng.Below(kMaxObjectSize / 2);
      uint64_t len = 1 + rng.Below(96 * 1024);
      std::vector<uint8_t> data(len);
      for (auto& b : data) {
        b = static_cast<uint8_t>(rng.Next());
      }
      if (rng.NextBool(0.5)) {
        ASSERT_TRUE(store->WriteAt(Oid{oid}, off, data.data(), data.size()).ok());
      } else {
        std::vector<ObjectStore::IoRun> runs;
        // Split into a few runs to exercise the batch path.
        uint64_t pos = 0;
        while (pos < len) {
          uint64_t chunk = std::min<uint64_t>(len - pos, 1 + rng.Below(20000));
          runs.push_back(ObjectStore::IoRun{off + pos, data.data() + pos, chunk});
          pos += chunk;
        }
        ASSERT_TRUE(store->WriteAtBatch(Oid{oid}, runs).ok());
      }
      auto& bytes = model.live[oid];
      if (bytes.size() < off + len) {
        bytes.resize(off + len, 0);
      }
      std::memcpy(bytes.data() + off, data.data(), len);
    } else if (dice < 0.80) {
      // Commit a checkpoint: snapshot the model.
      uint64_t epoch = store->current_epoch();
      ASSERT_TRUE(store->CommitCheckpoint("e" + std::to_string(epoch)).ok());
      model.epochs[epoch] = model.live;
    } else if (dice < 0.88) {
      // Delete an object from the live view.
      uint64_t idx = rng.Below(oids.size());
      uint64_t oid = oids[idx];
      if (model.live.count(oid) > 0) {
        ASSERT_TRUE(store->DeleteObject(Oid{oid}).ok());
        model.live.erase(oid);
      }
    } else if (dice < 0.94) {
      // Random point verification of the live view.
      uint64_t oid = oids[rng.Below(oids.size())];
      if (model.live.count(oid) > 0) {
        verify_live(oid);
      }
    } else {
      // Crash + reopen: the live view reverts to the last committed epoch.
      ASSERT_TRUE(store->CommitCheckpoint("pre-crash").ok());
      model.epochs[store->current_epoch() - 1] = model.live;
      const uint64_t free_after_commit = store->FreeBlocks();
      store = *ObjectStore::Open(&device, &sim);
      ASSERT_EQ(store->FreeBlocks(), free_after_commit) << "step " << step;
    }
    Status bitmap = store->CheckLiveBitmap();
    ASSERT_TRUE(bitmap.ok()) << "step " << step << ": " << bitmap.message();
  }

  // Final: every committed epoch must read back exactly.
  for (const auto& [epoch, snapshot] : model.epochs) {
    for (const auto& [oid, bytes] : snapshot) {
      if (bytes.empty()) {
        continue;
      }
      std::vector<uint8_t> got(bytes.size());
      auto st = store->ReadAtEpoch(epoch, Oid{oid}, 0, got.data(), got.size());
      if (!st.ok()) {
        // Epoch may have been superseded only if we never pruned: it must
        // always be readable in this test.
        FAIL() << "epoch " << epoch << " oid " << oid << ": " << st.ToString();
      }
      ASSERT_EQ(got, bytes) << "epoch " << epoch << " oid " << oid;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, StoreModelTest, ::testing::Values(11, 22, 33, 44, 55, 66));

}  // namespace
}  // namespace aurora
