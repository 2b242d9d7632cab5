// Second wave of VM tests: protection changes, unmap teardown, deep fork
// trees, file-backed private mappings, and pv-entry edge cases.
#include <gtest/gtest.h>

#include <cstring>

#include "src/base/rng.h"
#include "src/base/sim_context.h"
#include "src/fs/aurora_fs.h"
#include "src/objstore/object_store.h"
#include "src/storage/block_device.h"
#include "src/vm/system_shadow.h"
#include "src/vm/vm_map.h"

namespace aurora {
namespace {

class VmMoreTest : public ::testing::Test {
 protected:
  SimContext sim_;
};

TEST_F(VmMoreTest, ProtectDowngradeBlocksWrites) {
  VmMap map(&sim_);
  auto obj = VmObject::CreateAnonymous(4 * kPageSize);
  uint64_t addr = *map.Map(0x100000, 4 * kPageSize, kProtRead | kProtWrite, obj, 0, false);
  uint64_t v = 1;
  ASSERT_TRUE(map.Write(addr, &v, sizeof(v)).ok());
  ASSERT_TRUE(map.Protect(addr, 4 * kPageSize, kProtRead).ok());
  EXPECT_FALSE(map.Write(addr, &v, sizeof(v)).ok());
  uint64_t got = 0;
  ASSERT_TRUE(map.Read(addr, &got, sizeof(got)).ok());
  EXPECT_EQ(got, 1u);
  // Upgrade back: writes work again.
  ASSERT_TRUE(map.Protect(addr, 4 * kPageSize, kProtRead | kProtWrite).ok());
  v = 2;
  ASSERT_TRUE(map.Write(addr, &v, sizeof(v)).ok());
}

TEST_F(VmMoreTest, UnmapTearsDownTranslationsSafely) {
  VmMap map(&sim_);
  auto obj = VmObject::CreateAnonymous(4 * kPageSize);
  uint64_t addr = *map.Map(0x100000, 4 * kPageSize, kProtRead | kProtWrite, obj, 0, false);
  uint64_t v = 7;
  ASSERT_TRUE(map.Write(addr, &v, sizeof(v)).ok());
  EXPECT_GT(map.pmap().ResidentCount(), 0u);
  ASSERT_TRUE(map.Unmap(addr, 4 * kPageSize).ok());
  EXPECT_EQ(map.pmap().ResidentCount(), 0u);
  EXPECT_FALSE(map.Read(addr, &v, sizeof(v)).ok());
  // The object (and its frames) can die now without dangling pv entries.
  obj.reset();
  SUCCEED();
}

TEST_F(VmMoreTest, ForkOfForkThreeGenerations) {
  VmMap gen0(&sim_);
  auto obj = VmObject::CreateAnonymous(16 * kPageSize);
  uint64_t addr = *gen0.Map(0x100000, 16 * kPageSize, kProtRead | kProtWrite, obj, 0, true);
  uint64_t v0 = 100;
  ASSERT_TRUE(gen0.Write(addr, &v0, sizeof(v0)).ok());

  auto gen1 = *gen0.Fork();
  uint64_t v1 = 200;
  ASSERT_TRUE(gen1->Write(addr, &v1, sizeof(v1)).ok());
  auto gen2 = *gen1->Fork();
  uint64_t v2 = 300;
  ASSERT_TRUE(gen2->Write(addr, &v2, sizeof(v2)).ok());

  uint64_t got = 0;
  ASSERT_TRUE(gen0.Read(addr, &got, sizeof(got)).ok());
  EXPECT_EQ(got, 100u);
  ASSERT_TRUE(gen1->Read(addr, &got, sizeof(got)).ok());
  EXPECT_EQ(got, 200u);
  ASSERT_TRUE(gen2->Read(addr, &got, sizeof(got)).ok());
  EXPECT_EQ(got, 300u);
  // Untouched pages are still shared all the way down.
  uint64_t shared_probe = 0;
  ASSERT_TRUE(gen0.Write(addr + 8 * kPageSize, &v0, sizeof(v0)).ok());
  // gen1/gen2 forked before this write: they see zero, not 100.
  ASSERT_TRUE(gen2->Read(addr + 8 * kPageSize, &shared_probe, sizeof(shared_probe)).ok());
  EXPECT_EQ(shared_probe, 0u);
}

TEST_F(VmMoreTest, PrivateFileMappingChain) {
  // MAP_PRIVATE file mapping: reads come from the file via the pager;
  // writes stay private to the mapping (never reach the file).
  auto device = MakePaperTestbedStore(&sim_.clock, 256 * kMiB);
  auto store = *ObjectStore::Format(device.get(), &sim_);
  AuroraFs fs(&sim_, store.get());
  auto vn = *fs.Create("lib.so");
  std::vector<uint8_t> contents(4 * kPageSize, 0x42);
  ASSERT_TRUE(vn->Write(0, contents.data(), contents.size()).ok());

  VmMap map(&sim_);
  auto file_obj = vn->MakeVmObject();
  auto shadow = VmObject::CreateShadow(file_obj);  // MAP_PRIVATE
  uint64_t addr = *map.Map(0x100000, 4 * kPageSize, kProtRead | kProtWrite, shadow, 0, true);

  uint8_t got = 0;
  ASSERT_TRUE(map.Read(addr + kPageSize, &got, 1).ok());
  EXPECT_EQ(got, 0x42);
  uint8_t patch = 0x99;
  ASSERT_TRUE(map.Write(addr + kPageSize, &patch, 1).ok());
  ASSERT_TRUE(map.Read(addr + kPageSize, &got, 1).ok());
  EXPECT_EQ(got, 0x99);
  // The file is untouched.
  uint8_t file_byte = 0;
  ASSERT_TRUE(vn->Read(kPageSize, &file_byte, 1).ok());
  EXPECT_EQ(file_byte, 0x42);
  // Only the written page lives in the shadow.
  EXPECT_EQ(shadow->ResidentPages(), 1u);
}

TEST_F(VmMoreTest, SystemShadowLeavesFileMappingsAlone) {
  auto device = MakePaperTestbedStore(&sim_.clock, 256 * kMiB);
  auto store = *ObjectStore::Format(device.get(), &sim_);
  AuroraFs fs(&sim_, store.get());
  auto vn = *fs.Create("data");
  ASSERT_TRUE(vn->Write(0, "x", 1).ok());

  VmMap map(&sim_);
  auto file_obj = vn->MakeVmObject();
  AURORA_IGNORE_STATUS(map.Map(0x100000, kPageSize, kProtRead | kProtWrite, file_obj, 0, false), "mapping exists only to add payload; the address is unused");
  auto anon = VmObject::CreateAnonymous(kPageSize);
  AURORA_IGNORE_STATUS(map.Map(0x200000, kPageSize, kProtRead | kProtWrite, anon, 0, false), "mapping exists only to add payload; the address is unused");
  // Dirty the anonymous mapping so the clean-skip optimization does not
  // apply; the distinction under test is anonymous vs file-backed.
  ASSERT_TRUE(map.Write(0x200000, "y", 1).ok());

  std::vector<VmMap*> maps{&map};
  auto pairs = CreateSystemShadows(maps, &sim_, nullptr, nullptr);
  // Only the anonymous object is shadowed; the vnode mapping persists via
  // the file system's own COW (paper section 6).
  ASSERT_EQ(pairs.size(), 1u);
  EXPECT_EQ(pairs[0].frozen.get(), anon.get());
  EXPECT_EQ(map.FindEntry(0x100000)->object.get(), file_obj.get());
}

TEST_F(VmMoreTest, SharedZeroFillVisibleAcrossMaps) {
  // A read-faulted zeroed page in a shared object must be THE page both
  // mappings see: a later write through one map is visible to the other.
  VmMap a(&sim_);
  VmMap b(&sim_);
  auto shared = VmObject::CreateAnonymous(4 * kPageSize);
  uint64_t addr_a = *a.Map(0x100000, 4 * kPageSize, kProtRead | kProtWrite, shared, 0, false);
  uint64_t addr_b = *b.Map(0x300000, 4 * kPageSize, kProtRead | kProtWrite, shared, 0, false);
  uint64_t got = 1;
  ASSERT_TRUE(a.Read(addr_a, &got, sizeof(got)).ok());  // allocates the zero page
  EXPECT_EQ(got, 0u);
  uint64_t v = 0x77;
  ASSERT_TRUE(b.Write(addr_b, &v, sizeof(v)).ok());
  ASSERT_TRUE(a.Read(addr_a, &got, sizeof(got)).ok());
  EXPECT_EQ(got, 0x77u) << "read-faulted page must be shared, not private";
}

TEST_F(VmMoreTest, MapPlacementRespectsHintsAndGaps) {
  VmMap map(&sim_);
  auto o1 = VmObject::CreateAnonymous(4 * kPageSize);
  auto o2 = VmObject::CreateAnonymous(4 * kPageSize);
  auto o3 = VmObject::CreateAnonymous(4 * kPageSize);
  uint64_t a = *map.Map(0x100000, 4 * kPageSize, kProtRead, o1, 0, false);
  EXPECT_EQ(a, 0x100000u);
  // Same hint: placed after the existing entry.
  uint64_t b = *map.Map(0x100000, 4 * kPageSize, kProtRead, o2, 0, false);
  EXPECT_EQ(b, a + 4 * kPageSize);
  // Hint inside an existing entry also skips past it.
  uint64_t c = *map.Map(a + kPageSize, 4 * kPageSize, kProtRead, o3, 0, false);
  EXPECT_GE(c, b + 4 * kPageSize);
  // Unaligned requests are rejected.
  EXPECT_FALSE(map.Map(0x100001, kPageSize, kProtRead, o1, 0, false).ok());
  EXPECT_FALSE(map.Map(0, kPageSize + 1, kProtRead, o1, 0, false).ok());
}

// Property: interleaved faults in two maps sharing an object + periodic
// shadow/collapse cycles preserve a sequentially-consistent byte image.
class SharedShadowCycleTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SharedShadowCycleTest, TwoMapsOneTruth) {
  SimContext sim;
  VmMap a(&sim);
  VmMap b(&sim);
  const uint64_t pages = 32;
  auto shared = VmObject::CreateAnonymous(pages * kPageSize);
  shared->set_sls_oid(31337);
  uint64_t addr_a = *a.Map(0x100000, pages * kPageSize, kProtRead | kProtWrite, shared, 0, false);
  uint64_t addr_b = *b.Map(0x900000, pages * kPageSize, kProtRead | kProtWrite, shared, 0, false);
  std::vector<VmMap*> maps{&a, &b};
  std::vector<uint8_t> model(pages * kPageSize, 0);
  Rng rng(GetParam());
  std::vector<ShadowPair> pending;
  for (int cycle = 0; cycle < 6; cycle++) {
    for (int op = 0; op < 120; op++) {
      uint64_t off = rng.Below(pages * kPageSize - 8);
      uint64_t val = rng.Next();
      if (rng.NextBool(0.5)) {
        ASSERT_TRUE(a.Write(addr_a + off, &val, sizeof(val)).ok());
      } else {
        ASSERT_TRUE(b.Write(addr_b + off, &val, sizeof(val)).ok());
      }
      std::memcpy(model.data() + off, &val, sizeof(val));
      // Interleave reads through the *other* map.
      uint64_t check_off = rng.Below(pages * kPageSize - 8);
      uint64_t got_a = 0;
      uint64_t got_b = 0;
      ASSERT_TRUE(a.Read(addr_a + check_off, &got_a, sizeof(got_a)).ok());
      ASSERT_TRUE(b.Read(addr_b + check_off, &got_b, sizeof(got_b)).ok());
      uint64_t expect = 0;
      std::memcpy(&expect, model.data() + check_off, sizeof(expect));
      ASSERT_EQ(got_a, expect);
      ASSERT_EQ(got_b, expect);
    }
    for (auto& pair : pending) {
      CollapseAfterFlush(pair, maps, cycle % 2 == 0, &sim);
    }
    pending = CreateSystemShadows(maps, &sim, nullptr, nullptr);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SharedShadowCycleTest, ::testing::Values(7, 77, 777));

}  // namespace
}  // namespace aurora
