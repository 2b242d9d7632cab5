#include <gtest/gtest.h>

#include <cstring>

#include "src/base/rng.h"
#include "src/base/sim_context.h"
#include "src/vm/system_shadow.h"
#include "src/vm/vm_map.h"
#include "src/vm/vm_object.h"

namespace aurora {
namespace {

class VmTest : public ::testing::Test {
 protected:
  SimContext sim_;
};

TEST_F(VmTest, MapWriteRead) {
  VmMap map(&sim_);
  auto obj = VmObject::CreateAnonymous(64 * kKiB);
  auto addr = map.Map(0x100000, 64 * kKiB, kProtRead | kProtWrite, obj, 0, false);
  ASSERT_TRUE(addr.ok());
  const char msg[] = "persistent memory";
  ASSERT_TRUE(map.Write(*addr + 100, msg, sizeof(msg)).ok());
  char back[sizeof(msg)] = {};
  ASSERT_TRUE(map.Read(*addr + 100, back, sizeof(back)).ok());
  EXPECT_STREQ(back, msg);
}

TEST_F(VmTest, ReadOfUntouchedMemoryIsZero) {
  VmMap map(&sim_);
  auto obj = VmObject::CreateAnonymous(16 * kKiB);
  auto addr = map.Map(0, 16 * kKiB, kProtRead | kProtWrite, obj, 0, false);
  ASSERT_TRUE(addr.ok());
  uint64_t value = 123;
  ASSERT_TRUE(map.Read(*addr + 8 * kKiB, &value, sizeof(value)).ok());
  EXPECT_EQ(value, 0u);
  // FreeBSD semantics: the read fault allocated a zeroed frame in the object.
  EXPECT_EQ(obj->ResidentPages(), 1u);
  EXPECT_EQ(map.fault_stats().zero_fills, 1u);
}

TEST_F(VmTest, ProtectionEnforced) {
  VmMap map(&sim_);
  auto obj = VmObject::CreateAnonymous(kPageSize);
  auto addr = map.Map(0, kPageSize, kProtRead, obj, 0, false);
  ASSERT_TRUE(addr.ok());
  uint8_t b = 1;
  EXPECT_FALSE(map.Write(*addr, &b, 1).ok());
  EXPECT_FALSE(map.Read(0xdead0000, &b, 1).ok());  // unmapped
}

TEST_F(VmTest, ShadowHidesParentPage) {
  auto parent = VmObject::CreateAnonymous(kPageSize * 4);
  uint8_t a[kPageSize];
  std::memset(a, 0xaa, sizeof(a));
  parent->InstallPage(0, a);
  auto shadow = VmObject::CreateShadow(parent);
  EXPECT_EQ(parent->shadow_count(), 1);

  // Lookup falls through to the parent.
  auto found = shadow->LookupChain(0);
  EXPECT_EQ(found.owner, parent.get());
  // A private copy in the shadow hides it.
  uint8_t b[kPageSize];
  std::memset(b, 0xbb, sizeof(b));
  shadow->InstallPage(0, b);
  found = shadow->LookupChain(0);
  EXPECT_EQ(found.owner, shadow.get());
  EXPECT_EQ(found.page->data()[0], 0xbb);
  EXPECT_EQ(parent->LookupLocal(0)->data()[0], 0xaa);
}

TEST_F(VmTest, CowFaultCopiesFromChain) {
  VmMap map(&sim_);
  auto parent = VmObject::CreateAnonymous(4 * kPageSize);
  uint8_t page[kPageSize];
  std::memset(page, 0x5a, sizeof(page));
  parent->InstallPage(1, page);
  auto shadow = VmObject::CreateShadow(parent);
  auto addr = map.Map(0, 4 * kPageSize, kProtRead | kProtWrite, shadow, 0, false);
  ASSERT_TRUE(addr.ok());

  // Write one byte: the whole page must be copied up, preserving the rest.
  uint8_t x = 0x11;
  ASSERT_TRUE(map.Write(*addr + kPageSize + 7, &x, 1).ok());
  EXPECT_EQ(shadow->ResidentPages(), 1u);
  uint8_t back[2] = {};
  ASSERT_TRUE(map.Read(*addr + kPageSize + 6, back, 2).ok());
  EXPECT_EQ(back[0], 0x5a);
  EXPECT_EQ(back[1], 0x11);
  EXPECT_EQ(map.fault_stats().cow_faults, 1u);
}

TEST_F(VmTest, ForkIsolatesPrivateMemory) {
  VmMap parent_map(&sim_);
  auto obj = VmObject::CreateAnonymous(16 * kPageSize);
  auto addr = parent_map.Map(0x200000, 16 * kPageSize, kProtRead | kProtWrite, obj, 0,
                             /*copy_on_write=*/true);
  ASSERT_TRUE(addr.ok());
  uint32_t v = 0x1111;
  ASSERT_TRUE(parent_map.Write(*addr, &v, sizeof(v)).ok());

  auto child_map = parent_map.Fork();
  ASSERT_TRUE(child_map.ok());

  // Child sees the parent's value, then diverges.
  uint32_t got = 0;
  ASSERT_TRUE((*child_map)->Read(*addr, &got, sizeof(got)).ok());
  EXPECT_EQ(got, 0x1111u);
  uint32_t cv = 0x2222;
  ASSERT_TRUE((*child_map)->Write(*addr, &cv, sizeof(cv)).ok());
  ASSERT_TRUE(parent_map.Read(*addr, &got, sizeof(got)).ok());
  EXPECT_EQ(got, 0x1111u) << "child write leaked into parent";
  uint32_t pv = 0x3333;
  ASSERT_TRUE(parent_map.Write(*addr, &pv, sizeof(pv)).ok());
  ASSERT_TRUE((*child_map)->Read(*addr, &got, sizeof(got)).ok());
  EXPECT_EQ(got, 0x2222u) << "parent write leaked into child";
}

TEST_F(VmTest, ForkSharesSharedMappings) {
  VmMap parent_map(&sim_);
  auto obj = VmObject::CreateAnonymous(4 * kPageSize);
  auto addr = parent_map.Map(0, 4 * kPageSize, kProtRead | kProtWrite, obj, 0,
                             /*copy_on_write=*/false);
  ASSERT_TRUE(addr.ok());
  auto child_map = parent_map.Fork();
  ASSERT_TRUE(child_map.ok());
  uint32_t v = 77;
  ASSERT_TRUE(parent_map.Write(*addr, &v, sizeof(v)).ok());
  uint32_t got = 0;
  ASSERT_TRUE((*child_map)->Read(*addr, &got, sizeof(got)).ok());
  EXPECT_EQ(got, 77u);
}

TEST_F(VmTest, CollapseClassicPreservesContents) {
  auto parent = VmObject::CreateAnonymous(8 * kPageSize);
  uint8_t p0[kPageSize];
  std::memset(p0, 1, sizeof(p0));
  uint8_t p1[kPageSize];
  std::memset(p1, 2, sizeof(p1));
  parent->InstallPage(0, p0);
  parent->InstallPage(1, p1);
  auto shadow = VmObject::CreateShadow(parent);
  uint8_t s1[kPageSize];
  std::memset(s1, 9, sizeof(s1));
  shadow->InstallPage(1, s1);  // hides parent's page 1

  ASSERT_TRUE(shadow->CollapseClassic(sim_.cost, &sim_.clock).ok());
  EXPECT_EQ(shadow->parent(), nullptr);
  EXPECT_EQ(shadow->ResidentPages(), 2u);
  EXPECT_EQ(shadow->LookupLocal(0)->data()[0], 1);
  EXPECT_EQ(shadow->LookupLocal(1)->data()[0], 9) << "shadow's version must win";
}

TEST_F(VmTest, CollapseReversedPreservesContents) {
  auto parent = VmObject::CreateAnonymous(8 * kPageSize);
  uint8_t p0[kPageSize];
  std::memset(p0, 1, sizeof(p0));
  uint8_t p1[kPageSize];
  std::memset(p1, 2, sizeof(p1));
  parent->InstallPage(0, p0);
  parent->InstallPage(1, p1);
  auto shadow = VmObject::CreateShadow(parent);
  uint8_t s1[kPageSize];
  std::memset(s1, 9, sizeof(s1));
  shadow->InstallPage(1, s1);

  ASSERT_TRUE(shadow->CollapseReversedIntoParent(sim_.cost, &sim_.clock).ok());
  EXPECT_EQ(shadow->ResidentPages(), 0u);
  EXPECT_EQ(parent->LookupLocal(0)->data()[0], 1);
  EXPECT_EQ(parent->LookupLocal(1)->data()[0], 9);
}

TEST_F(VmTest, CollapseRefusedWhenParentShared) {
  auto parent = VmObject::CreateAnonymous(kPageSize);
  auto s1 = VmObject::CreateShadow(parent);
  auto s2 = VmObject::CreateShadow(parent);
  EXPECT_EQ(parent->shadow_count(), 2);
  EXPECT_FALSE(s1->CollapseClassic(sim_.cost, &sim_.clock).ok());
  EXPECT_FALSE(s1->CollapseReversedIntoParent(sim_.cost, &sim_.clock).ok());
}

TEST_F(VmTest, ReversedCollapseCheaperForSmallDirtySets) {
  // The paper's optimization: cost scales with the shadow's pages, not the
  // parent's. Build a big parent and a tiny shadow and compare directions.
  auto mk = [&](int parent_pages, int shadow_pages) {
    auto parent = VmObject::CreateAnonymous(4096 * kPageSize);
    uint8_t buf[kPageSize] = {};
    for (int i = 0; i < parent_pages; i++) {
      parent->InstallPage(static_cast<uint64_t>(i), buf);
    }
    auto shadow = VmObject::CreateShadow(parent);
    for (int i = 0; i < shadow_pages; i++) {
      shadow->InstallPage(static_cast<uint64_t>(i), buf);
    }
    return std::pair{parent, shadow};
  };
  auto [p1, s1] = mk(2000, 10);
  SimTime t0 = sim_.clock.now();
  ASSERT_TRUE(s1->CollapseReversedIntoParent(sim_.cost, &sim_.clock).ok());
  SimDuration reversed = sim_.clock.now() - t0;

  auto [p2, s2] = mk(2000, 10);
  t0 = sim_.clock.now();
  ASSERT_TRUE(s2->CollapseClassic(sim_.cost, &sim_.clock).ok());
  SimDuration classic = sim_.clock.now() - t0;

  EXPECT_LT(reversed * 20, classic) << "reversed collapse should be ~200x cheaper here";
}

TEST_F(VmTest, SystemShadowSharedMemoryStaysShared) {
  // Two processes sharing one object: system shadowing must replace the
  // object in BOTH maps with the SAME shadow (fork COW would break this).
  VmMap map_a(&sim_);
  VmMap map_b(&sim_);
  auto shared = VmObject::CreateAnonymous(16 * kPageSize);
  auto addr_a = map_a.Map(0x100000, 16 * kPageSize, kProtRead | kProtWrite, shared, 0, false);
  ASSERT_TRUE(addr_a.ok());
  auto addr_b = map_b.Map(0x100000, 16 * kPageSize, kProtRead | kProtWrite, shared, 0, false);
  ASSERT_TRUE(addr_b.ok());
  uint32_t v = 0xabc;
  ASSERT_TRUE(map_a.Write(*addr_a, &v, sizeof(v)).ok());

  std::vector<VmMap*> maps{&map_a, &map_b};
  SystemShadowStats stats;
  auto pairs = CreateSystemShadows(maps, &sim_, nullptr, &stats);
  ASSERT_EQ(pairs.size(), 1u);
  EXPECT_EQ(stats.objects_shadowed, 1u);
  EXPECT_TRUE(pairs[0].frozen->frozen());

  // Writes through A remain visible to B after shadowing.
  uint32_t nv = 0xdef;
  ASSERT_TRUE(map_a.Write(*addr_a + 64, &nv, sizeof(nv)).ok());
  uint32_t got = 0;
  ASSERT_TRUE(map_b.Read(*addr_b + 64, &got, sizeof(got)).ok());
  EXPECT_EQ(got, 0xdefu);
  // And the frozen snapshot does NOT contain the new write.
  auto frozen_page = pairs[0].frozen->LookupChain(0);
  ASSERT_NE(frozen_page.page, nullptr);
  uint32_t frozen_val;
  std::memcpy(&frozen_val, frozen_page.page->data() + 64, sizeof(frozen_val));
  EXPECT_EQ(frozen_val, 0u);
}

TEST_F(VmTest, SystemShadowCapturesPointInTime) {
  VmMap map(&sim_);
  auto obj = VmObject::CreateAnonymous(4 * kPageSize);
  auto addr = map.Map(0, 4 * kPageSize, kProtRead | kProtWrite, obj, 0, false);
  ASSERT_TRUE(addr.ok());
  uint64_t before = 0x1111111111111111ull;
  ASSERT_TRUE(map.Write(*addr, &before, sizeof(before)).ok());

  std::vector<VmMap*> maps{&map};
  auto pairs = CreateSystemShadows(maps, &sim_, nullptr, nullptr);
  ASSERT_EQ(pairs.size(), 1u);

  uint64_t after = 0x2222222222222222ull;
  ASSERT_TRUE(map.Write(*addr, &after, sizeof(after)).ok());

  // Live view sees `after`; frozen snapshot still holds `before`.
  uint64_t live = 0;
  ASSERT_TRUE(map.Read(*addr, &live, sizeof(live)).ok());
  EXPECT_EQ(live, after);
  auto frozen = pairs[0].frozen->LookupChain(0);
  uint64_t snap;
  std::memcpy(&snap, frozen.page->data(), sizeof(snap));
  EXPECT_EQ(snap, before);
}

TEST_F(VmTest, CollapseAfterFlushMergesSameOidOnly) {
  VmMap map(&sim_);
  auto obj = VmObject::CreateAnonymous(4 * kPageSize);
  obj->set_sls_oid(55);
  auto addr = map.Map(0, 4 * kPageSize, kProtRead | kProtWrite, obj, 0, false);
  ASSERT_TRUE(addr.ok());
  uint8_t x = 1;
  ASSERT_TRUE(map.Write(*addr, &x, 1).ok());

  std::vector<VmMap*> maps{&map};
  auto pairs1 = CreateSystemShadows(maps, &sim_, nullptr, nullptr);
  ASSERT_EQ(pairs1.size(), 1u);
  // First checkpoint: frozen is the base with no parent; nothing to merge.
  EXPECT_FALSE(CollapseAfterFlush(pairs1[0], maps, true, &sim_));

  uint8_t y = 2;
  ASSERT_TRUE(map.Write(*addr + kPageSize, &y, 1).ok());
  auto pairs2 = CreateSystemShadows(maps, &sim_, nullptr, nullptr);
  ASSERT_EQ(pairs2.size(), 1u);
  // Second checkpoint's frozen shadow shares oid 55 with its parent: merge.
  EXPECT_TRUE(CollapseAfterFlush(pairs2[0], maps, true, &sim_));
  // Contents survive the merge.
  uint8_t back = 0;
  ASSERT_TRUE(map.Read(*addr, &back, 1).ok());
  EXPECT_EQ(back, 1);
  ASSERT_TRUE(map.Read(*addr + kPageSize, &back, 1).ok());
  EXPECT_EQ(back, 2);
}

TEST_F(VmTest, ExcludedEntriesNotShadowed) {
  VmMap map(&sim_);
  auto obj = VmObject::CreateAnonymous(kPageSize);
  auto addr = map.Map(0, kPageSize, kProtRead | kProtWrite, obj, 0, false);
  ASSERT_TRUE(addr.ok());
  map.FindEntry(*addr)->exclude_from_checkpoint = true;
  std::vector<VmMap*> maps{&map};
  auto pairs = CreateSystemShadows(maps, &sim_, nullptr, nullptr);
  EXPECT_TRUE(pairs.empty());
}

// Property sweep: repeated write/checkpoint/collapse cycles must always
// reconstruct exactly the bytes written, for several dirty-set sizes.
class ShadowCycleTest : public ::testing::TestWithParam<int> {};

TEST_P(ShadowCycleTest, ContentsStableAcrossCycles) {
  SimContext sim;
  VmMap map(&sim);
  const uint64_t pages = 64;
  auto obj = VmObject::CreateAnonymous(pages * kPageSize);
  obj->set_sls_oid(99);
  auto addr = map.Map(0x1000000, pages * kPageSize, kProtRead | kProtWrite, obj, 0, false);
  ASSERT_TRUE(addr.ok());
  std::vector<uint8_t> model(pages * kPageSize, 0);
  std::vector<VmMap*> maps{&map};
  Rng rng(GetParam());

  std::vector<ShadowPair> pending;
  for (int cycle = 0; cycle < 8; cycle++) {
    // Random writes.
    for (int w = 0; w < GetParam(); w++) {
      uint64_t off = rng.Below(pages * kPageSize - 8);
      uint64_t val = rng.Next();
      ASSERT_TRUE(map.Write(*addr + off, &val, sizeof(val)).ok());
      std::memcpy(model.data() + off, &val, sizeof(val));
    }
    // Checkpoint cycle: collapse previous, shadow anew.
    for (auto& pair : pending) {
      CollapseAfterFlush(pair, maps, cycle % 2 == 0, &sim);
    }
    pending = CreateSystemShadows(maps, &sim, nullptr, nullptr);
    // Full readback must match the model exactly.
    std::vector<uint8_t> got(pages * kPageSize);
    ASSERT_TRUE(map.Read(*addr, got.data(), got.size()).ok());
    ASSERT_EQ(got, model) << "cycle " << cycle;
  }
}

INSTANTIATE_TEST_SUITE_P(DirtySizes, ShadowCycleTest, ::testing::Values(3, 17, 64, 200));

}  // namespace
}  // namespace aurora
