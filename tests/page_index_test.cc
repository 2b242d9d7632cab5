// The radix page index against std::map, and refcounted page frames.
//
// The index backs VmObject's resident pages, the pmap's translations and the
// standby's image table, whose ordered visits set the flush, collapse and
// invalidation order that every simulated result depends on, so it must
// behave exactly as the ordered map it replaced: a seeded differential run
// drives both with the same operations, checks every answer and compares
// their whole contents every 97 operations.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <vector>

#include "src/base/rng.h"
#include "src/base/sim_context.h"
#include "src/vm/page_frame.h"
#include "src/vm/page_index.h"
#include "src/vm/vm_map.h"
#include "src/vm/vm_object.h"

namespace aurora {
namespace {

using Index = PageIndex<uint64_t>;
using Model = std::map<uint64_t, uint64_t>;

std::optional<uint64_t> ModelNext(const Model& model, uint64_t key) {
  auto it = model.lower_bound(key);
  return it == model.end() ? std::nullopt : std::optional<uint64_t>(it->first);
}

// Every observation the index offers, against the model.
void ExpectSame(const Index& index, const Model& model) {
  ASSERT_EQ(index.size(), model.size());
  ASSERT_EQ(index.empty(), model.empty());
  std::vector<std::pair<uint64_t, uint64_t>> visited;
  index.ForEach([&visited](uint64_t key, uint64_t value) { visited.emplace_back(key, value); });
  const std::vector<std::pair<uint64_t, uint64_t>> ordered(model.begin(), model.end());
  ASSERT_EQ(visited, ordered);
  ASSERT_EQ(index.LastKey(),
            model.empty() ? std::nullopt : std::optional<uint64_t>(model.rbegin()->first));
}

// A key from one of the shapes the users produce: dense runs (an object's
// pages, a region's translations), sparse keys up to 2^36 (virtual page
// numbers of a 48-bit address space) and the extremes of the key space.
uint64_t DrawKey(Rng& rng) {
  switch (rng.Below(4)) {
    case 0:
      return rng.Below(512);
    case 1:
      return 0x10000 + rng.Below(4096);
    case 2:
      return rng.Below(1ull << 36);
    default:
      return rng.NextBool(0.5) ? ~0ull - rng.Below(64) : rng.Below(64) << 58;
  }
}

TEST(PageIndex, MatchesAnOrderedMapUnderSeededOperations) {
  for (uint64_t seed : {1, 2, 3, 4}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Rng rng(seed);
    Index index;
    Model model;
    for (int op = 0; op < 20000; op++) {
      uint64_t key = DrawKey(rng);
      switch (rng.Below(6)) {
        case 0:
        case 1: {
          uint64_t value = rng.Next();
          index[key] = value;
          model[key] = value;
          break;
        }
        case 2:
          ASSERT_EQ(index.Erase(key), model.erase(key) == 1);
          break;
        case 3: {
          const uint64_t* found = index.Find(key);
          auto it = model.find(key);
          ASSERT_EQ(found != nullptr, it != model.end());
          if (found != nullptr) {
            ASSERT_EQ(*found, it->second);
          }
          break;
        }
        case 4:
          ASSERT_EQ(index.NextAtOrAfter(key), ModelNext(model, key));
          if (!model.empty()) {
            uint64_t present = model.begin()->first;
            ASSERT_EQ(index.NextAtOrAfter(present), present);
          }
          break;
        default: {
          // Erase a random range's odd values during the ordered visit.
          uint64_t hi = key + rng.Below(1ull << 20);
          hi = hi < key ? ~0ull : hi;
          uint64_t erased = index.EraseIf(key, hi, [](uint64_t, uint64_t value) {
            return value % 2 == 1;
          });
          uint64_t expected = 0;
          for (auto it = model.lower_bound(key); it != model.end() && it->first < hi;) {
            bool odd = it->second % 2 == 1;
            expected += odd ? 1 : 0;
            it = odd ? model.erase(it) : std::next(it);
          }
          ASSERT_EQ(erased, expected);
          break;
        }
      }
      if (op % 97 == 0) {
        ExpectSame(index, model);
      }
    }
    ExpectSame(index, model);
  }
}

TEST(PageIndex, VisitsInAscendingOrderAndErasesWhileWalking) {
  Index index;
  Model model;
  for (uint64_t k = 0; k < 300; k++) {
    index[k * 7] = k;
    model[k * 7] = k;
  }
  index[1ull << 36] = 1;
  model[1ull << 36] = 1;
  // Walk by NextAtOrAfter, erasing every other key as it goes, as the pmap's
  // range invalidations and the collapses do.
  uint64_t seen = 0;
  for (std::optional<uint64_t> k = index.NextAtOrAfter(0); k; k = index.NextAtOrAfter(*k + 1)) {
    if (seen++ % 2 == 0) {
      ASSERT_TRUE(index.Erase(*k));
      model.erase(*k);
    }
  }
  EXPECT_EQ(seen, 301u);
  ExpectSame(index, model);
  // And through the erasing visit, which takes everything in range.
  EXPECT_EQ(index.EraseIf(0, ~0ull, [](uint64_t, uint64_t) { return true; }), model.size());
  EXPECT_TRUE(index.empty());
  EXPECT_EQ(index.LastKey(), std::nullopt);
}

TEST(PageIndex, GrowsForLargeKeysAndCollapsesBackToEmpty) {
  Index index;
  const std::vector<uint64_t> keys = {0, 63, 64, 4095, 4096, 1ull << 24, 1ull << 36, ~0ull};
  for (uint64_t k : keys) {
    index[k] = k;
    ASSERT_EQ(index.LastKey(), k);
  }
  ASSERT_EQ(index.size(), keys.size());
  // Erase from the top down: the height shrinks back as the largest key
  // goes, and each lookup still finds the rest.
  for (auto it = keys.rbegin(); it != keys.rend(); ++it) {
    ASSERT_TRUE(index.Erase(*it));
    ASSERT_EQ(index.Find(*it), nullptr);
    ASSERT_FALSE(index.Erase(*it));
    for (auto rest = std::next(it); rest != keys.rend(); ++rest) {
      ASSERT_NE(index.Find(*rest), nullptr) << *rest;
    }
  }
  EXPECT_TRUE(index.empty());
  EXPECT_EQ(index.NextAtOrAfter(0), std::nullopt);
  // Empty again, it takes a small key, then a large one, then loses both.
  index[5] = 5;
  index[1ull << 40] = 6;
  EXPECT_EQ(index.NextAtOrAfter(6), 1ull << 40);
  ASSERT_TRUE(index.Erase(1ull << 40));
  ASSERT_TRUE(index.Erase(5));
  EXPECT_TRUE(index.empty());
}

// The marked keys in [lo, hi), taken (and so cleared) in ascending order.
std::vector<uint64_t> Take(Index& index, uint64_t lo, uint64_t hi) {
  std::vector<uint64_t> taken;
  uint64_t n = index.TakeMarked(lo, hi, [&taken](uint64_t key, uint64_t& value) {
    EXPECT_EQ(key, value);
    taken.push_back(key);
  });
  EXPECT_EQ(n, taken.size());
  return taken;
}

TEST(PageIndex, MarksAreTakenByRangeAndDieWithTheirKey) {
  Index index;
  std::set<uint64_t> marked;
  for (uint64_t k = 0; k < 1000; k += 3) {
    index[k] = k;
    if (k % 2 == 0) {
      index.SetMark(k, true);
      marked.insert(k);
    }
  }
  index.SetMark(1, true);  // absent: nothing happens
  index.SetMark(6, false);
  marked.erase(6);
  ASSERT_TRUE(index.Erase(12));
  marked.erase(12);
  index[12] = 12;  // back, unmarked

  EXPECT_EQ(Take(index, 100, 400),
            std::vector<uint64_t>(marked.lower_bound(100), marked.lower_bound(400)));
  EXPECT_TRUE(Take(index, 100, 400).empty()) << "taking a mark clears it";
  EXPECT_EQ(index.size(), 334u) << "taking marks erases nothing";
  std::vector<uint64_t> rest(marked.begin(), marked.lower_bound(100));
  rest.insert(rest.end(), marked.lower_bound(400), marked.end());
  EXPECT_EQ(Take(index, 0, ~0ull), rest);
}

// --- Frames ---------------------------------------------------------------------

TEST(PageFrame, SharedBytesAreCopiedBeforeAWrite) {
  std::vector<uint8_t> bytes(kPageSize, 0x5a);
  PageFrame a = PageFrame::CopyOf(bytes.data());
  PageFrame b = a;
  EXPECT_EQ(a.data(), b.data());
  EXPECT_EQ(a.owners(), 2u);
  b.MutableData()[0] = 1;
  EXPECT_NE(a.data(), b.data());
  EXPECT_EQ(a.owners(), 1u);
  EXPECT_EQ(a.data()[0], 0x5a);
  EXPECT_EQ(b.data()[0], 1);
  uint8_t* own = b.MutableData();
  EXPECT_EQ(own, b.MutableData()) << "an unshared frame is written in place";
  PageFrame zero = PageFrame::Zeroed();
  EXPECT_EQ(std::count(zero.data(), zero.data() + kPageSize, 0), static_cast<long>(kPageSize));
}

// Two live objects sharing one frame: each is written once through its own
// map, and each ends up with its own bytes while the frame's other owner
// keeps the originals.
TEST(PageFrame, TwoObjectsSharingAFrameEachWriteTheirOwnCopy) {
  SimContext sim;
  std::vector<uint8_t> bytes(kPageSize, 0x11);
  PageFrame table = PageFrame::CopyOf(bytes.data());
  std::vector<std::unique_ptr<VmMap>> maps;
  std::vector<std::shared_ptr<VmObject>> objects;
  for (int i = 0; i < 2; i++) {
    auto obj = VmObject::CreateAnonymous(kPageSize);
    VmPage* page = obj->InstallFrame(0, table);
    EXPECT_EQ(page->data(), table.data()) << "installing a frame copies nothing";
    EXPECT_EQ(obj->DirtyRuns(), (std::vector<std::pair<uint64_t, uint64_t>>{{0, 1}}));
    maps.push_back(std::make_unique<VmMap>(&sim));
    ASSERT_TRUE(maps.back()->Map(0x10000, kPageSize, kProtRead | kProtWrite, obj, 0, false).ok());
    objects.push_back(obj);
  }
  EXPECT_EQ(table.owners(), 3u);
  for (int i = 0; i < 2; i++) {
    uint8_t v = static_cast<uint8_t>(0xA0 + i);
    ASSERT_TRUE(maps[i]->Write(0x10000 + 8, &v, 1).ok());
  }
  EXPECT_EQ(table.owners(), 1u);
  for (int i = 0; i < 2; i++) {
    uint8_t got[16] = {};
    ASSERT_TRUE(maps[i]->Read(0x10000, got, sizeof(got)).ok());
    EXPECT_EQ(got[8], 0xA0 + i);
    EXPECT_EQ(got[0], 0x11);
  }
  EXPECT_EQ(std::count(table.data(), table.data() + kPageSize, 0x11),
            static_cast<long>(kPageSize));
}

}  // namespace
}  // namespace aurora
