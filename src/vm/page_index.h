// An ordered map from page numbers to values: a 64-way radix trie, the
// structure FreeBSD's vm_radix (pctrie) and Linux's xarray index pages with.
//
// Every node covers 64 slots and keeps an occupancy bitmap of them. Inner
// nodes hold children and leaves hold the values, so a lookup costs one node
// per 6 key bits and an ordered visit walks the bitmaps with
// count-trailing-zeros. The trie is only as tall as its largest key needs:
// an insert beyond the root's span adds levels above it, and an erase that
// leaves the root with only its first child removes them again. No node is
// ever empty, and an empty index holds none.
//
// Leaves also keep one mark bit per slot, which a user sets and takes by
// range (Pmap marks its writable translations), so a marked subset needs no
// second index.
//
// A value stays at its address until its key is erased. Visitors may change
// values but must not insert or erase; EraseIf is the erasing visit. A
// value's destructor must not touch the index that holds it.
#ifndef SRC_VM_PAGE_INDEX_H_
#define SRC_VM_PAGE_INDEX_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <utility>

namespace aurora {

template <typename V>
class PageIndex {
 public:
  PageIndex() = default;
  ~PageIndex() { Clear(); }
  PageIndex(const PageIndex&) = delete;
  PageIndex& operator=(const PageIndex&) = delete;

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  // The value at `key`, or null when `key` is absent.
  V* Find(uint64_t key) {
    auto [leaf, bit] = LeafOf(key);
    return leaf != nullptr && (leaf->present & bit) != 0 ? &leaf->slots[key & kSlotMask] : nullptr;
  }
  const V* Find(uint64_t key) const { return const_cast<PageIndex*>(this)->Find(key); }

  // The value at `key`, inserted value-initialized when absent.
  V& operator[](uint64_t key) {
    if (height_ == 0) {
      height_ = 1;
      while (!Fits(key, height_)) {
        height_++;
      }
      root_ = NewNode(height_ - 1);
    }
    while (!Fits(key, height_)) {
      auto* up = new Inner();
      up->present = 1;
      up->child[0] = root_;
      root_ = up;
      height_++;
    }
    void* node = root_;
    for (unsigned level = height_ - 1; level > 0; level--) {
      auto* inner = static_cast<Inner*>(node);
      unsigned i = SlotOf(key, level);
      if ((inner->present & Bit(i)) == 0) {
        inner->child[i] = NewNode(level - 1);
        inner->present |= Bit(i);
      }
      node = inner->child[i];
    }
    auto* leaf = static_cast<Leaf*>(node);
    unsigned i = key & kSlotMask;
    if ((leaf->present & Bit(i)) == 0) {
      leaf->present |= Bit(i);
      size_++;
    }
    return leaf->slots[i];
  }

  // Erases `key`; false when it was absent.
  bool Erase(uint64_t key) {
    return EraseIn(key, key, [](uint64_t, V&) { return true; }) == 1;
  }

  // The least key at or after `key`.
  std::optional<uint64_t> NextAtOrAfter(uint64_t key) const {
    if (height_ == 0 || !Fits(key, height_)) {
      return std::nullopt;
    }
    return Next(root_, height_ - 1, key);
  }

  // The greatest key.
  std::optional<uint64_t> LastKey() const {
    if (height_ == 0) {
      return std::nullopt;
    }
    uint64_t key = 0;
    const void* node = root_;
    for (unsigned level = height_ - 1; level > 0; level--) {
      const auto* inner = static_cast<const Inner*>(node);
      unsigned i = HighestBit(inner->present);
      key |= static_cast<uint64_t>(i) << (kBits * level);
      node = inner->child[i];
    }
    return key | HighestBit(static_cast<const Leaf*>(node)->present);
  }

  // Visits every key and its value in ascending key order.
  template <typename Fn>
  void ForEach(Fn&& fn) {
    Sweep(0, ~0ull, [&fn](Leaf* leaf, uint64_t base, uint64_t mask) {
      for (uint64_t m = leaf->present & mask; m != 0; m &= m - 1) {
        unsigned i = LowestBit(m);
        fn(base | i, leaf->slots[i]);
      }
    });
  }
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    const_cast<PageIndex*>(this)->ForEach(
        [&fn](uint64_t key, const V& value) { fn(key, value); });
  }

  // Visits the keys in [lo, hi) in ascending order and erases each one for
  // which `fn(key, value)` returns true. Returns how many it erased.
  template <typename Fn>
  uint64_t EraseIf(uint64_t lo, uint64_t hi, Fn&& fn) {
    return hi <= lo ? 0 : EraseIn(lo, hi - 1, fn);
  }

  // Sets or clears the mark of `key`; nothing when `key` is absent.
  void SetMark(uint64_t key, bool on) {
    auto [leaf, bit] = LeafOf(key);
    if (leaf != nullptr && (leaf->present & bit) != 0) {
      leaf->marks = on ? leaf->marks | bit : leaf->marks & ~bit;
    }
  }

  // Visits the marked keys in [lo, hi) in ascending order, clearing each
  // one's mark before `fn(key, value)` sees it. Returns how many it took.
  template <typename Fn>
  uint64_t TakeMarked(uint64_t lo, uint64_t hi, Fn&& fn) {
    if (hi <= lo) {
      return 0;
    }
    uint64_t taken = 0;
    Sweep(lo, hi - 1, [&fn, &taken](Leaf* leaf, uint64_t base, uint64_t mask) {
      for (uint64_t m = leaf->marks & mask; m != 0; m &= m - 1) {
        unsigned i = LowestBit(m);
        leaf->marks &= ~Bit(i);
        fn(base | i, leaf->slots[i]);
        taken++;
      }
    });
    return taken;
  }

  void Clear() {
    if (height_ != 0) {
      FreeTree(root_, height_ - 1);
    }
    root_ = nullptr;
    height_ = 0;
    size_ = 0;
  }

 private:
  static constexpr unsigned kBits = 6;
  static constexpr unsigned kFanout = 1u << kBits;
  static constexpr uint64_t kSlotMask = kFanout - 1;

  struct Leaf {
    uint64_t present = 0;
    uint64_t marks = 0;
    std::array<V, kFanout> slots{};
  };
  struct Inner {
    uint64_t present = 0;
    std::array<void*, kFanout> child{};
  };

  static uint64_t Bit(unsigned i) { return 1ull << i; }
  static unsigned LowestBit(uint64_t m) { return static_cast<unsigned>(__builtin_ctzll(m)); }
  static unsigned HighestBit(uint64_t m) { return 63u - static_cast<unsigned>(__builtin_clzll(m)); }
  // The slot `key` takes in a node at `level` (leaves are level 0).
  static unsigned SlotOf(uint64_t key, unsigned level) {
    return static_cast<unsigned>((key >> (kBits * level)) & kSlotMask);
  }
  // The key bits below a node at `level`: the span of its subtree.
  static uint64_t SpanMask(unsigned level) {
    unsigned bits = kBits * (level + 1);
    return bits >= 64 ? ~0ull : (1ull << bits) - 1;
  }
  // Whether a trie `height` levels tall spans `key`.
  static bool Fits(uint64_t key, unsigned height) {
    return height > 0 && (key & ~SpanMask(height - 1)) == 0;
  }
  static void* NewNode(unsigned level) {
    return level == 0 ? static_cast<void*>(new Leaf()) : static_cast<void*>(new Inner());
  }
  static void FreeTree(void* node, unsigned level) {
    if (level == 0) {
      delete static_cast<Leaf*>(node);
      return;
    }
    auto* inner = static_cast<Inner*>(node);
    for (uint64_t m = inner->present; m != 0; m &= m - 1) {
      FreeTree(inner->child[LowestBit(m)], level - 1);
    }
    delete inner;
  }

  // The leaf that would hold `key` (null when its path is absent) and the
  // key's bit in it.
  std::pair<Leaf*, uint64_t> LeafOf(uint64_t key) {
    if (!Fits(key, height_)) {
      return {nullptr, 0};
    }
    void* node = root_;
    for (unsigned level = height_ - 1; level > 0; level--) {
      auto* inner = static_cast<Inner*>(node);
      unsigned i = SlotOf(key, level);
      if ((inner->present & Bit(i)) == 0) {
        return {nullptr, 0};
      }
      node = inner->child[i];
    }
    return {static_cast<Leaf*>(node), Bit(key & kSlotMask)};
  }

  // Empties slot `i` of `leaf`; the sweep that found it frees the leaf if
  // it is left empty.
  void ClearSlot(Leaf* leaf, unsigned i) {
    leaf->slots[i] = V{};
    leaf->present &= ~Bit(i);
    leaf->marks &= ~Bit(i);
    size_--;
  }

  // EraseIf over the closed range [lo, last].
  template <typename Fn>
  uint64_t EraseIn(uint64_t lo, uint64_t last, Fn&& fn) {
    uint64_t erased = 0;
    Sweep(lo, last, [this, &fn, &erased](Leaf* leaf, uint64_t base, uint64_t mask) {
      for (uint64_t m = leaf->present & mask; m != 0; m &= m - 1) {
        unsigned i = LowestBit(m);
        if (fn(base | i, leaf->slots[i])) {
          ClearSlot(leaf, i);
          erased++;
        }
      }
    });
    return erased;
  }

  // The least key at or after `key` in the subtree of `node`, which is at
  // `level` and spans `key`.
  static std::optional<uint64_t> Next(const void* node, unsigned level, uint64_t key) {
    unsigned i = SlotOf(key, level);
    if (level == 0) {
      uint64_t m = static_cast<const Leaf*>(node)->present & (~0ull << i);
      if (m == 0) {
        return std::nullopt;
      }
      return (key & ~kSlotMask) | LowestBit(m);
    }
    const auto* inner = static_cast<const Inner*>(node);
    for (uint64_t m = inner->present & (~0ull << i); m != 0; m &= m - 1) {
      unsigned j = LowestBit(m);
      // Past slot i, child j's least key is the next one: no node is empty.
      uint64_t from =
          j == i ? key : (key & ~SpanMask(level)) | (static_cast<uint64_t>(j) << (kBits * level));
      if (std::optional<uint64_t> found = Next(inner->child[j], level - 1, from)) {
        return found;
      }
    }
    return std::nullopt;
  }

  // Calls `leaf_fn(leaf, base, mask)` on every leaf holding a key in
  // [lo, last], in ascending order, where `base` is the leaf's first key and
  // `mask` selects its slots inside the range. Frees the nodes the calls
  // leave empty and lowers the trie to the height its keys need.
  template <typename LeafFn>
  void Sweep(uint64_t lo, uint64_t last, LeafFn&& leaf_fn) {
    if (height_ == 0 || !Fits(lo, height_)) {
      return;
    }
    if (SweepNode(root_, height_ - 1, 0, lo, last, leaf_fn)) {
      FreeTree(root_, height_ - 1);
      root_ = nullptr;
      height_ = 0;
      return;
    }
    while (height_ > 1 && static_cast<Inner*>(root_)->present == 1) {
      auto* old = static_cast<Inner*>(root_);
      root_ = old->child[0];
      delete old;
      height_--;
    }
  }

  // Returns whether `node` (at `level`, first key `base`, overlapping
  // [lo, last]) is left empty.
  template <typename LeafFn>
  static bool SweepNode(void* node, unsigned level, uint64_t base, uint64_t lo, uint64_t last,
                        LeafFn& leaf_fn) {
    const uint64_t span_last = base | SpanMask(level);
    unsigned first_slot = lo <= base ? 0 : SlotOf(lo, level);
    unsigned last_slot = last >= span_last ? kSlotMask : SlotOf(last, level);
    uint64_t mask = (~0ull << first_slot) & (~0ull >> (kSlotMask - last_slot));
    if (level == 0) {
      auto* leaf = static_cast<Leaf*>(node);
      leaf_fn(leaf, base, mask);
      return leaf->present == 0;
    }
    auto* inner = static_cast<Inner*>(node);
    for (uint64_t m = inner->present & mask; m != 0; m &= m - 1) {
      unsigned j = LowestBit(m);
      uint64_t child_base = base | (static_cast<uint64_t>(j) << (kBits * level));
      if (SweepNode(inner->child[j], level - 1, child_base, lo, last, leaf_fn)) {
        FreeTree(inner->child[j], level - 1);
        inner->present &= ~Bit(j);
      }
    }
    return inner->present == 0;
  }

  void* root_ = nullptr;
  unsigned height_ = 0;  // 0 when empty; the root is a leaf at height 1
  size_t size_ = 0;
};

}  // namespace aurora

#endif  // SRC_VM_PAGE_INDEX_H_
