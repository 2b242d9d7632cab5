// Mach-style VM objects with shadow chains (FreeBSD vm_object analog).
//
// A VmObject is a mappable collection of pages. Objects know nothing about
// virtual addresses or permissions; VmMap entries map them. Copy-on-write is
// implemented by *shadowing*: a shadow object sits on top of a parent, pages
// private to the shadow hide the parent's pages, and page lookups walk the
// chain top-down. This file also implements both collapse directions:
// FreeBSD's classic collapse (move parent pages up into the shadow) and
// Aurora's reversed collapse (move the shadow's few pages down into the
// parent), which is the paper's section 6 optimization.
#ifndef SRC_VM_VM_OBJECT_H_
#define SRC_VM_VM_OBJECT_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "src/base/cost_model.h"
#include "src/base/result.h"
#include "src/base/sim_clock.h"
#include "src/base/units.h"
#include "src/vm/page_frame.h"
#include "src/vm/page_index.h"

namespace aurora {

class Pmap;

// A resident page. VmPages are uniquely owned by one VmObject, as in Mach,
// and pmap translations point at them. Its bytes are a PageFrame, which the
// standby's image table may share: readers take data(), and the one in-place
// writer (VmMap::Write) takes MutableData(), whose private copy replaces the
// bytes inside this same VmPage, so no translation changes. `pv` is the
// FreeBSD-style reverse-mapping list: the (pmap, vaddr) translations that
// currently reference this page, so COW promotion and collapse can
// invalidate every stale mapping of it.
struct VmPage {
  explicit VmPage(PageFrame bytes) : frame(std::move(bytes)) {}
  ~VmPage();
  VmPage(const VmPage&) = delete;
  VmPage& operator=(const VmPage&) = delete;

  const uint8_t* data() const { return frame.data(); }
  uint8_t* MutableData() { return frame.MutableData(); }

  PageFrame frame;
  std::vector<std::pair<Pmap*, uint64_t>> pv;
};

// Removes every pmap translation referencing `frame` (pmap_remove_all).
void PvInvalidate(VmPage* frame);

enum class VmObjectType : uint8_t {
  kAnonymous,  // zero-fill swap-backed memory
  kVnode,      // file-backed pages (mmap)
  kDevice,     // device memory (HPET, vDSO); never checkpointed as data
};

class VmObject : public std::enable_shared_from_this<VmObject> {
 public:
  // Fetches a page from backing storage (vnode pager, the object store for
  // lazily restored or evicted objects, or the standby's image table). It
  // hands over the page's frame: a fresh one it filled, or one it shares
  // with its source. An empty frame means the backing store lacks the page
  // (zero fill).
  using Pager = std::function<PageFrame(uint64_t pgidx)>;

  static std::shared_ptr<VmObject> CreateAnonymous(uint64_t size);
  static std::shared_ptr<VmObject> CreateVnode(uint64_t size, Pager pager);
  static std::shared_ptr<VmObject> CreateDevice(uint64_t size);

  // Creates a shadow of `parent` covering its whole range. The parent's
  // shadow count is incremented; pages written after this land in the
  // shadow, so the parent's own pages become the frozen snapshot.
  static std::shared_ptr<VmObject> CreateShadow(std::shared_ptr<VmObject> parent);

  ~VmObject();

  uint64_t id() const { return id_; }
  VmObjectType type() const { return type_; }
  uint64_t size() const { return size_; }

  VmObject* parent() const { return parent_.get(); }
  const std::shared_ptr<VmObject>& parent_ref() const { return parent_; }

  // While the checkpoint flusher streams this (frozen) object's pages out,
  // it holds the object lock; COW faults that must copy a page *from* it
  // wait (paper section 6: lock contention between page faults and the
  // flusher/collapse is a real overhead of system shadowing).
  SimTime busy_until() const { return busy_until_; }
  void set_busy_until(SimTime t) { busy_until_ = t; }
  int shadow_count() const { return shadow_count_; }
  bool frozen() const { return frozen_; }
  void Freeze() { frozen_ = true; }

  // Number of pages resident in *this* object only (not the chain).
  size_t ResidentPages() const { return pages_.size(); }

  // Page-granular dirty set: one bit per page ever installed into *this*
  // object. A live shadow starts empty, so after one epoch the set is
  // exactly the pages dirtied since the shadow was created. Checkpointing
  // write-protects precisely these pages; the old [lo, hi] range summary
  // re-protected everything between two distant dirty pages, so a sparse
  // dirty set paid for the whole span.
  // Maximal [lo, hi) runs of consecutive dirty page indices, ascending.
  std::vector<std::pair<uint64_t, uint64_t>> DirtyRuns() const;
  // Visits every resident page of this object, `fn(pgidx, page)`, in
  // ascending page order.
  template <typename Fn>
  void ForEachPage(Fn&& fn) const {
    pages_.ForEach(
        [&fn](uint64_t pgidx, const std::unique_ptr<VmPage>& page) { fn(pgidx, *page); });
  }

  // Looks up a page in this object only. Null if absent.
  VmPage* LookupLocal(uint64_t pgidx);
  const VmPage* LookupLocal(uint64_t pgidx) const;

  // Walks the shadow chain for `pgidx`. Returns the page and the object that
  // owns it; {nullptr, nullptr} means zero fill (no pager had it either).
  // `chain_depth` (optional) reports how many links were traversed, which the
  // fault handler charges cache misses for.
  struct LookupResult {
    VmPage* page = nullptr;
    VmObject* owner = nullptr;
    int chain_depth = 0;
  };
  LookupResult LookupChain(uint64_t pgidx);

  // Inserts/overwrites a page with a copy of the given contents.
  VmPage* InstallPage(uint64_t pgidx, const uint8_t* data);
  // Inserts/overwrites a page whose bytes are `frame`, shared with whoever
  // else holds it, and marks it dirty exactly as InstallPage does.
  VmPage* InstallFrame(uint64_t pgidx, PageFrame frame);
  // Drops every resident frame (swap eviction of a fully durable object).
  // Stale translations are torn down through the frames' pv lists.
  uint64_t DropResidentPages() {
    uint64_t n = pages_.size();
    pages_.Clear();
    return n;
  }

  // Classic FreeBSD collapse: this object is a shadow whose parent has
  // shadow_count == 1; absorb the parent's pages into *this* (skipping
  // offsets this object already has) and splice the parent out of the chain.
  // Cost scales with the parent's resident pages.
  [[nodiscard]] Status CollapseClassic(const CostModel& cost, SimClock* clock);

  // Aurora's reversed collapse: move *this* object's (few) pages down into
  // the parent, overwriting, then callers splice this object out by
  // repointing references to the parent. Only legal when the parent is
  // exclusively ours. Cost scales with this object's resident pages.
  [[nodiscard]] Status CollapseReversedIntoParent(const CostModel& cost, SimClock* clock);

  void set_pager(Pager pager) { pager_ = std::move(pager); }
  bool has_pager() const { return static_cast<bool>(pager_); }

  // Bookkeeping for the SLS: the store object this VM object persists into.
  uint64_t sls_oid() const { return sls_oid_; }
  void set_sls_oid(uint64_t oid) { sls_oid_ = oid; }

  // For vnode-backed objects: the inode whose pager fills pages, so
  // checkpoints can record the file identity instead of the page contents.
  uint64_t backing_ino() const { return backing_ino_; }
  void set_backing_ino(uint64_t ino) { backing_ino_ = ino; }

  // Repoints this object's parent link (collapse splicing). Shadow counts
  // are maintained on both the old and new parents.
  void ReplaceParent(std::shared_ptr<VmObject> new_parent) { SetParent(std::move(new_parent)); }

 private:
  VmObject(VmObjectType type, uint64_t size);
  void SetParent(std::shared_ptr<VmObject> parent);
  void NoteDirtyPage(uint64_t pgidx) {
    uint64_t w = pgidx >> 6;
    if (w >= dirty_bits_.size()) {
      dirty_bits_.resize(w + 1, 0);
    }
    dirty_bits_[w] |= 1ull << (pgidx & 63);
  }

  static uint64_t next_id_;

  uint64_t id_;
  VmObjectType type_;
  uint64_t size_;
  bool frozen_ = false;
  uint64_t sls_oid_ = 0;
  uint64_t backing_ino_ = 0;
  SimTime busy_until_ = 0;
  std::vector<uint64_t> dirty_bits_;  // bit per page index, grown lazily

  std::shared_ptr<VmObject> parent_;
  int shadow_count_ = 0;  // number of shadows whose parent is this object

  Pager pager_;
  PageIndex<std::unique_ptr<VmPage>> pages_;
};

}  // namespace aurora

#endif  // SRC_VM_VM_OBJECT_H_
