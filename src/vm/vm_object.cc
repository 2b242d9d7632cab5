#include "src/vm/vm_object.h"

#include <utility>

namespace aurora {

uint64_t VmObject::next_id_ = 1;

VmObject::VmObject(VmObjectType type, uint64_t size) : id_(next_id_++), type_(type), size_(size) {}

VmObject::~VmObject() {
  if (parent_) {
    parent_->shadow_count_--;
  }
}

void VmObject::SetParent(std::shared_ptr<VmObject> parent) {
  if (parent_) {
    parent_->shadow_count_--;
  }
  parent_ = std::move(parent);
  if (parent_) {
    parent_->shadow_count_++;
  }
}

std::shared_ptr<VmObject> VmObject::CreateAnonymous(uint64_t size) {
  return std::shared_ptr<VmObject>(new VmObject(VmObjectType::kAnonymous, size));
}

std::shared_ptr<VmObject> VmObject::CreateVnode(uint64_t size, Pager pager) {
  auto obj = std::shared_ptr<VmObject>(new VmObject(VmObjectType::kVnode, size));
  obj->pager_ = std::move(pager);
  return obj;
}

std::shared_ptr<VmObject> VmObject::CreateDevice(uint64_t size) {
  return std::shared_ptr<VmObject>(new VmObject(VmObjectType::kDevice, size));
}

std::shared_ptr<VmObject> VmObject::CreateShadow(std::shared_ptr<VmObject> parent) {
  auto shadow = std::shared_ptr<VmObject>(new VmObject(VmObjectType::kAnonymous, parent->size()));
  shadow->SetParent(std::move(parent));
  return shadow;
}

VmPage* VmObject::LookupLocal(uint64_t pgidx) {
  std::unique_ptr<VmPage>* page = pages_.Find(pgidx);
  return page == nullptr ? nullptr : page->get();
}

const VmPage* VmObject::LookupLocal(uint64_t pgidx) const {
  const std::unique_ptr<VmPage>* page = pages_.Find(pgidx);
  return page == nullptr ? nullptr : page->get();
}

VmObject::LookupResult VmObject::LookupChain(uint64_t pgidx) {
  LookupResult result;
  VmObject* obj = this;
  while (obj != nullptr) {
    if (VmPage* page = obj->LookupLocal(pgidx)) {
      result.page = page;
      result.owner = obj;
      return result;
    }
    if (obj->pager_) {
      // Fault the page in from backing storage into the pager's object; it
      // is then resident like any other page, over the frame the pager
      // handed over.
      PageFrame frame = obj->pager_(pgidx);
      if (!frame.empty()) {
        std::unique_ptr<VmPage>& slot = obj->pages_[pgidx];
        slot = std::make_unique<VmPage>(std::move(frame));
        result.page = slot.get();
        result.owner = obj;
        return result;
      }
    }
    obj = obj->parent_.get();
    result.chain_depth++;
  }
  return result;
}

VmPage* VmObject::InstallPage(uint64_t pgidx, const uint8_t* data) {
  return InstallFrame(pgidx, PageFrame::CopyOf(data));
}

VmPage* VmObject::InstallFrame(uint64_t pgidx, PageFrame frame) {
  std::unique_ptr<VmPage>& slot = pages_[pgidx];
  slot = std::make_unique<VmPage>(std::move(frame));
  NoteDirtyPage(pgidx);
  return slot.get();
}

std::vector<std::pair<uint64_t, uint64_t>> VmObject::DirtyRuns() const {
  std::vector<std::pair<uint64_t, uint64_t>> runs;
  for (uint64_t w = 0; w < dirty_bits_.size(); w++) {
    uint64_t word = dirty_bits_[w];
    while (word != 0) {
      uint64_t pg = (w << 6) + static_cast<uint64_t>(__builtin_ctzll(word));
      word &= word - 1;
      if (!runs.empty() && runs.back().second == pg) {
        runs.back().second = pg + 1;
      } else {
        runs.emplace_back(pg, pg + 1);
      }
    }
  }
  return runs;
}

Status VmObject::CollapseClassic(const CostModel& cost, SimClock* clock) {
  if (parent_ == nullptr) {
    return Status::Error(Errc::kBadState, "collapse without parent");
  }
  if (parent_->shadow_count_ != 1) {
    return Status::Error(Errc::kBusy, "parent shared by other shadows");
  }
  std::shared_ptr<VmObject> parent = parent_;
  // Move every parent page the shadow does not hide up into the shadow.
  // This is the expensive direction: cost scales with the parent's
  // residency, which for a freshly frozen checkpoint base is the whole
  // application footprint.
  parent->pages_.ForEach([&](uint64_t pgidx, std::unique_ptr<VmPage>& page) {
    clock->Advance(cost.lock_acquire + cost.cacheline_miss);
    if (pages_.Find(pgidx) == nullptr) {
      pages_[pgidx] = std::move(page);
    }
  });
  parent->pages_.Clear();
  // Splice the parent out: inherit its parent and pager.
  std::shared_ptr<VmObject> grandparent = parent->parent_;
  if (!pager_ && parent->pager_) {
    pager_ = parent->pager_;
  }
  SetParent(grandparent);
  return Status::Ok();
}

Status VmObject::CollapseReversedIntoParent(const CostModel& cost, SimClock* clock) {
  if (parent_ == nullptr) {
    return Status::Error(Errc::kBadState, "collapse without parent");
  }
  if (parent_->shadow_count_ != 1) {
    return Status::Error(Errc::kBusy, "parent shared by other shadows");
  }
  std::shared_ptr<VmObject> parent = parent_;
  // Move this object's (few) pages *down*, overwriting the parent's stale
  // versions. Cost scales with the shadow's residency — the pages dirtied
  // in one checkpoint interval — which is why Aurora reverses the
  // direction (paper section 6).
  pages_.ForEach([&](uint64_t pgidx, std::unique_ptr<VmPage>& page) {
    clock->Advance(cost.lock_acquire + cost.cacheline_miss);
    parent->pages_[pgidx] = std::move(page);
  });
  pages_.Clear();
  parent->frozen_ = false;
  return Status::Ok();
}

}  // namespace aurora
