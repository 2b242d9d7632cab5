#include "src/vm/pmap.h"

#include <algorithm>

namespace aurora {

namespace {

void PvRemove(VmPage* frame, Pmap* pmap, uint64_t vpage) {
  if (frame == nullptr) {
    return;
  }
  auto& pv = frame->pv;
  for (auto it = pv.begin(); it != pv.end(); ++it) {
    if (it->first == pmap && it->second == vpage) {
      pv.erase(it);
      return;
    }
  }
}

void PvAdd(VmPage* frame, Pmap* pmap, uint64_t vpage) {
  if (frame != nullptr) {
    frame->pv.emplace_back(pmap, vpage);
  }
}

}  // namespace

Pmap::~Pmap() {
  // Frames may outlive this pmap; their pv lists must not reference it.
  for (auto& [vpage, entry] : entries_) {
    PvRemove(entry.frame, this, vpage);
  }
}

VmPage::~VmPage() {
  // A frame being destroyed must not leave dangling translations (this is
  // what makes collapse page moves and InstallPage overwrites safe).
  PvInvalidate(this);
}

void PvInvalidate(VmPage* frame) {
  while (!frame->pv.empty()) {
    auto [pmap, vpage] = frame->pv.back();
    if (!pmap->RemoveTranslation(vpage, frame)) {
      frame->pv.pop_back();  // stale entry; drop it to guarantee progress
    }
  }
}

void Pmap::Enter(uint64_t vpage, Entry entry, const CostModel& cost, SimClock* clock) {
  clock->Advance(cost.pte_install);
  auto it = entries_.find(vpage);
  if (it != entries_.end()) {
    PvRemove(it->second.frame, this, vpage);
  }
  entries_[vpage] = entry;
  if (entry.writable) {
    writable_.insert(vpage);
  } else {
    writable_.erase(vpage);
  }
  PvAdd(entry.frame, this, vpage);
}

Pmap::Entry* Pmap::Lookup(uint64_t vpage) {
  auto it = entries_.find(vpage);
  return it == entries_.end() ? nullptr : &it->second;
}

bool Pmap::RemoveTranslation(uint64_t vpage, const VmPage* frame) {
  auto it = entries_.find(vpage);
  if (it == entries_.end() || it->second.frame != frame) {
    return false;
  }
  // pv maintenance is done by the caller (the frame's pv list is being
  // drained); just drop the translation.
  entries_.erase(it);
  writable_.erase(vpage);
  return true;
}

uint64_t Pmap::InvalidateAll(const CostModel& cost, SimClock* clock) {
  uint64_t n = entries_.size();
  for (auto& [vpage, entry] : entries_) {
    PvRemove(entry.frame, this, vpage);
  }
  clock->Advance(cost.pte_protect * n);
  entries_.clear();
  writable_.clear();
  return n;
}

uint64_t Pmap::InvalidateRange(uint64_t start, uint64_t end, const CostModel& cost,
                               SimClock* clock) {
  uint64_t n = 0;
  auto it = entries_.lower_bound(start);
  while (it != entries_.end() && it->first < end) {
    PvRemove(it->second.frame, this, it->first);
    writable_.erase(it->first);
    it = entries_.erase(it);
    n++;
  }
  clock->Advance(cost.pte_protect * n);
  return n;
}

uint64_t Pmap::InvalidateObject(const VmObject* object, const CostModel& cost, SimClock* clock) {
  uint64_t n = 0;
  for (auto it = entries_.begin(); it != entries_.end();) {
    if (it->second.object == object) {
      PvRemove(it->second.frame, this, it->first);
      writable_.erase(it->first);
      it = entries_.erase(it);
      n++;
    } else {
      ++it;
    }
  }
  clock->Advance(cost.pte_protect * n);
  return n;
}

uint64_t Pmap::WriteProtectRange(uint64_t start, uint64_t end, const CostModel& cost,
                                 SimClock* clock) {
  uint64_t n = 0;
  auto it = writable_.lower_bound(start);
  while (it != writable_.end() && *it < end) {
    entries_[*it].writable = false;
    it = writable_.erase(it);
    n++;
  }
  clock->Advance(cost.pte_protect * n);
  return n;
}

}  // namespace aurora
