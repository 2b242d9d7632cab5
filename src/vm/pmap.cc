#include "src/vm/pmap.h"

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

uint64_t VaddrOf(uint64_t vpn) { return vpn << kPageShift; }
// The first virtual page number whose page starts at or after `vaddr`.
uint64_t VpnAtOrAfter(uint64_t vaddr) {
  return (vaddr >> kPageShift) + ((vaddr & (kPageSize - 1)) != 0 ? 1 : 0);
}

}  // namespace

Pmap::~Pmap() {
  // Frames may outlive this pmap; their pv lists must not reference it.
  entries_.ForEach(
      [this](uint64_t vpn, Entry& entry) { PvRemove(entry.frame, this, VaddrOf(vpn)); });
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
  const uint64_t vpn = vpage >> kPageShift;
  Entry& slot = entries_[vpn];
  PvRemove(slot.frame, this, vpage);
  slot = entry;
  entries_.SetMark(vpn, entry.writable);
  PvAdd(entry.frame, this, vpage);
}

Pmap::Entry* Pmap::Lookup(uint64_t vpage) { return entries_.Find(vpage >> kPageShift); }

bool Pmap::RemoveTranslation(uint64_t vpage, const VmPage* frame) {
  // pv maintenance is done by the caller (the frame's pv list is being
  // drained); just drop the translation.
  const uint64_t vpn = vpage >> kPageShift;
  return entries_.EraseIf(vpn, vpn + 1, [frame](uint64_t, const Entry& e) {
    return e.frame == frame;
  }) == 1;
}

uint64_t Pmap::InvalidateAll(const CostModel& cost, SimClock* clock) {
  uint64_t n = entries_.size();
  entries_.ForEach(
      [this](uint64_t vpn, Entry& entry) { PvRemove(entry.frame, this, VaddrOf(vpn)); });
  clock->Advance(cost.pte_protect * n);
  entries_.Clear();
  return n;
}

uint64_t Pmap::InvalidateRange(uint64_t start, uint64_t end, const CostModel& cost,
                               SimClock* clock) {
  uint64_t n = entries_.EraseIf(VpnAtOrAfter(start), VpnAtOrAfter(end),
                                [this](uint64_t vpn, Entry& entry) {
                                  PvRemove(entry.frame, this, VaddrOf(vpn));
                                  return true;
                                });
  clock->Advance(cost.pte_protect * n);
  return n;
}

uint64_t Pmap::InvalidateObject(const VmObject* object, const CostModel& cost, SimClock* clock) {
  uint64_t n = entries_.EraseIf(0, ~0ull, [this, object](uint64_t vpn, Entry& entry) {
    if (entry.object != object) {
      return false;
    }
    PvRemove(entry.frame, this, VaddrOf(vpn));
    return true;
  });
  clock->Advance(cost.pte_protect * n);
  return n;
}

uint64_t Pmap::WriteProtectRange(uint64_t start, uint64_t end, const CostModel& cost,
                                 SimClock* clock) {
  uint64_t n = entries_.TakeMarked(VpnAtOrAfter(start), VpnAtOrAfter(end),
                                   [](uint64_t, Entry& entry) { entry.writable = false; });
  clock->Advance(cost.pte_protect * n);
  return n;
}

}  // namespace aurora
