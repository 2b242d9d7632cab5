#include "src/vm/vm_map.h"

#include <algorithm>
#include <cstring>
#include <set>

namespace aurora {

uint64_t VmMap::next_stamp_ = 1;

Result<uint64_t> VmMap::FindFreeRange(uint64_t hint, uint64_t size) const {
  uint64_t candidate = hint ? hint : map_cursor_;
  for (int attempts = 0; attempts < 2; attempts++) {
    // Scan forward from `candidate` until [candidate, candidate+size)
    // collides with nothing — neither the entry before it (which may extend
    // over it) nor any entry starting inside it.
    bool moved = true;
    while (moved && candidate + size > candidate) {
      moved = false;
      auto it = entries_.lower_bound(candidate);
      if (it != entries_.begin()) {
        auto prev = std::prev(it);
        if (prev->second.end > candidate) {
          candidate = prev->second.end;
          moved = true;
          continue;
        }
      }
      if (it != entries_.end() && it->second.start < candidate + size) {
        candidate = it->second.end;
        moved = true;
      }
    }
    if (candidate + size > candidate) {  // no overflow
      return candidate;
    }
    candidate = kPageSize;  // wrap once
  }
  return Status::Error(Errc::kNoSpace, "address space exhausted");
}

Result<uint64_t> VmMap::Map(uint64_t hint, uint64_t size, int prot,
                            std::shared_ptr<VmObject> object, uint64_t offset,
                            bool copy_on_write) {
  if (size == 0 || size != PageRound(size) || offset != PageTrunc(offset) ||
      hint != PageTrunc(hint)) {
    return Status::Error(Errc::kInvalidArgument, "unaligned mapping");
  }
  AURORA_ASSIGN_OR_RETURN(uint64_t start, FindFreeRange(hint, size));
  VmMapEntry entry;
  entry.start = start;
  entry.end = start + size;
  entry.prot = prot;
  entry.offset = offset;
  entry.copy_on_write = copy_on_write;
  entry.object = std::move(object);
  VmMapEntry& placed = entries_[start] = std::move(entry);
  Stamp(&placed);
  if (hint == 0) {
    map_cursor_ = start + size + kPageSize;
  }
  sim_->clock.Advance(sim_->cost.small_alloc + sim_->cost.lock_acquire);
  return start;
}

Status VmMap::Unmap(uint64_t start, uint64_t size) {
  auto it = entries_.find(start);
  if (it == entries_.end() || it->second.size() != size) {
    return Status::Error(Errc::kNotFound, "unmap of unknown entry");
  }
  pmap_.InvalidateRange(start, start + size, sim_->cost, &sim_->clock);
  entries_.erase(it);
  Stamp();
  return Status::Ok();
}

Status VmMap::Protect(uint64_t start, uint64_t size, int prot) {
  auto it = entries_.find(start);
  if (it == entries_.end() || it->second.size() != size) {
    return Status::Error(Errc::kNotFound, "protect of unknown entry");
  }
  it->second.prot = prot;
  Stamp(&it->second);
  pmap_.InvalidateRange(start, start + size, sim_->cost, &sim_->clock);
  return Status::Ok();
}

VmMapEntry* VmMap::FindEntry(uint64_t addr) {
  auto it = entries_.upper_bound(addr);
  if (it == entries_.begin()) {
    return nullptr;
  }
  --it;
  if (addr >= it->second.start && addr < it->second.end) {
    return &it->second;
  }
  return nullptr;
}

Status VmMap::Advise(uint64_t addr, int hint) {
  VmMapEntry* entry = FindEntry(addr);
  if (entry == nullptr) {
    return Status::Error(Errc::kNotFound, "no mapping at address");
  }
  entry->madvise_hint = hint;
  Stamp(entry);
  return Status::Ok();
}

Result<Pmap::Entry*> VmMap::Fault(uint64_t addr, bool write) {
  const CostModel& cost = sim_->cost;
  SimClock* clock = &sim_->clock;
  VmMapEntry* entry = FindEntry(addr);
  if (entry == nullptr) {
    return Status::Error(Errc::kOutOfRange, "segmentation fault");
  }
  if (write && (entry->prot & kProtWrite) == 0) {
    return Status::Error(Errc::kInvalidArgument, "write to read-only mapping");
  }
  if (!write && (entry->prot & kProtRead) == 0) {
    return Status::Error(Errc::kInvalidArgument, "read from unreadable mapping");
  }
  clock->Advance(cost.fault_entry);
  uint64_t vpage = PageTrunc(addr);
  uint64_t pgidx = entry->PageIndexOf(addr);
  VmObject* top = entry->object.get();

  auto found = top->LookupChain(pgidx);
  clock->Advance(cost.cacheline_miss * static_cast<SimDuration>(found.chain_depth + 1));

  VmPage* page = nullptr;
  VmObject* owner = nullptr;
  if (found.owner == top) {
    page = found.page;
    owner = top;
    fault_stats_.soft_faults++;
    sim_->metrics.counter("vm.soft_faults").Add();
  } else if (write || found.page == nullptr) {
    // Promote into the top object: a COW copy when a lower chain link holds
    // the page, or a fresh zeroed frame (FreeBSD allocates zeroed pages in
    // the object even on read faults of untouched anonymous memory).
    if (top->frozen()) {
      return Status::Error(Errc::kBadState, "fault would modify a frozen object");
    }
    clock->Advance(cost.page_alloc);
    if (found.page != nullptr) {
      // Copying from an object the checkpoint flusher currently holds
      // locked blocks until the flusher releases it.
      if (found.owner->busy_until() > clock->now()) {
        clock->AdvanceTo(found.owner->busy_until());
        clock->Advance(cost.lock_acquire);
      }
      page = top->InstallPage(pgidx, found.page->data());
      clock->Advance(cost.MemCopy(kPageSize));
      // The old frame may be mapped read-only elsewhere; those translations
      // are stale now that the top object hides it (pmap_remove_all).
      PvInvalidate(found.page);
      fault_stats_.cow_faults++;
      sim_->metrics.counter("vm.cow_faults").Add();
    } else {
      page = top->InstallFrame(pgidx, PageFrame::Zeroed());
      fault_stats_.zero_fills++;
      sim_->metrics.counter("vm.zero_fills").Add();
    }
    owner = top;
  } else {
    // Read fault resolved by a lower chain link: map it read-only; a later
    // write promotes and invalidates this translation through the pv list.
    page = found.page;
    owner = found.owner;
    fault_stats_.soft_faults++;
    sim_->metrics.counter("vm.soft_faults").Add();
  }

  bool writable = owner == top && (entry->prot & kProtWrite) != 0 && !top->frozen();
  if (write && !writable) {
    return Status::Error(Errc::kBadState, "write fault on frozen mapping");
  }
  Pmap::Entry pte{owner, pgidx, page, writable};
  pmap_.Enter(vpage, pte, cost, clock);
  return pmap_.Lookup(vpage);
}

Status VmMap::Write(uint64_t addr, const void* data, uint64_t len) {
  const auto* src = static_cast<const uint8_t*>(data);
  while (len > 0) {
    uint64_t vpage = PageTrunc(addr);
    uint64_t in_page = addr - vpage;
    uint64_t chunk = std::min(len, kPageSize - in_page);
    Pmap::Entry* pte = pmap_.Lookup(vpage);
    if (pte == nullptr || !pte->writable) {
      AURORA_ASSIGN_OR_RETURN(pte, Fault(addr, /*write=*/true));
    }
    // A frame the page shares (a restored image's, with the standby's
    // table) is copied here, inside the same VmPage: no translation changes.
    std::memcpy(pte->frame->MutableData() + in_page, src, chunk);
    addr += chunk;
    src += chunk;
    len -= chunk;
  }
  return Status::Ok();
}

Status VmMap::Read(uint64_t addr, void* out, uint64_t len) {
  auto* dst = static_cast<uint8_t*>(out);
  while (len > 0) {
    uint64_t vpage = PageTrunc(addr);
    uint64_t in_page = addr - vpage;
    uint64_t chunk = std::min(len, kPageSize - in_page);
    Pmap::Entry* pte = pmap_.Lookup(vpage);
    if (pte == nullptr) {
      AURORA_ASSIGN_OR_RETURN(pte, Fault(addr, /*write=*/false));
    }
    std::memcpy(dst, pte->frame->data() + in_page, chunk);
    addr += chunk;
    dst += chunk;
    len -= chunk;
  }
  return Status::Ok();
}

Status VmMap::DirtyRange(uint64_t addr, uint64_t len) {
  uint64_t end = addr + len;
  for (uint64_t page = PageTrunc(addr); page < end; page += kPageSize) {
    uint8_t byte = static_cast<uint8_t>(page >> kPageShift);
    AURORA_RETURN_IF_ERROR(Write(page, &byte, 1));
  }
  return Status::Ok();
}

Result<std::unique_ptr<VmMap>> VmMap::Fork() {
  const CostModel& cost = sim_->cost;
  SimClock* clock = &sim_->clock;
  auto child = std::make_unique<VmMap>(sim_);
  child->map_cursor_ = map_cursor_;
  for (auto& [start, entry] : entries_) {
    VmMapEntry child_entry = entry;
    if (entry.copy_on_write && (entry.prot & kProtWrite) != 0 &&
        entry.object->type() != VmObjectType::kDevice) {
      // Private writable entry: both sides shadow the current object so
      // neither sees the other's writes. This is the fork COW the paper
      // contrasts with system shadowing: it operates per process and breaks
      // sharing if applied to shared memory (which is why the `else` branch
      // aliases the object instead).
      std::shared_ptr<VmObject> original = entry.object;
      entry.object = VmObject::CreateShadow(original);
      child_entry.object = VmObject::CreateShadow(original);
      clock->Advance(2 * (cost.small_alloc + cost.lock_acquire));
      Stamp(&entry);
    }
    // Every child entry is the child map's own: none keeps a parent stamp.
    VmMapEntry& placed = child->entries_[start] = std::move(child_entry);
    child->Stamp(&placed);
  }
  // The parent's translations are stale for shadowed entries. Real fork
  // copies and write-protects the page tables; charge one PTE copy per
  // resident page (InvalidateAll charges the protect half) and drop the
  // translations so they refault lazily.
  uint64_t resident = pmap_.ResidentCount();
  clock->Advance(cost.pte_protect * resident);
  pmap_.InvalidateAll(cost, clock);
  clock->Advance(cost.tlb_shootdown_ipi);
  Stamp();
  return child;
}

uint64_t VmMap::ResidentPages() const {
  uint64_t total = 0;
  std::set<const VmObject*> seen;
  for (const auto& [start, entry] : entries_) {
    const VmObject* obj = entry.object.get();
    while (obj != nullptr && seen.insert(obj).second) {
      total += obj->ResidentPages();
      obj = obj->parent();
    }
  }
  return total;
}

}  // namespace aurora
