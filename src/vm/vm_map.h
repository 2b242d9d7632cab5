// Address spaces: the VM map (mapped regions) plus its pmap cache.
//
// Mirrors FreeBSD's vmspace/vm_map: a sorted list of entries, each backed by
// one VmObject at an offset, with protection bits and a copy-on-write flag.
// The page fault handler lives here: it walks the entry's shadow chain,
// performs COW copies into the top object, and installs pmap translations,
// charging the cost model for each primitive.
#ifndef SRC_VM_VM_MAP_H_
#define SRC_VM_VM_MAP_H_

#include <cstdint>
#include <map>
#include <memory>
#include <vector>

#include "src/base/result.h"
#include "src/base/sim_context.h"
#include "src/base/units.h"
#include "src/vm/pmap.h"
#include "src/vm/vm_object.h"

namespace aurora {

inline constexpr int kProtRead = 1;
inline constexpr int kProtWrite = 2;
inline constexpr int kProtExec = 4;

// madvise(2) hints honored by the paging policy (paper section 6: custom
// applications use madvise to improve page selection).
inline constexpr int kMadvNormal = 0;
inline constexpr int kMadvDontneed = 1;  // evict first
inline constexpr int kMadvWillneed = 2;  // evict last

struct VmMapEntry {
  uint64_t start = 0;  // page aligned, inclusive
  uint64_t end = 0;    // page aligned, exclusive
  int prot = kProtRead | kProtWrite;
  uint64_t offset = 0;   // byte offset into the object, page aligned
  bool copy_on_write = false;  // MAP_PRIVATE semantics: fork shadows this entry
  bool exclude_from_checkpoint = false;  // sls_mctl(MEMCTL_EXCLUDE)
  int madvise_hint = 0;                  // advisory paging hint
  std::shared_ptr<VmObject> object;
  // Serialization-cache generation of this entry: set by every VmMap
  // mutator that changes what a manifest records for it, from a counter
  // whose values no map or entry repeats (see VmMap::generation).
  uint64_t generation = 0;

  uint64_t size() const { return end - start; }
  uint64_t PageIndexOf(uint64_t addr) const { return (addr - start + offset) >> kPageShift; }
};

struct VmFaultStats {
  uint64_t soft_faults = 0;  // translation installed, no copy
  uint64_t cow_faults = 0;   // page copied into the top object
  uint64_t zero_fills = 0;
};

// Pages' pv lists hold the address of the map's pmap, so a map is neither
// copied nor moved; a fresh address space is a new VmMap.
class VmMap {
 public:
  explicit VmMap(SimContext* sim) : sim_(sim) {}
  VmMap(const VmMap&) = delete;
  VmMap& operator=(const VmMap&) = delete;

  // Maps `object` at `hint` (or the next free range if hint is 0 or busy).
  // Returns the chosen start address.
  [[nodiscard]] Result<uint64_t> Map(uint64_t hint, uint64_t size, int prot,
                                     std::shared_ptr<VmObject> object,
                                     uint64_t offset, bool copy_on_write);
  [[nodiscard]] Status Unmap(uint64_t start, uint64_t size);
  [[nodiscard]] Status Protect(uint64_t start, uint64_t size, int prot);

  VmMapEntry* FindEntry(uint64_t addr);
  // Sets the advisory paging hint for the entry containing `addr`.
  [[nodiscard]] Status Advise(uint64_t addr, int hint);
  const std::map<uint64_t, VmMapEntry>& entries() const { return entries_; }
  std::map<uint64_t, VmMapEntry>& entries() { return entries_; }

  // Handles a page fault at `addr`. Returns the pmap entry installed.
  [[nodiscard]] Result<Pmap::Entry*> Fault(uint64_t addr, bool write);

  // Memory accessors used by simulated applications; they fault as needed
  // and really move bytes, so checkpoint/restore correctness is observable.
  [[nodiscard]] Status Write(uint64_t addr, const void* data, uint64_t len);
  [[nodiscard]] Status Read(uint64_t addr, void* out, uint64_t len);

  // Touches one byte per page in [addr, addr+len) with writes (workload
  // helper for dirtying memory at page granularity cheaply).
  [[nodiscard]] Status DirtyRange(uint64_t addr, uint64_t len);

  // fork(): clones the address space. Shared entries alias the same object;
  // private (COW) entries get a fresh shadow on *both* sides and the
  // parent's stale translations are invalidated, charging fork's per-page
  // cost (this is what the RDB baseline's 8 ms stop time is made of).
  [[nodiscard]] Result<std::unique_ptr<VmMap>> Fork();

  Pmap& pmap() { return pmap_; }
  const VmFaultStats& fault_stats() const { return fault_stats_; }
  SimContext* sim() { return sim_; }

  // Total resident pages across all distinct objects (top of chains only).
  uint64_t ResidentPages() const;

  // Serialization-cache generation: restamped by layout mutations (map,
  // unmap, protect, advise, fork), not by page faults — faults change page
  // content, which the memory snapshot captures, but not the serialized map
  // layout. Map and entry generations are stamps from one counter shared by
  // every map, so a new map (ReplaceVm, fork, restore) never repeats a value
  // a serialize cache holds for another.
  uint64_t generation() const { return generation_; }
  // For callers that mutate checkpoint-visible state of `entry` (one of this
  // map's entries) through FindEntry() (e.g. sls_mctl toggling
  // exclude_from_checkpoint).
  void TouchLayout(VmMapEntry* entry) { Stamp(entry); }

 private:
  [[nodiscard]] Result<uint64_t> FindFreeRange(uint64_t hint, uint64_t size) const;
  // Restamps the map and, when given, one entry the mutation changed.
  void Stamp(VmMapEntry* entry = nullptr) {
    generation_ = next_stamp_++;
    if (entry != nullptr) {
      entry->generation = generation_;
    }
  }

  static uint64_t next_stamp_;

  SimContext* sim_;
  std::map<uint64_t, VmMapEntry> entries_;
  Pmap pmap_;
  VmFaultStats fault_stats_;  // aurora-lint: allow(gen): fault counters are diagnostics, not serialized
  uint64_t generation_ = next_stamp_++;
  uint64_t map_cursor_ = 0x10000000;  // bump pointer for hint-less maps
};

}  // namespace aurora

#endif  // SRC_VM_VM_MAP_H_
