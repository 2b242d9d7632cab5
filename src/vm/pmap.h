// Simulated physical map (hardware page tables) for one address space.
//
// The pmap is a cache over the VM map, exactly as in FreeBSD: entries are
// ephemeral and recreated by page faults. Checkpointing write-protects or
// invalidates pmap entries; the costs of those PTE walks and the TLB
// shootdowns they require are the dominant term of Aurora's stop time
// (Table 5's ~23 ns/page slope).
#ifndef SRC_VM_PMAP_H_
#define SRC_VM_PMAP_H_

#include <cstdint>

#include "src/base/cost_model.h"
#include "src/base/sim_clock.h"
#include "src/base/units.h"
#include "src/vm/page_index.h"
#include "src/vm/vm_object.h"

namespace aurora {

// Translations are keyed by page-aligned virtual address at the interface
// and indexed by virtual page number. Pages' pv lists hold the pmap's
// address, so a pmap is neither copied nor moved.
class Pmap {
 public:
  Pmap() = default;
  ~Pmap();
  Pmap(const Pmap&) = delete;
  Pmap& operator=(const Pmap&) = delete;

  struct Entry {
    VmObject* object = nullptr;  // nullptr => the shared zero page
    uint64_t pgidx = 0;          // page index within the object
    VmPage* frame = nullptr;
    bool writable = false;
  };

  // Installs a translation. Charges one PTE install.
  void Enter(uint64_t vpage, Entry entry, const CostModel& cost, SimClock* clock);

  Entry* Lookup(uint64_t vpage);

  // Removes every translation; the caller charges the TLB shootdown. Charges
  // one PTE write per resident entry and returns how many there were.
  uint64_t InvalidateAll(const CostModel& cost, SimClock* clock);

  // Removes translations in [start, end). Returns the count removed.
  uint64_t InvalidateRange(uint64_t start, uint64_t end, const CostModel& cost, SimClock* clock);

  // Removes translations whose frame lives in `object` (used before a
  // collapse destroys or moves that object's frames).
  uint64_t InvalidateObject(const VmObject* object, const CostModel& cost, SimClock* clock);

  // Write-protects translations in [start, end): read mappings of the now
  // frozen pages stay valid; the first write per page faults and promotes
  // into the new shadow. This is system shadowing's COW arming.
  uint64_t WriteProtectRange(uint64_t start, uint64_t end, const CostModel& cost,
                             SimClock* clock);

  // Removes one translation if it still references `frame` (pv teardown).
  // Returns true if a translation was removed.
  bool RemoveTranslation(uint64_t vpage, const VmPage* frame);

  uint64_t ResidentCount() const { return entries_.size(); }

 private:
  // Keyed by virtual page number. A translation's mark says it is writable;
  // the marks are maintained at fault/install time so checkpoint
  // write-protect sweeps visit only the dirtied PTEs instead of every
  // resident entry (stop time scales with dirtied state).
  PageIndex<Entry> entries_;
};

}  // namespace aurora

#endif  // SRC_VM_PMAP_H_
