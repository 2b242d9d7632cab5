// System shadowing (paper section 6): group-wide copy-on-write snapshots.
//
// Unlike fork's COW, system shadowing creates exactly one shadow per
// writable anonymous object across *all* address spaces in a consistency
// group, replacing every reference (map entries and shared-memory
// descriptors via the backmap callback) so shared memory stays shared. The
// old tops freeze and become the incremental checkpoint to flush while the
// application keeps running against the new shadows.
//
// On-disk identity: a shadow inherits its parent's store object id (OID), so
// successive incremental checkpoints of the same logical region land in the
// same store object, and the eager collapse after flushing merges only
// same-OID links. Fork shadows keep their own OIDs, so chains stay exactly
// as deep as the fork-sharing structure requires (paper: chain capped at
// two system shadows, which we enforce by collapsing the flushed shadow
// before creating the next one).
#ifndef SRC_VM_SYSTEM_SHADOW_H_
#define SRC_VM_SYSTEM_SHADOW_H_

#include <functional>
#include <memory>
#include <vector>

#include "src/base/result.h"
#include "src/base/sim_context.h"
#include "src/vm/vm_map.h"
#include "src/vm/vm_object.h"

namespace aurora {

struct ShadowPair {
  std::shared_ptr<VmObject> frozen;  // the old top: the dirty set to flush
  std::shared_ptr<VmObject> live;    // the new top taking writes
};

struct SystemShadowStats {
  uint64_t objects_shadowed = 0;
  uint64_t objects_skipped_clean = 0;  // tops with no dirtied pages, left live
  uint64_t ptes_invalidated = 0;
  uint64_t tlb_shootdowns = 0;
  uint64_t shootdowns_elided = 0;  // address spaces with zero rebound PTEs
};

// Called when an object that external descriptors reference (POSIX/SysV
// shared memory) is replaced by its new shadow, so the descriptor's backmap
// can be updated and future mappings use the latest shadow.
using ShadowRebindFn = std::function<void(VmObject* old_top, std::shared_ptr<VmObject> new_top)>;

// Shadows every writable, non-excluded anonymous top object reachable from
// `maps`, charging shadow allocation, PTE and TLB costs. Returns the frozen
// tops paired with their live shadows. Stop-time work scales with dirtied
// state: unfrozen tops that took no writes since the previous epoch stay
// live unshadowed (their store object already equals their content), only
// dirty pages are write-protected, and address spaces that lost no writable
// translation pay no TLB shootdown.
std::vector<ShadowPair> CreateSystemShadows(const std::vector<VmMap*>& maps, SimContext* sim,
                                            const ShadowRebindFn& rebind,
                                            SystemShadowStats* stats);

// Shadows a single object (the sls_memckpt atomic-region API). References in
// `maps` are repointed just like the group-wide operation. `top` is taken by
// value: rebinding overwrites the map entries' shared_ptrs, so a caller's
// reference into an entry would otherwise be mutated mid-operation. The
// object is shadowed even when clean (the caller asked for this region's
// snapshot explicitly); shootdown accounting matches the batched path.
ShadowPair ShadowOneObject(std::shared_ptr<VmObject> top, const std::vector<VmMap*>& maps,
                           SimContext* sim, const ShadowRebindFn& rebind,
                           SystemShadowStats* stats = nullptr);

// After `pair.frozen` has been flushed to storage, eagerly merge it into its
// parent to keep chains short. Merging happens only when the parent is
// exclusively ours and shares the frozen object's store OID (see header
// comment). `reversed` selects Aurora's collapse direction (move the
// shadow's few pages down) versus the classic one (move the parent's pages
// up) for the ablation benchmark. Returns true if a collapse happened.
bool CollapseAfterFlush(const ShadowPair& pair, const std::vector<VmMap*>& maps, bool reversed,
                        SimContext* sim);

}  // namespace aurora

#endif  // SRC_VM_SYSTEM_SHADOW_H_
