// Checkpoint manifest serialization and restoration.
//
// The manifest is the OS-state half of a checkpoint: every POSIX object
// reachable from the consistency group (processes, threads, CPU contexts,
// open-file entries, vnodes, pipes, sockets incl. in-flight SCM_RIGHTS
// descriptors, kqueues, ptys, shared memory, devices) serialized exactly
// once, keyed by its kernel identity. Memory pages are flushed separately
// into per-region store objects; the manifest records each mapping's shadow
// chain as a list of store OIDs.
#ifndef SRC_CORE_SERIALIZE_H_
#define SRC_CORE_SERIALIZE_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/base/result.h"
#include "src/base/sim_context.h"
#include "src/core/consistency_group.h"
#include "src/fs/aurora_fs.h"
#include "src/objstore/object_store.h"
#include "src/posix/kernel.h"

namespace aurora {

struct SerializeStats {
  uint64_t file_objects = 0;
  uint64_t descriptions = 0;
  uint64_t processes = 0;
  uint64_t threads = 0;
  uint64_t vm_entries = 0;
  uint64_t memory_objects = 0;
  uint64_t bytes = 0;
};

// Assigns (or returns the existing) store OID for a VM object.
using EnsureOidFn = std::function<Oid(VmObject*)>;

// How a cached serialization pass charges the cost model. The manifest bytes
// are identical in every mode, and to a cacheless pass; only the simulated
// time differs. A changed process reuses its unchanged sub-records and map
// entries at the mode's hit cost and pays a fresh gather for the rest
// (SerializeCache::ProcessRecord).
enum class SerializeMode {
  // Out-of-window warm pass: entities whose generation is unchanged since
  // the cached blob cost one cache-line touch; changed entities charge
  // fresh. Fills the cache; the returned manifest is discarded. Counts
  // ckpt.serialize_warm_{hits,misses,stale} per entity.
  kWarmCache,
  // In-window assemble pass: generation-matched entities charge a cache
  // lookup plus a memcpy of the cached blob instead of the kernel-structure
  // gather walk; only entities mutated since the warm pass reserialize.
  // Counts ckpt.serialize_cache_{hits,misses,stale} per entity.
  kAssemble,
};

// Serializes the group's OS state into a manifest blob, charging the cost
// model for each object gathered. Without a cache every entity pays a cold
// gather inline and the whole manifest pays one marshal (Table 4's
// checkpoint column); with one, `mode` selects the incremental charging
// scheme described above.
[[nodiscard]] Result<std::vector<uint8_t>> SerializeOsState(
    SimContext* sim, const ConsistencyGroup& group, uint64_t epoch, Oid namespace_oid,
    const EnsureOidFn& ensure_oid, SerializeStats* stats, SerializeCache* cache = nullptr,
    SerializeMode mode = SerializeMode::kAssemble);

// Resolves a memory OID to a VM object during restore. `chain_complete`
// means the returned object already carries its whole ancestry (the
// restore-from-memory fast path) so lower chain links must not be relinked.
struct ResolvedMemory {
  std::shared_ptr<VmObject> object;
  bool chain_complete = false;
};
using MemoryResolverFn = std::function<Result<ResolvedMemory>(Oid oid, uint64_t size)>;

struct RestoredGroup {
  std::string name;
  uint64_t epoch = 0;
  Oid namespace_oid;
  std::vector<Process*> processes;
};

// Recreates the group from a manifest blob. Memory objects are materialized
// through `resolve` (eager store reads, lazy pagers, or in-memory frozen
// objects). Charges the cost model (Table 4's restore column).
[[nodiscard]] Result<RestoredGroup> RestoreOsState(SimContext* sim, Kernel* kernel, AuroraFs* fs,
                                                   const std::vector<uint8_t>& manifest,
                                                   const MemoryResolverFn& resolve);

// Reads just the header (group name + epoch) of a manifest blob.
[[nodiscard]] Result<RestoredGroup> PeekManifest(const std::vector<uint8_t>& manifest);

// Lists the (oid, size) pairs of the manifest's memory-object section
// (used by migration streams).
[[nodiscard]] Result<std::vector<std::pair<uint64_t, uint64_t>>> ManifestMemoryObjects(
                  const std::vector<uint8_t>& manifest);

}  // namespace aurora

#endif  // SRC_CORE_SERIALIZE_H_
