// Consistency groups: the unit of atomic checkpointing (paper section 3).
#ifndef SRC_CORE_CONSISTENCY_GROUP_H_
#define SRC_CORE_CONSISTENCY_GROUP_H_

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "src/base/units.h"
#include "src/objstore/oid.h"
#include "src/obs/metrics.h"
#include "src/posix/process.h"
#include "src/posix/socket.h"
#include "src/vm/system_shadow.h"

namespace aurora {

class CheckpointDestination;

// How long committed epochs stay restorable. Applied after every durable
// full checkpoint of the group (store backend only): epochs outside the
// policy are pruned from the store directory, their deadlists freed, and the
// compactor immediately gets the resulting dead space to reclaim. A limit of
// 0 (the default) keeps every epoch, the pre-policy behavior.
struct RetentionPolicy {
  // Keep at most this many newest committed epochs (0 = unlimited).
  uint64_t keep_epochs = 0;
  bool enabled() const { return keep_epochs > 0; }
};

// Per-group cache of serialized entity blobs, keyed by (entity kind, kernel
// identity) and guarded by the entity's generation counter. A generation
// match with differing bytes counts as stale (a missed generation bump) and
// is recharged fresh, so a bookkeeping bug can cost time but never
// correctness: the emitted manifest always carries freshly-serialized bytes.
// A process record is split into sub-records, each guarded by its own
// counter, so a change re-gathers only what it touched. See SerializeMode
// (src/core/serialize.h) for how the passes charge it.
struct SerializeCache {
  struct Entry {
    uint64_t gen = 0;
    std::vector<uint8_t> bytes;
    uint64_t pass = 0;  // last pass that touched this entry
  };
  // Bytes [begin, end) of a process record.
  struct Span {
    size_t begin = 0;
    size_t end = 0;
    size_t size() const { return end - begin; }
  };
  // One map entry's bytes, keyed by its start address and generation stamp.
  struct MapEntrySpan {
    uint64_t start = 0;
    uint64_t gen = 0;
    Span bytes;
  };
  // Where a process record's sub-records lie, in manifest order: core fields
  // and threads, the descriptor slots, the AIO list and the VM map (entry
  // count, then one span per entry).
  struct ProcessLayout {
    Span core;
    Span fds;
    Span aio;
    Span map;
    std::vector<MapEntrySpan> entries;
  };
  // A process's cached record. Core and AIO are guarded by
  // Process::mutation_gen, the slots by FdTable::generation and the map by
  // VmMap::generation; when the map's generation moved, each entry is
  // reused by its own stamp.
  struct ProcessRecord {
    uint64_t proc_gen = 0;  // Process::mutation_gen
    uint64_t fds_gen = 0;
    uint64_t vm_gen = 0;
    std::vector<uint8_t> bytes;
    ProcessLayout layout;
    uint64_t pass = 0;  // last pass that touched this record
  };
  std::map<std::pair<uint8_t, uint64_t>, Entry> entries;
  std::map<uint64_t, ProcessRecord> processes;  // by pid
  uint64_t pass = 0;

  // Drops entries no pass has touched recently (exited processes, closed
  // descriptors) so the cache tracks the live entity set.
  void Prune() {
    PruneOld(&entries);
    PruneOld(&processes);
  }

 private:
  template <typename Map>
  void PruneOld(Map* records) {
    for (auto it = records->begin(); it != records->end();) {
      if (it->second.pass + 2 < pass) {
        it = records->erase(it);
      } else {
        ++it;
      }
    }
  }
};

class ConsistencyGroup {
 public:
  ConsistencyGroup(uint64_t id, std::string name) : id_(id), name_(std::move(name)) {}

  uint64_t id() const { return id_; }
  const std::string& name() const { return name_; }

  // Members. A group typically holds one application or container; all of
  // its processes checkpoint atomically and need no external synchrony
  // among themselves.
  std::vector<Process*> processes;

  // Checkpoint policy. 10 ms (100x per second) is the paper's default.
  SimDuration period = 10 * kMillisecond;
  bool external_sync = true;

  // Checkpoint destination. Null means the machine's object store; set a
  // registered destination via Sls::SetBackend before the first checkpoint.
  CheckpointDestination* backend = nullptr;

  // Epoch retention (see RetentionPolicy). Driven by Sls after each durable
  // full checkpoint; disabled by default.
  RetentionPolicy retention;

  // Epoch overlap: how many checkpoint flushes may still be in flight when
  // a checkpoint (periodic, direct or sls_memckpt) begins. 1 (the paper's
  // behavior) serializes epochs on durability; 2 overlaps epoch N+1's
  // serialization with epoch N's flush.
  uint32_t max_in_flight_epochs = 1;
  // Durability times of flushes not yet known durable, pruned against now.
  std::vector<SimTime> inflight_durable;
  // One record per committed flushing checkpoint, for backpressure tests and
  // the overlap ablation. Kept as a ring capped at kCkptHistoryCap newest
  // records (a group checkpointing 100x/s would otherwise grow O(epochs)
  // memory over million-epoch runs); inflight_durable shares the cap.
  struct CkptRecord {
    SimTime begin = 0;    // when the checkpoint pipeline entered
    SimTime durable = 0;  // when its flush + commit became durable
    uint64_t epoch = 0;
  };
  static constexpr size_t kCkptHistoryCap = 1024;
  std::deque<CkptRecord> ckpt_history;

  // Memory overcommitment (paper section 6): when set, pages are dropped
  // from memory as soon as their checkpoint flush completes — the unified
  // checkpoint/swap data path. Faults stream them back from the store.
  bool evict_after_flush = false;

  // Runtime checkpoint state: the shadows frozen by the previous checkpoint
  // (flushed, awaiting collapse at the next trigger) and the store objects
  // already fully persisted (lower chain links never rewritten).
  std::vector<ShadowPair> pending_collapse;
  // Shadows frozen by memory-only checkpoints: their pages are dirty wrt the
  // store and must be flushed by the next full checkpoint before they may be
  // collapsed into a persisted base (otherwise those writes would be lost).
  std::vector<ShadowPair> unflushed_frozen;
  std::set<uint64_t> persisted_oids;

  // The in-memory checkpoint, for RestoreFromMemory: the newest
  // checkpoint's frozen object per oid and its manifest. Empty when the group
  // has none.
  std::map<uint64_t, std::shared_ptr<VmObject>> snapshot;
  std::vector<uint8_t> last_manifest_blob;
  // Serialized-blob cache for the warm/assemble serialization passes.
  SerializeCache serialize_cache;
  // When the group's newest checkpoint became durable (0 before any), for
  // sls_barrier and the abort path.
  SimTime last_durable = 0;
  // Liveness token of the periodic checkpoint timer; null when none runs.
  // The timer clears it when it stops on its own (group suspended or empty).
  std::shared_ptr<bool> periodic;

  // Latest committed manifest for this group.
  Oid last_manifest;
  uint64_t last_manifest_epoch = 0;
  // The store epoch the group's lazily restored image still pages from (0
  // when none). A kLazy store restore sets it; retention keeps the epoch
  // until the group is restored from a backend again or suspended.
  uint64_t lazy_epoch = 0;
  // Namespace object the group's latest full checkpoint persisted; the next
  // one replaces it, so each group keeps one live.
  Oid last_namespace;

  // External synchrony: messages buffered until the covering checkpoint is
  // durable.
  struct PendingSend {
    std::shared_ptr<Socket> socket;
    std::vector<uint8_t> data;
  };
  std::vector<PendingSend> pending_sends;

  bool suspended = false;

  // Bookkeeping for observability.
  SimHistogram stop_times;
  uint64_t checkpoints_taken = 0;
  uint64_t bytes_flushed_total = 0;
  // Epochs abandoned after exhausted I/O retries (graceful degradation): the
  // application kept running and the dirty pages rode the next checkpoint.
  uint64_t epochs_aborted = 0;

 private:
  uint64_t id_;
  std::string name_;
};

}  // namespace aurora

#endif  // SRC_CORE_CONSISTENCY_GROUP_H_
