// The Aurora single level store: orchestrator and application API.
//
// The Sls ties the simulated kernel, the object store and AuroraFS together
// and implements the paper's checkpoint pipeline as explicit stages:
//
//   collapse previous shadows -> quiesce -> serialize POSIX objects (each
//   exactly once) -> system shadow -> resume -> asynchronous flush ->
//   backend commit -> release externally-synchronized messages.
//
// Stop time covers quiesce through resume; everything after overlaps
// application execution. The pipeline runs over a scope: the whole group,
// or the one region sls_memckpt names, which skips the group-only stages.
// The flush/commit half talks to a pluggable CheckpointDestination (store or
// replica), so local checkpoints and the warm standby share one engine.
#ifndef SRC_CORE_SLS_H_
#define SRC_CORE_SLS_H_

#include <memory>
#include <string>
#include <vector>

#include "src/base/result.h"
#include "src/base/sim_context.h"
#include "src/core/backend.h"
#include "src/core/consistency_group.h"
#include "src/core/serialize.h"
#include "src/fs/aurora_fs.h"
#include "src/objstore/object_store.h"
#include "src/objstore/segment_gc.h"
#include "src/posix/kernel.h"

namespace aurora {

struct CheckpointResult {
  uint64_t epoch = 0;          // backend epoch this checkpoint committed as
  // Graceful degradation: the flush/commit exhausted its I/O retries and this
  // epoch was abandoned. The application keeps running, the previous durable
  // epoch (durable_at) stays restorable, and the dirty pages re-flush with
  // the next checkpoint.
  bool aborted = false;
  SimDuration stop_time = 0;   // application pause
  SimDuration quiesce_time = 0;
  SimDuration os_serialize_time = 0;  // Table 7's "OS state" row
  SimDuration shadow_time = 0;        // Table 7's "Memory" row (COW arming)
  SimTime durable_at = 0;      // simulated time the checkpoint became durable
  uint64_t pages_flushed = 0;
  uint64_t bytes_flushed = 0;
  SerializeStats os_state;
};

struct RestoreResult {
  ConsistencyGroup* group = nullptr;
  uint64_t epoch = 0;
  SimDuration restore_time = 0;
};

// State threaded through the checkpoint pipeline stages. A checkpoint covers
// a scope: the whole group, or the one region sls_memckpt names.
struct CheckpointContext {
  ConsistencyGroup* group = nullptr;
  CheckpointDestination* backend = nullptr;
  std::string name;
  CheckpointMode mode = CheckpointMode::kFull;
  // The region scope's object; null when the checkpoint covers the group.
  std::shared_ptr<VmObject> region;
  bool whole_group() const { return region == nullptr; }
  std::vector<VmMap*> maps;
  std::vector<uint8_t> manifest;
  std::vector<ShadowPair> pairs;  // shadows frozen by this checkpoint
  SimTime begin = 0;              // pipeline entry (epoch-overlap bookkeeping)
  SimTime stop_begin = 0;         // stop start; stop = resume - stop_begin
  bool quiesced = false;          // stop clock is running (guards abort paths)
  SimTime durable = 0;            // folds each stage's completion time
  CheckpointResult result;
};

// State threaded through the restore pipeline stages. Every restore runs the
// same stages over one of two sources, which supplies the epoch, the
// manifest and the page resolver; the rebind stage sets the group's
// checkpoint bookkeeping from the source's kind.
struct RestoreContext {
  enum class Source {
    kBackend,   // a backend at an epoch: the store, a replica or a standby
    kSnapshot,  // the group's in-memory snapshot (rollback, no backend reads)
  };
  Source source = Source::kBackend;
  std::string group_name;
  // kBackend: the backend, the epoch asked for (0 = newest) and the mode.
  CheckpointBackend* backend = nullptr;
  uint64_t epoch = 0;
  RestoreMode mode = RestoreMode::kFull;
  ConsistencyGroup* old_group = nullptr;
  std::vector<uint8_t> manifest;
  uint64_t manifest_epoch = 0;
  Oid manifest_oid;
  MemoryResolverFn resolve;
  // Completion of an eager backend restore's reads; the restore ends there.
  std::shared_ptr<SimTime> stream_done;
  RestoredGroup restored;
  RestoreResult result;
};

class Sls {
 public:
  Sls(SimContext* sim, Kernel* kernel, ObjectStore* store, AuroraFs* fs);
  ~Sls();

  // --- Consistency groups (sls attach / detach / ps) -----------------------
  [[nodiscard]] Result<ConsistencyGroup*> CreateGroup(const std::string& name);
  ConsistencyGroup* FindGroup(const std::string& name);
  [[nodiscard]] Status Attach(ConsistencyGroup* group, Process* proc);
  [[nodiscard]] Status Detach(Process* proc);  // makes the process ephemeral-like: leaves the group
  std::vector<ConsistencyGroup*> Groups();

  // --- Checkpoint backends -------------------------------------------------
  // Registers a backend (a restore source, or a destination that is also
  // one) under backend->name(); returns the raw pointer for convenience.
  // The "store" backend is registered by the constructor.
  CheckpointBackend* RegisterBackend(std::unique_ptr<CheckpointBackend> backend);
  CheckpointBackend* FindBackend(const std::string& name);
  CheckpointDestination* store_backend() { return store_backend_; }
  // Routes the group's checkpoints through `backend_name`. Only legal while
  // the group has no checkpoint state (fresh or just restored through the
  // same backend) — mixing destinations mid-chain would strand pages.
  // kNotSupported when the backend is a restore source only.
  [[nodiscard]] Status SetBackend(ConsistencyGroup* group, const std::string& backend_name);

  // --- Checkpoint / restore ------------------------------------------------
  // A full checkpoint begins only when fewer than
  // `group->max_in_flight_epochs` earlier flushes (full or sls_memckpt) are
  // still in flight; otherwise the clock first advances to the earliest
  // one's durability.
  [[nodiscard]] Result<CheckpointResult> Checkpoint(ConsistencyGroup* group,
                                                    const std::string& name = "",
                                                    CheckpointMode mode = CheckpointMode::kFull);

  // Drives the group's periodic transparent persistence (the default 100x
  // per second) on the simulation's event queue: a checkpoint fires every
  // `group->period`, with at most `group->max_in_flight_epochs` flushes in
  // flight (1 = never before the previous flush completed), until
  // StopPeriodicCheckpoints (or process teardown). This is what `sls attach`
  // arms in the paper.
  void StartPeriodicCheckpoints(ConsistencyGroup* group);
  void StopPeriodicCheckpoints(ConsistencyGroup* group);
  // epoch 0 = newest checkpoint with a manifest for this group. `backend`
  // selects the restore source; null = the store backend. A destination
  // other than the store becomes the group's destination when restored
  // from; a source-only backend (a standby, promoted or fed by sls recv)
  // leaves the destination as it was. A destination that names objects
  // differently from the source gets the whole image under fresh names at
  // the next checkpoint, and a kLazy restore into such a group is refused
  // (kNotSupported).
  [[nodiscard]] Result<RestoreResult> Restore(const std::string& group_name, uint64_t epoch = 0,
                                              RestoreMode mode = RestoreMode::kFull,
                                              CheckpointBackend* backend = nullptr);
  // Rolls the group back to its newest checkpoint of either kind, from the
  // in-memory snapshot and without backend reads. The store keeps what it
  // holds, and memory-only epochs still flush with the next full checkpoint.
  // kNotFound when the group has no in-memory checkpoint.
  [[nodiscard]] Result<RestoreResult> RestoreFromMemory(const std::string& group_name);

  // sls suspend / resume: checkpoint, then tear the processes down and free
  // the group's in-memory checkpoint; restore later (possibly after reboot).
  // When the checkpoint aborts (the device gave up after its retries),
  // Suspend returns kIoError and leaves the group running, its in-memory
  // checkpoint and owed shadows intact; a later checkpoint or suspend
  // flushes them.
  [[nodiscard]] Result<CheckpointResult> Suspend(ConsistencyGroup* group);
  [[nodiscard]] Result<RestoreResult> ResumeSuspended(const std::string& group_name,
                                                      RestoreMode mode = RestoreMode::kFull);

  // --- Aurora API (Table 3) ------------------------------------------------
  // sls_memckpt: atomic asynchronous checkpoint of the region containing
  // `addr`, without whole-application serialization: the checkpoint
  // pipeline over that one region, in the group's in-flight window. When the
  // flush or the commit fails (the device gave up after its retries), the
  // call returns that error, and the region's frozen pages stay owed to the
  // group: they flush with its next full checkpoint, as an aborted epoch's
  // do.
  [[nodiscard]] Result<CheckpointResult> MemCheckpoint(Process* proc, uint64_t addr);
  // sls_journal: non-COW synchronous journal objects.
  [[nodiscard]] Result<Oid> JournalCreate(uint64_t capacity_bytes);
  [[nodiscard]] Status JournalAppend(Oid journal, const void* data, uint64_t len);
  [[nodiscard]] Status JournalReset(Oid journal);
  [[nodiscard]] Result<std::vector<std::vector<uint8_t>>> JournalReplay(Oid journal);
  // sls_barrier: wait until the group's last checkpoint is durable.
  [[nodiscard]] Status Barrier(ConsistencyGroup* group);
  // sls_mctl: include/exclude a memory region from checkpoints.
  [[nodiscard]] Status MemCtl(Process* proc, uint64_t addr, bool exclude);
  // sls_fdctl: per-descriptor external synchrony control.
  [[nodiscard]] Status FdCtl(Process* proc, int fd, bool disable_external_sync);

  // --- Memory overcommitment (paper section 6) -----------------------------
  // Evicts up to `target_pages` resident pages whose contents are already
  // durable in the backend (clean pages first, per the paging policy). The
  // evicted objects get backend pagers, so later faults stream the pages
  // back in — the swap path and the checkpoint path are one.
  struct EvictStats {
    uint64_t clean_evicted = 0;
    uint64_t objects_paged = 0;
  };
  [[nodiscard]] Result<EvictStats> EvictPages(ConsistencyGroup* group, uint64_t target_pages);
  // Enables the unified swap path: checkpoint flushes drop pages from memory
  // once durable (see ConsistencyGroup::evict_after_flush).
  void SetMemoryPressure(ConsistencyGroup* group, bool enabled) {
    group->evict_after_flush = enabled;
  }

  // --- External synchrony --------------------------------------------------
  // Sends on group-external sockets buffer here until the covering
  // checkpoint commits (unless disabled for the socket or the group).
  [[nodiscard]] Result<uint64_t> SendExternal(ConsistencyGroup* group,
                                              const std::shared_ptr<Socket>& socket,
                                              const void* data, uint64_t len);

  // --- Retention + segment GC ----------------------------------------------
  // Arms automatic epoch pruning for the group: after every durable full
  // checkpoint through the store backend, epochs outside the policy are
  // dropped from the store directory and (unless SetAutoGc(false)) a
  // compaction pass reclaims the dead space.
  void SetRetentionPolicy(ConsistencyGroup* group, const RetentionPolicy& policy) {
    group->retention = policy;
  }
  void SetAutoGc(bool enabled) { gc_auto_ = enabled; }
  // The store compactor (created on first use). For the CLI, tests, and
  // manual `sls gc` passes; null only if allocation ever fails.
  SegmentGc* gc();

  // --- Introspection -------------------------------------------------------
  std::vector<CheckpointInfo> ListCheckpoints() const { return store_->ListCheckpoints(); }

  SimContext* sim() { return sim_; }
  Kernel* kernel() { return kernel_; }
  ObjectStore* store() { return store_; }
  AuroraFs* fs() { return fs_; }

 private:
  // The checkpoint pipeline: runs the stages below, in order, over the
  // scope `ctx` names. Each takes the shared context; fallible stages return
  // Status and abort the pipeline. The region scope runs CkptHandoff in
  // place of the group-only stages (collapse through resume) and skips the
  // release and retention epilogue.
  [[nodiscard]] Result<CheckpointResult> RunCheckpoint(CheckpointContext* ctx);
  void CkptCollapse(CheckpointContext* ctx);
  // Out-of-window warm pass: serializes the OS state before the stop begins
  // so the in-window pass mostly assembles cached blobs. Failures are
  // counted, not fatal — the in-window pass simply runs with a cold cache.
  void CkptPreSerialize(CheckpointContext* ctx);
  void CkptQuiesce(CheckpointContext* ctx);
  [[nodiscard]] Status CkptSerialize(CheckpointContext* ctx);
  // sls_memckpt's syscall entry and flusher handoff, which open its stop.
  void CkptHandoff(CheckpointContext* ctx);
  void CkptShadow(CheckpointContext* ctx);
  void CkptResume(CheckpointContext* ctx);
  void CkptRetainInMemory(CheckpointContext* ctx);  // kMemoryOnly epilogue
  [[nodiscard]] Status CkptAsyncFlush(CheckpointContext* ctx);
  [[nodiscard]] Status CkptCommit(CheckpointContext* ctx);
  void CkptRelease(CheckpointContext* ctx);
  // Degrade-don't-die epilogue: abandons the in-flight epoch after an I/O
  // failure, re-queueing its frozen shadows for the next checkpoint.
  void CkptAbortEpoch(CheckpointContext* ctx, const Status& cause);

  // The restore pipeline: runs the stages below, in order, over the source
  // `ctx` names. Fallible stages run before teardown where possible so early
  // failures leave the old incarnation untouched.
  [[nodiscard]] Result<RestoreResult> RunRestore(RestoreContext* ctx);
  [[nodiscard]] Status RestoreLoadManifest(RestoreContext* ctx);
  [[nodiscard]] Status RestoreBuildResolver(RestoreContext* ctx);
  void RestoreTeardownOld(RestoreContext* ctx);
  [[nodiscard]] Status RestoreNamespaceStage(RestoreContext* ctx);
  [[nodiscard]] Status RestoreMaterialize(RestoreContext* ctx);
  [[nodiscard]] Status RestoreRebindGroup(RestoreContext* ctx);
  // The destination a backend restore leaves the group with: the source,
  // when it is a destination other than the store, else the group's own.
  CheckpointDestination* RestoredDestination(const RestoreContext* ctx);
  // The rebind stage's bookkeeping, one per source kind.
  void RebindToBackend(RestoreContext* ctx, ConsistencyGroup* group);
  void RebindToSnapshot(ConsistencyGroup* group);
  // The source's object names mean nothing to the group's destination: the
  // image is named afresh at the next checkpoint.
  void RebindUnderFreshNames(ConsistencyGroup* group);

  CheckpointDestination* GroupBackend(ConsistencyGroup* group) {
    return group->backend != nullptr ? group->backend : store_backend_;
  }
  Oid EnsureMemoryOid(CheckpointDestination* backend, VmObject* obj);
  std::vector<VmMap*> GroupMaps(ConsistencyGroup* group);
  // Repoints shm segments from a shadowed top to its new shadow.
  ShadowRebindFn RebindShm();
  // Walks entry + shm chains, flushing never-persisted lower links.
  [[nodiscard]] Result<SimTime> FlushUnpersistedChains(CheckpointContext* ctx);
  void ReleasePendingSends(ConsistencyGroup* group);
  // Wraps every restored top object in a live shadow so the next checkpoint
  // is incremental rather than a full rewrite. Returns the (restored top,
  // new shadow) pairs.
  std::vector<ShadowPair> WrapRestoredTops(ConsistencyGroup* group);
  // Post-commit epilogue: prunes epochs outside the group's retention policy
  // and, when auto-GC is on, runs one compaction pass over the freed space.
  void ApplyRetention(CheckpointContext* ctx);

  SimContext* sim_;
  Kernel* kernel_;
  ObjectStore* store_;
  AuroraFs* fs_;

  std::vector<std::unique_ptr<CheckpointBackend>> backends_;
  CheckpointDestination* store_backend_ = nullptr;

  uint64_t next_group_id_ = 1;
  std::vector<std::unique_ptr<ConsistencyGroup>> groups_;

  // Expires with this Sls, so the kernel's reap notification never reaches
  // a destroyed one.
  std::shared_ptr<bool> alive_ = std::make_shared<bool>(true);

  // One stderr line the first time an epoch aborts; counters track the rest.
  bool abort_logged_ = false;
  // Store compactor, created lazily by gc(); auto-GC runs it after each
  // retention prune unless disabled.
  std::unique_ptr<SegmentGc> gc_;
  bool gc_auto_ = true;

  // The in-flight window (group->max_in_flight_epochs), shared by
  // RunCheckpoint, CkptCommit and the periodic scheduler: forgets flushes
  // durable by now, and returns now when the window has room for another
  // flush, else when its earliest flush becomes durable.
  SimTime PruneInFlight(ConsistencyGroup* group);
  void ScheduleNextPeriodic(ConsistencyGroup* group, std::shared_ptr<bool> alive);
};

}  // namespace aurora

#endif  // SRC_CORE_SLS_H_
