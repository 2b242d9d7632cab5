#include "src/core/sls.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <set>

namespace aurora {

namespace {
// sls_memckpt syscall entry, checkpoint-record allocation and flusher
// handoff: the fixed cost of an atomic-region checkpoint beyond shadowing
// (calibrated to Table 5's atomic column intercept).
constexpr SimDuration kMemCkptHandoff = 72 * kMicrosecond;
}  // namespace

Sls::Sls(SimContext* sim, Kernel* kernel, ObjectStore* store, AuroraFs* fs)
    : sim_(sim), kernel_(kernel), store_(store), fs_(fs) {
  kernel_->set_rootfs(fs_);
  // A process the kernel reaps on its own leaves its group, whose next
  // checkpoint would otherwise serialize a destroyed process.
  kernel_->set_on_reap([this, alive = std::weak_ptr<bool>(alive_)](Process* proc) {
    if (!alive.expired()) {
      AURORA_IGNORE_STATUS(Detach(proc), "a process in no group has no group to leave");
    }
  });
  auto store_backend = std::make_unique<StoreBackend>(sim_, store_, fs_);
  store_backend_ = store_backend.get();
  RegisterBackend(std::move(store_backend));
  // The machine's flush width, fixed when it was built.
  sim_->metrics.gauge("flush.lanes").Set(static_cast<int64_t>(sim_->FlushLanes()));
}

Sls::~Sls() = default;

CheckpointBackend* Sls::RegisterBackend(std::unique_ptr<CheckpointBackend> backend) {
  backends_.push_back(std::move(backend));
  return backends_.back().get();
}

CheckpointBackend* Sls::FindBackend(const std::string& name) {
  for (auto& b : backends_) {
    if (b->name() == name) {
      return b.get();
    }
  }
  return nullptr;
}

Status Sls::SetBackend(ConsistencyGroup* group, const std::string& backend_name) {
  CheckpointBackend* source = FindBackend(backend_name);
  if (source == nullptr) {
    return Status::Error(Errc::kNotFound, "no such backend: " + backend_name);
  }
  auto* backend = dynamic_cast<CheckpointDestination*>(source);
  if (backend == nullptr) {
    return Status::Error(Errc::kNotSupported,
                         "backend " + backend_name + " is a restore source only");
  }
  if (GroupBackend(group) == backend) {
    return Status::Ok();
  }
  if (!group->pending_collapse.empty() || !group->unflushed_frozen.empty() ||
      !group->persisted_oids.empty()) {
    return Status::Error(Errc::kBadState,
                         "group has checkpoint state; backends switch on fresh groups only");
  }
  group->backend = backend;
  return Status::Ok();
}

Result<ConsistencyGroup*> Sls::CreateGroup(const std::string& name) {
  if (FindGroup(name) != nullptr) {
    return Status::Error(Errc::kExists, "group exists: " + name);
  }
  groups_.push_back(std::make_unique<ConsistencyGroup>(next_group_id_++, name));
  return groups_.back().get();
}

ConsistencyGroup* Sls::FindGroup(const std::string& name) {
  for (auto& g : groups_) {
    if (g->name() == name) {
      return g.get();
    }
  }
  return nullptr;
}

Status Sls::Attach(ConsistencyGroup* group, Process* proc) {
  for (Process* p : group->processes) {
    if (p == proc) {
      return Status::Error(Errc::kExists, "process already attached");
    }
  }
  group->processes.push_back(proc);
  return Status::Ok();
}

Status Sls::Detach(Process* proc) {
  for (auto& g : groups_) {
    auto& procs = g->processes;
    auto it = std::find(procs.begin(), procs.end(), proc);
    if (it != procs.end()) {
      procs.erase(it);
      return Status::Ok();
    }
  }
  return Status::Error(Errc::kNotFound, "process not attached to any group");
}

std::vector<ConsistencyGroup*> Sls::Groups() {
  std::vector<ConsistencyGroup*> out;
  out.reserve(groups_.size());
  for (auto& g : groups_) {
    out.push_back(g.get());
  }
  return out;
}

Oid Sls::EnsureMemoryOid(CheckpointDestination* backend, VmObject* obj) {
  if (obj->sls_oid() != 0) {
    return Oid{obj->sls_oid()};
  }
  auto oid = backend->CreateMemoryObject(obj->size());
  if (!oid.ok()) {
    return kInvalidOid;
  }
  obj->set_sls_oid(oid->value);
  return *oid;
}

std::vector<VmMap*> Sls::GroupMaps(ConsistencyGroup* group) {
  std::vector<VmMap*> maps;
  maps.reserve(group->processes.size());
  for (Process* proc : group->processes) {
    maps.push_back(&proc->vm());
  }
  return maps;
}

ShadowRebindFn Sls::RebindShm() {
  return [this](VmObject* old_top, std::shared_ptr<VmObject> new_top) {
    kernel_->RebindShmObjects(old_top, new_top);
  };
}

Result<Sls::EvictStats> Sls::EvictPages(ConsistencyGroup* group, uint64_t target_pages) {
  EvictStats stats;
  CheckpointDestination* backend = GroupBackend(group);
  // Paging policy: madvise(DONTNEED) regions first, normal ones next, and
  // WILLNEED regions only under continued pressure (paper section 6).
  for (int pass_hint : {kMadvDontneed, kMadvNormal, kMadvWillneed}) {
  for (Process* proc : group->processes) {
    for (auto& [start, entry] : proc->vm().entries()) {
      if (stats.clean_evicted >= target_pages) {
        return stats;
      }
      if (entry.object->type() != VmObjectType::kAnonymous ||
          entry.madvise_hint != pass_hint) {
        continue;
      }
      // Walk to the bottom of the chain: the coldest, fully-persisted layer.
      std::shared_ptr<VmObject> base = entry.object;
      while (base->parent_ref() != nullptr) {
        base = base->parent_ref();
      }
      if (base->type() != VmObjectType::kAnonymous || base->sls_oid() == 0 ||
          group->persisted_oids.count(base->sls_oid()) == 0 || base.get() == entry.object.get()) {
        continue;  // not durable yet, or it is the live top (dirty)
      }
      if (!backend->InstallPager(base.get())) {
        continue;  // backend cannot page this object; keep it resident
      }
      uint64_t dropped = base->DropResidentPages();
      sim_->clock.Advance(sim_->cost.pte_protect * dropped);  // pagedaemon PTE work
      stats.clean_evicted += dropped;
      if (dropped > 0) {
        stats.objects_paged++;
      }
    }
  }
  }
  return stats;
}

Result<SimTime> Sls::FlushUnpersistedChains(CheckpointContext* ctx) {
  ConsistencyGroup* group = ctx->group;
  uint64_t* pages = &ctx->result.pages_flushed;
  uint64_t* bytes = &ctx->result.bytes_flushed;
  SimTime done = sim_->clock.now();
  std::set<const VmObject*> visited;
  auto flush_chain = [&](const std::shared_ptr<VmObject>& top) -> Status {
    std::shared_ptr<VmObject> obj = top;
    bool is_top = true;
    while (obj != nullptr && obj->type() == VmObjectType::kAnonymous) {
      if (!visited.insert(obj.get()).second) {
        break;
      }
      // The live top is the *next* checkpoint's dirty set; skip it. Lower
      // links flush once, the first time a checkpoint reaches them.
      if (!is_top && obj->sls_oid() != 0 &&
          group->persisted_oids.count(obj->sls_oid()) == 0) {
        Oid oid{obj->sls_oid()};
        auto t = ctx->backend->WriteObjectPages(oid, obj.get(), pages, bytes);
        if (!t.ok()) {
          return t.status();
        }
        done = std::max(done, *t);
        group->persisted_oids.insert(oid.value);
        group->snapshot[oid.value] = obj;
      }
      is_top = false;
      obj = obj->parent_ref();
    }
    return Status::Ok();
  };
  for (Process* proc : group->processes) {
    for (auto& [start, entry] : proc->vm().entries()) {
      if (entry.object->type() == VmObjectType::kAnonymous &&
          !entry.exclude_from_checkpoint) {
        AURORA_RETURN_IF_ERROR(flush_chain(entry.object));
      }
    }
    for (const auto& slot : proc->fds().slots()) {
      if (slot.desc != nullptr && slot.desc->object != nullptr &&
          slot.desc->object->type() == FileType::kShm) {
        auto* shm = static_cast<SharedMemory*>(slot.desc->object.get());
        if (shm->object != nullptr) {
          AURORA_RETURN_IF_ERROR(flush_chain(shm->object));
        }
      }
    }
  }
  return done;
}

// --- Checkpoint pipeline stages ---------------------------------------------

void Sls::CkptCollapse(CheckpointContext* ctx) {
  // Eagerly collapse the shadows flushed by the previous checkpoint (paper
  // section 6: chains capped at two). After a collapse the in-memory
  // snapshot for that region is the merged base. The flushed data was staged
  // at flush time — only its durability may still lie in the future — so
  // collapsing under an in-flight flush is safe. The direction is always
  // Aurora's reversed collapse; bench_ablations compares the classic one by
  // calling CollapseAfterFlush itself.
  ConsistencyGroup* group = ctx->group;
  size_t collapse_span = sim_->tracer.Begin("ckpt.collapse");
  for (const ShadowPair& pair : group->pending_collapse) {
    uint64_t oid = pair.frozen->sls_oid();
    if (CollapseAfterFlush(pair, ctx->maps, /*reversed=*/true, sim_)) {
      std::shared_ptr<VmObject> base = pair.live->parent_ref();
      group->snapshot[oid] = base;
      if (group->evict_after_flush && base != nullptr && base->parent() == nullptr &&
          group->persisted_oids.count(base->sls_oid()) > 0 &&
          ctx->backend->InstallPager(base.get())) {
        // Memory overcommitment: the merged base equals the backend's state
        // at the flushed epoch, so its frames can be dropped and demand-paged
        // back — swapping and checkpointing share one data path (paper 6).
        uint64_t dropped = base->DropResidentPages();
        sim_->clock.Advance(sim_->cost.pte_protect * dropped);
      }
    }
  }
  group->pending_collapse.clear();
  sim_->tracer.End(collapse_span);
}

void Sls::CkptPreSerialize(CheckpointContext* ctx) {
  // Warm the serialization cache while the application still runs: every
  // entity serialized at fresh cost here is a cheap block copy inside the
  // stopped window. The manifest built here is discarded (its header names
  // an epoch and namespace OID that do not exist yet); only the cache
  // survives into CkptSerialize.
  size_t span = sim_->tracer.Begin("ckpt.preserialize");
  SerializeCache& cache = ctx->group->serialize_cache;
  cache.pass++;
  auto ensure = [this, ctx](VmObject* obj) { return EnsureMemoryOid(ctx->backend, obj); };
  Result<std::vector<uint8_t>> warm =
      SerializeOsState(sim_, *ctx->group, ctx->backend->current_epoch(), kInvalidOid, ensure,
                       nullptr, &cache, SerializeMode::kWarmCache);
  if (!warm.ok()) {
    // Not fatal: the in-window pass simply runs against a colder cache.
    sim_->metrics.counter("ckpt.preserialize_failures").Add(1);
  }
  sim_->tracer.End(span);
}

void Sls::CkptQuiesce(CheckpointContext* ctx) {
  // Quiesce every thread at the kernel boundary. Stop time starts here.
  ctx->stop_begin = sim_->clock.now();
  ctx->quiesced = true;
  size_t quiesce_span = sim_->tracer.Begin("ckpt.quiesce");
  SimStopwatch quiesce_watch(sim_->clock);
  kernel_->Quiesce(ctx->group->processes);
  ctx->result.quiesce_time = quiesce_watch.Elapsed();
  sim_->tracer.End(quiesce_span);
}

Status Sls::CkptSerialize(CheckpointContext* ctx) {
  // Persist the file system namespace, then serialize the POSIX object
  // graph exactly once per object.
  size_t serialize_span = sim_->tracer.Begin("ckpt.serialize");
  SimStopwatch serialize_watch(sim_->clock);
  Oid ns_oid = kInvalidOid;
  if (ctx->mode == CheckpointMode::kFull) {
    AURORA_ASSIGN_OR_RETURN(ns_oid, ctx->backend->PersistNamespace(ctx->group->last_namespace));
    ctx->group->last_namespace = ns_oid;
  }
  auto ensure = [this, ctx](VmObject* obj) { return EnsureMemoryOid(ctx->backend, obj); };
  // In-window pass: assemble from the blobs CkptPreSerialize warmed; only
  // entities mutated since then (quiesce state changes, drained AIO) pay
  // fresh gather cost inside the stop.
  SerializeCache& cache = ctx->group->serialize_cache;
  AURORA_ASSIGN_OR_RETURN(ctx->manifest,
                          SerializeOsState(sim_, *ctx->group, ctx->backend->current_epoch(),
                                           ns_oid, ensure, &ctx->result.os_state, &cache,
                                           SerializeMode::kAssemble));
  cache.Prune();
  ctx->result.os_serialize_time = serialize_watch.Elapsed();
  sim_->tracer.End(serialize_span);
  return Status::Ok();
}

void Sls::CkptHandoff(CheckpointContext* ctx) {
  ctx->stop_begin = sim_->clock.now();
  sim_->clock.Advance(kMemCkptHandoff);
  EnsureMemoryOid(ctx->backend, ctx->region.get());
}

void Sls::CkptShadow(CheckpointContext* ctx) {
  // System shadowing across the whole group, or of the one region.
  size_t shadow_span = sim_->tracer.Begin("ckpt.shadow");
  SimStopwatch shadow_watch(sim_->clock);
  if (!ctx->whole_group()) {
    ctx->pairs.push_back(ShadowOneObject(ctx->region, ctx->maps, sim_, RebindShm()));
  } else {
    SystemShadowStats shadow_stats;
    ctx->pairs = CreateSystemShadows(ctx->maps, sim_, RebindShm(), &shadow_stats);
    // PTEs downgraded inside this stop — with dirty-driven protection this
    // scales with pages written since the last epoch, not image size.
    sim_->metrics.counter("ckpt.ptes_reprotected").Add(shadow_stats.ptes_invalidated);
  }
  for (const ShadowPair& pair : ctx->pairs) {
    ctx->group->snapshot[pair.frozen->sls_oid()] = pair.frozen;
  }
  ctx->result.shadow_time = shadow_watch.Elapsed();
  sim_->tracer.End(shadow_span);
}

void Sls::CkptResume(CheckpointContext* ctx) {
  // Resume; the application runs concurrently with the flush.
  ConsistencyGroup* group = ctx->group;
  kernel_->Resume(group->processes);
  ctx->result.stop_time = sim_->clock.now() - ctx->stop_begin;
  group->stop_times.Record(ctx->result.stop_time);
  group->checkpoints_taken++;
  group->last_manifest_blob = ctx->manifest;

  sim_->metrics.counter("ckpt.checkpoints").Add();
  sim_->metrics.histogram("ckpt.stop_time").Record(ctx->result.stop_time);
  sim_->metrics.histogram("ckpt.quiesce").Record(ctx->result.quiesce_time);
  sim_->metrics.histogram("ckpt.serialize").Record(ctx->result.os_serialize_time);
  sim_->metrics.histogram("ckpt.shadow").Record(ctx->result.shadow_time);
}

void Sls::CkptRetainInMemory(CheckpointContext* ctx) {
  // Not durable: these frozen shadows hold pages the backend has not seen.
  // They stay un-collapsed until a full checkpoint flushes them.
  for (ShadowPair& pair : ctx->pairs) {
    ctx->group->unflushed_frozen.push_back(std::move(pair));
  }
  sim_->metrics.counter("ckpt.memory_only").Add();
  ctx->result.durable_at = sim_->clock.now();
  ctx->group->last_durable = ctx->result.durable_at;
}

Status Sls::CkptAsyncFlush(CheckpointContext* ctx) {
  // Frozen shadows stream their dirty pages into their region objects. A
  // group checkpoint first flushes the shadows memory-only checkpoints left
  // behind (oldest data), then its own, then chain links never persisted
  // (once) and the file system; a region checkpoint flushes its one shadow.
  ConsistencyGroup* group = ctx->group;
  size_t flush_span = sim_->tracer.Begin("ckpt.flush");
  ctx->durable = sim_->clock.now();
  auto flush = [this, ctx, group](const ShadowPair& pair) -> Status {
    Oid oid{pair.frozen->sls_oid()};
    if (!oid.valid()) {
      return Status::Ok();  // excluded region
    }
    AURORA_ASSIGN_OR_RETURN(SimTime t,
                            ctx->backend->WriteObjectPages(oid, pair.frozen.get(),
                                                           &ctx->result.pages_flushed,
                                                           &ctx->result.bytes_flushed));
    ctx->durable = std::max(ctx->durable, t);
    group->persisted_oids.insert(oid.value);
    return Status::Ok();
  };
  if (ctx->whole_group()) {
    for (const ShadowPair& pair : group->unflushed_frozen) {
      AURORA_RETURN_IF_ERROR(flush(pair));
    }
  }
  for (const ShadowPair& pair : ctx->pairs) {
    AURORA_RETURN_IF_ERROR(flush(pair));
  }
  if (ctx->whole_group()) {
    AURORA_ASSIGN_OR_RETURN(SimTime chains_done, FlushUnpersistedChains(ctx));
    ctx->durable = std::max(ctx->durable, chains_done);
    // File system dirty data obeys checkpoint consistency: it flushes with
    // the checkpoint, which is why fsync can be a no-op.
    AURORA_ASSIGN_OR_RETURN(SimTime fs_done, ctx->backend->FlushFilesystem());
    ctx->durable = std::max(ctx->durable, fs_done);
  }
  // The flush phase ends when its last asynchronous write lands, which is in
  // the simulated future relative to now (the application already resumed).
  sim_->tracer.EndAt(flush_span, ctx->durable);
  return Status::Ok();
}

Status Sls::CkptCommit(CheckpointContext* ctx) {
  // A region checkpoint has no manifest: its commit composes with the
  // group's newest full checkpoint at restore, and the shadows memory-only
  // checkpoints left behind stay owed to the next full one.
  ConsistencyGroup* group = ctx->group;
  size_t commit_span = sim_->tracer.Begin("ckpt.commit");
  AURORA_ASSIGN_OR_RETURN(
      CheckpointDestination::CommitInfo commit,
      ctx->backend->CommitEpoch(ctx->name, ctx->manifest, group->last_manifest));
  ctx->durable = std::max(ctx->durable, commit.durable_at);
  sim_->tracer.EndAt(commit_span, commit.durable_at);

  if (ctx->whole_group()) {
    group->last_manifest = commit.manifest_oid;
    group->last_manifest_epoch = commit.epoch;
    // Collapse order matters: oldest (deepest) shadows first.
    group->pending_collapse = std::move(group->unflushed_frozen);
    group->unflushed_frozen.clear();
  } else if (group->last_manifest.valid()) {
    // The group's manifest stays live, so this epoch restores the group
    // with the region's new bytes.
    group->last_manifest_epoch = commit.epoch;
  }
  for (ShadowPair& pair : ctx->pairs) {
    group->pending_collapse.push_back(std::move(pair));
  }
  group->bytes_flushed_total += ctx->result.bytes_flushed;
  ctx->result.epoch = commit.epoch;
  ctx->result.durable_at = ctx->durable;
  group->last_durable = std::max(group->last_durable, ctx->durable);

  // Epoch-overlap bookkeeping for the in-flight window and benches.
  SimTime now = sim_->clock.now();
  auto& inflight = group->inflight_durable;
  PruneInFlight(group);
  if (ctx->durable > now) {
    inflight.push_back(ctx->durable);
  }
  // Pathological manual-checkpoint loops can outrun the time-based pruning
  // above; the ring cap bounds both books regardless.
  if (inflight.size() > ConsistencyGroup::kCkptHistoryCap) {
    inflight.erase(inflight.begin(),
                   inflight.end() - static_cast<long>(ConsistencyGroup::kCkptHistoryCap));
  }
  group->ckpt_history.push_back({ctx->begin, ctx->durable, commit.epoch});
  while (group->ckpt_history.size() > ConsistencyGroup::kCkptHistoryCap) {
    group->ckpt_history.pop_front();
  }

  sim_->metrics.counter("ckpt.pages_flushed").Add(ctx->result.pages_flushed);
  sim_->metrics.counter("ckpt.bytes_flushed").Add(ctx->result.bytes_flushed);
  // Wall time from resume until the checkpoint is fully durable: how long
  // held messages and the next periodic checkpoint wait on the device.
  sim_->metrics.histogram("ckpt.durability_lag").Record(ctx->durable - now);
  return Status::Ok();
}

void Sls::CkptRelease(CheckpointContext* ctx) {
  // External synchrony: messages held since the previous checkpoint are
  // released once this one is durable.
  ConsistencyGroup* group = ctx->group;
  size_t release_span = sim_->tracer.Begin("ckpt.release");
  if (!group->pending_sends.empty()) {
    auto sends = std::make_shared<std::vector<ConsistencyGroup::PendingSend>>(
        std::move(group->pending_sends));
    group->pending_sends.clear();
    sim_->events.At(ctx->durable, [this, sends]() {
      for (auto& send : *sends) {
        // The release fires from the event loop, long after the caller of
        // SendExternal returned: there is nowhere to propagate to, so a
        // peer that vanished while the message was held is counted instead.
        Result<uint64_t> sent = send.socket->Send(send.data.data(), send.data.size());
        if (!sent.ok()) {
          sim_->metrics.counter("sls.release_send_failures").Add(1);
        }
      }
    });
  }
  sim_->tracer.EndAt(release_span, ctx->durable);
}

SegmentGc* Sls::gc() {
  if (gc_ == nullptr) {
    gc_ = std::make_unique<SegmentGc>(store_);
  }
  return gc_.get();
}

void Sls::ApplyRetention(CheckpointContext* ctx) {
  // Only store-backed epochs live in the store directory; other backends
  // manage their own history.
  if (ctx->backend != store_backend_ || !ctx->group->retention.enabled()) {
    return;
  }
  const RetentionPolicy& policy = ctx->group->retention;
  std::vector<CheckpointInfo> checkpoints = store_->ListCheckpoints();
  // Cutoff: the smallest epoch the policy still keeps.
  uint64_t cutoff = 0;
  if (checkpoints.size() > policy.keep_epochs) {
    cutoff = checkpoints[checkpoints.size() - policy.keep_epochs].epoch;
  }
  // Never prune any group's newest restorable manifest, nor the epoch a
  // lazily restored image still pages from: clamp the cutoff to the oldest
  // such epoch across every store-backed group.
  for (const auto& group : groups_) {
    if (GroupBackend(group.get()) != store_backend_) {
      continue;
    }
    for (uint64_t pinned : {group->last_manifest_epoch, group->lazy_epoch}) {
      if (pinned > 0) {
        cutoff = std::min(cutoff, pinned);
      }
    }
  }
  if (cutoff > 0) {
    Status pruned = store_->DeleteCheckpointsBefore(cutoff);
    if (pruned.ok()) {
      size_t remaining = store_->ListCheckpoints().size();
      if (checkpoints.size() > remaining) {
        sim_->metrics.counter("ckpt.retention_pruned").Add(checkpoints.size() - remaining);
      }
    } else {
      sim_->metrics.counter("ckpt.retention_prune_failures").Add();
    }
  }
  if (gc_auto_) {
    Result<GcRunReport> run = gc()->Run();
    if (!run.ok()) {
      // Compaction failure never fails the checkpoint: the dead space just
      // waits for the next pass.
      sim_->metrics.counter("gc.run_failures").Add();
    }
  }
}

namespace {
// Failures the pipeline degrades on rather than propagates: the device gave
// up after retries, the network peer is partitioned away, or the read
// returned provably corrupt data. Logic errors (kNotFound, kBadState, ...)
// still propagate — aborting an epoch cannot fix a bug.
bool IsIoFailure(const Status& s) {
  return s.code() == Errc::kIoError || s.code() == Errc::kCorrupt ||
         s.code() == Errc::kUnavailable;
}
}  // namespace

void Sls::CkptAbortEpoch(CheckpointContext* ctx, const Status& cause) {
  ConsistencyGroup* group = ctx->group;
  // The frozen shadows keep their dirty pages; unflushed_frozen is drained
  // only by a successful commit, so appending preserves oldest-first order
  // and nothing is lost — only this epoch's durability. Pages a partial
  // flush already staged COW into the store simply commit with the next
  // successful epoch. Held external sends stay held: external synchrony
  // promises them only after a durable covering checkpoint.
  for (ShadowPair& pair : ctx->pairs) {
    group->unflushed_frozen.push_back(std::move(pair));
  }
  ctx->pairs.clear();
  group->epochs_aborted++;
  sim_->metrics.counter("ckpt.epochs_aborted").Add();
  ctx->result.aborted = true;
  ctx->result.epoch = 0;
  ctx->result.durable_at = group->last_durable;
  if (!abort_logged_) {
    abort_logged_ = true;
    std::fprintf(stderr, "sls: checkpoint epoch aborted (%s); continuing on last durable epoch\n",
                 cause.message().c_str());
  }
}

SimTime Sls::PruneInFlight(ConsistencyGroup* group) {
  SimTime now = sim_->clock.now();
  auto& inflight = group->inflight_durable;
  inflight.erase(std::remove_if(inflight.begin(), inflight.end(),
                                [now](SimTime t) { return t <= now; }),
                 inflight.end());
  if (inflight.empty() || inflight.size() < group->max_in_flight_epochs) {
    return now;
  }
  return *std::min_element(inflight.begin(), inflight.end());
}

Result<CheckpointResult> Sls::Checkpoint(ConsistencyGroup* group, const std::string& name,
                                         CheckpointMode mode) {
  CheckpointContext ctx;
  ctx.group = group;
  ctx.name = name;
  ctx.mode = mode;
  return RunCheckpoint(&ctx);
}

Result<CheckpointResult> Sls::RunCheckpoint(CheckpointContext* ctx) {
  ConsistencyGroup* group = ctx->group;
  if (ctx->mode == CheckpointMode::kFull) {
    // A flushing checkpoint waits for room in the in-flight window before
    // it begins, however it was called: the flush lanes must not run
    // unboundedly ahead of back-to-back callers.
    sim_->clock.AdvanceTo(PruneInFlight(group));
  }
  ctx->backend = GroupBackend(group);
  ctx->maps = GroupMaps(group);
  ctx->begin = sim_->clock.now();
  sim_->tracer.NewScope();

  if (ctx->whole_group()) {
    CkptCollapse(ctx);
    CkptPreSerialize(ctx);
    CkptQuiesce(ctx);
    Status serialized = CkptSerialize(ctx);
    if (!serialized.ok()) {
      // Never leave the group quiesced: even a failed serialize resumes the
      // application. Full CkptResume would clobber the group's manifest blob
      // with the partial manifest, so only the kernel-level resume happens
      // here. The stop clock only reads as stop time if quiesce actually
      // started it; an abort before quiesce must not fabricate a pause.
      kernel_->Resume(group->processes);
      ctx->result.stop_time = ctx->quiesced ? sim_->clock.now() - ctx->stop_begin : 0;
      if (!IsIoFailure(serialized)) {
        return serialized;
      }
      CkptAbortEpoch(ctx, serialized);
      return ctx->result;
    }
    CkptShadow(ctx);
    CkptResume(ctx);
    if (ctx->mode == CheckpointMode::kMemoryOnly) {
      CkptRetainInMemory(ctx);
      return ctx->result;
    }
  } else {
    // The region's owner is the caller, so nothing quiesces: the stop is
    // the handoff and the region's shadow.
    CkptHandoff(ctx);
    CkptShadow(ctx);
    ctx->result.stop_time = sim_->clock.now() - ctx->stop_begin;
    sim_->metrics.counter("ckpt.memckpts").Add();
    sim_->metrics.histogram("ckpt.memckpt_stop").Record(ctx->result.stop_time);
  }
  Status flushed = CkptAsyncFlush(ctx);
  if (flushed.ok()) {
    flushed = CkptCommit(ctx);
  }
  if (!flushed.ok()) {
    if (!IsIoFailure(flushed)) {
      return flushed;
    }
    CkptAbortEpoch(ctx, flushed);
    // sls_memckpt reports the failure to its caller; a group checkpoint
    // degrades and returns the aborted epoch.
    if (!ctx->whole_group()) {
      return flushed;
    }
    return ctx->result;
  }
  if (ctx->whole_group()) {
    CkptRelease(ctx);
  }
  ApplyRetention(ctx);
  return ctx->result;
}

void Sls::StartPeriodicCheckpoints(ConsistencyGroup* group) {
  if (group->periodic != nullptr) {
    return;
  }
  group->periodic = std::make_shared<bool>(true);
  ScheduleNextPeriodic(group, group->periodic);
}

void Sls::StopPeriodicCheckpoints(ConsistencyGroup* group) {
  if (group->periodic != nullptr) {
    *group->periodic = false;
    group->periodic.reset();
  }
}

void Sls::ScheduleNextPeriodic(ConsistencyGroup* group, std::shared_ptr<bool> alive) {
  sim_->events.After(group->period, [this, group, alive]() {
    if (!*alive) {
      return;
    }
    if (group->suspended || group->processes.empty()) {
      // Nothing to checkpoint: the chain ends, and a later
      // StartPeriodicCheckpoints arms a new one.
      StopPeriodicCheckpoints(group);
      return;
    }
    // Backpressure: at most max_in_flight_epochs flushes outstanding (paper
    // section 7 serializes on durability; limit 2 overlaps epoch N+1's
    // serialization with epoch N's flush). Wait out the earliest flush when
    // the window is full, then rearm the period.
    SimTime open_at = PruneInFlight(group);
    if (open_at > sim_->clock.now()) {
      sim_->events.At(open_at, [this, group, alive]() {
        if (*alive) {
          ScheduleNextPeriodic(group, alive);
        }
      });
      return;
    }
    // A periodic checkpoint has no caller to report to; epoch aborts are
    // already counted by CkptAbortEpoch, so what is counted here is the
    // logic-error path (bad state, missing object) that aborting cannot
    // absorb. The timer keeps rescheduling either way — one failed epoch
    // must not silence durability forever.
    Result<CheckpointResult> ckpt = Checkpoint(group);
    if (!ckpt.ok()) {
      sim_->metrics.counter("ckpt.periodic_failures").Add(1);
    }
    ScheduleNextPeriodic(group, alive);
  });
}

void Sls::ReleasePendingSends(ConsistencyGroup* group) {
  for (auto& send : group->pending_sends) {
    Result<uint64_t> sent = send.socket->Send(send.data.data(), send.data.size());
    if (!sent.ok()) {
      sim_->metrics.counter("sls.release_send_failures").Add(1);
    }
  }
  group->pending_sends.clear();
}

Result<uint64_t> Sls::SendExternal(ConsistencyGroup* group,
                                   const std::shared_ptr<Socket>& socket, const void* data,
                                   uint64_t len) {
  if (!group->external_sync || socket->external_sync_disabled) {
    return socket->Send(data, len);
  }
  ConsistencyGroup::PendingSend send;
  send.socket = socket;
  const auto* p = static_cast<const uint8_t*>(data);
  send.data.assign(p, p + len);
  group->pending_sends.push_back(std::move(send));
  return len;
}

std::vector<ShadowPair> Sls::WrapRestoredTops(ConsistencyGroup* group) {
  // One batched shadow pass (one TLB shootdown per address space): the
  // restored tops freeze as checkpointed bases and new empty shadows take
  // the writes, so the first post-restore checkpoint is incremental.
  return CreateSystemShadows(GroupMaps(group), sim_, RebindShm(), nullptr);
}

// --- Restore pipeline stages ------------------------------------------------

Status Sls::RestoreLoadManifest(RestoreContext* ctx) {
  if (ctx->source == RestoreContext::Source::kBackend) {
    AURORA_ASSIGN_OR_RETURN(CheckpointBackend::LoadedManifest loaded,
                            ctx->backend->LoadManifest(ctx->group_name, ctx->epoch));
    ctx->manifest_epoch = loaded.epoch;
    ctx->manifest_oid = loaded.oid;
    ctx->manifest = std::move(loaded.blob);
    return Status::Ok();
  }
  if (ctx->old_group == nullptr || ctx->old_group->last_manifest_blob.empty()) {
    return Status::Error(Errc::kNotFound, "no in-memory checkpoint for " + ctx->group_name);
  }
  ctx->manifest = ctx->old_group->last_manifest_blob;
  // In memory the epoch is the one the manifest records.
  AURORA_ASSIGN_OR_RETURN(RestoredGroup head, PeekManifest(ctx->manifest));
  ctx->manifest_epoch = head.epoch;
  return Status::Ok();
}

Status Sls::RestoreBuildResolver(RestoreContext* ctx) {
  if (ctx->source == RestoreContext::Source::kBackend) {
    if (ctx->mode == RestoreMode::kLazy && !RestoredDestination(ctx)->SharesNames(ctx->backend)) {
      // A lazy image keeps paging from the source, and a destination that
      // names objects differently would only ever get its resident pages.
      return Status::Error(Errc::kNotSupported, "lazy restore from " + ctx->backend->name() +
                                                    " into a group that checkpoints elsewhere");
    }
    if (ctx->mode == RestoreMode::kFull) {
      ctx->stream_done = std::make_shared<SimTime>(sim_->clock.now());
    }
    AURORA_ASSIGN_OR_RETURN(ctx->resolve, ctx->backend->MakeResolver(ctx->manifest_epoch,
                                                                     ctx->mode, ctx->stream_done));
  } else {
    // The frozen objects are the image: they map as they are, whole chains
    // included. The rebind leaves the snapshot map as it is.
    const auto& snapshot = ctx->old_group->snapshot;
    ctx->resolve = [&snapshot](Oid oid, uint64_t size) -> Result<ResolvedMemory> {
      auto it = snapshot.find(oid.value);
      if (it == snapshot.end()) {
        // Region never shadowed by a checkpoint: empty anonymous memory.
        return ResolvedMemory{VmObject::CreateAnonymous(size), true};
      }
      return ResolvedMemory{it->second, true};
    };
  }
  return Status::Ok();
}

void Sls::RestoreTeardownOld(RestoreContext* ctx) {
  // Tear down the previous incarnation (rollback semantics).
  if (ctx->old_group != nullptr) {
    for (Process* proc : ctx->old_group->processes) {
      kernel_->DestroyProcess(proc);
    }
    ctx->old_group->processes.clear();
  }
}

Status Sls::RestoreNamespaceStage(RestoreContext* ctx) {
  // Namespace first so vnode lookups by inode succeed. A rollback in memory
  // keeps the live file system.
  if (ctx->source != RestoreContext::Source::kBackend) {
    return Status::Ok();
  }
  auto head = PeekManifest(ctx->manifest);
  if (head.ok() && head->namespace_oid.valid()) {
    AURORA_RETURN_IF_ERROR(
        ctx->backend->RestoreNamespace(ctx->manifest_epoch, head->namespace_oid));
  }
  return Status::Ok();
}

Status Sls::RestoreMaterialize(RestoreContext* ctx) {
  AURORA_ASSIGN_OR_RETURN(ctx->restored,
                          RestoreOsState(sim_, kernel_, fs_, ctx->manifest, ctx->resolve));
  return Status::Ok();
}

Status Sls::RestoreRebindGroup(RestoreContext* ctx) {
  ConsistencyGroup* group = ctx->old_group;
  if (group == nullptr) {
    AURORA_ASSIGN_OR_RETURN(group, CreateGroup(ctx->group_name));
  }
  group->processes = ctx->restored.processes;
  group->suspended = false;
  group->pending_sends.clear();
  group->inflight_durable.clear();
  // The one place a restore sets checkpoint bookkeeping, by source kind.
  if (ctx->source == RestoreContext::Source::kBackend) {
    RebindToBackend(ctx, group);
  } else {
    RebindToSnapshot(group);
  }
  ctx->result.group = group;
  ctx->result.epoch = ctx->manifest_epoch;
  return Status::Ok();
}

CheckpointDestination* Sls::RestoredDestination(const RestoreContext* ctx) {
  auto* source = dynamic_cast<CheckpointDestination*>(ctx->backend);
  if (source != nullptr && source != store_backend_) {
    return source;
  }
  return ctx->old_group != nullptr ? GroupBackend(ctx->old_group) : store_backend_;
}

void Sls::RebindToBackend(RestoreContext* ctx, ConsistencyGroup* group) {
  // Future checkpoints continue into the destination a destination source
  // names; a source-only backend (a promoted standby) takes none and leaves
  // the group's destination as it was.
  CheckpointDestination* destination = RestoredDestination(ctx);
  if (destination != store_backend_) {
    group->backend = destination;
  }
  group->lazy_epoch =
      ctx->mode == RestoreMode::kLazy && ctx->backend == store_backend_ ? ctx->manifest_epoch : 0;
  if (!destination->SharesNames(ctx->backend)) {
    // The image's object names are the source's (a standby's, fed by a
    // replica link or by sls recv). The restored tops stay live: the first
    // checkpoint freezes each whole under one fresh name, which its later
    // shadows share. A wrap here would name each top apart from its shadow,
    // and a store block the shadow writes would then restore over the top.
    RebindUnderFreshNames(group);
    return;
  }
  group->pending_collapse.clear();
  group->unflushed_frozen.clear();
  if (!group->last_manifest.valid()) {
    // A group with no checkpoint of its own (a fresh Sls after a reboot)
    // adopts the manifest and namespace objects live at the newest committed
    // epoch, so its next checkpoint replaces them instead of leaving them
    // live beside its own, where a later restore's manifest scan could pick
    // the stale one. A restore of epoch 0 (the group's newest) or of the
    // newest committed epoch read exactly those; only after restoring an
    // older epoch is the newest manifest read to find them.
    group->last_manifest = ctx->manifest_oid;
    group->last_manifest_epoch = ctx->manifest_epoch;
    group->last_namespace = ctx->restored.namespace_oid;
    if (ctx->epoch != 0 && ctx->manifest_epoch + 1 < destination->current_epoch()) {
      auto live = ctx->backend->LoadManifest(ctx->group_name, 0);
      auto head = live.ok() ? PeekManifest(live->blob) : live.status();
      if (head.ok()) {
        group->last_manifest = live->oid;
        group->last_manifest_epoch = live->epoch;
        group->last_namespace = head->namespace_oid;
      }
    }
  }

  // Every region named by the manifest is durable at this epoch, and the
  // restored image is the group's in-memory snapshot.
  group->persisted_oids.clear();
  auto& snapshot_map = group->snapshot;
  snapshot_map.clear();
  WrapRestoredTops(group);
  for (Process* proc : group->processes) {
    for (auto& [start, entry] : proc->vm().entries()) {
      std::shared_ptr<VmObject> obj = entry.object;
      while (obj != nullptr) {
        if (obj->sls_oid() != 0) {
          group->persisted_oids.insert(obj->sls_oid());
          if (obj->frozen()) {
            snapshot_map[obj->sls_oid()] = obj;
          }
        }
        obj = obj->parent_ref();
      }
    }
  }
  group->last_manifest_blob = ctx->manifest;
}

void Sls::RebindToSnapshot(ConsistencyGroup* group) {
  // A rollback in memory changes nothing the store holds: the persisted
  // oids, the memory-only shadows still owed to the next full checkpoint and
  // the snapshot map all stay. Only the live side of a shadow pair changes.
  // A live object a later checkpoint froze is part of the restored image;
  // any other one the teardown discarded, and the restored shadow above the
  // pair's frozen object now takes the writes a collapse must reparent.
  std::vector<ShadowPair> restored = WrapRestoredTops(group);
  for (std::vector<ShadowPair>* pairs : {&group->pending_collapse, &group->unflushed_frozen}) {
    for (ShadowPair& pair : *pairs) {
      if (pair.live->frozen()) {
        continue;
      }
      auto wrap = std::find_if(restored.begin(), restored.end(),
                               [&pair](const ShadowPair& w) { return w.frozen == pair.frozen; });
      if (wrap == restored.end()) {
        // No writable entry maps the frozen object, but a read-only entry or
        // an unmapped shm segment may: shadow it too, or a collapse would
        // empty it under them.
        restored.push_back(ShadowOneObject(pair.frozen, GroupMaps(group), sim_, RebindShm()));
        wrap = restored.end() - 1;
      }
      pair.live = wrap->live;
    }
  }
}

void Sls::RebindUnderFreshNames(ConsistencyGroup* group) {
  // This machine's first checkpoint names fresh objects and flushes the
  // whole image once. Nothing is persisted yet, and there is no in-memory
  // checkpoint to roll back to.
  for (Process* proc : group->processes) {
    for (auto& [start, entry] : proc->vm().entries()) {
      for (VmObject* obj = entry.object.get(); obj != nullptr; obj = obj->parent()) {
        obj->set_sls_oid(0);
      }
    }
  }
  group->persisted_oids.clear();
  group->pending_collapse.clear();
  group->unflushed_frozen.clear();
  group->snapshot.clear();
  group->last_manifest_blob.clear();
}

Result<RestoreResult> Sls::RunRestore(RestoreContext* ctx) {
  SimStopwatch watch(sim_->clock);
  sim_->tracer.NewScope();
  // Closes on every exit: a failed stage ends the span where it failed.
  ScopedSpan restore_span(&sim_->tracer, "restore");
  ctx->old_group = FindGroup(ctx->group_name);

  // Load + resolver-build run before teardown: early failures (missing
  // manifest, bad epoch) leave the running application untouched.
  AURORA_RETURN_IF_ERROR(RestoreLoadManifest(ctx));
  AURORA_RETURN_IF_ERROR(RestoreBuildResolver(ctx));
  RestoreTeardownOld(ctx);
  AURORA_RETURN_IF_ERROR(RestoreNamespaceStage(ctx));
  AURORA_RETURN_IF_ERROR(RestoreMaterialize(ctx));
  AURORA_RETURN_IF_ERROR(RestoreRebindGroup(ctx));

  if (ctx->stream_done != nullptr) {
    sim_->clock.AdvanceTo(*ctx->stream_done);
  }
  ctx->result.restore_time = watch.Elapsed();
  sim_->metrics.counter("restore.restores").Add();
  sim_->metrics.histogram("restore.time").Record(ctx->result.restore_time);
  return ctx->result;
}

Result<RestoreResult> Sls::Restore(const std::string& group_name, uint64_t epoch,
                                   RestoreMode mode, CheckpointBackend* backend) {
  RestoreContext ctx;
  ctx.group_name = group_name;
  ctx.backend = backend != nullptr ? backend : store_backend_;
  ctx.epoch = epoch;
  ctx.mode = mode;
  return RunRestore(&ctx);
}

Result<RestoreResult> Sls::RestoreFromMemory(const std::string& group_name) {
  RestoreContext ctx;
  ctx.source = RestoreContext::Source::kSnapshot;
  ctx.group_name = group_name;
  return RunRestore(&ctx);
}

Result<CheckpointResult> Sls::Suspend(ConsistencyGroup* group) {
  AURORA_ASSIGN_OR_RETURN(CheckpointResult result,
                          Checkpoint(group, "suspend:" + group->name()));
  if (result.aborted) {
    // The backend's image predates what the processes wrote since their
    // last durable epoch: tearing them down now would lose those writes.
    return Status::Error(Errc::kIoError, "suspend checkpoint aborted; the group keeps running");
  }
  sim_->clock.AdvanceTo(result.durable_at);
  for (Process* proc : group->processes) {
    kernel_->DestroyProcess(proc);
  }
  group->processes.clear();
  // The in-memory checkpoint goes with the processes: the shadows, the
  // snapshot it pins and the serialize cache. The backend keeps the image.
  group->pending_collapse.clear();
  group->unflushed_frozen.clear();
  group->snapshot.clear();
  group->last_manifest_blob.clear();
  group->serialize_cache = SerializeCache{};
  group->lazy_epoch = 0;
  group->suspended = true;
  return result;
}

Result<RestoreResult> Sls::ResumeSuspended(const std::string& group_name, RestoreMode mode) {
  return Restore(group_name, 0, mode);
}

Result<CheckpointResult> Sls::MemCheckpoint(Process* proc, uint64_t addr) {
  VmMapEntry* entry = proc->vm().FindEntry(addr);
  if (entry == nullptr) {
    return Status::Error(Errc::kNotFound, "no mapping at address");
  }
  if (entry->object->type() != VmObjectType::kAnonymous) {
    return Status::Error(Errc::kNotSupported, "atomic checkpoints cover anonymous memory");
  }
  CheckpointContext ctx;
  for (auto& g : groups_) {
    if (std::find(g->processes.begin(), g->processes.end(), proc) != g->processes.end()) {
      ctx.group = g.get();
      break;
    }
  }
  if (ctx.group == nullptr) {
    return Status::Error(Errc::kBadState, "process not in a consistency group");
  }
  ctx.name = "memckpt";
  // Copy the shared_ptr: the shadow replaces entry->object itself.
  ctx.region = entry->object;
  return RunCheckpoint(&ctx);
}

Result<Oid> Sls::JournalCreate(uint64_t capacity_bytes) {
  return store_->CreateJournal(capacity_bytes);
}

Status Sls::JournalAppend(Oid journal, const void* data, uint64_t len) {
  return store_->JournalAppend(journal, data, len);
}

Status Sls::JournalReset(Oid journal) { return store_->JournalReset(journal); }

Result<std::vector<std::vector<uint8_t>>> Sls::JournalReplay(Oid journal) {
  return store_->JournalReplay(journal);
}

Status Sls::Barrier(ConsistencyGroup* group) {
  sim_->clock.AdvanceTo(group->last_durable);
  ReleasePendingSends(group);
  return Status::Ok();
}

Status Sls::MemCtl(Process* proc, uint64_t addr, bool exclude) {
  VmMapEntry* entry = proc->vm().FindEntry(addr);
  if (entry == nullptr) {
    return Status::Error(Errc::kNotFound, "no mapping at address");
  }
  entry->exclude_from_checkpoint = exclude;
  proc->vm().TouchLayout(entry);  // checkpoint-visible entry flag changed
  return Status::Ok();
}

Status Sls::FdCtl(Process* proc, int fd, bool disable_external_sync) {
  AURORA_ASSIGN_OR_RETURN(std::shared_ptr<FileDescription> desc, proc->fds().Get(fd));
  if (desc->object == nullptr || desc->object->type() != FileType::kSocket) {
    return Status::Error(Errc::kInvalidArgument, "fdctl targets sockets");
  }
  static_cast<Socket*>(desc->object.get())->external_sync_disabled = disable_external_sync;
  desc->object->Touch();  // serialized socket record carries this flag
  return Status::Ok();
}

}  // namespace aurora
