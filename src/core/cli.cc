#include "src/core/cli.h"

#include <cstdio>

#include "src/core/coredump.h"
#include "src/core/epoch_stream.h"
#include "src/objstore/scrubber.h"

namespace aurora {

Result<ConsistencyGroup*> SlsCli::Attach(const std::string& group_name, Process* proc) {
  ConsistencyGroup* group = sls_->FindGroup(group_name);
  if (group == nullptr) {
    AURORA_ASSIGN_OR_RETURN(group, sls_->CreateGroup(group_name));
  }
  AURORA_RETURN_IF_ERROR(sls_->Attach(group, proc));
  return group;
}

Status SlsCli::Detach(Process* proc) {
  // Table 2: `sls detach` makes the process ephemeral — it stays in its
  // consistency group (quiesced with the others) but is not persisted, and
  // after a restore its parent sees SIGCHLD as if it had exited.
  proc->ephemeral = true;
  return Status::Ok();
}

Result<CheckpointResult> SlsCli::Checkpoint(const std::string& group_name,
                                            const std::string& name,
                                            const std::string& backend_name) {
  ConsistencyGroup* group = sls_->FindGroup(group_name);
  if (group == nullptr) {
    return Status::Error(Errc::kNotFound, "no such group: " + group_name);
  }
  if (!backend_name.empty()) {
    AURORA_RETURN_IF_ERROR(sls_->SetBackend(group, backend_name));
  }
  return sls_->Checkpoint(group, name);
}

Result<RestoreResult> SlsCli::Restore(const std::string& group_name, uint64_t epoch,
                                      RestoreMode mode, const std::string& backend_name) {
  CheckpointBackend* backend = nullptr;
  if (!backend_name.empty()) {
    backend = sls_->FindBackend(backend_name);
    if (backend == nullptr) {
      return Status::Error(Errc::kNotFound, "no such backend: " + backend_name);
    }
  }
  return sls_->Restore(group_name, epoch, mode, backend);
}

Status SlsCli::SetBackend(const std::string& group_name, const std::string& backend_name) {
  ConsistencyGroup* group = sls_->FindGroup(group_name);
  if (group == nullptr) {
    return Status::Error(Errc::kNotFound, "no such group: " + group_name);
  }
  return sls_->SetBackend(group, backend_name);
}

Status SlsCli::SetInFlightEpochs(const std::string& group_name, uint32_t limit) {
  ConsistencyGroup* group = sls_->FindGroup(group_name);
  if (group == nullptr) {
    return Status::Error(Errc::kNotFound, "no such group: " + group_name);
  }
  if (limit == 0) {
    return Status::Error(Errc::kInvalidArgument, "in-flight epoch limit must be >= 1");
  }
  group->max_in_flight_epochs = limit;
  return Status::Ok();
}

std::vector<std::string> SlsCli::Ps() {
  std::vector<std::string> out;
  for (ConsistencyGroup* group : sls_->Groups()) {
    char line[256];
    std::snprintf(line, sizeof(line), "%-16s procs=%zu ckpts=%llu period=%.0fms%s",
                  group->name().c_str(), group->processes.size(),
                  static_cast<unsigned long long>(group->checkpoints_taken),
                  ToMillis(group->period), group->suspended ? " [suspended]" : "");
    out.push_back(line);
  }
  for (const CheckpointInfo& c : sls_->ListCheckpoints()) {
    char line[256];
    std::snprintf(line, sizeof(line), "  epoch=%llu name=%s t=%.3fs",
                  static_cast<unsigned long long>(c.epoch), c.name.c_str(),
                  ToSeconds(c.committed_at));
    out.push_back(line);
  }
  return out;
}

std::vector<std::string> SlsCli::Stat() {
  std::vector<std::string> out;
  SimContext* sim = sls_->sim();
  char line[256];

  out.push_back("counters:");
  for (const auto& [name, counter] : sim->metrics.counters()) {
    std::snprintf(line, sizeof(line), "  %-32s %llu", name.c_str(),
                  static_cast<unsigned long long>(counter.value()));
    out.push_back(line);
  }
  if (!sim->metrics.gauges().empty()) {
    out.push_back("gauges:");
    for (const auto& [name, gauge] : sim->metrics.gauges()) {
      std::snprintf(line, sizeof(line), "  %-32s %lld", name.c_str(),
                    static_cast<long long>(gauge.value()));
      out.push_back(line);
    }
  }
  out.push_back("histograms:");
  for (const auto& [name, hist] : sim->metrics.histograms()) {
    if (hist.count() == 0) {
      continue;
    }
    std::snprintf(line, sizeof(line),
                  "  %-32s n=%llu mean=%.3fms p50=%.3fms p99=%.3fms max=%.3fms",
                  name.c_str(), static_cast<unsigned long long>(hist.count()),
                  ToMillis(static_cast<SimDuration>(hist.MeanNanos())),
                  ToMillis(hist.Percentile(50.0)), ToMillis(hist.Percentile(99.0)),
                  ToMillis(hist.Max()));
    out.push_back(line);
  }

  // Phase spans of the most recent traced operation (latest scope).
  uint64_t scope = sim->tracer.current_scope();
  std::vector<Span> spans = sim->tracer.SpansInScope(scope);
  if (!spans.empty()) {
    std::snprintf(line, sizeof(line), "last trace (scope %llu):",
                  static_cast<unsigned long long>(scope));
    out.push_back(line);
    for (const Span& span : spans) {
      std::snprintf(line, sizeof(line), "  %-16s begin=%.6fs dur=%.3fms", span.name.c_str(),
                    ToSeconds(span.begin), ToMillis(span.duration()));
      out.push_back(line);
    }
  }
  return out;
}

Result<CheckpointResult> SlsCli::Suspend(const std::string& group_name) {
  ConsistencyGroup* group = sls_->FindGroup(group_name);
  if (group == nullptr) {
    return Status::Error(Errc::kNotFound, "no such group: " + group_name);
  }
  return sls_->Suspend(group);
}

Result<RestoreResult> SlsCli::Resume(const std::string& group_name) {
  return sls_->ResumeSuspended(group_name);
}

Result<std::vector<uint8_t>> SlsCli::Dump(const std::string& group_name, uint64_t local_pid) {
  ConsistencyGroup* group = sls_->FindGroup(group_name);
  if (group == nullptr) {
    return Status::Error(Errc::kNotFound, "no such group: " + group_name);
  }
  for (Process* proc : group->processes) {
    if (proc->local_pid() == local_pid) {
      return WriteElfCore(proc);
    }
  }
  return Status::Error(Errc::kNotFound, "no such process in group");
}

Status SlsCli::Prune(uint64_t epoch) { return sls_->store()->DeleteCheckpointsBefore(epoch); }

Result<std::vector<std::string>> SlsCli::Scrub() {
  Scrubber scrubber(sls_->store());
  AURORA_ASSIGN_OR_RETURN(ScrubReport report, scrubber.ScrubAll());
  std::vector<std::string> out;
  char line[256];
  for (const ScrubEpochVerdict& verdict : report.epochs) {
    std::snprintf(line, sizeof(line),
                  "epoch=%llu name=%s meta=%s blocks=%llu crc_errors=%llu io_errors=%llu %s",
                  static_cast<unsigned long long>(verdict.epoch), verdict.name.c_str(),
                  verdict.meta_ok ? "ok" : "bad",
                  static_cast<unsigned long long>(verdict.blocks_scanned),
                  static_cast<unsigned long long>(verdict.crc_errors),
                  static_cast<unsigned long long>(verdict.io_errors),
                  verdict.clean() ? "CLEAN" : "CORRUPT");
    out.push_back(line);
  }
  for (const ScrubBadBlock& bad : report.bad_blocks) {
    std::snprintf(line, sizeof(line), "  bad block: epoch=%llu oid=%llu logical=%llu phys=%llu %s",
                  static_cast<unsigned long long>(bad.epoch),
                  static_cast<unsigned long long>(bad.oid.value),
                  static_cast<unsigned long long>(bad.logical),
                  static_cast<unsigned long long>(bad.phys),
                  bad.error == Errc::kCorrupt ? "crc-mismatch" : "io-error");
    out.push_back(line);
  }
  std::snprintf(line, sizeof(line), "scrub: %zu epochs, %zu bad blocks: %s", report.epochs.size(),
                report.bad_blocks.size(), report.clean() ? "CLEAN" : "CORRUPT");
  out.push_back(line);
  return out;
}

Result<std::vector<std::string>> SlsCli::Gc(bool run) {
  ObjectStore* store = sls_->store();
  std::vector<std::string> out;
  char line[256];
  if (run) {
    AURORA_ASSIGN_OR_RETURN(GcRunReport report, sls_->gc()->Run());
    std::snprintf(line, sizeof(line),
                  "gc pass: examined=%llu compacted=%llu relocated=%llu blocks"
                  " (%llu bytes) crc_errors=%llu io_errors=%llu%s",
                  static_cast<unsigned long long>(report.segments_examined),
                  static_cast<unsigned long long>(report.segments_compacted),
                  static_cast<unsigned long long>(report.blocks_relocated),
                  static_cast<unsigned long long>(report.bytes_relocated),
                  static_cast<unsigned long long>(report.crc_errors),
                  static_cast<unsigned long long>(report.io_errors),
                  report.throttled ? " [throttled]" : "");
    out.push_back(line);
  }

  SegmentStats stats = store->GetSegmentStats();
  uint64_t bs = store->block_size();
  std::snprintf(line, sizeof(line),
                "segments: total=%llu free=%llu open=%llu sealed=%llu meta=%llu"
                " journal=%llu zombie=%llu (x %llu blocks)",
                static_cast<unsigned long long>(stats.segments_total),
                static_cast<unsigned long long>(stats.segments_free),
                static_cast<unsigned long long>(stats.segments_open),
                static_cast<unsigned long long>(stats.segments_sealed),
                static_cast<unsigned long long>(stats.segments_meta),
                static_cast<unsigned long long>(stats.segments_journal),
                static_cast<unsigned long long>(stats.segments_zombie),
                static_cast<unsigned long long>(store->segment_blocks()));
  out.push_back(line);
  std::snprintf(line, sizeof(line),
                "space: live=%llu bytes dead=%llu bytes used=%llu bytes reloc_entries=%llu",
                static_cast<unsigned long long>(stats.live_blocks * bs),
                static_cast<unsigned long long>(stats.dead_blocks * bs),
                static_cast<unsigned long long>(store->UsedPhysicalBlocks() * bs),
                static_cast<unsigned long long>(stats.reloc_entries));
  out.push_back(line);
  std::string hist = "utilization (sealed, emptiest decile first):";
  for (uint64_t bucket : stats.util_histogram) {
    std::snprintf(line, sizeof(line), " %llu", static_cast<unsigned long long>(bucket));
    hist += line;
  }
  out.push_back(hist);

  MetricsRegistry& metrics = sls_->sim()->metrics;
  std::snprintf(line, sizeof(line),
                "gc totals: runs=%llu segments_compacted=%llu segments_reclaimed=%llu"
                " blocks_relocated=%llu throttle_defers=%llu",
                static_cast<unsigned long long>(metrics.counter("gc.runs").value()),
                static_cast<unsigned long long>(metrics.counter("gc.segments_compacted").value()),
                static_cast<unsigned long long>(metrics.counter("gc.segments_reclaimed").value()),
                static_cast<unsigned long long>(metrics.counter("gc.blocks_relocated").value()),
                static_cast<unsigned long long>(metrics.counter("gc.throttle_defers").value()));
  out.push_back(line);

  const StoreStats& store_stats = store->stats();
  std::snprintf(line, sizeof(line),
                "dedup: entries=%llu hits=%llu bytes_deduped=%llu bytes_compressed=%llu"
                " bytes_stored=%llu quarantined=%llu",
                static_cast<unsigned long long>(store->DedupEntries()),
                static_cast<unsigned long long>(store_stats.dedup_hits),
                static_cast<unsigned long long>(store_stats.bytes_deduped),
                static_cast<unsigned long long>(store_stats.bytes_compressed_saved),
                static_cast<unsigned long long>(store_stats.bytes_stored),
                static_cast<unsigned long long>(stats.segments_quarantined));
  out.push_back(line);

  for (ConsistencyGroup* group : sls_->Groups()) {
    const RetentionPolicy& policy = group->retention;
    if (policy.enabled()) {
      std::snprintf(line, sizeof(line), "retention: %-16s keep_epochs=%llu",
                    group->name().c_str(), static_cast<unsigned long long>(policy.keep_epochs));
    } else {
      std::snprintf(line, sizeof(line), "retention: %-16s disabled (all epochs kept)",
                    group->name().c_str());
    }
    out.push_back(line);
  }
  return out;
}

namespace {

// Resolves a registered backend name to the standby it drives: the name may
// be the primary-side ReplicaBackend or a directly-registered standby.
ReplicaStandby* ResolveStandby(Sls* sls, const std::string& backend_name) {
  CheckpointBackend* backend = sls->FindBackend(backend_name);
  if (backend == nullptr) {
    return nullptr;
  }
  if (auto* replica = dynamic_cast<ReplicaBackend*>(backend)) {
    return replica->standby();
  }
  return dynamic_cast<ReplicaStandby*>(backend);
}

}  // namespace

Result<RestoreResult> SlsCli::Promote(const std::string& group_name,
                                      const std::string& backend_name, bool force) {
  ReplicaStandby* standby = ResolveStandby(sls_, backend_name);
  if (standby == nullptr) {
    return Status::Error(Errc::kNotFound, "no replica backend named " + backend_name);
  }
  SimContext* sim = sls_->sim();
  size_t span = sim->tracer.Begin("failover");
  auto plan = standby->PrepareFailover(force);
  if (!plan.ok()) {
    sim->tracer.End(span);
    sim->metrics.counter("repl.failover_failures").Add();
    return plan.status();
  }
  // Promotion restores exactly the epoch the standby pinned: the last fully
  // validated + applied one. The resolver hands out the warm images.
  auto restored = sls_->Restore(group_name, plan->epoch, RestoreMode::kFull, standby);
  if (!restored.ok()) {
    sim->tracer.End(span);
    sim->metrics.counter("repl.failover_failures").Add();
    return restored.status();
  }
  sim->tracer.EndAt(span, std::max(sim->clock.now(), plan->ready_at));
  sim->metrics.counter("repl.failovers").Add();
  sim->metrics.histogram("repl.failover.time").Record(restored->restore_time);
  if (plan->epoch > standby->last_validated_epoch()) {
    // Structurally unreachable (the plan pins the applied watermark, which
    // never passes validation): counted so CI can gate on zero.
    sim->metrics.counter("repl.torn_promotions").Add();
  }
  if (plan->speculated) {
    sim->metrics.counter("repl.speculative_failovers").Add();
  }
  if (plan->rolled_back) {
    sim->metrics.counter("repl.rolled_back_failovers").Add();
  }
  return restored;
}

Status SlsCli::Demote(const std::string& backend_name) {
  ReplicaStandby* standby = ResolveStandby(sls_, backend_name);
  if (standby == nullptr) {
    return Status::Error(Errc::kNotFound, "no replica backend named " + backend_name);
  }
  if (!standby->promoted()) {
    return Status::Error(Errc::kBadState, "standby is not promoted");
  }
  standby->Demote();
  return Status::Ok();
}

Result<std::vector<std::string>> SlsCli::Repl(const std::string& backend_name) {
  ReplicaStandby* standby = ResolveStandby(sls_, backend_name);
  if (standby == nullptr) {
    return Status::Error(Errc::kNotFound, "no replica backend named " + backend_name);
  }
  std::vector<std::string> out = standby->Describe();
  out.push_back("counters:");
  char line[256];
  for (const auto& [name, value] : sls_->sim()->metrics.CountersWithPrefix("repl.")) {
    std::snprintf(line, sizeof(line), "  %-32s %llu", name.c_str(),
                  static_cast<unsigned long long>(value));
    out.push_back(line);
  }
  return out;
}

Result<CheckpointStream> SlsCli::Send(const std::string& group_name, uint64_t epoch,
                                      uint64_t since_epoch) {
  // Manifest lookup is the same helper Sls::Restore and StoreBackend use.
  ObjectStore* store = sls_->store();
  AURORA_ASSIGN_OR_RETURN(CheckpointBackend::LoadedManifest loaded,
                          LoadManifestFromStore(store, group_name, epoch));
  AURORA_ASSIGN_OR_RETURN(auto listed, ManifestMemoryObjects(loaded.blob));
  // One data frame per distinct oid: an object mapped by several processes
  // ships once, sized as RestoreOsState sizes it (by its last listing).
  std::map<uint64_t, uint64_t> memory;
  for (const auto& [oid, size] : listed) {
    memory[oid] = size;
  }

  // Every frame goes into one buffer with one content table, so a page
  // repeated anywhere in the stream, across objects too, ships once.
  CheckpointStream stream;
  PageRefTable refs;
  FrameId id{loaded.epoch, 0, 0};
  std::vector<uint64_t> pgidxs;
  std::vector<uint8_t> bytes;
  for (const auto& [oid, size] : memory) {
    // A manifest object with no extents ships no frame; one the epoch lacks
    // fails the migration rather than ship a silently empty object.
    pgidxs.clear();
    bytes.clear();
    AURORA_RETURN_IF_ERROR(WalkStoredPages(store, loaded.epoch, Oid{oid}, size, since_epoch,
                                           nullptr, [&](uint64_t pgidx, const uint8_t* page) {
                                             pgidxs.push_back(pgidx);
                                             bytes.insert(bytes.end(), page, page + kPageSize);
                                           }));
    if (pgidxs.empty()) {
      continue;
    }
    std::vector<PageView> pages;
    pages.reserve(pgidxs.size());
    for (size_t i = 0; i < pgidxs.size(); i++) {
      pages.push_back(PageView{pgidxs[i], bytes.data() + i * kPageSize});
    }
    AppendDataFrame(id, oid, size, pages, &refs, &stream.bytes);
    id.seq++;
  }
  std::string ckpt_name;
  for (const CheckpointInfo& c : store->ListCheckpoints()) {
    if (c.epoch == loaded.epoch) {
      ckpt_name = c.name;
    }
  }
  AppendCommitFrame(id,
                    EpochCommit{group_name, ckpt_name, std::move(loaded.blob), since_epoch,
                                id.seq + 1},
                    &stream.bytes);
  // Ship it: one streaming transfer over the 10 GbE link.
  sls_->sim()->clock.Advance(sls_->sim()->cost.NetTransfer(stream.bytes.size()));
  return stream;
}

Result<RestoreResult> SlsCli::Recv(const CheckpointStream& stream, ReplicaStandby* session) {
  SimContext* sim = sls_->sim();
  SimStopwatch watch(sim->clock);
  sim->clock.Advance(sim->cost.NetTransfer(stream.bytes.size()));

  // The stream is one whole epoch: it validates before any frame reaches
  // the standby, so a refused stream leaves the session as it was.
  AURORA_ASSIGN_OR_RETURN(auto frames, SplitFrames(stream.bytes));
  AURORA_ASSIGN_OR_RETURN(DecodedEpoch epoch, DecodeEpoch(frames));
  const EpochCommit& commit = epoch.commit;
  uint64_t applied = session != nullptr ? session->last_applied_epoch() : 0;
  ConsistencyGroup* running = sls_->FindGroup(commit.group);
  bool live = running != nullptr && !running->processes.empty();
  ReplicaStandby own(sim, nullptr, "recv");
  ReplicaStandby* standby = session != nullptr ? session : &own;
  if (applied != 0 && epoch.epoch <= applied) {
    // At-least-once delivery: a replayed epoch is idempotent. The instance
    // the session restored stays as it is; when none runs (that restore
    // failed), the session's epoch restores again.
    sim->metrics.counter("net.dup_epochs_ignored").Add();
    if (live) {
      return RestoreResult{running, applied, watch.Elapsed()};
    }
  } else {
    if (commit.since_epoch > applied) {
      return Status::Error(Errc::kBadState, "incremental stream without a matching base image");
    }
    if (session == nullptr && live) {
      return Status::Error(Errc::kExists, "group already running on this machine");
    }
    for (std::span<const uint8_t> frame : frames) {
      standby->Place(WireFrame{{frame.begin(), frame.end()}, sim->clock.now()});
    }
    standby->ApplyReady();
  }
  AURORA_ASSIGN_OR_RETURN(RestoreResult result,
                          sls_->Restore(commit.group, standby->last_applied_epoch(),
                                        RestoreMode::kFull, standby));
  result.restore_time = watch.Elapsed();
  return result;
}

}  // namespace aurora
