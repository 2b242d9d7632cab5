#include "src/core/backend.h"

#include <algorithm>
#include <functional>

namespace aurora {

namespace {

// CheckpointDestination::InstallPager for every destination: only a
// parentless object with an oid may be paged (a catch-all pager installed
// mid-chain would shadow the links below it), and an existing pager stays.
bool BackWithPager(VmObject* base, VmObject::Pager pager) {
  if (base->parent() != nullptr || base->sls_oid() == 0) {
    return base->has_pager();
  }
  if (!base->has_pager()) {
    base->set_pager(std::move(pager));
  }
  return true;
}

}  // namespace

// -----------------------------------------------------------------------------
// StoreBackend
// -----------------------------------------------------------------------------

Result<Oid> StoreBackend::CreateMemoryObject(uint64_t size_hint) {
  return store_->CreateObject(ObjType::kMemory, size_hint);
}

Result<SimTime> StoreBackend::WriteObjectPages(Oid oid, VmObject* obj, uint64_t* pages,
                                               uint64_t* bytes) {
  // One run per resident page; the store batches runs per 64 KiB block so
  // sparse dirty sets cost one COW block update per touched block, with
  // asynchronous RMW reads — the flush overlaps application execution.
  std::vector<ObjectStore::IoRun> runs;
  runs.reserve(obj->ResidentPages());
  obj->ForEachPage([&runs](uint64_t pgidx, const VmPage& page) {
    runs.push_back(ObjectStore::IoRun{pgidx * kPageSize, page.data(), kPageSize});
  });
  *pages += runs.size();
  if (runs.empty()) {
    return sim_->clock.now();
  }
  // `bytes` reports physical device bytes, so dedup hits and compressed
  // extents show up as a smaller flush — the store's bytes_stored delta is
  // exactly what this batch put on media.
  uint64_t stored_before = store_->stats().bytes_stored;
  AURORA_ASSIGN_OR_RETURN(SimTime done, store_->WriteAtBatch(oid, runs));
  uint64_t shipped = store_->stats().bytes_stored - stored_before;
  *bytes += shipped;
  // The flusher walks the object with its lock held; COW faults copying
  // from it contend (see VmObject::busy_until).
  obj->set_busy_until(done);
  sim_->metrics.counter("backend." + name_ + ".bytes_shipped").Add(shipped);
  return done;
}

Result<CheckpointDestination::CommitInfo> StoreBackend::CommitEpoch(
    const std::string& ckpt_name, const std::vector<uint8_t>& manifest, Oid replaces_manifest) {
  CommitInfo info;
  SimTime manifest_done = sim_->clock.now();
  if (!manifest.empty()) {
    // Manifest object for this epoch; the previous one leaves the live table
    // (it remains readable at its own epoch).
    AURORA_ASSIGN_OR_RETURN(info.manifest_oid, store_->CreateObject(ObjType::kManifest));
    Result<SimTime> wrote =
        store_->WriteAt(info.manifest_oid, 0, manifest.data(), manifest.size());
    if (!wrote.ok()) {
      // Drop the half-written manifest from the live table; leaving it would
      // let LoadManifestFromStore return a manifest the commit never covered.
      DropStrandedManifest(info.manifest_oid);
      return wrote.status();
    }
    manifest_done = *wrote;
    if (replaces_manifest.valid()) {
      // Deleted before the commit so the removal is serialized into this
      // epoch's metadata. After an aborted epoch the retry's delete finds the
      // oid already gone (kNotFound) — benign, not counted as a failure.
      Status deleted = store_->DeleteObject(replaces_manifest);
      if (!deleted.ok() && deleted.code() != Errc::kNotFound) {
        sim_->metrics.counter("backend.manifest_delete_failures").Add();
      }
    }
    sim_->metrics.counter("backend." + name_ + ".bytes_shipped").Add(manifest.size());
  }
  info.epoch = store_->current_epoch();
  Result<SimTime> committed = store_->CommitCheckpoint(ckpt_name);
  if (!committed.ok()) {
    if (!manifest.empty()) {
      DropStrandedManifest(info.manifest_oid);
    }
    return committed.status();
  }
  info.durable_at = std::max(manifest_done, *committed);
  sim_->metrics.counter("backend." + name_ + ".epochs_committed").Add();
  return info;
}

void StoreBackend::DropStrandedManifest(Oid oid) {
  Status deleted = store_->DeleteObject(oid);
  if (!deleted.ok()) {
    sim_->metrics.counter("backend.manifest_delete_failures").Add();
  }
}

Result<CheckpointBackend::LoadedManifest> StoreBackend::LoadManifest(
    const std::string& group_name, uint64_t epoch) {
  return LoadManifestFromStore(store_, group_name, epoch);
}

Result<MemoryResolverFn> StoreBackend::MakeResolver(uint64_t epoch, RestoreMode mode,
                                                    std::shared_ptr<SimTime> stream_done) {
  ObjectStore* store = store_;
  if (mode == RestoreMode::kFull) {
    // Eager restore streams every object's blocks with pipelined reads; the
    // caller advances to the stream's completion once at the end. An object
    // the epoch lacks restores empty.
    return MemoryResolverFn(
        [store, epoch, stream_done](Oid oid, uint64_t size) -> Result<ResolvedMemory> {
          auto obj = VmObject::CreateAnonymous(size);
          Status read = WalkStoredPages(store, epoch, oid, size, 0, stream_done.get(),
                                        [&obj](uint64_t pgidx, const uint8_t* bytes) {
                                          obj->InstallPage(pgidx, bytes);
                                        });
          if (!read.ok() && read.code() != Errc::kNotFound) {
            return read;
          }
          return ResolvedMemory{std::move(obj), false};
        });
  }
  // Lazy restore: a fault reads its page at the epoch when the epoch's table
  // holds the page's block, and zero-fills it otherwise.
  return MemoryResolverFn([store, epoch](Oid oid, uint64_t size) -> Result<ResolvedMemory> {
    auto obj = VmObject::CreateAnonymous(size);
    uint64_t pages_per_block = store->block_size() / kPageSize;
    obj->set_pager([store, epoch, oid, pages_per_block](uint64_t pgidx) {
      auto table = store->TableAt(epoch);
      if (!table.ok()) {
        return PageFrame();
      }
      auto info = (*table)->find(oid);
      if (info == (*table)->end() || info->second.extents.count(pgidx / pages_per_block) == 0) {
        return PageFrame();
      }
      PageFrame frame = PageFrame::Zeroed();
      Status read = store->ReadAtEpoch(epoch, oid, pgidx * kPageSize, frame.MutableData(), kPageSize);
      return read.ok() ? frame : PageFrame();
    });
    return ResolvedMemory{std::move(obj), false};
  });
}

bool StoreBackend::InstallPager(VmObject* base) {
  ObjectStore* store = store_;
  Oid oid{base->sls_oid()};
  return BackWithPager(base, [store, oid](uint64_t pgidx) {
    PageFrame frame = PageFrame::Zeroed();
    Status read = store->ReadAt(oid, pgidx * kPageSize, frame.MutableData(), kPageSize);
    return read.ok() ? frame : PageFrame();
  });
}

// -----------------------------------------------------------------------------
// ReplicaLink
// -----------------------------------------------------------------------------

bool ReplicaLink::Push(WireFrame frame) {
  if (fuse_armed_ && partition_fuse_ == 0) {
    partitioned_ = true;
    fuse_armed_ = false;
  }
  if (partitioned_) {
    return false;
  }
  if (fuse_armed_) {
    partition_fuse_--;
    if (partition_fuse_ == 0) {
      partitioned_ = true;
      fuse_armed_ = false;
    }
  }
  frames_pushed_++;
  wire_.push_back(std::move(frame));
  return true;
}

std::vector<WireFrame> ReplicaLink::TakeDeliverable() {
  std::vector<WireFrame> out = std::move(wire_);
  wire_.clear();
  // The zero-rate guards keep fault-free runs from consuming RNG draws
  // (bit-identical timelines).
  if (faults_.duplicate_rate > 0.0) {
    std::vector<WireFrame> with_dups;
    with_dups.reserve(out.size());
    for (WireFrame& f : out) {
      bool dup = rng_.NextBool(faults_.duplicate_rate);
      with_dups.push_back(std::move(f));
      if (dup) {
        with_dups.push_back(with_dups.back());
      }
    }
    out = std::move(with_dups);
  }
  if (faults_.reorder_rate > 0.0) {
    for (size_t i = 0; i + 1 < out.size(); i++) {
      if (rng_.NextBool(faults_.reorder_rate)) {
        std::swap(out[i], out[i + 1]);
      }
    }
  }
  return out;
}

// -----------------------------------------------------------------------------
// ReplicaStandby
// -----------------------------------------------------------------------------

Oid ReplicaStandby::NameObject(uint64_t size_hint) {
  Oid oid{next_oid_++};
  objects_[oid.value].size = size_hint;
  return oid;
}

Result<const ReplicaStandby::ImageRecord*> ReplicaStandby::FindImage(
    const std::string& group_name, uint64_t epoch) const {
  auto rec = images_.find(group_name);
  if (rec == images_.end()) {
    return Status::Error(Errc::kNotFound, "no checkpoint image for group " + group_name);
  }
  if (epoch != 0 && epoch != rec->second.epoch) {
    return Status::Error(Errc::kNotFound, "the standby holds only epoch " +
                                              std::to_string(rec->second.epoch) + " of group " +
                                              group_name);
  }
  return &rec->second;
}

Result<CheckpointBackend::LoadedManifest> ReplicaStandby::LoadManifest(
    const std::string& group_name, uint64_t epoch) {
  AURORA_ASSIGN_OR_RETURN(const ImageRecord* rec, FindImage(group_name, epoch));
  sim_->clock.Advance(sim_->cost.MemCopy(rec->manifest.size()));
  return LoadedManifest{rec->epoch, rec->manifest_oid, rec->manifest};
}

Result<std::shared_ptr<VmObject>> ReplicaStandby::Materialize(uint64_t oid, uint64_t size,
                                                              uint64_t* pages) const {
  AURORA_RETURN_IF_ERROR(CheckPages(oid, size));
  auto obj = VmObject::CreateAnonymous(size);
  auto img = objects_.find(oid);
  if (img != objects_.end()) {
    img->second.pages.ForEach([&obj](uint64_t pgidx, const PageFrame& frame) {
      obj->InstallFrame(pgidx, frame);
    });
    *pages += img->second.pages.size();
  }
  return obj;
}

VmObject::Pager ReplicaStandby::ImagePager(uint64_t oid, SimContext* sim,
                                           SimDuration per_fault) const {
  return [this, oid, sim, per_fault](uint64_t pgidx) {
    auto img = objects_.find(oid);
    const PageFrame* page = img == objects_.end() ? nullptr : img->second.pages.Find(pgidx);
    if (page == nullptr) {
      return PageFrame();
    }
    sim->clock.Advance(per_fault);
    return *page;
  };
}

MemoryResolverFn ReplicaStandby::LazyResolver(SimContext* sim, SimDuration per_fault) const {
  return [this, sim, per_fault](Oid oid, uint64_t size) -> Result<ResolvedMemory> {
    AURORA_RETURN_IF_ERROR(CheckPages(oid.value, size));
    auto obj = VmObject::CreateAnonymous(size);
    obj->set_pager(ImagePager(oid.value, sim, per_fault));
    return ResolvedMemory{std::move(obj), false};
  };
}

Status ReplicaStandby::CheckPages(uint64_t oid, uint64_t size) const {
  auto img = objects_.find(oid);
  if (img != objects_.end() && !img->second.pages.empty() &&
      *img->second.pages.LastKey() >= PagesOf(size)) {
    return Status::Error(Errc::kCorrupt, "image page beyond the manifest's object size");
  }
  return Status::Ok();
}

uint64_t ReplicaStandby::newest_seen_epoch() const {
  uint64_t newest = applied_epoch_;
  if (!pending_.empty()) {
    newest = std::max(newest, pending_.rbegin()->first);
  }
  return newest;
}

Status ReplicaStandby::LeaseCheck() const {
  if (link_ == nullptr || link_->last_heartbeat() == 0) {
    return Status::Ok();  // never heard from a primary; nothing to wait out
  }
  if (sim_->clock.now() <= link_->last_heartbeat() + kLease) {
    return Status::Error(Errc::kBusy,
                         "primary lease still fresh; refusing failover (split-brain guard)");
  }
  return Status::Ok();
}

void ReplicaStandby::Pump() {
  if (link_ != nullptr) {
    for (WireFrame& f : link_->TakeDeliverable()) {
      Place(std::move(f));
    }
  }
  ApplyReady();
  MetricsRegistry& metrics = sim_->metrics;
  metrics.gauge("repl.pending_epochs").Set(static_cast<int64_t>(pending_.size()));
  metrics.gauge("repl.lag_epochs")
      .Set(static_cast<int64_t>(newest_seen_epoch() - applied_epoch_));
}

void ReplicaStandby::Place(WireFrame f) {
  MetricsRegistry& metrics = sim_->metrics;
  Result<FrameHeader> head = PeekFrame(f.bytes);
  if (!head.ok() || head->length != f.bytes.size()) {
    // Nothing in a damaged header can be trusted to place the frame.
    metrics.counter("repl.crc_failures").Add();
    return;
  }
  const FrameId& id = head->id;
  if (id.epoch <= applied_epoch_) {
    // Replayed delivery of an epoch already applied: legal under
    // at-least-once delivery, and ingest is idempotent.
    metrics.counter("repl.dup_frames_ignored").Add();
    return;
  }
  PendingEpoch& p = pending_[id.epoch];
  if (id.attempt < p.attempt) {
    // Leftover of an aborted ship this epoch already superseded.
    metrics.counter("repl.stale_attempt_frames").Add();
    return;
  }
  if (id.attempt > p.attempt) {
    // Fresh re-ship after the primary aborted this epoch's stream: the
    // new attempt supersedes whatever the old one delivered.
    p = PendingEpoch{};
    p.attempt = id.attempt;
  }
  if (p.frames.count(id.seq) > 0) {
    metrics.counter("repl.dup_frames_ignored").Add();
    return;
  }
  p.last_arrival = std::max(p.last_arrival, f.arrival);
  if (head->kind == FrameKind::kCommit) {
    p.nframes = id.seq + 1;  // the commit frame is the epoch's last
  }
  p.frames.emplace(id.seq, std::move(f));
  metrics.counter("repl.frames_ingested").Add();
}

void ReplicaStandby::ApplyReady() {
  auto it = pending_.begin();
  while (it != pending_.end()) {
    const PendingEpoch& ready = it->second;
    if (ready.nframes == 0 || ready.frames.size() < ready.nframes) {
      ++it;  // still streaming (or the commit frame is still in flight)
      continue;
    }
    std::vector<std::span<const uint8_t>> frames;
    frames.reserve(ready.frames.size());
    for (const auto& [seq, f] : ready.frames) {
      frames.emplace_back(f.bytes);
    }
    Result<DecodedEpoch> decoded = DecodeEpoch(frames);
    if (decoded.ok() && decoded->commit.since_epoch > applied_epoch_) {
      ++it;  // a delta on an epoch not applied yet
      continue;
    }
    uint64_t epoch = it->first;
    if (!decoded.ok()) {
      // Torn or corrupted epoch: discard it whole and poison the chain.
      pending_.erase(it);
      poisoned_epoch_ = epoch;
      sim_->metrics.counter("repl.crc_failures").Add();
      sim_->metrics.counter("repl.epochs_rolled_back").Add();
      break;
    }
    validated_epoch_ = epoch;
    ApplyEpoch(*decoded, &it->second);
    if (poisoned_epoch_ == epoch) {
      poisoned_epoch_ = 0;  // a clean re-delivery healed the chain
    }
    // This epoch, and any below it, can no longer apply.
    pending_.erase(pending_.begin(), pending_.upper_bound(applied_epoch_));
    it = pending_.begin();
  }
}

void ReplicaStandby::ApplyEpoch(const DecodedEpoch& epoch, PendingEpoch* source) {
  SimTime start =
      std::max(sim_->clock.now(), std::max(ingest_busy_until_, source->last_arrival));
  // Only a promotion hands out warm images, and sls recv never promotes the
  // standby it feeds: a migration session models none.
  bool warm_images = link_ != nullptr;
  // Object i arrived in frame i. An `sls send` stream may carry a page as a
  // reference into an earlier data frame of the epoch, so its frames stay
  // until the apply ends; a replica stream ships raw pages only, and each of
  // its frames is released as soon as its object is in the table, so the
  // table and the epoch's frames are never both whole on the host.
  bool release = true;
  for (size_t i = 0; i < epoch.objects.size(); i++) {
    const std::vector<uint8_t>& bytes = source->frames.at(i).bytes;
    for (const PageView& page : epoch.objects[i].pages) {
      release &= std::less_equal<>()(bytes.data(), page.data) &&
                 std::less<>()(page.data, bytes.data() + bytes.size());
    }
  }
  uint64_t pages = 0;
  for (size_t i = 0; i < epoch.objects.size(); i++) {
    const DecodedObject& obj = epoch.objects[i];
    ObjectImage& img = objects_[obj.oid];
    img.size = std::max(img.size, obj.size);
    for (const PageView& page : obj.pages) {
      img.pages[page.pgidx] = PageFrame::CopyOf(page.data);
    }
    img.warm = img.warm || warm_images;
    pages += obj.pages.size();
    if (release) {
      std::vector<uint8_t>().swap(source->frames.at(i).bytes);
    }
  }
  // Ingest runs on the standby's own cores: CRC validation plus the copy
  // into the image table and the warm patch. It accumulates into the ingest
  // timeline rather than advancing the clock — a restore joins it once.
  uint64_t bytes = pages * kPageSize;
  ingest_busy_until_ = start + sim_->cost.ContentHash(bytes) +
                       sim_->cost.MemCopy((warm_images ? 2 : 1) * bytes);
  // The group's newest epoch replaces its record; a commit without a
  // manifest (sls_memckpt) seals nothing. The manifest takes its name from
  // the object counter, as a store names it beside the memory objects.
  const EpochCommit& commit = epoch.commit;
  if (!commit.manifest.empty()) {
    images_[commit.group] = ImageRecord{epoch.epoch, Oid{next_oid_++}, commit.manifest};
  }
  applied_epoch_ = epoch.epoch;
  pages_applied_total_ += pages;
  MetricsRegistry& metrics = sim_->metrics;
  metrics.counter("repl.epochs_applied").Add();
  metrics.counter("repl.pages_applied").Add(pages);
  metrics.counter("repl.bytes_applied").Add(bytes);
}

bool ReplicaStandby::CorruptPendingPage(uint64_t epoch) {
  auto it = pending_.find(epoch);
  if (it == pending_.end()) {
    return false;
  }
  for (auto& [seq, f] : it->second.frames) {
    Result<FrameHeader> head = PeekFrame(f.bytes);
    if (!head.ok() || head->kind != FrameKind::kData) {
      continue;
    }
    // A replica data frame ends with a raw page; the CRC is left stale.
    f.bytes[f.bytes.size() - kFrameCrcBytes - 1] ^= 0xFF;
    sim_->metrics.counter("repl.injected_corruptions").Add();
    return true;
  }
  return false;
}

Result<ReplicaStandby::FailoverPlan> ReplicaStandby::PrepareFailover(bool force) {
  if (promoted_) {
    return Status::Error(Errc::kBadState, "standby already promoted");
  }
  if (!force) {
    AURORA_RETURN_IF_ERROR(LeaseCheck());
  }
  MetricsRegistry& metrics = sim_->metrics;
  uint64_t applied_before = applied_epoch_;
  uint64_t pages_before = pages_applied_total_;
  // Validated speculation: whatever is already through the wire — including
  // the tail of a partially-received epoch — finishes streaming and, if it
  // validates, applies on top of the last fully-applied epoch.
  Pump();
  FailoverPlan plan;
  plan.speculated = applied_epoch_ > applied_before;
  plan.delta_pages = pages_applied_total_ - pages_before;
  // Whatever is still pending can never complete: the primary is gone.
  // Torn or invalid epochs roll back to the last durable one.
  if (!pending_.empty() || poisoned_epoch_ != 0) {
    plan.rolled_back = true;
    metrics.counter("repl.epochs_rolled_back").Add(pending_.size());
    pending_.clear();
  }
  if (applied_epoch_ == 0) {
    return Status::Error(Errc::kUnavailable, "no durable epoch ever reached the standby");
  }
  plan.epoch = applied_epoch_;
  plan.ready_at = ingest_busy_until_;
  promoted_ = true;
  metrics.counter("repl.promotions").Add();
  return plan;
}

void ReplicaStandby::Demote() {
  promoted_ = false;
  // The previous warm images now belong to the promoted incarnation: the
  // model rebuilds every one from the table, charged to the ingest timeline.
  uint64_t pages = 0;
  for (auto& [oid, img] : objects_) {
    img.warm = true;
    pages += img.pages.size();
  }
  ingest_busy_until_ = std::max(ingest_busy_until_, sim_->clock.now()) +
                       sim_->cost.MemCopy(pages * kPageSize);
  sim_->metrics.counter("repl.demotions").Add();
}

Result<MemoryResolverFn> ReplicaStandby::MakeResolver(uint64_t epoch, RestoreMode mode,
                                                      std::shared_ptr<SimTime> stream_done) {
  (void)epoch;  // LoadManifest served the one epoch the table holds
  if (mode == RestoreMode::kLazy) {
    return LazyResolver(sim_, sim_->cost.MemCopy(kPageSize));
  }
  if (!promoted_) {
    // Cold restore: independent objects materialize on parallel lanes (one
    // per machine flush lane); the caller advances to the makespan once at
    // the end.
    auto lanes = std::make_shared<LaneSchedule>(sim_->FlushLanes(), *stream_done);
    return MemoryResolverFn(
        [this, stream_done, lanes](Oid oid, uint64_t size) -> Result<ResolvedMemory> {
          uint64_t pages = 0;
          AURORA_ASSIGN_OR_RETURN(auto obj, Materialize(oid.value, size, &pages));
          int lane = lanes->NextLane();
          SimTime done = lanes->StartOn(lane, 0) + sim_->cost.MemCopy(pages * kPageSize);
          lanes->Occupy(lane, done);
          *stream_done = std::max(*stream_done, done);
          return ResolvedMemory{std::move(obj), false};
        });
  }
  // Warm failover: the continuously-patched images ARE the restored memory,
  // paid for at apply time, so handing one out charges nothing and the
  // restore just joins the ingest timeline. Only objects the stream never
  // shipped pages for since the last handout materialize cold.
  *stream_done = std::max(*stream_done, ingest_busy_until_);
  return MemoryResolverFn(
      [this, stream_done](Oid oid, uint64_t size) -> Result<ResolvedMemory> {
        uint64_t pages = 0;
        AURORA_ASSIGN_OR_RETURN(auto obj, Materialize(oid.value, size, &pages));
        auto img = objects_.find(oid.value);
        if (img != objects_.end() && img->second.warm && img->second.size >= size) {
          img->second.warm = false;
          sim_->metrics.counter("repl.warm_restores").Add();
        } else {
          *stream_done = std::max(*stream_done,
                                  ingest_busy_until_ + sim_->cost.MemCopy(pages * kPageSize));
          sim_->metrics.counter("repl.cold_restores").Add();
        }
        return ResolvedMemory{std::move(obj), false};
      });
}

std::vector<std::string> ReplicaStandby::Describe() const {
  std::vector<std::string> out;
  out.push_back("role: " + std::string(promoted_ ? "promoted" : "standby"));
  out.push_back("applied_epoch: " + std::to_string(applied_epoch_) +
                "  validated_epoch: " + std::to_string(validated_epoch_));
  out.push_back("pending_epochs: " + std::to_string(pending_.size()) +
                "  lag_epochs: " + std::to_string(newest_seen_epoch() - applied_epoch_));
  if (link_ != nullptr) {
    out.push_back("link: " + std::string(link_->partitioned() ? "partitioned" : "up") +
                  "  in_flight_frames: " + std::to_string(link_->in_flight()) +
                  "  last_heartbeat_ns: " + std::to_string(link_->last_heartbeat()));
  }
  auto warm = std::count_if(objects_.begin(), objects_.end(),
                            [](const auto& entry) { return entry.second.warm; });
  out.push_back("warm_objects: " + std::to_string(warm) +
                "  pages_applied: " + std::to_string(pages_applied_total_));
  if (poisoned_epoch_ != 0) {
    out.push_back("POISONED at epoch " + std::to_string(poisoned_epoch_) +
                  ": delta chain broken until that epoch is re-delivered intact");
  }
  return out;
}

// -----------------------------------------------------------------------------
// ReplicaBackend
// -----------------------------------------------------------------------------

namespace {

// One transfer of `payload` bytes on the least-loaded of `lanes`, starting no
// earlier than `not_before`; returns its arrival. The wire's byte time
// (`*wire`) is shared across lanes while the per-stream latency (the
// NetTransfer half-RTT) overlaps. With one lane the stream timeline includes
// the wire time plus latency, so the shared wire never binds: the serial link.
SimTime LaneTransfer(const CostModel& cost, LaneSchedule* lanes, SimTime* wire,
                     SimTime not_before, uint64_t payload) {
  int lane = lanes->NextLane();
  SimTime start = lanes->StartOn(lane, not_before);
  *wire = std::max(*wire, start) +
          static_cast<SimDuration>(static_cast<double>(payload) / cost.net_bytes_per_ns);
  SimTime done = std::max(start + cost.NetTransfer(payload), *wire);
  lanes->Occupy(lane, done);
  return done;
}

}  // namespace

SimTime ReplicaBackend::QueueTransfer(uint64_t payload) {
  SimTime done = LaneTransfer(sim_->cost, &lanes_, &wire_busy_, sim_->clock.now(), payload);
  sim_->metrics.counter("backend." + name_ + ".bytes_shipped").Add(payload);
  sim_->metrics.histogram("backend." + name_ + ".transfer_time").Record(done - sim_->clock.now());
  return done;
}

bool ReplicaBackend::AwaitLink() {
  SimDuration backoff = kSendBackoff;
  for (int attempt = 1; link_->partitioned(); attempt++) {
    sim_->metrics.counter("net.timeouts").Add();
    if (attempt >= kSendAttempts) {
      sim_->metrics.counter("net.partitions").Add();
      return false;
    }
    sim_->metrics.counter("io.retries").Add();
    sim_->metrics.counter("net.reconnects").Add();
    sim_->clock.Advance(backoff);
    backoff *= 2;
  }
  return true;
}

Result<SimTime> ReplicaBackend::ShipFrame(std::vector<uint8_t> frame, uint64_t payload_bytes) {
  MetricsRegistry& metrics = sim_->metrics;
  if (crash_armed_ && crash_fuse_ == 0) {
    crashed_ = true;
  }
  if (crashed_) {
    streaming_ = false;
    return Status::Error(Errc::kUnavailable, "primary crashed");
  }
  // Heartbeat-scale retries, then a typed giveup so the epoch aborts
  // upstream instead of wedging.
  if (!AwaitLink()) {
    metrics.counter("io.giveups").Add();
    streaming_ = false;  // a later retry re-ships the epoch under a new attempt id
    return Status::Error(Errc::kUnavailable, "replica link partitioned: send retries exhausted");
  }
  SimTime arrival = QueueTransfer(payload_bytes);
  if (!link_->Push(WireFrame{std::move(frame), arrival})) {
    // The partition fuse blew on this very frame: a mid-epoch cut.
    metrics.counter("net.partitions").Add();
    streaming_ = false;
    return Status::Error(Errc::kUnavailable, "replica link partitioned mid-epoch");
  }
  // Every frame doubles as a heartbeat — a healthy stream keeps the lease
  // fresh without dedicated liveness traffic.
  link_->RecordHeartbeat(sim_->clock.now());
  metrics.counter("repl.frames_shipped").Add();
  if (crash_armed_) {
    if (crash_fuse_ > 0) {
      crash_fuse_--;
    }
    if (crash_fuse_ == 0) {
      crashed_ = true;
    }
  }
  return arrival;
}

Status ReplicaBackend::SendHeartbeat() {
  if (crashed_) {
    return Status::Error(Errc::kUnavailable, "primary crashed");
  }
  if (!AwaitLink()) {
    return Status::Error(Errc::kUnavailable, "replica link partitioned: heartbeat lost");
  }
  link_->RecordHeartbeat(sim_->clock.now());
  sim_->metrics.counter("repl.heartbeats").Add();
  return Status::Ok();
}

FrameId ReplicaBackend::NextFrameId() {
  if (!streaming_) {
    // (Re)start this epoch's stream. A fresh attempt id makes the standby
    // discard partial frames from an earlier aborted ship of the same epoch
    // rather than mixing the two streams.
    attempt_++;
    seq_ = 0;
    streaming_ = true;
  }
  return FrameId{epoch_, attempt_, seq_};
}

Result<Oid> ReplicaBackend::CreateMemoryObject(uint64_t size_hint) {
  // Object naming piggybacks on the stream framing; no transfer of its own.
  return standby_->NameObject(size_hint);
}

Result<SimTime> ReplicaBackend::WriteObjectPages(Oid oid, VmObject* obj, uint64_t* pages,
                                                 uint64_t* bytes) {
  FrameId id = NextFrameId();
  if (obj->ResidentPages() == 0) {
    return sim_->clock.now();
  }
  std::vector<PageView> views;
  views.reserve(obj->ResidentPages());
  obj->ForEachPage([&views](uint64_t pgidx, const VmPage& page) {
    views.push_back(PageView{pgidx, page.data()});
  });
  std::vector<uint8_t> frame;
  AppendDataFrame(id, oid.value, obj->size(), views, nullptr, &frame);
  *pages += views.size();
  *bytes += views.size() * kPageSize;
  AURORA_ASSIGN_OR_RETURN(
      SimTime done, ShipFrame(std::move(frame), views.size() * (kPageSize + kPageHeaderBytes)));
  seq_++;
  obj->set_busy_until(done);
  return done;
}

Result<CheckpointDestination::CommitInfo> ReplicaBackend::CommitEpoch(
    const std::string& ckpt_name, const std::vector<uint8_t>& manifest, Oid replaces_manifest) {
  (void)replaces_manifest;  // the standby keeps only each group's newest record
  FrameId id = NextFrameId();
  std::string group;
  if (!manifest.empty()) {
    auto head = PeekManifest(manifest);
    if (head.ok()) {
      group = head->name;
    }
  }
  // Each epoch is a delta on the one before; the commit frame is the last.
  std::vector<uint8_t> frame;
  AppendCommitFrame(id, EpochCommit{group, ckpt_name, manifest, epoch_ - 1, id.seq + 1}, &frame);
  // The commit frame leaves only after every stream lane drained: the
  // standby must hold the whole epoch before its commit record.
  lanes_ = LaneSchedule(lanes_.lanes(), std::max(sim_->clock.now(), lanes_.Makespan()));
  AURORA_ASSIGN_OR_RETURN(SimTime done, ShipFrame(std::move(frame), manifest.size() + 64));
  lanes_ = LaneSchedule(lanes_.lanes(), done);
  if (crashed_) {
    // The commit record left the NIC, but the host died before the commit
    // acknowledgment: the epoch aborts on the primary while the standby can
    // still speculate it complete from the wire tail at failover time.
    streaming_ = false;
    return Status::Error(Errc::kUnavailable, "primary crashed at commit");
  }
  CommitInfo info;
  info.epoch = epoch_;
  info.durable_at = done;
  seq_ = 0;
  streaming_ = false;
  epoch_++;
  sim_->metrics.counter("backend." + name_ + ".epochs_committed").Add();
  // Continuous ingest: the standby pumps on every commit (the co-hosted
  // simulation's stand-in for its ingest loop).
  standby_->Pump();
  auto rec = standby_->FindImage(group, info.epoch);
  if (rec.ok()) {
    info.manifest_oid = (*rec)->manifest_oid;
  }
  return info;
}

Result<CheckpointBackend::LoadedManifest> ReplicaBackend::LoadManifest(
    const std::string& group_name, uint64_t epoch) {
  AURORA_ASSIGN_OR_RETURN(const ReplicaStandby::ImageRecord* rec,
                          standby_->FindImage(group_name, epoch));
  // Foreground pull: the restore blocks on the round trip.
  sim_->clock.Advance(sim_->cost.NetTransfer(rec->manifest.size()));
  return LoadedManifest{rec->epoch, rec->manifest_oid, rec->manifest};
}

Result<MemoryResolverFn> ReplicaBackend::MakeResolver(uint64_t epoch, RestoreMode mode,
                                                      std::shared_ptr<SimTime> stream_done) {
  (void)epoch;  // LoadManifest served the one epoch the standby holds
  const ReplicaStandby* standby = standby_;
  SimContext* sim = sim_;
  if (mode == RestoreMode::kFull) {
    // Pull streams: independent objects arrive on parallel lanes while the
    // OS state rebuilds; the caller advances to the makespan at the end.
    auto lanes = std::make_shared<LaneSchedule>(lanes_.lanes(), *stream_done);
    auto wire = std::make_shared<SimTime>(*stream_done);
    return MemoryResolverFn(
        [standby, sim, stream_done, lanes, wire](Oid oid, uint64_t size) -> Result<ResolvedMemory> {
          uint64_t pages = 0;
          AURORA_ASSIGN_OR_RETURN(auto obj, standby->Materialize(oid.value, size, &pages));
          SimTime done = LaneTransfer(sim->cost, lanes.get(), wire.get(), 0,
                                      pages * (kPageSize + kPageHeaderBytes));
          *stream_done = std::max(*stream_done, done);
          return ResolvedMemory{std::move(obj), false};
        });
  }
  // Remote paging: one synchronous round trip per fault.
  return standby->LazyResolver(sim, sim->cost.NetTransfer(kPageSize + kPageHeaderBytes));
}

bool ReplicaBackend::InstallPager(VmObject* base) {
  SimDuration per_fault = sim_->cost.NetTransfer(kPageSize + kPageHeaderBytes);
  return BackWithPager(base, standby_->ImagePager(base->sls_oid(), sim_, per_fault));
}

// -----------------------------------------------------------------------------
// Shared store helpers
// -----------------------------------------------------------------------------

Result<CheckpointBackend::LoadedManifest> LoadManifestFromStore(ObjectStore* store,
                                                                const std::string& group_name,
                                                                uint64_t epoch) {
  std::vector<CheckpointInfo> ckpts = store->ListCheckpoints();
  std::sort(ckpts.begin(), ckpts.end(),
            [](const CheckpointInfo& a, const CheckpointInfo& b) { return a.epoch > b.epoch; });
  for (const CheckpointInfo& c : ckpts) {
    if (epoch != 0 && c.epoch != epoch) {
      continue;
    }
    auto table = store->TableAt(c.epoch);
    if (!table.ok()) {
      continue;
    }
    // The epoch's manifests by oid, read in ascending oid order.
    std::map<Oid, uint64_t> manifests;
    for (const auto& [oid, info] : **table) {
      if (info.type == ObjType::kManifest) {
        manifests.emplace(oid, info.size);
      }
    }
    for (const auto& [oid, size] : manifests) {
      std::vector<uint8_t> blob(size);
      if (!store->ReadAtEpoch(c.epoch, oid, 0, blob.data(), blob.size()).ok()) {
        continue;
      }
      auto head = PeekManifest(blob);
      if (head.ok() && head->name == group_name) {
        return CheckpointBackend::LoadedManifest{c.epoch, oid, std::move(blob)};
      }
    }
    if (epoch != 0) {
      break;
    }
  }
  return Status::Error(Errc::kNotFound, "no checkpoint manifest for group " + group_name);
}

Status WalkStoredPages(ObjectStore* store, uint64_t epoch, Oid oid, uint64_t size,
                       uint64_t since_epoch, SimTime* completion, const StoredPageFn& page) {
  AURORA_ASSIGN_OR_RETURN(const ObjectTable* table, store->TableAt(epoch));
  auto info = table->find(oid);
  if (info == table->end()) {
    return Status::Error(Errc::kNotFound, "object absent from checkpoint");
  }
  const uint32_t bs = store->block_size();
  const uint64_t pages_per_block = bs / kPageSize;
  std::vector<uint8_t> block(bs);
  for (const auto& [logical, extent] : info->second.extents) {
    if (extent.birth <= since_epoch) {
      continue;
    }
    AURORA_RETURN_IF_ERROR(
        store->ReadAtEpoch(epoch, oid, logical * bs, block.data(), bs, completion));
    uint64_t first = logical * pages_per_block;
    for (uint64_t p = 0; p < pages_per_block && first + p < PagesOf(size); p++) {
      page(first + p, block.data() + p * kPageSize);
    }
  }
  return Status::Ok();
}

}  // namespace aurora
