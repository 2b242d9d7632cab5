// Pluggable checkpoint backends (paper section 4, Table 2).
//
// Aurora ships checkpoints to interchangeable destinations: the local COW
// object store, and a warm standby on a remote machine over the NIC, in the
// epoch wire format `sls send` / `sls recv` also speak
// (src/core/epoch_stream.h). The interface is split by role:
//
//   CheckpointBackend      — a restore source: manifests, the namespace,
//       memory resolvers and demand pagers. The standby's image table is
//       one (ReplicaStandby), and so is every destination.
//   CheckpointDestination  — a source that also takes checkpoints: object
//       naming, page shipping, the namespace and the epoch commit. The store
//       (StoreBackend) and the replica stream (ReplicaBackend) are the two.
//
// The Sls checkpoint pipeline talks to a destination and the restore
// pipeline to a source, so the stages are written once and the backend only
// decides where bytes land and what each transfer costs.
//
// Durability timing model: WriteObjectPages/CommitEpoch stage their data
// synchronously (the simulation's state is updated immediately) but return
// the simulated time the bytes become durable, which may be in the future —
// the flush overlaps application execution exactly as the store path always
// has.
#ifndef SRC_CORE_BACKEND_H_
#define SRC_CORE_BACKEND_H_

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/base/result.h"
#include "src/base/rng.h"
#include "src/base/sim_context.h"
#include "src/core/epoch_stream.h"
#include "src/core/serialize.h"
#include "src/fs/aurora_fs.h"
#include "src/objstore/object_store.h"
#include "src/vm/page_frame.h"
#include "src/vm/page_index.h"

namespace aurora {

enum class CheckpointMode {
  kFull,        // serialize + shadow + flush to the backend + commit
  kMemoryOnly,  // serialize + shadow only; snapshot stays in memory
};

enum class RestoreMode {
  kFull,  // materialize all pages from the backend eagerly
  kLazy,  // restore OS state only; pages fault in on demand
};

// A restore source.
class CheckpointBackend {
 public:
  virtual ~CheckpointBackend() = default;

  virtual const std::string& name() const = 0;

  struct LoadedManifest {
    uint64_t epoch = 0;
    Oid oid;
    std::vector<uint8_t> blob;
  };
  // Finds and reads the manifest for `group_name` at `epoch` (0 = newest).
  [[nodiscard]] virtual Result<LoadedManifest> LoadManifest(const std::string& group_name,
                                                            uint64_t epoch) = 0;
  // Rolls the file-system namespace back to the checkpointed one.
  [[nodiscard]] virtual Status RestoreNamespace(uint64_t epoch, Oid ns_oid) = 0;
  // Builds the memory resolver RestoreOsState uses to materialize each
  // region object. kFull resolvers stream eagerly and accumulate their read
  // completion into *stream_done (the caller advances to it once at the
  // end); kLazy resolvers install demand pagers.
  [[nodiscard]] virtual Result<MemoryResolverFn> MakeResolver(
      uint64_t epoch, RestoreMode mode, std::shared_ptr<SimTime> stream_done) = 0;
};

// A checkpoint destination: a restore source that also takes checkpoints.
class CheckpointDestination : public CheckpointBackend {
 public:
  // Epoch the next commit will seal (matches ObjectStore::current_epoch()).
  virtual uint64_t current_epoch() const = 0;
  // Names a new memory-region object in this backend's namespace.
  [[nodiscard]] virtual Result<Oid> CreateMemoryObject(uint64_t size_hint) = 0;
  // Persists the file-system namespace; backends without a filesystem return
  // kInvalidOid and the manifest simply records no namespace. `replaces` is
  // the namespace object the group's previous checkpoint persisted; it leaves
  // the live table once the new one is written (it stays readable at its own
  // epoch).
  [[nodiscard]] virtual Result<Oid> PersistNamespace(Oid replaces) = 0;
  // Ships every resident page of `obj` to the object named `oid`, returning
  // the simulated time the pages are durable at the destination. Adds the
  // pages shipped to *pages and the bytes they took to *bytes.
  [[nodiscard]] virtual Result<SimTime> WriteObjectPages(Oid oid, VmObject* obj, uint64_t* pages,
                                                         uint64_t* bytes) = 0;
  // Flushes file data dirtied since the last checkpoint (checkpoint
  // consistency makes fsync a no-op); no-op for backends without files.
  [[nodiscard]] virtual Result<SimTime> FlushFilesystem() = 0;

  struct CommitInfo {
    uint64_t epoch = 0;     // epoch this checkpoint committed as
    Oid manifest_oid;       // invalid when `manifest` was empty
    SimTime durable_at = 0; // when the manifest + commit record are durable
  };
  // Seals the epoch: writes the manifest (skipped when empty, e.g. for
  // sls_memckpt region checkpoints) and commits. `replaces_manifest` is the
  // group's previous manifest object, dropped from the live table.
  [[nodiscard]] virtual Result<CommitInfo> CommitEpoch(const std::string& ckpt_name,
                                                       const std::vector<uint8_t>& manifest,
                                                       Oid replaces_manifest) = 0;

  // Whether `source` holds this destination's objects under the names this
  // destination gave them, so a group restored from it keeps those names.
  virtual bool SharesNames(const CheckpointBackend* source) const { return source == this; }

  // --- Unified checkpoint/swap path (paper section 6) ----------------------
  // Backs the fully-durable, parentless object `base` with this destination
  // so dropped frames stream back on fault. Returns false when `base` cannot
  // be safely paged (no oid, mid-chain, ...) — the caller must then keep its
  // frames resident.
  virtual bool InstallPager(VmObject* base) = 0;
};

// -----------------------------------------------------------------------------
// StoreBackend: today's path — the local COW object store + AuroraFS.
// -----------------------------------------------------------------------------
class StoreBackend : public CheckpointDestination {
 public:
  StoreBackend(SimContext* sim, ObjectStore* store, AuroraFs* fs)
      : sim_(sim), store_(store), fs_(fs) {}

  const std::string& name() const override { return name_; }
  uint64_t current_epoch() const override { return store_->current_epoch(); }
  [[nodiscard]] Result<Oid> CreateMemoryObject(uint64_t size_hint) override;
  [[nodiscard]] Result<Oid> PersistNamespace(Oid replaces) override {
    return fs_->PersistNamespace(replaces);
  }
  [[nodiscard]] Result<SimTime> WriteObjectPages(Oid oid, VmObject* obj, uint64_t* pages,
                                                 uint64_t* bytes) override;
  [[nodiscard]] Result<SimTime> FlushFilesystem() override { return fs_->FlushAll(); }
  [[nodiscard]] Result<CommitInfo> CommitEpoch(const std::string& ckpt_name,
                                               const std::vector<uint8_t>& manifest,
                                               Oid replaces_manifest) override;
  [[nodiscard]] Result<LoadedManifest> LoadManifest(const std::string& group_name,
                                                    uint64_t epoch) override;
  [[nodiscard]] Status RestoreNamespace(uint64_t epoch, Oid ns_oid) override {
    return fs_->RestoreNamespace(epoch, ns_oid);
  }
  [[nodiscard]] Result<MemoryResolverFn> MakeResolver(
      uint64_t epoch, RestoreMode mode, std::shared_ptr<SimTime> stream_done) override;
  bool InstallPager(VmObject* base) override;

  ObjectStore* store() { return store_; }

 private:
  // Removes a manifest object created by a CommitEpoch that then failed, so
  // the live table never points at a manifest no committed epoch covers.
  void DropStrandedManifest(Oid oid);

  SimContext* sim_;
  ObjectStore* store_;
  AuroraFs* fs_;
  std::string name_ = "store";
};

// -----------------------------------------------------------------------------
// Warm-standby live replication (DESIGN.md section 18).
//
// A second simulated machine continuously ingests the primary's epoch stream
// into a ready-to-run image table. The pieces:
//
//   ReplicaBackend  (primary side)  — a CheckpointBackend that ships every
//       epoch as CRC-sealed frames (src/core/epoch_stream.h) over a
//       ReplicaLink, plus the heartbeat that keeps the standby's lease fresh.
//   ReplicaLink     (the wire)      — at-least-once, possibly out-of-order
//       delivery: frames can be duplicated or reordered (seeded), and the
//       link can partition — cleanly or mid-epoch via a frame fuse.
//   ReplicaStandby  (standby side)  — the replica state machine: reassembles
//       frames into pending epochs, validates each complete one through
//       DecodeEpoch, and applies it once its base is applied, into the image
//       table, which keeps each group's newest applied epoch; tracks
//       applied/validated watermarks; PrepareFailover() promotes on the last
//       durable epoch with validated speculation (see DESIGN.md section 18
//       for the state machine and failover invariants). `sls recv` hands it
//       a stream's frames instead of a link's: a migration session is a
//       standby.
// -----------------------------------------------------------------------------

// One frame on the replica wire: its encoded bytes and when they are
// through the wire.
struct WireFrame {
  std::vector<uint8_t> bytes;
  SimTime arrival = 0;
};

// The primary -> standby wire. The sender pushes frames (refusing them while
// partitioned); the receiver drains them in delivery order with the fault
// profile's reordering/duplication applied. Also the heartbeat channel.
class ReplicaLink {
 public:
  struct FaultProfile {
    uint64_t seed = 0x7265706C;   // "repl"
    double reorder_rate = 0.0;    // P(adjacent frames swap at delivery)
    double duplicate_rate = 0.0;  // P(a frame is delivered twice)
  };

  void SetFaults(const FaultProfile& profile) {
    faults_ = profile;
    rng_ = Rng(profile.seed);
  }
  // Hard partition: subsequent pushes fail (the sender sees kUnavailable
  // after its retries). Frames already on the wire stay deliverable — they
  // left the primary before the cut.
  void SetPartitioned(bool on) { partitioned_ = on; }
  bool partitioned() const { return partitioned_; }
  // Fuse: accept `n` more frames, then partition. Mid-epoch partitions and
  // primary-crash injection points for the failover matrix.
  void PartitionAfterFrames(uint64_t n) {
    fuse_armed_ = true;
    partition_fuse_ = n;
  }

  // Sender side: false when the frame could not be put on the wire
  // (partitioned). A frame is delivered whole or not at all.
  bool Push(WireFrame frame);
  // Receiver side: every wire frame, in delivery order.
  std::vector<WireFrame> TakeDeliverable();

  void RecordHeartbeat(SimTime t) { last_heartbeat_ = std::max(last_heartbeat_, t); }
  SimTime last_heartbeat() const { return last_heartbeat_; }
  size_t in_flight() const { return wire_.size(); }
  uint64_t frames_pushed() const { return frames_pushed_; }

 private:
  std::vector<WireFrame> wire_;
  FaultProfile faults_;
  Rng rng_{0x7265706C};
  bool partitioned_ = false;
  bool fuse_armed_ = false;
  uint64_t partition_fuse_ = 0;
  SimTime last_heartbeat_ = 0;
  uint64_t frames_pushed_ = 0;
};

// Standby side: ingests the epoch stream, validates, applies, and promotes.
// A restore source only. It keeps one image: each group's newest applied
// epoch over one table that holds one host copy of each applied page, as a
// PageFrame. The table serves the cold and lazy restore paths; the warm
// images that make failover O(dirty-since-last-applied-epoch) are the
// model's, charged at apply and at demotion, and a promotion hands them out
// as the table's own frames, shared until the promoted group writes a page.
// An older epoch is not held (kNotFound). It takes no checkpoints, so
// a group restored from it keeps the checkpoint destination it had, and
// names the image afresh there. `link` is null for a standby that `sls recv`
// feeds from streams (a migration session); sls recv never promotes it, so
// it models no warm images (a promotion would copy cold from the table).
class ReplicaStandby : public CheckpointBackend {
 public:
  ReplicaStandby(SimContext* sim, ReplicaLink* link, std::string name = "standby")
      : sim_(sim), link_(link), name_(std::move(name)) {}

  // One object of the image table. `warm` says whether the model's warm
  // image of it is current: applied pages patched it, and no promotion has
  // handed it out since.
  struct ObjectImage {
    uint64_t size = 0;
    PageIndex<PageFrame> pages;  // pgidx -> the applied bytes of that page
    bool warm = false;
  };
  // A group's newest applied epoch.
  struct ImageRecord {
    uint64_t epoch = 0;
    Oid manifest_oid;
    std::vector<uint8_t> manifest;
  };

  const std::string& name() const override { return name_; }
  [[nodiscard]] Result<LoadedManifest> LoadManifest(const std::string& group_name,
                                                    uint64_t epoch) override;
  // A stream carries no file names, so there is nothing to roll back.
  [[nodiscard]] Status RestoreNamespace(uint64_t /*epoch*/, Oid /*ns_oid*/) override {
    return Status::Ok();
  }
  // Warm/delta restore for a prepared failover; otherwise a cold copy out of
  // the image table (kFull) or demand paging from it (kLazy). The table holds
  // only the epoch LoadManifest serves, so `epoch` is that one.
  [[nodiscard]] Result<MemoryResolverFn> MakeResolver(
      uint64_t epoch, RestoreMode mode, std::shared_ptr<SimTime> stream_done) override;

  // The stream's object names are the standby's: the primary's
  // ReplicaBackend names each new region here, and the table records its
  // size.
  Oid NameObject(uint64_t size_hint);

  // A fresh object of `size` holding every applied page of `oid`; adds the
  // pages the model copies to *pages. The object shares the table's frames:
  // the host copies a page only when the object's owner writes it. kCorrupt
  // when the image holds a page at or beyond `size`, the size a manifest
  // gives the object.
  [[nodiscard]] Result<std::shared_ptr<VmObject>> Materialize(uint64_t oid, uint64_t size,
                                                              uint64_t* pages) const;
  // Demand pager over the image of `oid`: a fault hands out the applied
  // page's frame, shared with the table as Materialize shares it, and
  // charges `per_fault` to `sim`'s clock (the model's local copy, or a pull
  // across a link); a page the image lacks fails the fault.
  VmObject::Pager ImagePager(uint64_t oid, SimContext* sim, SimDuration per_fault) const;
  // The kLazy resolver over this table: every object pages in on demand
  // through ImagePager, and is refused as Materialize refuses it.
  MemoryResolverFn LazyResolver(SimContext* sim, SimDuration per_fault) const;

  const std::map<uint64_t, ObjectImage>& object_table() const { return objects_; }
  // The newest applied epoch of `group_name` when `epoch` is 0 or that
  // epoch; kNotFound for any other.
  [[nodiscard]] Result<const ImageRecord*> FindImage(const std::string& group_name,
                                                     uint64_t epoch) const;

  // --- Continuous ingest ---------------------------------------------------
  // Drains the link, places every frame and applies what is ready.
  void Pump();
  // Places one frame into its pending epoch by its header, deduping
  // replayed frames and whole replayed epochs. A frame whose header does
  // not parse is dropped; its epoch waits for re-delivery.
  void Place(WireFrame frame);
  // Validates every complete pending epoch whole through DecodeEpoch and
  // applies it once its base is applied: its commit's since_epoch is at
  // most the applied epoch (0 = a full image). A replica stream's commits
  // name the epoch before, so it applies in strict epoch order; an `sls
  // send` delta may skip epochs. A validation failure rolls the epoch back
  // and poisons the chain: later epochs are deltas on top of the lost one,
  // so they wait until the at-least-once link re-delivers it intact rather
  // than composing into a torn image. An epoch at or below the applied one
  // can no longer apply and is dropped.
  void ApplyReady();

  // Watermarks and lag.
  uint64_t last_applied_epoch() const { return applied_epoch_; }
  uint64_t last_validated_epoch() const { return validated_epoch_; }
  uint64_t newest_seen_epoch() const;
  uint64_t pending_epochs() const { return pending_.size(); }
  // When the modeled warm images are caught up with everything applied so
  // far.
  SimTime ingest_busy_until() const { return ingest_busy_until_; }

  // --- Heartbeat lease -----------------------------------------------------
  // How long a heartbeat (or any frame, which doubles as one) keeps the
  // primary's lease fresh.
  static constexpr SimDuration kLease = 50 * kMillisecond;
  SimDuration lease() const { return kLease; }
  // kBusy while the primary's lease is still fresh (split-brain guard).
  [[nodiscard]] Status LeaseCheck() const;

  // --- Fault injection (standby-side latent sector analogue) ---------------
  // Flips the last page byte of an already-received pending data frame of
  // `epoch`, so the apply-time CRC validation must catch it. False if
  // nothing to corrupt.
  bool CorruptPendingPage(uint64_t epoch);

  // --- Failover ------------------------------------------------------------
  struct FailoverPlan {
    uint64_t epoch = 0;        // the epoch the promotion restores
    bool speculated = false;   // an in-flight epoch completed during the drain
    bool rolled_back = false;  // a torn/invalid epoch was discarded
    uint64_t delta_pages = 0;  // pages patched beyond the warm base image
    SimTime ready_at = 0;      // when the warm images are consistent
  };
  // Declares the primary dead (lease check unless `force`), drains the link
  // so a partially-received epoch finishes streaming (validated speculation),
  // rolls back whatever cannot validate, and pins the promote epoch. The
  // caller completes promotion with Sls::Restore(group, plan.epoch, kFull,
  // this) — the overridden resolver then hands out the warm images.
  [[nodiscard]] Result<FailoverPlan> PrepareFailover(bool force = false);
  bool promoted() const { return promoted_; }
  // Back to ingest duty: the model rebuilds every warm image from the table
  // (the previous ones now belong to the promoted incarnation), charged to
  // the ingest timeline.
  void Demote();

  // Status lines for `sls repl`.
  std::vector<std::string> Describe() const;

 private:
  struct PendingEpoch {
    std::map<uint64_t, WireFrame> frames;  // seq -> frame
    uint64_t attempt = 0;
    uint64_t nframes = 0;  // 0 until the commit frame arrives
    SimTime last_arrival = 0;
  };

  // Applies `epoch`, which DecodeEpoch read out of `source`'s frames, and
  // releases the bytes of each of those data frames once its object is in
  // the table.
  void ApplyEpoch(const DecodedEpoch& epoch, PendingEpoch* source);
  // kCorrupt when the image of `oid` holds a page at or beyond `size`.
  [[nodiscard]] Status CheckPages(uint64_t oid, uint64_t size) const;

  SimContext* sim_;
  ReplicaLink* link_;
  std::string name_;
  uint64_t next_oid_ = 1;
  std::map<uint64_t, ObjectImage> objects_;
  std::map<std::string, ImageRecord> images_;  // group -> its newest applied epoch
  std::map<uint64_t, PendingEpoch> pending_;
  uint64_t applied_epoch_ = 0;
  uint64_t validated_epoch_ = 0;
  // A rolled-back epoch breaks the delta chain until a clean re-delivery of
  // that epoch heals it; at failover time the primary is gone, so a still-
  // poisoned chain rolls back to the last applied epoch.
  uint64_t poisoned_epoch_ = 0;
  SimTime ingest_busy_until_ = 0;
  uint64_t pages_applied_total_ = 0;  // lifetime pages patched into warm images
  bool promoted_ = false;
};

// Primary side: ships every checkpoint epoch over the ReplicaLink, one data
// frame per object written and then the commit frame, and pulls images back
// across the link on restore. Pages ship raw, never as references: the
// standby validates each epoch on its own, so a reference into an epoch it
// may not hold could never be checked. NIC timing: each frame queues on one
// of the stream lanes; latency halves overlap across lanes while the wire's
// byte time is shared, and with one lane the stream timeline always covers
// the wire, i.e. the serial link.
class ReplicaBackend : public CheckpointDestination {
 public:
  ReplicaBackend(SimContext* sim, ReplicaStandby* standby, ReplicaLink* link,
                 std::string name = "replica")
      : sim_(sim),
        standby_(standby),
        link_(link),
        name_(std::move(name)),
        lanes_(sim->FlushLanes()) {}

  // Crash fuse: the primary dies after pushing `n` more frames. Later
  // backend calls fail kUnavailable; the wire prefix stays deliverable.
  void CrashAfterFrames(uint64_t n) {
    crash_armed_ = true;
    crash_fuse_ = n;
  }
  bool crashed() const { return crashed_; }

  // Standalone heartbeat (periodic liveness between checkpoints). Fails
  // typed kUnavailable when the link is partitioned away.
  [[nodiscard]] Status SendHeartbeat();

  const std::string& name() const override { return name_; }
  uint64_t current_epoch() const override { return epoch_; }
  [[nodiscard]] Result<Oid> CreateMemoryObject(uint64_t size_hint) override;
  [[nodiscard]] Result<Oid> PersistNamespace(Oid /*replaces*/) override { return kInvalidOid; }
  [[nodiscard]] Result<SimTime> WriteObjectPages(Oid oid, VmObject* obj, uint64_t* pages,
                                                 uint64_t* bytes) override;
  [[nodiscard]] Result<SimTime> FlushFilesystem() override { return sim_->clock.now(); }
  [[nodiscard]] Result<CommitInfo> CommitEpoch(const std::string& ckpt_name,
                                               const std::vector<uint8_t>& manifest,
                                               Oid replaces_manifest) override;
  [[nodiscard]] Result<LoadedManifest> LoadManifest(const std::string& group_name,
                                                    uint64_t epoch) override;
  [[nodiscard]] Status RestoreNamespace(uint64_t /*epoch*/, Oid /*ns_oid*/) override {
    return Status::Error(Errc::kNotSupported, "replica backend holds no namespace");
  }
  [[nodiscard]] Result<MemoryResolverFn> MakeResolver(
      uint64_t epoch, RestoreMode mode, std::shared_ptr<SimTime> stream_done) override;
  bool InstallPager(VmObject* base) override;
  // The standby names every object this backend ships.
  bool SharesNames(const CheckpointBackend* source) const override {
    return source == this || source == standby_;
  }

  ReplicaStandby* standby() { return standby_; }

 private:
  // Modeled wire bytes of a page beyond its 4 KiB: page index + length.
  static constexpr uint64_t kPageHeaderBytes = 16;
  // A send waits out a partition for this many attempts before giving up,
  // the backoff doubling after each, from the first.
  static constexpr int kSendAttempts = 4;
  static constexpr SimDuration kSendBackoff = 2 * kMillisecond;

  // The frame id for the next frame of this epoch's stream, opening the
  // stream under a fresh attempt id unless one is already open.
  FrameId NextFrameId();
  // Queues `payload` bytes on the next stream lane and returns their arrival
  // time. Never advances the local clock: shipping is asynchronous.
  SimTime QueueTransfer(uint64_t payload);
  // Waits out a partition with exponential backoff; false once
  // kSendAttempts are spent (counted in net.partitions).
  bool AwaitLink();
  // Pushes one frame through the link once AwaitLink clears it; typed
  // kUnavailable when the link stays partitioned or cuts mid-epoch.
  [[nodiscard]] Result<SimTime> ShipFrame(std::vector<uint8_t> frame, uint64_t payload_bytes);

  SimContext* sim_;
  ReplicaStandby* standby_;
  ReplicaLink* link_;
  std::string name_;
  LaneSchedule lanes_;  // one NIC stream per machine flush lane
  SimTime wire_busy_ = 0;  // the wire's byte time, shared by every lane
  uint64_t epoch_ = 1;
  uint64_t attempt_ = 0;   // bumped when an epoch stream (re)starts
  uint64_t seq_ = 0;       // next frame seq within the current epoch
  bool streaming_ = false;
  bool crashed_ = false;
  bool crash_armed_ = false;
  uint64_t crash_fuse_ = 0;
};

// -----------------------------------------------------------------------------
// Shared store helpers (used by Sls, StoreBackend and `sls send`, so manifest
// lookup is implemented exactly once).
// -----------------------------------------------------------------------------
// Scans committed checkpoints newest-first for a manifest whose header names
// `group_name`; `epoch` 0 = newest. Within an epoch it reads the table's
// manifest objects in ascending oid order. Returns the manifest the scan
// read.
[[nodiscard]] Result<CheckpointBackend::LoadedManifest> LoadManifestFromStore(
    ObjectStore* store, const std::string& group_name, uint64_t epoch);

// The one split of stored blocks into pages: reads `oid` as `epoch` committed
// it. For each extent born after `since_epoch` (0 = every extent), in
// ascending block order, one whole-block ReadAtEpoch, pipelined into
// *completion when it is set and synchronous otherwise; then `page(pgidx,
// bytes)` for each of that block's pages below `size`, while the block's
// buffer is live. kNotFound when the epoch or the object is absent. The
// eager store resolver and `sls send` are its callers.
using StoredPageFn = std::function<void(uint64_t pgidx, const uint8_t* bytes)>;
[[nodiscard]] Status WalkStoredPages(ObjectStore* store, uint64_t epoch, Oid oid, uint64_t size,
                                     uint64_t since_epoch, SimTime* completion,
                                     const StoredPageFn& page);

}  // namespace aurora

#endif  // SRC_CORE_BACKEND_H_
