// The Aurora object store (paper section 7).
//
// A copy-on-write store holding one on-disk object per POSIX object, memory
// region or file. Design points taken from the paper:
//   * COW everywhere: no data is modified in place, so a crash can never
//     corrupt a committed checkpoint; recovery picks the newest superblock
//     whose metadata checksums verify.
//   * Checkpoints are cheap: a commit serializes the object table and writes
//     one superblock; there is no log cleaner. Reclamation is deadlist-based
//     like WAFL/ZFS: a block born at epoch B and overwritten at epoch K can
//     be freed once no retained checkpoint's epoch lies in [B, K).
//   * Execution history: every committed epoch remains readable (TableAt
//     and ReadAtEpoch) until explicitly deleted.
//   * Non-COW journal objects for the sls_journal API: preallocated extents
//     updated in place with self-describing records, giving the 28 us
//     synchronous 4 KiB append of section 7.
//   * Log-structured layout: the device is carved into fixed-size segments
//     and every COW write appends to a per-lane open segment. Overwrites
//     only mark the old block dead; whole segments are reclaimed when
//     pruning (or the background SegmentGc) drains them, so long-horizon
//     runs see flat space usage instead of allocator exhaustion. Every
//     segment-state change goes through SegTransition's lifecycle graph.
//   * The blob persists only what cannot be derived (store_format.h). The
//     allocation bitmap and the segment table are the allocator's own
//     state, which Rebuild derives from the persisted tables at mount, and
//     the next blob's place follows from the newest checkpoint record, so a
//     commit's metadata does not grow with the device.
#ifndef SRC_OBJSTORE_OBJECT_STORE_H_
#define SRC_OBJSTORE_OBJECT_STORE_H_

#include <array>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/base/checksum.h"
#include "src/base/io_retry.h"
#include "src/base/result.h"
#include "src/base/sim_context.h"
#include "src/objstore/extent_codec.h"
#include "src/objstore/oid.h"
#include "src/objstore/store_format.h"
#include "src/storage/block_device.h"

namespace aurora {

struct CheckpointInfo {
  uint64_t epoch = 0;
  std::string name;
  SimTime committed_at = 0;
};

struct StoreStats {
  uint64_t blocks_allocated = 0;
  uint64_t blocks_freed = 0;
  uint64_t commits = 0;
  uint64_t journal_appends = 0;
  // Flush-path dedup/compression accounting. bytes_stored counts physical
  // device bytes actually written for COW data (post dedup, post codec) —
  // the delta across a flush is what the backend reports as bytes flushed.
  uint64_t bytes_stored = 0;
  uint64_t bytes_deduped = 0;            // logical bytes resolved by index hits
  uint64_t bytes_compressed_saved = 0;   // logical minus stored, codec wins only
  uint64_t dedup_hits = 0;
};

enum class SegState : uint8_t {
  kFree = 0,     // no valid data, available to the allocator
  kOpen = 1,     // a flush lane (or GC) is appending into it
  kSealed = 2,   // full data segment; GC victim candidate
  kMeta = 3,     // metadata blobs (+ the superblock ring in segment 0)
  kJournal = 4,  // non-COW journal extents, updated in place
  kZombie = 5,   // evacuated by GC; reclaimed after the next commit
  // Failed its CRC walk during GC evacuation. Listed in StoreMeta::quarantined
  // so a remount never re-selects it; it stays pinned (never reclaimed,
  // never a victim) until the scrubber's repair story evolves.
  kQuarantine = 6,
};

struct Segment {
  SegState state = SegState::kFree;
  uint64_t cursor = 0;  // blocks appended so far (next append offset)
};

// Point-in-time view of the segment log.
struct SegmentStats {
  uint64_t segments_total = 0;
  uint64_t segments_free = 0;
  uint64_t segments_open = 0;
  uint64_t segments_sealed = 0;
  uint64_t segments_meta = 0;
  uint64_t segments_journal = 0;
  uint64_t segments_zombie = 0;
  uint64_t segments_quarantined = 0;
  uint64_t live_blocks = 0;  // referenced blocks below segment cursors
  uint64_t dead_blocks = 0;  // appended-then-killed blocks awaiting reclaim
  uint64_t reloc_entries = 0;
  // Sealed data segments bucketed by live/capacity decile ([0] = emptiest).
  std::array<uint64_t, 10> util_histogram{};
};

class ObjectStore {
 public:
  // Formats `device` and returns an empty store at epoch 1.
  [[nodiscard]] static Result<std::unique_ptr<ObjectStore>> Format(
      BlockDevice* device, SimContext* sim, StoreOptions options = StoreOptions());
  // Mounts an existing store, recovering to the last complete checkpoint.
  // A store formatted with the retired free-list layout is kNotSupported.
  [[nodiscard]] static Result<std::unique_ptr<ObjectStore>> Open(BlockDevice* device,
                                                                 SimContext* sim);

  // --- Objects -------------------------------------------------------------
  [[nodiscard]] Result<Oid> CreateObject(ObjType type, uint64_t size_hint = 0);
  [[nodiscard]] Status DeleteObject(Oid oid);
  bool Exists(Oid oid) const { return meta_.objects.count(oid) > 0; }
  [[nodiscard]] Result<uint64_t> SizeOf(Oid oid) const;
  std::vector<Oid> ListObjects() const;

  // Byte-granularity COW I/O against the current (uncommitted) epoch.
  // Writes return the simulated device completion time so checkpoint
  // flushes can overlap writes and wait for the latest completion only.
  //
  // WriteAtBatch is the store's one block-write loop. All runs touching one
  // store block fold into a single read-modify-write of that block, and the
  // RMW reads are asynchronous: page-granular dirty sets must not cause one
  // 64 KiB rewrite per 4 KiB page, nor foreground stalls on device reads.
  // Each store block is one flush lane's unit of work; the machine's lanes
  // (SimContext::flush_lanes) fan the blocks over device submission queues.
  // Block placement (AppendBlock call order) and contents do not depend on
  // the lane count, so the stored bytes are identical for any lane count;
  // only completion times change. WriteAt is its one-run form.
  struct IoRun {
    uint64_t off = 0;
    const uint8_t* data = nullptr;
    uint64_t len = 0;
  };
  [[nodiscard]] Result<SimTime> WriteAtBatch(Oid oid, const std::vector<IoRun>& runs);
  [[nodiscard]] Result<SimTime> WriteAt(Oid oid, uint64_t off, const void* data, uint64_t len) {
    return WriteAtBatch(oid, {IoRun{off, static_cast<const uint8_t*>(data), len}});
  }
  [[nodiscard]] Status ReadAt(Oid oid, uint64_t off, void* out, uint64_t len);

  // Execution history: the two historic reads. TableAt is the object table
  // a committed epoch recorded (each object's type, size and extents with
  // their birth epochs), decoded once through ReadMeta and cached until the
  // epoch is pruned: kNotFound for an epoch the directory lacks, the blob's
  // own error (kCorrupt) when it does not decode. The pointer stays valid
  // until DeleteCheckpointsBefore prunes the epoch.
  [[nodiscard]] Result<const ObjectTable*> TableAt(uint64_t epoch);
  // Reads from a committed checkpoint's view of the object (restore and
  // lazy-restore paging); kNotFound when the epoch lacks it. With
  // `completion` null the call is synchronous; otherwise reads are pipelined
  // asynchronously and the device completion time is reported through
  // `completion` (restore streaming).
  [[nodiscard]] Status ReadAtEpoch(uint64_t epoch, Oid oid, uint64_t off, void* out, uint64_t len,
                                   SimTime* completion = nullptr);

  // --- Checkpoints ----------------------------------------------------------
  // Seals the current epoch: serializes metadata, writes it COW, then writes
  // the superblock. Returns the durability time (all prior data writes plus
  // the metadata/superblock writes). The caller decides whether to block.
  [[nodiscard]] Result<SimTime> CommitCheckpoint(const std::string& name);
  uint64_t current_epoch() const { return meta_.epoch; }
  std::vector<CheckpointInfo> ListCheckpoints() const;
  // Frees blocks only needed by checkpoints older than `epoch`.
  [[nodiscard]] Status DeleteCheckpointsBefore(uint64_t epoch);

  // --- Journals (sls_journal) ----------------------------------------------
  [[nodiscard]] Result<Oid> CreateJournal(uint64_t capacity_bytes);
  // Synchronously appends one record; the clock advances to durability.
  [[nodiscard]] Status JournalAppend(Oid oid, const void* data, uint64_t len);
  // Rewinds the journal. Call only after a CommitCheckpoint so that replay
  // (which trusts the committed generation) matches the durable state.
  [[nodiscard]] Status JournalReset(Oid oid);
  [[nodiscard]] Result<std::vector<std::vector<uint8_t>>> JournalReplay(Oid oid);

  const StoreStats& stats() const { return stats_; }
  // Dedup index introspection + the crash-consistency invariant: every index
  // entry's refcount must equal the number of live-table extents referencing
  // its physical block, the reverse map must mirror the index exactly, and no
  // indexed block may sit on a deadlist. Swept by crash_matrix_test at every
  // fuse point and by the scrubber.
  uint64_t DedupEntries() const { return meta_.dedup_index.size(); }
  [[nodiscard]] Status CheckDedupInvariants() const;
  // The allocator's invariant: the live bitmap is exactly the one Rebuild
  // derives from the live tables, so a remount would hand out no block the
  // running store holds and hold none it freed.
  [[nodiscard]] Status CheckLiveBitmap() const;
  uint64_t FreeBlocks() const;
  // Physically occupied store blocks: every block below a non-free
  // segment's append cursor (dead-but-unreclaimed space included), which is
  // what long-horizon space usage actually is.
  uint64_t UsedPhysicalBlocks() const;
  SegmentStats GetSegmentStats() const;
  uint32_t segment_blocks() const { return meta_.options.segment_blocks; }
  uint32_t block_size() const { return meta_.options.block_size; }
  BlockDevice* device() { return device_; }
  SimContext* sim() { return sim_; }

 private:
  friend class Scrubber;
  friend class SegmentGc;

  // Lane key for the compactor's destination segment; never collides with a
  // real flush lane (those are < ncpus).
  static constexpr uint32_t kGcLane = 0xFFFFFFFFu;

  ObjectStore(BlockDevice* device, SimContext* sim, StoreOptions options);

  uint32_t DevBlocksPerStoreBlock() const { return block_size() / device_->block_size(); }
  // Store blocks the superblock ring occupies at the head of segment 0.
  uint64_t RingBlocks() const {
    return (kSuperSlots + DevBlocksPerStoreBlock() - 1) / DevBlocksPerStoreBlock();
  }
  uint64_t DevLba(uint64_t store_block) const {
    return store_block * DevBlocksPerStoreBlock();
  }

  void FreeBlock(uint64_t block);
  // Drops one live reference to an extent's physical block. Shared (indexed)
  // blocks decrement their refcount; the last reference retires the block
  // through the deadlist keyed by the index's first_birth.
  void KillExtent(const Extent& extent);

  // --- Flush-path dedup / compression (DESIGN.md section 17) ----------------
  // Stages one full store block of content: consult the dedup index (hit =
  // install a reference, no device write), else run the configured codec and
  // append the stored payload to `lane`. The content hash and the codec run
  // on the lane's timeline, not the clock, and the write is submitted when
  // they end. Returns the device completion time (the hash's end for an
  // index hit) and fills `out`; `lane_bytes`, when non-null, accumulates the
  // physical bytes this call charged to the lane.
  [[nodiscard]] Result<SimTime> StoreBlockCow(uint32_t lane, const uint8_t* block,
                                              Extent* out, uint64_t* lane_bytes);
  // Device blocks occupied by a stored payload (full store block when raw).
  uint32_t DevBlocksForStored(uint32_t stored_len) const;
  // Verifies the stored payload against the extent CRC and materializes the
  // full decoded block into `block` (decompressing when the extent carries a
  // codec). `stored` may alias `block` for raw extents.
  [[nodiscard]] Status DecodeStored(const Extent& extent, const uint8_t* stored,
                                    uint8_t* block);
  // Read + verify + decode an extent's block on submission queue `queue`,
  // under DevRead's completion rule. A waiting read reaches its completion
  // before DecodeStored charges the decompression.
  [[nodiscard]] Status LoadExtent(uint32_t queue, const Extent& extent, uint64_t phys,
                                  uint8_t* block, SimTime* completion);

  // Segment-log internals.
  uint64_t SegmentOf(uint64_t block) const { return block / segment_blocks(); }
  uint64_t SegBase(uint64_t seg) const { return seg * segment_blocks(); }
  uint64_t SegCapacity(uint64_t seg) const;
  uint64_t SegLiveBlocks(uint64_t seg) const { return seg_live_[seg]; }
  // Sets one block's live bit, and its segment's live count when the bit
  // flips: the only writer of either after Rebuild.
  void SetLive(uint64_t block, bool live);
  // What the persisted tables reference: the live bit of every block (the
  // superblock ring, live extents, deadlist entries, dedup entries, retained
  // blob runs and journal runs) and each segment's count of them, the role
  // each segment plays by what it holds (kMeta, kJournal, kSealed for data,
  // kFree for nothing), and each segment's blocks up to its highest live
  // one. `clash` is set when a segment would play two roles.
  struct Derived {
    std::vector<bool> live;
    std::vector<uint64_t> live_count;
    std::vector<SegState> role;
    std::vector<uint64_t> high;
    bool clash = false;
  };
  Derived DeriveAllocation() const;
  // The one rebuild of the allocator's state (bitmap, segment table, dedup
  // reverse map) from meta_, at Format and at mount:
  //   * the bitmap and each segment's live count are the derived ones;
  //   * an open data segment of a lane this machine runs stays open with its
  //     cursor just past its highest live block, and a meta segment's cursor
  //     sits there too;
  //   * every other segment holding something is full; listed segments are
  //     quarantined, and a data segment with no live block (an evacuated
  //     zombie among them) comes back free.
  // Where the next blob goes follows from the newest checkpoint record
  // (AllocMetaRun), so no open meta segment is kept.
  // kCorrupt when the tables give a segment two roles (a data extent in the
  // ring, a meta run or a journal run, an open-segment entry on a meta,
  // journal or quarantined segment), so such a blob never mounts.
  [[nodiscard]] Status Rebuild();
  // --- Sanctioned lifecycle mutations ---------------------------------------
  // Every segment-state and dedup-refcount change in src/objstore flows
  // through these three functions; aurora_lint's typestate family rejects
  // direct field writes anywhere else. SegTransition validates the move
  // against the lifecycle graph
  //   free -> open|meta|journal, open -> sealed,
  //   sealed -> zombie|quarantine|free, meta|journal|zombie -> free,
  //   quarantine -> (pinned)
  // counting violations in store.bad_seg_transitions (and asserting in debug
  // builds), then applies it: entering kFree resets the record, leaving kFree
  // installs the caller's cursor, and every other move changes only the
  // state. Entering kQuarantine also lists the segment in meta_.quarantined.
  void SegTransition(uint64_t seg, SegState to, uint64_t cursor = 0);
  static void DedupAddRef(DedupEntry& entry);
  static void DedupDropRef(DedupEntry& entry);
  [[nodiscard]] Result<uint64_t> AllocSegment(SegState state);
  // Append one block into the lane's open data segment, opening a new one
  // when full. The only data-block allocator: the COW write path and the
  // compactor both place blocks through it.
  [[nodiscard]] Result<uint64_t> AppendBlock(uint32_t lane);
  // Contiguous run for a metadata blob, appended into meta segments.
  [[nodiscard]] Result<uint64_t> AllocMetaRun(uint64_t nblocks);
  // Marks a run of blocks live (allocated) or frees it block by block.
  void HoldRun(uint64_t start, uint64_t nblocks);
  void FreeRun(uint64_t start, uint64_t nblocks);
  // A run of whole, contiguous free segments moved to `state`: journals
  // (in-place extents stay out of GC's way) and oversized metadata blobs.
  [[nodiscard]] Result<uint64_t> AllocSegmentRun(SegState state, uint64_t nblocks);
  void FreeJournalRun(uint64_t start, uint64_t nblocks);
  // Reclaims a fully dead sealed/meta segment back to the free pool.
  void MaybeReclaimSegment(uint64_t seg);
  // Post-commit: zombie segments evacuated by GC become free once the commit
  // that stopped referencing their old locations is durable.
  void ReclaimZombies();
  // Historic reads: translate a physical block recorded by a blob of
  // `view_epoch` through the relocation map.
  uint64_t TranslatePhys(uint64_t phys, uint64_t view_epoch) const;
  // Reads one extent's stored payload and checks it against the recorded
  // CRC32C; shared by the read paths, the Scrubber and the compactor
  // (kIoError on device failure, kCorrupt on checksum mismatch). `buf` must
  // hold a full store block; only the stored span is read and verified.
  [[nodiscard]] Status ReadBlockVerified(uint64_t phys, uint32_t crc, uint32_t stored_len,
                                         uint8_t* buf);
  void PublishSegmentGauges();

  // All device IO funnels through these two calls so transient faults are
  // retried with the shared bounded policy; hard errors (kCorrupt, bounds)
  // pass through untouched. Offsets are device LBAs / device blocks. With
  // `completion` null the call waits: the clock advances to the device's
  // completion. Otherwise the completion folds into *completion (max). A
  // write is submitted now, or with `lane` set at *lane: a flush lane's
  // timeline, which a retry's backoff then moves instead of the clock.
  [[nodiscard]] Status DevWrite(uint32_t queue, uint64_t lba, const void* data, uint32_t ndev,
                                SimTime* completion, SimTime* lane = nullptr);
  [[nodiscard]] Status DevRead(uint32_t queue, uint64_t lba, void* out, uint32_t ndev,
                               SimTime* completion);
  // End-to-end integrity: checks a full store block just read against the
  // CRC recorded when its extent was written. kCorrupt on mismatch.
  [[nodiscard]] Status VerifyBlockCrc(const Extent& extent, const uint8_t* data);

  // The one metadata reader: a single device read of the blob's run, then
  // DecodeMeta against this store's geometry. Open, historic-epoch reads
  // and the scrubber all go through it.
  [[nodiscard]] Result<StoreMeta> ReadMeta(uint64_t meta_block, uint64_t meta_len);
  // Writes this epoch's superblock slot; its completion folds into *done.
  [[nodiscard]] Status WriteSuperblock(uint64_t meta_block, uint64_t meta_len, SimTime* done);

  // A journal walked from its durable generation header: the acknowledged
  // records and the offset the next append goes to.
  struct JournalScan {
    uint64_t gen = 0;
    std::vector<std::vector<uint8_t>> records;
    uint64_t end = 0;
  };
  [[nodiscard]] Result<JournalScan> ScanJournal(const ObjectInfo& info);
  [[nodiscard]] Status RecoverJournalOffsets();

  // The live table's entry for `oid`: kNotFound when it is absent or, with
  // `journal`, not a journal.
  [[nodiscard]] Result<ObjectInfo*> FindObject(Oid oid, bool journal = false);
  // Reads an object's table entry as a blob of `view_epoch` recorded it,
  // translating through the relocation map. The live table is the view of
  // the current epoch, which no relocation entry postdates. With
  // `completion` set, reads pipeline asynchronously (see ReadAtEpoch).
  [[nodiscard]] Status ReadExtents(const ObjectInfo& info, uint64_t view_epoch, uint64_t off,
                                   void* out, uint64_t len, SimTime* completion);

  // Picks the submission queue for the next flush-path store block, and
  // records a block's lane I/O bytes and the busy time its CPU work added to
  // the lane's timeline since `since`.
  uint32_t NextFlushLane();
  void RecordLaneIo(uint32_t lane, uint64_t bytes, SimTime since);
  // Device queue for GC relocation writes: the earliest-free flush lane, so
  // evacuation traffic rides the lane with the least flush work ahead of it
  // (queue 0 with one lane).
  uint32_t GcWriteQueue() const { return static_cast<uint32_t>(lanes_.NextLane()); }

  BlockDevice* device_;
  SimContext* sim_;
  IoRetryPolicy retry_;

  // The persisted tables (store_format.h). EncodeMeta writes them in place
  // at every commit.
  StoreMeta meta_;
  // The allocator's state, rebuilt from meta_ at mount: the store's size in
  // blocks (the superblock's), one live bit per block with each segment's
  // count of them, and the segment table.
  uint64_t total_blocks_ = 0;
  std::vector<bool> bitmap_;
  std::vector<uint64_t> seg_live_;  // set bits of bitmap_ per segment
  std::vector<Segment> segments_;
  // Reverse map of the dedup index (phys -> key), rebuilt with the rest.
  std::unordered_map<uint64_t, ContentKey> dedup_by_phys_;

  // Completion time of the latest data write in the current epoch; commits
  // must not declare durability before it.
  SimTime last_data_write_done_ = 0;

  // The machine's flush lanes, fixed when the store is built: each lane's
  // timeline, which is when its CPU finishes the flush work already handed
  // to it (the content hash, the codec and retry backoffs; a block's write
  // is submitted at the lane's time and completes on the device's queue),
  // and the cursor that assigns store blocks to lanes.
  LaneSchedule lanes_;
  uint64_t lane_cursor_ = 0;

  // Cache of historic epoch tables for TableAt.
  std::map<uint64_t, ObjectTable> epoch_cache_;

  StoreStats stats_;
};

}  // namespace aurora

#endif  // SRC_OBJSTORE_OBJECT_STORE_H_
