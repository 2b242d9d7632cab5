#include "src/objstore/object_store.h"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <string>

#include "src/base/checksum.h"
#include "src/base/serializer.h"
#include "src/base/units.h"

namespace aurora {

namespace {

constexpr uint32_t kSuperMagic = 0x41555253;  // "AURS"
constexpr uint32_t kMetaMagic = 0x4155524d;   // "AURM"
constexpr uint32_t kJournalMagic = 0x4155524a;  // "AURJ"
// v2: per-extent CRC32C in the metadata blob (end-to-end block integrity).
// v3: segment-log layout — segment table, relocation map, per-deadentry CRC.
// v4: content-addressed dedup — per-extent stored_len/codec, per-deadentry
//     stored_len, and the persisted dedup index (content key -> phys +
//     refcount) serialized alongside the segment table.
constexpr uint32_t kVersion = 4;
// The meta blob's layout byte. 0 was the free-list allocator, retired; the
// byte stays so the blob format (and kVersion) is unchanged.
constexpr uint8_t kFreeListLayout = 0;
constexpr uint8_t kSegmentLogLayout = 1;
constexpr int kSuperSlots = 8;
constexpr size_t kSuperNameMax = 64;

struct Superblock {
  uint32_t magic = kSuperMagic;
  uint32_t version = kVersion;
  uint64_t epoch = 0;
  uint32_t block_size = 0;
  uint64_t total_blocks = 0;
  uint64_t meta_block = 0;
  uint64_t meta_len = 0;
  uint64_t committed_at = 0;
  char name[kSuperNameMax] = {};

  std::vector<uint8_t> Serialize() const {
    BinaryWriter w;
    w.PutU32(magic);
    w.PutU32(version);
    w.PutU64(epoch);
    w.PutU32(block_size);
    w.PutU64(total_blocks);
    w.PutU64(meta_block);
    w.PutU64(meta_len);
    w.PutU64(committed_at);
    w.PutRaw(name, kSuperNameMax);
    uint32_t crc = Crc32c(w.data().data(), w.size());
    w.PutU32(crc);
    return w.Take();
  }

  static Result<Superblock> Parse(const uint8_t* data, size_t len) {
    BinaryReader r(data, len);
    Superblock sb;
    AURORA_ASSIGN_OR_RETURN(sb.magic, r.U32());
    AURORA_ASSIGN_OR_RETURN(sb.version, r.U32());
    AURORA_ASSIGN_OR_RETURN(sb.epoch, r.U64());
    AURORA_ASSIGN_OR_RETURN(sb.block_size, r.U32());
    AURORA_ASSIGN_OR_RETURN(sb.total_blocks, r.U64());
    AURORA_ASSIGN_OR_RETURN(sb.meta_block, r.U64());
    AURORA_ASSIGN_OR_RETURN(sb.meta_len, r.U64());
    AURORA_ASSIGN_OR_RETURN(sb.committed_at, r.U64());
    AURORA_RETURN_IF_ERROR(r.Raw(sb.name, kSuperNameMax));
    AURORA_ASSIGN_OR_RETURN(uint32_t crc, r.U32());
    if (sb.magic != kSuperMagic || sb.version != kVersion) {
      return Status::Error(Errc::kCorrupt, "bad superblock magic");
    }
    if (crc != Crc32c(data, r.pos() - sizeof(uint32_t))) {
      return Status::Error(Errc::kCorrupt, "superblock checksum mismatch");
    }
    return sb;
  }
};

// The store-wide codec option: kRaw or a registered codec id.
bool IsStoreCodec(CodecId id) { return id == CodecId::kRaw || FindExtentCodec(id) != nullptr; }

struct JournalRecordHeader {
  uint32_t magic = kJournalMagic;
  uint64_t gen = 0;
  uint64_t seq = 0;
  uint64_t len = 0;
  uint32_t data_crc = 0;

  static constexpr size_t kSize = 4 + 8 + 8 + 8 + 4;
};

}  // namespace

ObjectStore::ObjectStore(BlockDevice* device, SimContext* sim, StoreOptions options)
    : device_(device), sim_(sim), options_(options),
      retry_(IoRetryPolicy::FromCost(sim->cost)) {}

// --- Device IO with bounded retry --------------------------------------------

Result<SimTime> ObjectStore::DevWrite(uint32_t queue, uint64_t lba, const void* data,
                                      uint32_t ndev) {
  return RetryIo(sim_, retry_, [&] { return device_->WriteAsyncOn(queue, lba, data, ndev); });
}

Result<SimTime> ObjectStore::DevRead(uint32_t queue, uint64_t lba, void* out, uint32_t ndev) {
  return RetryIo(sim_, retry_, [&] { return device_->ReadAsyncOn(queue, lba, out, ndev); });
}

Status ObjectStore::DevWriteSync(uint64_t lba, const void* data, uint32_t ndev) {
  return RetryIo(sim_, retry_, [&] { return device_->WriteSync(lba, data, ndev); });
}

Status ObjectStore::DevReadSync(uint64_t lba, void* out, uint32_t ndev) {
  return RetryIo(sim_, retry_, [&] { return device_->ReadSync(lba, out, ndev); });
}

Status ObjectStore::VerifyBlockCrc(const Extent& extent, const uint8_t* data) {
  uint32_t span = extent.stored_len != 0 ? extent.stored_len : options_.block_size;
  if (Crc32c(data, span) == extent.crc) {
    return Status::Ok();
  }
  sim_->metrics.counter("io.crc_errors").Add();
  return Status::Error(Errc::kCorrupt,
                       "store block checksum mismatch at phys " + std::to_string(extent.phys));
}

Status ObjectStore::ReadBlockVerified(uint64_t phys, uint32_t crc, uint32_t stored_len,
                                      uint8_t* buf) {
  AURORA_RETURN_IF_ERROR(DevReadSync(DevLba(phys), buf, DevBlocksForStored(stored_len)));
  uint32_t span = stored_len != 0 ? stored_len : options_.block_size;
  if (Crc32c(buf, span) != crc) {
    sim_->metrics.counter("io.crc_errors").Add();
    return Status::Error(Errc::kCorrupt,
                         "store block checksum mismatch at phys " + std::to_string(phys));
  }
  return Status::Ok();
}

uint32_t ObjectStore::DevBlocksForStored(uint32_t stored_len) const {
  if (stored_len == 0) {
    return DevBlocksPerStoreBlock();
  }
  uint32_t dev_bs = device_->block_size();
  return (stored_len + dev_bs - 1) / dev_bs;
}

Status ObjectStore::DecodeStored(const Extent& extent, const uint8_t* stored, uint8_t* block) {
  AURORA_RETURN_IF_ERROR(VerifyBlockCrc(extent, stored));
  if (extent.stored_len == 0) {
    if (stored != block) {
      std::memcpy(block, stored, options_.block_size);
    }
    return Status::Ok();
  }
  const ExtentCodec* codec = FindExtentCodec(static_cast<CodecId>(extent.codec));
  if (codec == nullptr) {
    return Status::Error(Errc::kCorrupt,
                         "extent stored with unknown codec id " + std::to_string(extent.codec));
  }
  sim_->clock.Advance(sim_->cost.Decompress(options_.block_size));
  return codec->Decompress(stored, extent.stored_len, block, options_.block_size);
}

Status ObjectStore::LoadExtentSync(const Extent& extent, uint64_t phys, uint8_t* block) {
  if (extent.stored_len == 0) {
    AURORA_RETURN_IF_ERROR(DevReadSync(DevLba(phys), block, DevBlocksPerStoreBlock()));
    return DecodeStored(extent, block, block);
  }
  std::vector<uint8_t> scratch(static_cast<size_t>(DevBlocksForStored(extent.stored_len)) *
                               device_->block_size());
  AURORA_RETURN_IF_ERROR(
      DevReadSync(DevLba(phys), scratch.data(), DevBlocksForStored(extent.stored_len)));
  return DecodeStored(extent, scratch.data(), block);
}

Result<SimTime> ObjectStore::LoadExtentAsync(uint32_t queue, const Extent& extent, uint64_t phys,
                                             uint8_t* block) {
  if (extent.stored_len == 0) {
    AURORA_ASSIGN_OR_RETURN(SimTime done,
                            DevRead(queue, DevLba(phys), block, DevBlocksPerStoreBlock()));
    AURORA_RETURN_IF_ERROR(DecodeStored(extent, block, block));
    return done;
  }
  std::vector<uint8_t> scratch(static_cast<size_t>(DevBlocksForStored(extent.stored_len)) *
                               device_->block_size());
  AURORA_ASSIGN_OR_RETURN(
      SimTime done,
      DevRead(queue, DevLba(phys), scratch.data(), DevBlocksForStored(extent.stored_len)));
  AURORA_RETURN_IF_ERROR(DecodeStored(extent, scratch.data(), block));
  return done;
}

Result<std::unique_ptr<ObjectStore>> ObjectStore::Format(BlockDevice* device, SimContext* sim,
                                                         StoreOptions options) {
  if (options.block_size % device->block_size() != 0) {
    return Status::Error(Errc::kInvalidArgument, "store block size not a device multiple");
  }
  if (options.segment_blocks < 2) {
    return Status::Error(Errc::kInvalidArgument, "segment_blocks too small");
  }
  if (!IsStoreCodec(options.codec)) {
    return Status::Error(Errc::kInvalidArgument, "unknown store codec");
  }
  auto store = std::unique_ptr<ObjectStore>(new ObjectStore(device, sim, options));
  store->total_blocks_ = device->block_count() / store->DevBlocksPerStoreBlock();
  if (store->total_blocks_ < 8) {
    return Status::Error(Errc::kInvalidArgument, "device too small");
  }
  store->bitmap_.assign((store->total_blocks_ + 7) / 8, 0);
  // The superblock ring lives in device blocks [0, kSuperSlots); reserve
  // every store block it touches, not just block 0 — with small store blocks
  // the ring spans several of them, and handing those to the allocator would
  // let later superblock writes corrupt committed data.
  uint64_t ring_blocks =
      (kSuperSlots + store->DevBlocksPerStoreBlock() - 1) / store->DevBlocksPerStoreBlock();
  ring_blocks = std::max<uint64_t>(ring_blocks, 1);
  for (uint64_t b = 0; b < ring_blocks; b++) {
    store->BitSet(b, true);
  }
  if (ring_blocks > store->options_.segment_blocks) {
    return Status::Error(Errc::kInvalidArgument, "superblock ring exceeds one segment");
  }
  store->InitSegments();
  // Segment 0 is the first metadata segment; its cursor starts past the
  // superblock ring.
  store->SegTransition(0, SegState::kMeta, /*lane=*/0, /*cursor=*/ring_blocks);
  store->open_meta_seg_ = 0;
  AURORA_ASSIGN_OR_RETURN(SimTime done, store->CommitCheckpoint("format"));
  sim->clock.AdvanceTo(done);
  return store;
}

Result<std::unique_ptr<ObjectStore>> ObjectStore::Open(BlockDevice* device, SimContext* sim) {
  // Scan the superblock ring; prefer the highest epoch whose metadata blob
  // also verifies. A torn commit leaves the previous checkpoint intact.
  std::vector<Superblock> candidates;
  IoRetryPolicy policy = IoRetryPolicy::FromCost(sim->cost);
  for (int slot = 0; slot < kSuperSlots; slot++) {
    std::vector<uint8_t> buf(device->block_size());
    if (!RetryIo(sim, policy, [&] {
           return device->ReadSync(static_cast<uint64_t>(slot), buf.data(), 1);
         }).ok()) {
      continue;
    }
    auto sb = Superblock::Parse(buf.data(), buf.size());
    if (sb.ok()) {
      candidates.push_back(*sb);
    }
  }
  std::sort(candidates.begin(), candidates.end(),
            [](const Superblock& a, const Superblock& b) { return a.epoch > b.epoch; });
  for (const Superblock& sb : candidates) {
    StoreOptions options;
    options.block_size = sb.block_size;
    auto store = std::unique_ptr<ObjectStore>(new ObjectStore(device, sim, options));
    store->total_blocks_ = sb.total_blocks;
    std::vector<uint8_t> blob(sb.meta_len);
    uint64_t nblocks = (sb.meta_len + options.block_size - 1) / options.block_size;
    std::vector<uint8_t> raw(nblocks * options.block_size);
    if (!store
             ->DevReadSync(store->DevLba(sb.meta_block), raw.data(),
                           static_cast<uint32_t>(nblocks * store->DevBlocksPerStoreBlock()))
             .ok()) {
      continue;
    }
    std::memcpy(blob.data(), raw.data(), sb.meta_len);
    Status parsed = store->DeserializeMeta(blob);
    if (parsed.code() == Errc::kNotSupported) {
      return parsed;  // the layout is fixed at format time; no epoch can help
    }
    if (!parsed.ok()) {
      continue;  // torn metadata: fall back to the previous checkpoint
    }
    store->epoch_ = sb.epoch + 1;
    CheckpointRecord self;
    self.epoch = sb.epoch;
    self.name.assign(sb.name, strnlen(sb.name, kSuperNameMax));
    self.committed_at = sb.committed_at;
    self.meta_block = sb.meta_block;
    self.meta_len = sb.meta_len;
    store->checkpoints_.push_back(self);
    AURORA_RETURN_IF_ERROR(store->RecoverJournalOffsets());
    return store;
  }
  return Status::Error(Errc::kCorrupt, "no valid checkpoint found on device");
}

// --- Allocator --------------------------------------------------------------

bool ObjectStore::BitGet(uint64_t block) const {
  return (bitmap_[block / 8] >> (block % 8)) & 1;
}

void ObjectStore::BitSet(uint64_t block, bool v) {
  if (v) {
    bitmap_[block / 8] |= static_cast<uint8_t>(1u << (block % 8));
  } else {
    bitmap_[block / 8] &= static_cast<uint8_t>(~(1u << (block % 8)));
  }
}

// --- Segment log -------------------------------------------------------------

void ObjectStore::InitSegments() {
  uint64_t nsegs =
      (total_blocks_ + options_.segment_blocks - 1) / options_.segment_blocks;
  segments_.assign(nsegs, Segment{});
  open_data_seg_.clear();
  reloc_.clear();
}

uint64_t ObjectStore::SegCapacity(uint64_t seg) const {
  uint64_t base = SegBase(seg);
  return std::min<uint64_t>(options_.segment_blocks, total_blocks_ - base);
}

uint64_t ObjectStore::SegLiveBlocks(uint64_t seg) const {
  uint64_t live = 0;
  uint64_t base = SegBase(seg);
  uint64_t end = base + SegCapacity(seg);
  for (uint64_t b = base; b < end; b++) {
    live += BitGet(b) ? 1 : 0;
  }
  return live;
}

void ObjectStore::SegTransition(uint64_t seg, SegState to, uint32_t lane, uint64_t cursor) {
  Segment& s = segments_[seg];
  // The segment lifecycle graph. Quarantined segments are pinned: they never
  // become victims or free until the scrubber grows a repair story.
  bool allowed = false;
  switch (s.state) {
    case SegState::kFree:
      allowed = to == SegState::kOpen || to == SegState::kMeta || to == SegState::kJournal;
      break;
    case SegState::kOpen:
      allowed = to == SegState::kSealed;
      break;
    case SegState::kSealed:
      allowed = to == SegState::kZombie || to == SegState::kQuarantine || to == SegState::kFree;
      break;
    case SegState::kMeta:
    case SegState::kJournal:
    case SegState::kZombie:
      allowed = to == SegState::kFree;
      break;
    case SegState::kQuarantine:
      allowed = false;
      break;
  }
  if (!allowed) {
    sim_->metrics.counter("store.bad_seg_transitions").Add();
    assert(false && "segment lifecycle violation: move not in the transition graph");
  }
  if (to == SegState::kFree) {
    s = Segment{};
  } else if (s.state == SegState::kFree) {
    s = Segment{to, lane, cursor};
  } else {
    // seal / zombie / quarantine: only the state byte changes; lane and
    // cursor must survive so the serialized segment table is byte-identical.
    s.state = to;
  }
}

ObjectStore::Segment ObjectStore::MountSegState(SegState persisted, uint32_t lane,
                                                uint64_t cursor) {
  if (persisted == SegState::kZombie) {
    return Segment{};
  }
  return Segment{persisted, lane, cursor};
}

void ObjectStore::DedupAddRef(DedupEntry& entry) { entry.refs++; }

void ObjectStore::DedupDropRef(DedupEntry& entry) {
  assert(entry.refs > 0 && "dedup refcount underflow");
  entry.refs--;
}

Result<uint64_t> ObjectStore::AllocSegment(SegState state, uint32_t lane) {
  for (uint64_t seg = 0; seg < segments_.size(); seg++) {
    if (segments_[seg].state == SegState::kFree) {
      SegTransition(seg, state, lane, 0);
      sim_->metrics.counter("store.segments_opened").Add();
      return seg;
    }
  }
  return Status::Error(Errc::kNoSpace, "no free segment");
}

Result<uint64_t> ObjectStore::AppendBlock(uint32_t lane) {
  auto it = open_data_seg_.find(lane);
  if (it == open_data_seg_.end() || segments_[it->second].cursor >= SegCapacity(it->second)) {
    if (it != open_data_seg_.end()) {
      SegTransition(it->second, SegState::kSealed);
      sim_->metrics.counter("store.segments_sealed").Add();
    }
    AURORA_ASSIGN_OR_RETURN(uint64_t seg, AllocSegment(SegState::kOpen, lane));
    it = open_data_seg_.insert_or_assign(lane, seg).first;
    if (lane != kGcLane) {
      // Segment-aware striping hint: this queue now owns an open appender,
      // so background GC writes should steer elsewhere.
      queue_hints_.HintOpenSegment(static_cast<int>(lane), seg);
    }
  }
  Segment& seg = segments_[it->second];
  uint64_t phys = SegBase(it->second) + seg.cursor;
  seg.cursor++;
  BitSet(phys, true);
  stats_.blocks_allocated++;
  sim_->metrics.counter("store.blocks_allocated").Add();
  sim_->clock.Advance(sim_->cost.lock_acquire);
  return phys;
}

Result<uint64_t> ObjectStore::AllocMetaRun(uint64_t nblocks) {
  const uint64_t s = options_.segment_blocks;
  if (nblocks <= s) {
    Segment* open = &segments_[open_meta_seg_];
    if (open->cursor + nblocks > SegCapacity(open_meta_seg_)) {
      AURORA_ASSIGN_OR_RETURN(uint64_t seg, AllocSegment(SegState::kMeta, 0));
      open_meta_seg_ = seg;
      open = &segments_[seg];
    }
    uint64_t start = SegBase(open_meta_seg_) + open->cursor;
    open->cursor += nblocks;
    for (uint64_t b = 0; b < nblocks; b++) {
      BitSet(start + b, true);
    }
    stats_.blocks_allocated += nblocks;
    sim_->metrics.counter("store.blocks_allocated").Add(nblocks);
    return start;
  }
  // Oversized blob: a run of contiguous free segments (rare; giant tables).
  uint64_t nsegs = (nblocks + s - 1) / s;
  uint64_t run = 0;
  for (uint64_t seg = 0; seg < segments_.size(); seg++) {
    run = (segments_[seg].state == SegState::kFree && SegCapacity(seg) == s) ? run + 1 : 0;
    if (run < nsegs) {
      continue;
    }
    uint64_t first = seg - nsegs + 1;
    uint64_t remaining = nblocks;
    for (uint64_t i = first; i <= seg; i++) {
      uint64_t take = std::min<uint64_t>(remaining, s);
      SegTransition(i, SegState::kMeta, 0, take);
      remaining -= take;
    }
    uint64_t start = SegBase(first);
    for (uint64_t b = 0; b < nblocks; b++) {
      BitSet(start + b, true);
    }
    stats_.blocks_allocated += nblocks;
    sim_->metrics.counter("store.blocks_allocated").Add(nblocks);
    return start;
  }
  return Status::Error(Errc::kNoSpace, "no contiguous segment run for metadata");
}

void ObjectStore::FreeMetaRun(uint64_t start, uint64_t nblocks) {
  // Commit-failure rollback. Rewind the open meta segment's cursor when the
  // run is exactly its tail; otherwise the blocks just become dead and the
  // segment reclaims when its last blob is pruned.
  Segment& open = segments_[open_meta_seg_];
  bool is_tail = SegmentOf(start) == open_meta_seg_ &&
                 start + nblocks == SegBase(open_meta_seg_) + open.cursor;
  for (uint64_t b = 0; b < nblocks; b++) {
    BitSet(start + b, false);
    stats_.blocks_freed++;
    sim_->metrics.counter("store.blocks_freed").Add();
  }
  if (is_tail) {
    open.cursor -= nblocks;
  } else {
    for (uint64_t seg = SegmentOf(start); seg <= SegmentOf(start + nblocks - 1); seg++) {
      MaybeReclaimSegment(seg);
    }
  }
}

Result<uint64_t> ObjectStore::AllocJournalRun(uint64_t nblocks) {
  const uint64_t s = options_.segment_blocks;
  uint64_t nsegs = (nblocks + s - 1) / s;
  uint64_t run = 0;
  for (uint64_t seg = 0; seg < segments_.size(); seg++) {
    run = (segments_[seg].state == SegState::kFree && SegCapacity(seg) == s) ? run + 1 : 0;
    if (run < nsegs) {
      continue;
    }
    uint64_t first = seg - nsegs + 1;
    uint64_t remaining = nblocks;
    for (uint64_t i = first; i <= seg; i++) {
      uint64_t take = std::min<uint64_t>(remaining, s);
      SegTransition(i, SegState::kJournal, 0, take);
      remaining -= take;
    }
    uint64_t start = SegBase(first);
    for (uint64_t b = 0; b < nblocks; b++) {
      BitSet(start + b, true);
    }
    stats_.blocks_allocated += nblocks;
    sim_->metrics.counter("store.blocks_allocated").Add(nblocks);
    return start;
  }
  return Status::Error(Errc::kNoSpace, "no contiguous segment run for journal");
}

void ObjectStore::FreeJournalRun(uint64_t start, uint64_t nblocks) {
  for (uint64_t b = 0; b < nblocks; b++) {
    BitSet(start + b, false);
    stats_.blocks_freed++;
    sim_->metrics.counter("store.blocks_freed").Add();
  }
  for (uint64_t seg = SegmentOf(start); seg <= SegmentOf(start + nblocks - 1); seg++) {
    SegTransition(seg, SegState::kFree);
    sim_->metrics.counter("store.segments_reclaimed").Add();
  }
}

void ObjectStore::MaybeReclaimSegment(uint64_t seg) {
  const Segment& s = segments_[seg];
  // Only quiescent segments reclaim here: open segments are still appended
  // to, journals are freed wholesale, the open meta segment keeps its append
  // cursor, and zombies wait for the next durable commit (ReclaimZombies).
  if (s.state != SegState::kSealed &&
      (s.state != SegState::kMeta || seg == open_meta_seg_)) {
    return;
  }
  if (SegLiveBlocks(seg) != 0) {
    return;
  }
  SegTransition(seg, SegState::kFree);
  sim_->metrics.counter("store.segments_reclaimed").Add();
}

void ObjectStore::ReclaimZombies() {
  for (uint64_t seg = 0; seg < segments_.size(); seg++) {
    if (segments_[seg].state == SegState::kZombie) {
      SegTransition(seg, SegState::kFree);
      sim_->metrics.counter("store.segments_reclaimed").Add();
      sim_->metrics.counter("gc.segments_reclaimed").Add();
    }
  }
}

uint64_t ObjectStore::TranslatePhys(uint64_t phys, uint64_t view_epoch) const {
  // A blob committed at view_epoch references the pre-relocation location
  // only if the move happened after it was written; newer blobs already
  // carry the new pointers (and the old address may have been reused since).
  auto it = reloc_.find(phys);
  if (it != reloc_.end() && view_epoch < it->second.reloc_epoch) {
    return it->second.new_phys;
  }
  return phys;
}

void ObjectStore::FreeBlock(uint64_t block) {
  BitSet(block, false);
  stats_.blocks_freed++;
  sim_->metrics.counter("store.blocks_freed").Add();
  MaybeReclaimSegment(SegmentOf(block));
}

void ObjectStore::KillExtent(const Extent& extent) {
  auto rev = dedup_by_phys_.find(extent.phys);
  if (rev != dedup_by_phys_.end()) {
    auto idx = dedup_.find(rev->second);
    if (idx == dedup_.end()) {
      // Reverse-map stragglers cannot survive DeserializeMeta (the map is
      // rebuilt from the index); tolerate one anyway rather than crash.
      dedup_by_phys_.erase(rev);
    } else if (idx->second.refs > 1) {
      // Other live extents still reference the block; just drop one ref.
      DedupDropRef(idx->second);
      sim_->metrics.counter("store.dedup_unrefs").Add();
      return;
    } else {
      // Last reference. The block physically dates from first_birth, which
      // is what bounds the retained checkpoints that can still read it — the
      // deadlist entry must use it, not this reference's install epoch.
      DedupEntry entry = idx->second;
      dedup_.erase(idx);
      dedup_by_phys_.erase(rev);
      if (entry.first_birth == epoch_) {
        FreeBlock(entry.phys);
      } else {
        deadlists_[epoch_].push_back(
            DeadEntry{entry.first_birth, entry.phys, entry.crc, entry.stored_len});
      }
      return;
    }
  }
  if (extent.birth == epoch_) {
    // Born and killed inside the same uncommitted epoch: no checkpoint can
    // reference it, reuse immediately.
    FreeBlock(extent.phys);
  } else {
    deadlists_[epoch_].push_back(
        DeadEntry{extent.birth, extent.phys, extent.crc, extent.stored_len});
  }
}

Result<SimTime> ObjectStore::StoreBlockCow(uint32_t lane, const uint8_t* block, Extent* out,
                                           uint64_t* lane_bytes) {
  const uint32_t bs = options_.block_size;
  ContentKey key;
  if (options_.dedup) {
    sim_->clock.Advance(sim_->cost.ContentHash(bs));
    key = ContentHash128(block, bs);
    auto hit = dedup_.find(key);
    if (hit != dedup_.end()) {
      // Reference record instead of the block: no allocation, no device
      // write. The extent's birth is this epoch (the logical content of the
      // object block changed now), the physical block keeps its history.
      DedupAddRef(hit->second);
      *out = Extent{hit->second.phys, epoch_, hit->second.crc, hit->second.stored_len,
                    hit->second.codec};
      stats_.bytes_deduped += bs;
      stats_.dedup_hits++;
      sim_->metrics.counter("ckpt.bytes_deduped").Add(bs);
      sim_->metrics.counter("store.dedup_hits").Add();
      return sim_->clock.now();
    }
  }

  // Dedup miss: optionally run the codec, then append the stored payload.
  const uint32_t dev_bs = device_->block_size();
  const uint8_t* payload = block;
  uint32_t stored_len = 0;
  uint8_t codec_id = static_cast<uint8_t>(CodecId::kRaw);
  std::vector<uint8_t> comp;
  // Format and DeserializeMeta admit only known codec ids, so a null codec
  // here means kRaw.
  if (const ExtentCodec* codec = FindExtentCodec(options_.codec)) {
    sim_->clock.Advance(sim_->cost.Compress(bs));
    // Only commit to the compressed form when it saves at least one device
    // block — the stored span is what the device actually writes. A store
    // block of one device block can never be saved that way, so the pass
    // is skipped there. The charge above stays: the cost model prices an
    // attempt on every miss, and simulated time must not depend on this
    // host-side shortcut.
    size_t clen = 0;
    if (DevBlocksPerStoreBlock() > 1) {
      comp.resize(bs);
      clen = codec->Compress(block, bs, comp.data());
    }
    if (clen > 0 && (clen + dev_bs - 1) / dev_bs < DevBlocksPerStoreBlock()) {
      payload = comp.data();
      stored_len = static_cast<uint32_t>(clen);
      codec_id = static_cast<uint8_t>(options_.codec);
      stats_.bytes_compressed_saved += bs - clen;
      sim_->metrics.counter("ckpt.bytes_compressed").Add(bs - clen);
    }
  }
  uint32_t span = stored_len != 0 ? stored_len : bs;
  uint32_t ndev = DevBlocksForStored(stored_len);
  uint32_t crc = Crc32c(payload, span);
  std::vector<uint8_t> padded;
  if (span % dev_bs != 0) {
    padded.assign(static_cast<size_t>(ndev) * dev_bs, 0);
    std::memcpy(padded.data(), payload, span);
    payload = padded.data();
  }
  AURORA_ASSIGN_OR_RETURN(uint64_t phys, AppendBlock(lane));
  AURORA_ASSIGN_OR_RETURN(SimTime wdone, DevWrite(lane, DevLba(phys), payload, ndev));
  stats_.bytes_stored += static_cast<uint64_t>(ndev) * dev_bs;
  if (lane_bytes != nullptr) {
    *lane_bytes += static_cast<uint64_t>(ndev) * dev_bs;
  }
  *out = Extent{phys, epoch_, crc, stored_len, codec_id};
  if (options_.dedup) {
    dedup_[key] = DedupEntry{phys, 1, epoch_, crc, stored_len, codec_id};
    dedup_by_phys_[phys] = key;
  }
  return wdone;
}

uint64_t ObjectStore::FreeBlocks() const {
  uint64_t used = 0;
  for (uint64_t b = 0; b < total_blocks_; b++) {
    used += BitGet(b) ? 1 : 0;
  }
  return total_blocks_ - used;
}

uint64_t ObjectStore::UsedPhysicalBlocks() const {
  uint64_t used = 0;
  for (uint64_t seg = 0; seg < segments_.size(); seg++) {
    if (segments_[seg].state != SegState::kFree) {
      used += segments_[seg].cursor;
    }
  }
  return used;
}

SegmentStats ObjectStore::GetSegmentStats() const {
  SegmentStats out;
  out.segments_total = segments_.size();
  out.reloc_entries = reloc_.size();
  for (uint64_t seg = 0; seg < segments_.size(); seg++) {
    const Segment& s = segments_[seg];
    switch (s.state) {
      case SegState::kFree: out.segments_free++; break;
      case SegState::kOpen: out.segments_open++; break;
      case SegState::kSealed: out.segments_sealed++; break;
      case SegState::kMeta: out.segments_meta++; break;
      case SegState::kJournal: out.segments_journal++; break;
      case SegState::kZombie: out.segments_zombie++; break;
      case SegState::kQuarantine: out.segments_quarantined++; break;
    }
    if (s.state == SegState::kFree) {
      continue;
    }
    uint64_t live = SegLiveBlocks(seg);
    out.live_blocks += live;
    out.dead_blocks += s.cursor - std::min(live, s.cursor);
    if (s.state == SegState::kSealed && s.cursor > 0) {
      uint64_t decile = live * 10 / s.cursor;
      out.util_histogram[std::min<uint64_t>(decile, 9)]++;
    }
  }
  return out;
}

void ObjectStore::PublishSegmentGauges() {
  SegmentStats s = GetSegmentStats();
  sim_->metrics.gauge("store.segment_free").Set(s.segments_free);
  sim_->metrics.gauge("store.segment_sealed").Set(s.segments_sealed);
  sim_->metrics.gauge("store.segment_live_blocks").Set(s.live_blocks);
  sim_->metrics.gauge("store.segment_dead_blocks").Set(s.dead_blocks);
  sim_->metrics.gauge("store.segment_reloc_entries").Set(s.reloc_entries);
  sim_->metrics.gauge("store.segment_quarantined").Set(s.segments_quarantined);
  sim_->metrics.gauge("store.used_blocks").Set(UsedPhysicalBlocks());
  sim_->metrics.gauge("store.dedup_entries").Set(dedup_.size());
}

Status ObjectStore::CheckDedupInvariants() const {
  // Count live references per indexed physical block straight from the
  // object tables — the ground truth the refcounts must mirror.
  std::unordered_map<uint64_t, uint64_t> live_refs;
  for (const auto& [oid, info] : objects_) {
    if (info.non_cow) {
      continue;
    }
    for (const auto& [logical, extent] : info.extents) {
      if (dedup_by_phys_.count(extent.phys) != 0) {
        live_refs[extent.phys]++;
      }
    }
  }
  if (dedup_.size() != dedup_by_phys_.size()) {
    return Status::Error(Errc::kCorrupt, "dedup index and reverse map sizes differ");
  }
  for (const auto& [key, entry] : dedup_) {
    auto rev = dedup_by_phys_.find(entry.phys);
    if (rev == dedup_by_phys_.end() || !(rev->second == key)) {
      return Status::Error(Errc::kCorrupt, "dedup reverse map does not mirror index");
    }
    if (!BitGet(entry.phys)) {
      return Status::Error(Errc::kCorrupt, "dedup entry points at a free block");
    }
    uint64_t expect = live_refs.count(entry.phys) != 0 ? live_refs[entry.phys] : 0;
    if (entry.refs != expect) {
      return Status::Error(Errc::kCorrupt, "dedup refcount does not match live extents");
    }
  }
  // A block owned by the index must never also sit on a deadlist: the index
  // frees it exactly once, when the last reference dies.
  for (const auto& [epoch, entries] : deadlists_) {
    for (const DeadEntry& e : entries) {
      if (dedup_by_phys_.count(e.phys) != 0) {
        return Status::Error(Errc::kCorrupt, "indexed block found on a deadlist");
      }
    }
  }
  return Status::Ok();
}

// --- Objects -----------------------------------------------------------------

Result<Oid> ObjectStore::CreateObject(ObjType type, uint64_t size_hint) {
  Oid oid{next_oid_++};
  ObjectInfo info;
  info.type = type;
  info.size = size_hint;
  objects_[oid] = std::move(info);
  sim_->metrics.counter("store.objects_created").Add();
  sim_->clock.Advance(sim_->cost.small_alloc);
  return oid;
}

Status ObjectStore::DeleteObject(Oid oid) {
  auto it = objects_.find(oid);
  if (it == objects_.end()) {
    return Status::Error(Errc::kNotFound, "no such object");
  }
  if (it->second.non_cow) {
    FreeJournalRun(it->second.journal_start, it->second.journal_blocks);
  }
  for (auto& [logical, extent] : it->second.extents) {
    KillExtent(extent);
  }
  objects_.erase(it);
  return Status::Ok();
}

Result<ObjType> ObjectStore::TypeOf(Oid oid) const {
  auto it = objects_.find(oid);
  if (it == objects_.end()) {
    return Status::Error(Errc::kNotFound, "no such object");
  }
  return it->second.type;
}

Result<uint64_t> ObjectStore::SizeOf(Oid oid) const {
  auto it = objects_.find(oid);
  if (it == objects_.end()) {
    return Status::Error(Errc::kNotFound, "no such object");
  }
  return it->second.size;
}

Status ObjectStore::SetSize(Oid oid, uint64_t size) {
  auto it = objects_.find(oid);
  if (it == objects_.end()) {
    return Status::Error(Errc::kNotFound, "no such object");
  }
  ObjectInfo& info = it->second;
  if (size < info.size) {
    uint64_t first_dead = (size + options_.block_size - 1) / options_.block_size;
    for (auto ext = info.extents.lower_bound(first_dead); ext != info.extents.end();) {
      KillExtent(ext->second);
      ext = info.extents.erase(ext);
    }
  }
  info.size = size;
  return Status::Ok();
}

std::vector<Oid> ObjectStore::ListObjects() const {
  std::vector<Oid> out;
  out.reserve(objects_.size());
  for (const auto& [oid, info] : objects_) {
    out.push_back(oid);
  }
  std::sort(out.begin(), out.end());
  return out;
}

void ObjectStore::SetFlushLanes(uint32_t lanes) {
  if (lanes < 1) {
    lanes = 1;
  }
  flush_lanes_ = lanes;
  lane_last_done_.assign(lanes, sim_->clock.now());
  device_->SetQueueCount(lanes);
  queue_hints_ = LaneSchedule(static_cast<int>(lanes), sim_->clock.now());
  // Lanes that no longer exist will never append again; seal their open
  // segments so the compactor can consider them instead of stranding them.
  for (auto it = open_data_seg_.begin(); it != open_data_seg_.end();) {
    if (it->first != kGcLane && it->first >= lanes) {
      SegTransition(it->second, SegState::kSealed);
      sim_->metrics.counter("store.segments_sealed").Add();
      it = open_data_seg_.erase(it);
    } else {
      if (it->first != kGcLane) {
        queue_hints_.HintOpenSegment(static_cast<int>(it->first), it->second);
      }
      ++it;
    }
  }
}

uint32_t ObjectStore::NextFlushLane() {
  // Deterministic but decorrelated from physical placement: sequential
  // AppendBlock numbers stripe over the array's children with the same linear
  // cursor, so `cursor % lanes` would move in lock-step with the stripe map
  // and pin every child to a single queue (gcd of the two strides), which
  // parallelizes nothing. The splitmix64 finalizer spreads each child's
  // blocks over all lanes while keeping reruns identical.
  uint64_t z = lane_cursor_++ + 0x9E3779B97F4A7C15ull;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  z ^= z >> 31;
  return static_cast<uint32_t>(z % flush_lanes_);
}

void ObjectStore::RecordLaneIo(uint32_t lane, uint64_t bytes, SimTime done) {
  const std::string prefix = "flush.lane" + std::to_string(lane);
  sim_->metrics.counter(prefix + ".bytes").Add(bytes);
  // Busy time: how much this I/O extended the lane's timeline beyond where
  // it already stood (idle gaps are not busy).
  SimTime since = std::max(lane_last_done_[lane], sim_->clock.now());
  if (done > since) {
    sim_->metrics.counter(prefix + ".busy_time").Add(static_cast<uint64_t>(done - since));
  }
  lane_last_done_[lane] = std::max(lane_last_done_[lane], done);
  queue_hints_.Occupy(static_cast<int>(lane), done);
}

Result<SimTime> ObjectStore::WriteAt(Oid oid, uint64_t off, const void* data, uint64_t len) {
  auto it = objects_.find(oid);
  if (it == objects_.end()) {
    return Status::Error(Errc::kNotFound, "no such object");
  }
  ObjectInfo& info = it->second;
  if (info.non_cow) {
    return Status::Error(Errc::kInvalidArgument, "journal objects use JournalAppend");
  }
  const uint32_t bs = options_.block_size;
  const auto* src = static_cast<const uint8_t*>(data);
  SimTime done = sim_->clock.now();
  std::vector<uint8_t> buf(bs);
  uint64_t pos = off;
  uint64_t remaining = len;
  while (remaining > 0) {
    uint64_t logical = pos / bs;
    uint64_t in_block = pos % bs;
    uint64_t chunk = std::min<uint64_t>(remaining, bs - in_block);

    auto old = info.extents.find(logical);
    if (chunk < bs && old != info.extents.end()) {
      // Partial overwrite of an existing block: COW read-modify-write. The
      // CRC check keeps a silently corrupted block from being folded into
      // the rewrite and laundered under a fresh checksum.
      AURORA_RETURN_IF_ERROR(LoadExtentSync(old->second, old->second.phys, buf.data()));
    } else {
      std::memset(buf.data(), 0, bs);
    }
    std::memcpy(buf.data() + in_block, src, chunk);

    Extent ext;
    AURORA_ASSIGN_OR_RETURN(SimTime wdone,
                            StoreBlockCow(NextFlushLane(), buf.data(), &ext, nullptr));
    done = std::max(done, wdone);

    if (old != info.extents.end()) {
      KillExtent(old->second);
      old->second = ext;
    } else {
      info.extents[logical] = ext;
    }
    pos += chunk;
    src += chunk;
    remaining -= chunk;
  }
  info.size = std::max(info.size, off + len);
  last_data_write_done_ = std::max(last_data_write_done_, done);
  sim_->metrics.counter("store.bytes_written").Add(len);
  return done;
}

Result<SimTime> ObjectStore::WriteAtBatch(Oid oid, const std::vector<IoRun>& runs) {
  auto it = objects_.find(oid);
  if (it == objects_.end()) {
    return Status::Error(Errc::kNotFound, "no such object");
  }
  ObjectInfo& info = it->second;
  if (info.non_cow) {
    return Status::Error(Errc::kInvalidArgument, "journal objects use JournalAppend");
  }
  const uint32_t bs = options_.block_size;
  // Split runs at block boundaries and group by logical block.
  std::map<uint64_t, std::vector<IoRun>> by_block;
  uint64_t max_end = info.size;
  for (const IoRun& run : runs) {
    uint64_t pos = run.off;
    const uint8_t* src = run.data;
    uint64_t remaining = run.len;
    while (remaining > 0) {
      uint64_t logical = pos / bs;
      uint64_t in_block = pos % bs;
      uint64_t chunk = std::min<uint64_t>(remaining, bs - in_block);
      by_block[logical].push_back(IoRun{pos, src, chunk});
      pos += chunk;
      src += chunk;
      remaining -= chunk;
    }
    max_end = std::max(max_end, run.off + run.len);
  }

  SimTime done = sim_->clock.now();
  std::vector<uint8_t> buf(bs);
  for (auto& [logical, block_runs] : by_block) {
    uint64_t covered = 0;
    for (const IoRun& r : block_runs) {
      covered += r.len;
    }
    // Each store block is one lane's unit of work: its RMW read and its
    // write share a submission queue, distinct blocks round-robin over
    // lanes and pipeline against each other.
    uint32_t lane = NextFlushLane();
    uint64_t lane_bytes = 0;
    auto old = info.extents.find(logical);
    if (old != info.extents.end() && covered < bs) {
      // Asynchronous RMW read: data is host-resident; the device time folds
      // into this block's write completion rather than stalling the caller.
      auto rdone = LoadExtentAsync(lane, old->second, old->second.phys, buf.data());
      if (!rdone.ok()) {
        return rdone.status();
      }
      done = std::max(done, *rdone);
      lane_bytes += static_cast<uint64_t>(DevBlocksForStored(old->second.stored_len)) *
                    device_->block_size();
      sim_->metrics.counter("store.rmw_folds").Add();
    } else {
      std::memset(buf.data(), 0, bs);
    }
    for (const IoRun& r : block_runs) {
      std::memcpy(buf.data() + (r.off % bs), r.data, r.len);
      sim_->metrics.counter("store.bytes_written").Add(r.len);
    }
    Extent ext;
    AURORA_ASSIGN_OR_RETURN(SimTime wdone, StoreBlockCow(lane, buf.data(), &ext, &lane_bytes));
    done = std::max(done, wdone);
    if (lane_bytes > 0) {
      RecordLaneIo(lane, lane_bytes, wdone);
    }
    if (old != info.extents.end()) {
      KillExtent(old->second);
      old->second = ext;
    } else {
      info.extents[logical] = ext;
    }
  }
  info.size = std::max(info.size, max_end);
  last_data_write_done_ = std::max(last_data_write_done_, done);
  return done;
}

Status ObjectStore::ReadAt(Oid oid, uint64_t off, void* out, uint64_t len) {
  auto it = objects_.find(oid);
  if (it == objects_.end()) {
    return Status::Error(Errc::kNotFound, "no such object");
  }
  const ObjectInfo& info = it->second;
  const uint32_t bs = options_.block_size;
  auto* dst = static_cast<uint8_t*>(out);
  std::vector<uint8_t> buf(bs);
  uint64_t pos = off;
  uint64_t remaining = len;
  while (remaining > 0) {
    uint64_t logical = pos / bs;
    uint64_t in_block = pos % bs;
    uint64_t chunk = std::min<uint64_t>(remaining, bs - in_block);
    auto ext = info.extents.find(logical);
    if (ext == info.extents.end()) {
      std::memset(dst, 0, chunk);
    } else {
      AURORA_RETURN_IF_ERROR(LoadExtentSync(ext->second, ext->second.phys, buf.data()));
      std::memcpy(dst, buf.data() + in_block, chunk);
    }
    pos += chunk;
    dst += chunk;
    remaining -= chunk;
  }
  return Status::Ok();
}

// --- Metadata / checkpoints ---------------------------------------------------

std::vector<uint8_t> ObjectStore::SerializeMeta() const {
  BinaryWriter w;
  w.PutU32(kMetaMagic);
  w.PutU64(epoch_);
  w.PutU64(next_oid_);

  w.PutU64(objects_.size());
  for (const auto& [oid, info] : objects_) {
    w.PutU64(oid.value);
    w.PutU8(static_cast<uint8_t>(info.type));
    w.PutU64(info.size);
    w.PutBool(info.non_cow);
    w.PutU64(info.journal_start);
    w.PutU64(info.journal_blocks);
    w.PutU64(info.journal_gen);
    w.PutU64(info.extents.size());
    for (const auto& [logical, extent] : info.extents) {
      w.PutU64(logical);
      w.PutU64(extent.phys);
      w.PutU64(extent.birth);
      w.PutU32(extent.crc);
      w.PutU32(extent.stored_len);
      w.PutU8(extent.codec);
    }
  }

  w.PutU64(deadlists_.size());
  for (const auto& [epoch, entries] : deadlists_) {
    w.PutU64(epoch);
    w.PutU64(entries.size());
    for (const DeadEntry& e : entries) {
      w.PutU64(e.birth);
      w.PutU64(e.phys);
      w.PutU32(e.crc);
      w.PutU32(e.stored_len);
    }
  }

  w.PutU64(checkpoints_.size());
  for (const CheckpointRecord& c : checkpoints_) {
    w.PutU64(c.epoch);
    w.PutString(c.name);
    w.PutU64(c.committed_at);
    w.PutU64(c.meta_block);
    w.PutU64(c.meta_len);
  }

  w.PutU64(total_blocks_);
  w.PutBytes(bitmap_.data(), bitmap_.size());

  // v3 layout section. Everything here is fixed-width per element and the
  // element counts cannot change between the two serialization passes of a
  // commit (AllocMetaRun moves cursors, never the segment count).
  w.PutU8(kSegmentLogLayout);
  w.PutU32(options_.segment_blocks);
  w.PutU64(segments_.size());
  for (const Segment& s : segments_) {
    w.PutU8(static_cast<uint8_t>(s.state));
    w.PutU32(s.lane);
    w.PutU64(s.cursor);
  }
  w.PutU64(reloc_.size());
  for (const auto& [old_phys, entry] : reloc_) {
    w.PutU64(old_phys);
    w.PutU64(entry.new_phys);
    w.PutU64(entry.reloc_epoch);
  }
  w.PutU64(open_meta_seg_);
  w.PutU64(open_data_seg_.size());
  for (const auto& [lane, seg] : open_data_seg_) {
    w.PutU32(lane);
    w.PutU64(seg);
  }

  // v4 dedup index. Fixed-width per element and keyed by content, so the
  // entry count is stable across the two serialization passes of a commit
  // (AllocMetaRun never stores or kills data blocks). std::map iteration
  // order makes the section deterministic. The flush-path options ride along
  // so a store formatted with dedup off (ablation baseline) stays off after
  // a remount instead of silently picking up the defaults.
  w.PutU8(options_.dedup ? 1 : 0);
  w.PutU8(static_cast<uint8_t>(options_.codec));
  w.PutU64(dedup_.size());
  for (const auto& [key, entry] : dedup_) {
    w.PutU64(key.hi);
    w.PutU64(key.lo);
    w.PutU64(entry.phys);
    w.PutU64(entry.refs);
    w.PutU64(entry.first_birth);
    w.PutU32(entry.crc);
    w.PutU32(entry.stored_len);
    w.PutU8(entry.codec);
  }

  uint32_t crc = Crc32c(w.data().data(), w.size());
  w.PutU32(crc);
  return w.Take();
}

Status ObjectStore::DeserializeMeta(const std::vector<uint8_t>& blob) {
  if (blob.size() < sizeof(uint32_t)) {
    return Status::Error(Errc::kCorrupt, "meta blob too small");
  }
  // CRC is stored little-endian by BinaryWriter; decode it explicitly so the
  // check is endian-safe on any host.
  uint32_t stored_crc = static_cast<uint32_t>(blob[blob.size() - 4]) |
               (static_cast<uint32_t>(blob[blob.size() - 3]) << 8) |
               (static_cast<uint32_t>(blob[blob.size() - 2]) << 16) |
               (static_cast<uint32_t>(blob[blob.size() - 1]) << 24);
  if (Crc32c(blob.data(), blob.size() - 4) != stored_crc) {
    return Status::Error(Errc::kCorrupt, "meta blob checksum mismatch");
  }
  BinaryReader r(blob.data(), blob.size() - 4);
  AURORA_ASSIGN_OR_RETURN(uint32_t magic, r.U32());
  if (magic != kMetaMagic) {
    return Status::Error(Errc::kCorrupt, "bad meta magic");
  }
  AURORA_ASSIGN_OR_RETURN(epoch_, r.U64());
  AURORA_ASSIGN_OR_RETURN(next_oid_, r.U64());

  objects_.clear();
  AURORA_ASSIGN_OR_RETURN(uint64_t nobjects, r.U64());
  for (uint64_t i = 0; i < nobjects; i++) {
    AURORA_ASSIGN_OR_RETURN(uint64_t oid, r.U64());
    ObjectInfo info;
    AURORA_ASSIGN_OR_RETURN(uint8_t type, r.U8());
    info.type = static_cast<ObjType>(type);
    AURORA_ASSIGN_OR_RETURN(info.size, r.U64());
    AURORA_ASSIGN_OR_RETURN(info.non_cow, r.Bool());
    AURORA_ASSIGN_OR_RETURN(info.journal_start, r.U64());
    AURORA_ASSIGN_OR_RETURN(info.journal_blocks, r.U64());
    AURORA_ASSIGN_OR_RETURN(info.journal_gen, r.U64());
    AURORA_ASSIGN_OR_RETURN(uint64_t nextents, r.U64());
    for (uint64_t j = 0; j < nextents; j++) {
      AURORA_ASSIGN_OR_RETURN(uint64_t logical, r.U64());
      Extent extent;
      AURORA_ASSIGN_OR_RETURN(extent.phys, r.U64());
      AURORA_ASSIGN_OR_RETURN(extent.birth, r.U64());
      AURORA_ASSIGN_OR_RETURN(extent.crc, r.U32());
      AURORA_ASSIGN_OR_RETURN(extent.stored_len, r.U32());
      AURORA_ASSIGN_OR_RETURN(extent.codec, r.U8());
      info.extents[logical] = extent;
    }
    objects_[Oid{oid}] = std::move(info);
  }

  deadlists_.clear();
  AURORA_ASSIGN_OR_RETURN(uint64_t ndead, r.U64());
  for (uint64_t i = 0; i < ndead; i++) {
    AURORA_ASSIGN_OR_RETURN(uint64_t epoch, r.U64());
    AURORA_ASSIGN_OR_RETURN(uint64_t nentries, r.U64());
    if (nentries > r.Remaining() / 24) {  // birth, phys, crc, stored_len
      return Status::Error(Errc::kCorrupt, "deadlist entry count overruns the meta blob");
    }
    auto& list = deadlists_[epoch];
    list.reserve(nentries);
    for (uint64_t j = 0; j < nentries; j++) {
      DeadEntry e;
      AURORA_ASSIGN_OR_RETURN(e.birth, r.U64());
      AURORA_ASSIGN_OR_RETURN(e.phys, r.U64());
      AURORA_ASSIGN_OR_RETURN(e.crc, r.U32());
      AURORA_ASSIGN_OR_RETURN(e.stored_len, r.U32());
      list.push_back(e);
    }
  }

  checkpoints_.clear();
  AURORA_ASSIGN_OR_RETURN(uint64_t nckpts, r.U64());
  for (uint64_t i = 0; i < nckpts; i++) {
    CheckpointRecord c;
    AURORA_ASSIGN_OR_RETURN(c.epoch, r.U64());
    AURORA_ASSIGN_OR_RETURN(c.name, r.String());
    AURORA_ASSIGN_OR_RETURN(c.committed_at, r.U64());
    AURORA_ASSIGN_OR_RETURN(c.meta_block, r.U64());
    AURORA_ASSIGN_OR_RETURN(c.meta_len, r.U64());
    checkpoints_.push_back(std::move(c));
  }

  AURORA_ASSIGN_OR_RETURN(total_blocks_, r.U64());
  AURORA_ASSIGN_OR_RETURN(std::vector<uint8_t> bitmap, r.Bytes());
  bitmap_ = std::move(bitmap);

  AURORA_ASSIGN_OR_RETURN(uint8_t layout, r.U8());
  if (layout == kFreeListLayout) {
    return Status::Error(Errc::kNotSupported, "free-list layout retired");
  }
  if (layout != kSegmentLogLayout) {
    return Status::Error(Errc::kCorrupt, "unknown store layout " + std::to_string(layout));
  }
  AURORA_ASSIGN_OR_RETURN(options_.segment_blocks, r.U32());
  segments_.clear();
  open_data_seg_.clear();
  reloc_.clear();
  AURORA_ASSIGN_OR_RETURN(uint64_t nsegs, r.U64());
  if (nsegs > r.Remaining() / 13) {  // state, lane, cursor
    return Status::Error(Errc::kCorrupt, "segment count overruns the meta blob");
  }
  segments_.reserve(nsegs);
  for (uint64_t i = 0; i < nsegs; i++) {
    AURORA_ASSIGN_OR_RETURN(uint8_t state, r.U8());
    uint32_t lane = 0;
    uint64_t cursor = 0;
    AURORA_ASSIGN_OR_RETURN(lane, r.U32());
    AURORA_ASSIGN_OR_RETURN(cursor, r.U64());
    // MountSegState applies the remount policy: the blob we are recovering
    // from is durable, so no surviving pointer references an evacuated
    // (zombie) segment — it comes back free.
    segments_.push_back(MountSegState(static_cast<SegState>(state), lane, cursor));
  }
  AURORA_ASSIGN_OR_RETURN(uint64_t nreloc, r.U64());
  for (uint64_t i = 0; i < nreloc; i++) {
    uint64_t old_phys = 0;
    RelocEntry entry;
    AURORA_ASSIGN_OR_RETURN(old_phys, r.U64());
    AURORA_ASSIGN_OR_RETURN(entry.new_phys, r.U64());
    AURORA_ASSIGN_OR_RETURN(entry.reloc_epoch, r.U64());
    reloc_[old_phys] = entry;
  }
  AURORA_ASSIGN_OR_RETURN(open_meta_seg_, r.U64());
  AURORA_ASSIGN_OR_RETURN(uint64_t nopen, r.U64());
  for (uint64_t i = 0; i < nopen; i++) {
    uint32_t lane = 0;
    uint64_t seg = 0;
    AURORA_ASSIGN_OR_RETURN(lane, r.U32());
    AURORA_ASSIGN_OR_RETURN(seg, r.U64());
    open_data_seg_[lane] = seg;
    if (lane != kGcLane && lane < flush_lanes_) {
      queue_hints_.HintOpenSegment(static_cast<int>(lane), seg);
    }
  }

  // v4 dedup index; the reverse map is derived state and is rebuilt here
  // rather than persisted.
  AURORA_ASSIGN_OR_RETURN(uint8_t dedup_on, r.U8());
  options_.dedup = dedup_on != 0;
  AURORA_ASSIGN_OR_RETURN(uint8_t codec_id, r.U8());
  options_.codec = static_cast<CodecId>(codec_id);
  if (!IsStoreCodec(options_.codec)) {
    return Status::Error(Errc::kCorrupt, "unknown store codec id " + std::to_string(codec_id));
  }
  dedup_.clear();
  dedup_by_phys_.clear();
  AURORA_ASSIGN_OR_RETURN(uint64_t ndedup, r.U64());
  for (uint64_t i = 0; i < ndedup; i++) {
    ContentKey key;
    DedupEntry entry;
    AURORA_ASSIGN_OR_RETURN(key.hi, r.U64());
    AURORA_ASSIGN_OR_RETURN(key.lo, r.U64());
    AURORA_ASSIGN_OR_RETURN(entry.phys, r.U64());
    AURORA_ASSIGN_OR_RETURN(entry.refs, r.U64());
    AURORA_ASSIGN_OR_RETURN(entry.first_birth, r.U64());
    AURORA_ASSIGN_OR_RETURN(entry.crc, r.U32());
    AURORA_ASSIGN_OR_RETURN(entry.stored_len, r.U32());
    AURORA_ASSIGN_OR_RETURN(entry.codec, r.U8());
    dedup_[key] = entry;
    dedup_by_phys_[entry.phys] = key;
  }
  return Status::Ok();
}

Status ObjectStore::WriteSuperblock(uint64_t meta_block, uint64_t meta_len, SimTime* done) {
  Superblock sb;
  sb.epoch = epoch_;
  sb.block_size = options_.block_size;
  sb.total_blocks = total_blocks_;
  sb.meta_block = meta_block;
  sb.meta_len = meta_len;
  sb.committed_at = sim_->clock.now();
  if (!checkpoints_.empty() && checkpoints_.back().epoch == epoch_) {
    std::strncpy(sb.name, checkpoints_.back().name.c_str(), kSuperNameMax - 1);
  }
  std::vector<uint8_t> raw = sb.Serialize();
  raw.resize(device_->block_size(), 0);
  uint64_t slot = epoch_ % kSuperSlots;
  AURORA_ASSIGN_OR_RETURN(SimTime t, DevWrite(0, slot, raw.data(), 1));
  *done = t;
  return Status::Ok();
}

Result<SimTime> ObjectStore::CommitCheckpoint(const std::string& name) {
  // Record this commit in the directory first so the metadata blob of the
  // *next* epoch knows where to find it. (The current blob cannot contain
  // its own location; the superblock carries that.)
  CheckpointRecord record;
  record.epoch = epoch_;
  record.name = name;
  record.committed_at = sim_->clock.now();

  // Two-pass serialization: the bitmap's serialized size is fixed, so
  // allocating the metadata blocks between passes cannot change the size.
  std::vector<uint8_t> blob = SerializeMeta();
  uint64_t nblocks = (blob.size() + options_.block_size - 1) / options_.block_size;
  // AllocMetaRun only moves bits and fixed-width segment cursors, so the
  // second pass serializes to the same size.
  AURORA_ASSIGN_OR_RETURN(uint64_t meta_block, AllocMetaRun(nblocks));
  blob = SerializeMeta();
  sim_->clock.Advance(sim_->cost.Serialize(blob.size()));

  record.meta_block = meta_block;
  record.meta_len = blob.size();

  std::vector<uint8_t> padded(nblocks * options_.block_size, 0);
  std::memcpy(padded.data(), blob.data(), blob.size());
  auto meta_wrote = DevWrite(0, DevLba(meta_block), padded.data(),
                             static_cast<uint32_t>(nblocks * DevBlocksPerStoreBlock()));
  if (!meta_wrote.ok()) {
    // A failed commit leaves the epoch open for another attempt; it must not
    // leak its metadata blocks or record a checkpoint nobody can read.
    FreeMetaRun(meta_block, nblocks);
    return meta_wrote.status();
  }
  SimTime meta_done = *meta_wrote;

  checkpoints_.push_back(record);
  SimTime super_done = 0;
  Status super = WriteSuperblock(meta_block, blob.size(), &super_done);
  if (!super.ok()) {
    checkpoints_.pop_back();
    FreeMetaRun(meta_block, nblocks);
    return super;
  }

  SimTime done = std::max({meta_done, super_done, last_data_write_done_});
  epoch_++;
  stats_.commits++;
  sim_->metrics.counter("store.commits").Add();
  sim_->metrics.counter("store.meta_bytes").Add(blob.size());
  // Segments evacuated by GC during the epoch just sealed are now
  // unreferenced by every durable pointer: the rewritten table is on media
  // and the superblock points at it.
  ReclaimZombies();
  PublishSegmentGauges();
  return done;
}

std::vector<CheckpointInfo> ObjectStore::ListCheckpoints() const {
  std::vector<CheckpointInfo> out;
  out.reserve(checkpoints_.size());
  for (const CheckpointRecord& c : checkpoints_) {
    out.push_back(CheckpointInfo{c.epoch, c.name, c.committed_at});
  }
  return out;
}

Status ObjectStore::DeleteCheckpointsBefore(uint64_t epoch) {
  // Free whole deadlists sealed at or before `epoch`: every retained
  // checkpoint is >= epoch, so no retained epoch can lie inside any
  // [birth, killed) window ending there.
  for (auto it = deadlists_.begin(); it != deadlists_.end();) {
    if (it->first <= epoch) {
      for (const DeadEntry& e : it->second) {
        FreeBlock(e.phys);
      }
      it = deadlists_.erase(it);
    } else {
      ++it;
    }
  }
  // Drop directory entries and their metadata blobs. The newest committed
  // checkpoint is always retained (it is the recovery point).
  uint64_t newest = checkpoints_.empty() ? 0 : checkpoints_.back().epoch;
  for (auto it = checkpoints_.begin(); it != checkpoints_.end();) {
    if (it->epoch < epoch && it->epoch != newest) {
      uint64_t nblocks = (it->meta_len + options_.block_size - 1) / options_.block_size;
      for (uint64_t b = 0; b < nblocks; b++) {
        FreeBlock(it->meta_block + b);
      }
      epoch_cache_.erase(it->epoch);
      it = checkpoints_.erase(it);
    } else {
      ++it;
    }
  }
  // Relocation entries exist for readers of blobs older than the move. Once
  // every retained checkpoint is at least as new as reloc_epoch, no reader
  // can present an old enough view and the entry expires.
  if (!reloc_.empty()) {
    uint64_t min_retained = epoch_;
    for (const CheckpointRecord& c : checkpoints_) {
      min_retained = std::min(min_retained, c.epoch);
    }
    for (auto it = reloc_.begin(); it != reloc_.end();) {
      if (it->second.reloc_epoch <= min_retained) {
        it = reloc_.erase(it);
      } else {
        ++it;
      }
    }
  }
  return Status::Ok();
}

Result<const ObjectStore::ObjectInfo*> ObjectStore::LoadEpochTable(uint64_t epoch, Oid oid) {
  auto cached = epoch_cache_.find(epoch);
  if (cached == epoch_cache_.end()) {
    const CheckpointRecord* record = nullptr;
    for (const CheckpointRecord& c : checkpoints_) {
      if (c.epoch == epoch) {
        record = &c;
        break;
      }
    }
    if (record == nullptr) {
      return Status::Error(Errc::kNotFound, "no such checkpoint");
    }
    uint64_t nblocks = (record->meta_len + options_.block_size - 1) / options_.block_size;
    std::vector<uint8_t> raw(nblocks * options_.block_size);
    AURORA_RETURN_IF_ERROR(
        DevReadSync(DevLba(record->meta_block), raw.data(),
                    static_cast<uint32_t>(nblocks * DevBlocksPerStoreBlock())));
    std::vector<uint8_t> blob(raw.begin(), raw.begin() + static_cast<long>(record->meta_len));
    // Parse into a scratch store object so the live table is untouched.
    ObjectStore scratch(device_, sim_, options_);
    AURORA_RETURN_IF_ERROR(scratch.DeserializeMeta(blob));
    cached = epoch_cache_.emplace(epoch, std::move(scratch.objects_)).first;
  }
  auto obj = cached->second.find(oid);
  if (obj == cached->second.end()) {
    return Status::Error(Errc::kNotFound, "object absent from checkpoint");
  }
  return &obj->second;
}

Status ObjectStore::ReadAtEpoch(uint64_t epoch, Oid oid, uint64_t off, void* out, uint64_t len,
                                SimTime* completion) {
  AURORA_ASSIGN_OR_RETURN(const ObjectInfo* info, LoadEpochTable(epoch, oid));
  const uint32_t bs = options_.block_size;
  auto* dst = static_cast<uint8_t*>(out);
  std::vector<uint8_t> buf(bs);
  SimTime done = sim_->clock.now();
  uint64_t pos = off;
  uint64_t remaining = len;
  while (remaining > 0) {
    uint64_t logical = pos / bs;
    uint64_t in_block = pos % bs;
    uint64_t chunk = std::min<uint64_t>(remaining, bs - in_block);
    auto ext = info->extents.find(logical);
    if (ext == info->extents.end()) {
      std::memset(dst, 0, chunk);
    } else if (completion != nullptr) {
      // Streaming restore: reads pipeline, and with flush lanes configured
      // they also fan out over the device submission queues. The checkpoint's
      // recorded location translates through the relocation map in case GC
      // moved the block after this epoch committed.
      uint64_t phys = TranslatePhys(ext->second.phys, epoch);
      AURORA_ASSIGN_OR_RETURN(SimTime t,
                              LoadExtentAsync(NextFlushLane(), ext->second, phys, buf.data()));
      done = std::max(done, t);
      std::memcpy(dst, buf.data() + in_block, chunk);
    } else {
      uint64_t phys = TranslatePhys(ext->second.phys, epoch);
      AURORA_RETURN_IF_ERROR(LoadExtentSync(ext->second, phys, buf.data()));
      std::memcpy(dst, buf.data() + in_block, chunk);
    }
    pos += chunk;
    dst += chunk;
    remaining -= chunk;
  }
  if (completion != nullptr) {
    *completion = std::max(*completion, done);
  }
  return Status::Ok();
}

Result<uint64_t> ObjectStore::SizeAtEpoch(uint64_t epoch, Oid oid) {
  AURORA_ASSIGN_OR_RETURN(const ObjectInfo* info, LoadEpochTable(epoch, oid));
  return info->size;
}

Result<std::vector<Oid>> ObjectStore::ObjectsAtEpoch(uint64_t epoch) {
  // Force the table into the cache via any object probe; a miss with
  // kNotFound on the oid is fine, table-level failures are not.
  auto probe = LoadEpochTable(epoch, Oid{0});
  if (!probe.ok() && probe.status().code() != Errc::kNotFound) {
    return probe.status();
  }
  auto cached = epoch_cache_.find(epoch);
  if (cached == epoch_cache_.end()) {
    return Status::Error(Errc::kNotFound, "no such checkpoint");
  }
  std::vector<Oid> out;
  out.reserve(cached->second.size());
  for (const auto& [oid, info] : cached->second) {
    out.push_back(oid);
  }
  std::sort(out.begin(), out.end());
  return out;
}

Result<ObjType> ObjectStore::TypeAtEpoch(uint64_t epoch, Oid oid) {
  AURORA_ASSIGN_OR_RETURN(const ObjectInfo* info, LoadEpochTable(epoch, oid));
  return info->type;
}

Result<std::vector<uint64_t>> ObjectStore::BlocksAtEpoch(uint64_t epoch, Oid oid) {
  AURORA_ASSIGN_OR_RETURN(const ObjectInfo* info, LoadEpochTable(epoch, oid));
  std::vector<uint64_t> out;
  out.reserve(info->extents.size());
  for (const auto& [logical, extent] : info->extents) {
    out.push_back(logical);
  }
  return out;
}

Result<std::vector<uint64_t>> ObjectStore::ChangedBlocksSince(uint64_t since_epoch,
                                                              uint64_t epoch, Oid oid) {
  AURORA_ASSIGN_OR_RETURN(const ObjectInfo* info, LoadEpochTable(epoch, oid));
  std::vector<uint64_t> out;
  for (const auto& [logical, extent] : info->extents) {
    if (extent.birth > since_epoch) {
      out.push_back(logical);
    }
  }
  return out;
}

Result<bool> ObjectStore::ExistsAtEpoch(uint64_t epoch, Oid oid) {
  auto info = LoadEpochTable(epoch, oid);
  if (info.ok()) {
    return true;
  }
  if (info.status().code() == Errc::kNotFound) {
    // Distinguish "no checkpoint" from "object absent".
    bool have_epoch = false;
    for (const CheckpointRecord& c : checkpoints_) {
      have_epoch |= c.epoch == epoch;
    }
    if (have_epoch) {
      return false;
    }
  }
  return info.status();
}

// --- Journals ------------------------------------------------------------------

namespace {
// Journal header block (first device block of the extent): the durable
// generation. JournalReset syncs it before accepting new-generation
// appends, so acknowledged records can never be shadowed by a lost reset.
std::vector<uint8_t> MakeJournalHeader(uint64_t gen, uint32_t dev_bs) {
  BinaryWriter w;
  w.PutU32(kJournalMagic);
  w.PutU64(gen);
  w.PutU32(Crc32c(&gen, sizeof(gen)));
  std::vector<uint8_t> buf = w.Take();
  buf.resize(dev_bs, 0);
  return buf;
}

Result<uint64_t> ParseJournalHeader(const std::vector<uint8_t>& buf) {
  BinaryReader r(buf.data(), buf.size());
  AURORA_ASSIGN_OR_RETURN(uint32_t magic, r.U32());
  AURORA_ASSIGN_OR_RETURN(uint64_t gen, r.U64());
  AURORA_ASSIGN_OR_RETURN(uint32_t crc, r.U32());
  if (magic != kJournalMagic || crc != Crc32c(&gen, sizeof(gen))) {
    return Status::Error(Errc::kCorrupt, "bad journal header");
  }
  return gen;
}
}  // namespace

Result<Oid> ObjectStore::CreateJournal(uint64_t capacity_bytes) {
  // The first device block of the extent holds the generation header, so
  // usable record capacity is one device block less than requested.
  const uint32_t dev_bs = device_->block_size();
  uint64_t nblocks = (capacity_bytes + options_.block_size - 1) / options_.block_size;
  AURORA_ASSIGN_OR_RETURN(uint64_t start, AllocJournalRun(nblocks));
  Oid oid{next_oid_++};
  ObjectInfo info;
  info.type = ObjType::kJournal;
  info.size = nblocks * options_.block_size;
  info.non_cow = true;
  info.journal_start = start;
  info.journal_blocks = nblocks;
  info.journal_gen = 1;
  info.journal_write_off = dev_bs;  // record area starts after the header
  // Persist the initial generation.
  auto header = MakeJournalHeader(info.journal_gen, dev_bs);
  AURORA_RETURN_IF_ERROR(DevWriteSync(DevLba(start), header.data(), 1));
  objects_[oid] = std::move(info);
  return oid;
}

Status ObjectStore::JournalAppend(Oid oid, const void* data, uint64_t len) {
  auto it = objects_.find(oid);
  if (it == objects_.end() || !it->second.non_cow) {
    return Status::Error(Errc::kNotFound, "no such journal");
  }
  ObjectInfo& info = it->second;
  const uint32_t dev_bs = device_->block_size();
  uint64_t record_len = JournalRecordHeader::kSize + len;
  uint64_t padded = (record_len + dev_bs - 1) / dev_bs * dev_bs;
  uint64_t capacity = info.journal_blocks * options_.block_size;
  if (info.journal_write_off + padded > capacity) {
    return Status::Error(Errc::kNoSpace, "journal full");
  }
  BinaryWriter w;
  w.PutU32(kJournalMagic);
  w.PutU64(info.journal_gen);
  w.PutU64(info.journal_next_seq);
  w.PutU64(len);
  w.PutU32(Crc32c(data, len));
  w.PutRaw(data, len);
  std::vector<uint8_t> buf = w.Take();
  buf.resize(padded, 0);
  uint64_t lba = DevLba(info.journal_start) + info.journal_write_off / dev_bs;
  // Synchronous in-place write: this is the 28 us path of section 7. The
  // caller blocks for the full command, so there is no cross-device
  // pipelining; charge the calibrated synchronous rate.
  auto submitted = DevWrite(0, lba, buf.data(), static_cast<uint32_t>(padded / dev_bs));
  if (!submitted.ok()) {
    return submitted.status();
  }
  sim_->clock.Advance(sim_->cost.NvmeWrite(padded));
  info.journal_write_off += padded;
  info.journal_next_seq++;
  stats_.journal_appends++;
  sim_->metrics.counter("store.journal_appends").Add();
  sim_->metrics.counter("store.journal_bytes").Add(len);
  return Status::Ok();
}

Status ObjectStore::JournalReset(Oid oid) {
  auto it = objects_.find(oid);
  if (it == objects_.end() || !it->second.non_cow) {
    return Status::Error(Errc::kNotFound, "no such journal");
  }
  ObjectInfo& info = it->second;
  info.journal_gen++;
  // The new generation becomes durable before any new-generation append can
  // be acknowledged; otherwise a crash could replay stale records or lose
  // acknowledged ones.
  auto header = MakeJournalHeader(info.journal_gen, device_->block_size());
  AURORA_RETURN_IF_ERROR(DevWriteSync(DevLba(info.journal_start), header.data(), 1));
  info.journal_write_off = device_->block_size();
  info.journal_next_seq = 0;
  return Status::Ok();
}

Result<std::vector<std::vector<uint8_t>>> ObjectStore::JournalReplay(Oid oid) {
  auto it = objects_.find(oid);
  if (it == objects_.end() || !it->second.non_cow) {
    return Status::Error(Errc::kNotFound, "no such journal");
  }
  const ObjectInfo& info = it->second;
  const uint32_t dev_bs = device_->block_size();
  uint64_t capacity = info.journal_blocks * options_.block_size;
  std::vector<std::vector<uint8_t>> records;
  // The DURABLE generation comes from the header block, not the (possibly
  // stale) checkpointed metadata.
  std::vector<uint8_t> hdr(dev_bs);
  AURORA_RETURN_IF_ERROR(DevReadSync(DevLba(info.journal_start), hdr.data(), 1));
  uint64_t durable_gen = info.journal_gen;
  if (auto parsed = ParseJournalHeader(hdr); parsed.ok()) {
    durable_gen = *parsed;
  }
  uint64_t off = dev_bs;
  uint64_t expected_seq = 0;
  std::vector<uint8_t> head(dev_bs);
  while (off + dev_bs <= capacity) {
    uint64_t lba = DevLba(info.journal_start) + off / dev_bs;
    AURORA_RETURN_IF_ERROR(DevReadSync(lba, head.data(), 1));
    BinaryReader r(head.data(), head.size());
    auto magic = r.U32();
    auto gen = r.U64();
    auto seq = r.U64();
    auto len = r.U64();
    auto crc = r.U32();
    if (!magic.ok() || *magic != kJournalMagic || !gen.ok() || *gen != durable_gen ||
        !seq.ok() || *seq != expected_seq || !len.ok() || !crc.ok()) {
      break;
    }
    uint64_t record_len = JournalRecordHeader::kSize + *len;
    uint64_t padded = (record_len + dev_bs - 1) / dev_bs * dev_bs;
    if (off + padded > capacity) {
      break;
    }
    std::vector<uint8_t> full(padded);
    AURORA_RETURN_IF_ERROR(
        DevReadSync(lba, full.data(), static_cast<uint32_t>(padded / dev_bs)));
    std::vector<uint8_t> payload(full.begin() + JournalRecordHeader::kSize,
                                 full.begin() + static_cast<long>(record_len));
    if (Crc32c(payload.data(), payload.size()) != *crc) {
      break;  // torn record: everything before it is the durable prefix
    }
    records.push_back(std::move(payload));
    off += padded;
    expected_seq++;
  }
  return records;
}

Status ObjectStore::RecoverJournalOffsets() {
  for (auto& [oid, info] : objects_) {
    if (!info.non_cow) {
      continue;
    }
    const uint32_t dev_bs = device_->block_size();
    // Adopt the durable generation from the header.
    std::vector<uint8_t> hdr(dev_bs);
    AURORA_RETURN_IF_ERROR(DevReadSync(DevLba(info.journal_start), hdr.data(), 1));
    if (auto parsed = ParseJournalHeader(hdr); parsed.ok()) {
      info.journal_gen = *parsed;
    }
    AURORA_ASSIGN_OR_RETURN(std::vector<std::vector<uint8_t>> records, JournalReplay(oid));
    uint64_t off = dev_bs;
    for (const auto& rec : records) {
      uint64_t record_len = JournalRecordHeader::kSize + rec.size();
      off += (record_len + dev_bs - 1) / dev_bs * dev_bs;
    }
    info.journal_write_off = off;
    info.journal_next_seq = records.size();
  }
  return Status::Ok();
}

}  // namespace aurora
