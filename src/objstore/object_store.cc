#include "src/objstore/object_store.h"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <string>

#include "src/base/checksum.h"
#include "src/base/units.h"

namespace aurora {

ObjectStore::ObjectStore(BlockDevice* device, SimContext* sim, StoreOptions options)
    : device_(device),
      sim_(sim),
      retry_(IoRetryPolicy::FromCost(sim->cost)),
      lanes_(sim->FlushLanes()) {
  meta_.options = options;
}

// --- Device IO with bounded retry --------------------------------------------

namespace {
// The completion rule of every store I/O: a caller without a completion
// waits for the device, any other caller collects the latest completion.
Status Complete(SimClock* clock, const Result<SimTime>& done, SimTime* completion) {
  if (!done.ok()) {
    return done.status();
  }
  if (completion == nullptr) {
    clock->AdvanceTo(*done);
  } else {
    *completion = std::max(*completion, *done);
  }
  return Status::Ok();
}
}  // namespace

Status ObjectStore::DevWrite(uint32_t queue, uint64_t lba, const void* data, uint32_t ndev,
                             SimTime* completion, SimTime* lane) {
  auto submit = [&](SimTime at) { return device_->WriteAsync(queue, at, lba, data, ndev); };
  return Complete(&sim_->clock, RetryIo(sim_, retry_, lane, submit), completion);
}

Status ObjectStore::DevRead(uint32_t queue, uint64_t lba, void* out, uint32_t ndev,
                            SimTime* completion) {
  auto submit = [&](SimTime) { return device_->ReadAsync(queue, lba, out, ndev); };
  return Complete(&sim_->clock, RetryIo(sim_, retry_, nullptr, submit), completion);
}

Status ObjectStore::VerifyBlockCrc(const Extent& extent, const uint8_t* data) {
  uint32_t span = extent.stored_len != 0 ? extent.stored_len : block_size();
  if (Crc32c(data, span) == extent.crc) {
    return Status::Ok();
  }
  sim_->metrics.counter("io.crc_errors").Add();
  return Status::Error(Errc::kCorrupt,
                       "store block checksum mismatch at phys " + std::to_string(extent.phys));
}

Status ObjectStore::ReadBlockVerified(uint64_t phys, uint32_t crc, uint32_t stored_len,
                                      uint8_t* buf) {
  AURORA_RETURN_IF_ERROR(DevRead(0, DevLba(phys), buf, DevBlocksForStored(stored_len), nullptr));
  return VerifyBlockCrc(Extent{phys, 0, crc, stored_len, 0}, buf);
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
      std::memcpy(block, stored, block_size());
    }
    return Status::Ok();
  }
  const ExtentCodec* codec = FindExtentCodec(static_cast<CodecId>(extent.codec));
  if (codec == nullptr) {
    return Status::Error(Errc::kCorrupt,
                         "extent stored with unknown codec id " + std::to_string(extent.codec));
  }
  sim_->clock.Advance(sim_->cost.Decompress(block_size()));
  return codec->Decompress(stored, extent.stored_len, block, block_size());
}

Status ObjectStore::LoadExtent(uint32_t queue, const Extent& extent, uint64_t phys,
                               uint8_t* block, SimTime* completion) {
  // A raw extent reads straight into `block`; a coded one into a scratch
  // buffer of its stored span.
  const uint32_t ndev = DevBlocksForStored(extent.stored_len);
  std::vector<uint8_t> scratch;
  uint8_t* stored = block;
  if (extent.stored_len != 0) {
    scratch.resize(static_cast<size_t>(ndev) * device_->block_size());
    stored = scratch.data();
  }
  AURORA_RETURN_IF_ERROR(DevRead(queue, DevLba(phys), stored, ndev, completion));
  return DecodeStored(extent, stored, block);
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
  if (store->RingBlocks() > store->segment_blocks()) {
    return Status::Error(Errc::kInvalidArgument, "superblock ring exceeds one segment");
  }
  AURORA_RETURN_IF_ERROR(store->Rebuild());
  AURORA_ASSIGN_OR_RETURN(SimTime done, store->CommitCheckpoint("format"));
  sim->clock.AdvanceTo(done);
  return store;
}

Result<std::unique_ptr<ObjectStore>> ObjectStore::Open(BlockDevice* device, SimContext* sim) {
  // One store mounts the first candidate whose blob verifies; until then it
  // holds just the candidate's geometry, which ReadMeta reads against.
  auto store = std::unique_ptr<ObjectStore>(new ObjectStore(device, sim, StoreOptions()));
  // Scan the superblock ring; prefer the highest epoch whose metadata blob
  // also verifies. A torn commit leaves the previous checkpoint intact.
  std::vector<Superblock> candidates;
  std::vector<uint8_t> buf(device->block_size());
  for (int slot = 0; slot < kSuperSlots; slot++) {
    if (!store->DevRead(0, static_cast<uint64_t>(slot), buf.data(), 1, nullptr).ok()) {
      continue;
    }
    auto sb = DecodeSuperblock(buf.data(), buf.size(), device->block_size(),
                               device->block_count());
    if (sb.ok()) {
      candidates.push_back(std::move(*sb));
    }
  }
  std::sort(candidates.begin(), candidates.end(),
            [](const Superblock& a, const Superblock& b) { return a.epoch > b.epoch; });
  for (const Superblock& sb : candidates) {
    store->meta_.options.block_size = sb.block_size;
    store->total_blocks_ = sb.total_blocks;
    auto meta = store->ReadMeta(sb.meta_block, sb.meta_len);
    if (!meta.ok() && meta.status().code() == Errc::kNotSupported) {
      return meta.status();  // the layout is fixed at format time; no epoch can help
    }
    if (!meta.ok()) {
      continue;  // torn metadata: fall back to the previous checkpoint
    }
    store->meta_ = std::move(*meta);
    store->meta_.epoch = sb.epoch + 1;
    store->meta_.checkpoints.push_back(
        CheckpointRecord{sb.epoch, sb.name, sb.committed_at, sb.meta_block, sb.meta_len});
    if (!store->Rebuild().ok()) {
      continue;  // tables that contradict each other are as unusable as torn ones
    }
    AURORA_RETURN_IF_ERROR(store->RecoverJournalOffsets());
    return store;
  }
  return Status::Error(Errc::kCorrupt, "no valid checkpoint found on device");
}

Result<StoreMeta> ObjectStore::ReadMeta(uint64_t meta_block, uint64_t meta_len) {
  uint64_t nblocks = MetaRunBlocks(meta_len, block_size());
  std::vector<uint8_t> raw(nblocks * block_size());
  AURORA_RETURN_IF_ERROR(DevRead(0, DevLba(meta_block), raw.data(),
                                 static_cast<uint32_t>(nblocks * DevBlocksPerStoreBlock()),
                                 nullptr));
  return DecodeMeta(raw.data(), meta_len, block_size(), total_blocks_);
}

// --- Segment log -------------------------------------------------------------

uint64_t ObjectStore::SegCapacity(uint64_t seg) const {
  uint64_t base = SegBase(seg);
  return std::min<uint64_t>(segment_blocks(), total_blocks_ - base);
}

void ObjectStore::SetLive(uint64_t block, bool live) {
  if (bitmap_[block] != live) {
    bitmap_[block] = live;
    if (live) {
      seg_live_[SegmentOf(block)]++;
    } else {
      seg_live_[SegmentOf(block)]--;
    }
  }
}

ObjectStore::Derived ObjectStore::DeriveAllocation() const {
  const uint64_t nsegs = (total_blocks_ + segment_blocks() - 1) / segment_blocks();
  Derived d;
  d.live.assign(total_blocks_, false);
  d.live_count.assign(nsegs, 0);
  d.role.assign(nsegs, SegState::kFree);
  d.high.assign(nsegs, 0);
  auto mark = [&](uint64_t start, uint64_t nblocks, SegState role) {
    for (uint64_t b = start; b < start + nblocks; b++) {
      uint64_t seg = SegmentOf(b);
      d.clash |= d.role[seg] != SegState::kFree && d.role[seg] != role;
      d.role[seg] = role;
      d.live_count[seg] += d.live[b] ? 0 : 1;
      d.live[b] = true;
      d.high[seg] = std::max(d.high[seg], b - SegBase(seg) + 1);
    }
  };
  // The superblock ring lives in device blocks [0, kSuperSlots): every store
  // block it touches is held, not just block 0. With small store blocks the
  // ring spans several, and handing those out would let later superblock
  // writes corrupt committed data.
  mark(0, RingBlocks(), SegState::kMeta);
  for (const CheckpointRecord& c : meta_.checkpoints) {
    mark(c.meta_block, MetaRunBlocks(c.meta_len, block_size()), SegState::kMeta);
  }
  for (const auto& [oid, info] : meta_.objects) {
    if (info.non_cow) {
      mark(info.journal_start, info.journal_blocks, SegState::kJournal);
    }
    for (const auto& [logical, extent] : info.extents) {
      mark(extent.phys, 1, SegState::kSealed);
    }
  }
  for (const auto& [epoch, entries] : meta_.deadlists) {
    for (const DeadEntry& e : entries) {
      mark(e.phys, 1, SegState::kSealed);
    }
  }
  for (const auto& [key, entry] : meta_.dedup_index) {
    mark(entry.phys, 1, SegState::kSealed);
  }
  return d;
}

Status ObjectStore::Rebuild() {
  if (RingBlocks() > total_blocks_) {
    return Status::Error(Errc::kCorrupt, "superblock ring does not fit the store");
  }
  Derived d = DeriveAllocation();
  // Open-segment entries per segment. A machine with fewer flush lanes than
  // the writer's never appends to the extra lanes' segments again: they are
  // not open.
  std::vector<uint64_t> open(d.role.size(), 0);
  for (auto it = meta_.open_data_seg.begin(); it != meta_.open_data_seg.end();) {
    bool gone = it->first >= static_cast<uint32_t>(sim_->FlushLanes()) && it->first != kGcLane;
    open[it->second] += gone ? 0 : 1;
    it = gone ? meta_.open_data_seg.erase(it) : std::next(it);
  }
  bitmap_ = std::move(d.live);
  seg_live_ = std::move(d.live_count);
  segments_.assign(d.role.size(), Segment{});
  for (uint64_t seg = 0; seg < segments_.size(); seg++) {
    const SegState role = d.role[seg];
    const uint64_t quarantined = meta_.quarantined.count(seg);
    // An open or a quarantined segment holds data if anything, and is one
    // lane's or quarantined, not both.
    d.clash |= open[seg] + quarantined > 1 ||
               (open[seg] + quarantined > 0 && role != SegState::kSealed &&
                role != SegState::kFree);
    if (d.clash) {
      return Status::Error(Errc::kCorrupt, "the metadata gives a segment two roles");
    }
    if (open[seg] > 0) {
      SegTransition(seg, SegState::kOpen, d.high[seg]);
    } else if (role == SegState::kMeta) {
      SegTransition(seg, SegState::kMeta, d.high[seg]);
    } else if (role == SegState::kJournal) {
      SegTransition(seg, SegState::kJournal, SegCapacity(seg));
    } else if (role == SegState::kSealed || quarantined > 0) {
      SegTransition(seg, SegState::kOpen, SegCapacity(seg));
      SegTransition(seg, SegState::kSealed);
      if (quarantined > 0) {
        SegTransition(seg, SegState::kQuarantine);
      }
    }
  }
  dedup_by_phys_.clear();
  for (const auto& [key, entry] : meta_.dedup_index) {
    dedup_by_phys_[entry.phys] = key;
  }
  return Status::Ok();
}

void ObjectStore::SegTransition(uint64_t seg, SegState to, uint64_t cursor) {
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
    s = Segment{to, cursor};
  } else {
    // seal / zombie / quarantine: only the state changes; the cursor keeps
    // counting the blocks appended, which GC's utilization reads.
    s.state = to;
  }
  if (to == SegState::kQuarantine) {
    meta_.quarantined.insert(seg);
  }
}

void ObjectStore::DedupAddRef(DedupEntry& entry) { entry.refs++; }

void ObjectStore::DedupDropRef(DedupEntry& entry) {
  assert(entry.refs > 0 && "dedup refcount underflow");
  entry.refs--;
}

Result<uint64_t> ObjectStore::AllocSegment(SegState state) {
  for (uint64_t seg = 0; seg < segments_.size(); seg++) {
    if (segments_[seg].state == SegState::kFree) {
      SegTransition(seg, state);
      sim_->metrics.counter("store.segments_opened").Add();
      return seg;
    }
  }
  return Status::Error(Errc::kNoSpace, "no free segment");
}

Result<uint64_t> ObjectStore::AppendBlock(uint32_t lane) {
  auto it = meta_.open_data_seg.find(lane);
  if (it == meta_.open_data_seg.end() ||
      segments_[it->second].cursor >= SegCapacity(it->second)) {
    if (it != meta_.open_data_seg.end()) {
      SegTransition(it->second, SegState::kSealed);
      sim_->metrics.counter("store.segments_sealed").Add();
    }
    AURORA_ASSIGN_OR_RETURN(uint64_t seg, AllocSegment(SegState::kOpen));
    it = meta_.open_data_seg.insert_or_assign(lane, seg).first;
  }
  uint64_t phys = SegBase(it->second) + segments_[it->second].cursor++;
  HoldRun(phys, 1);
  sim_->clock.Advance(sim_->cost.lock_acquire);
  return phys;
}

Result<uint64_t> ObjectStore::AllocMetaRun(uint64_t nblocks) {
  if (nblocks > segment_blocks()) {
    return AllocSegmentRun(SegState::kMeta, nblocks);  // oversized blob (large tables)
  }
  // A blob goes just past the newest blob's run (past the ring before any
  // blob), or to the head of that run's segment once its tail is used up:
  // blobs are pruned oldest first, so the head frees before the tail fills.
  // Failing both, it opens a fresh meta segment.
  auto free_run = [this, nblocks](uint64_t start) {
    bool free = start + nblocks <= SegBase(SegmentOf(start)) + SegCapacity(SegmentOf(start));
    for (uint64_t b = start; free && b < start + nblocks; b++) {
      free = !bitmap_[b];
    }
    return free;
  };
  uint64_t end = RingBlocks();
  if (!meta_.checkpoints.empty()) {
    const CheckpointRecord& newest = meta_.checkpoints.back();
    end = newest.meta_block + MetaRunBlocks(newest.meta_len, block_size());
  }
  const uint64_t head = SegBase(SegmentOf(end - 1));
  uint64_t start = end < head + SegCapacity(SegmentOf(head)) && free_run(end) ? end : head;
  if (!free_run(start)) {
    AURORA_ASSIGN_OR_RETURN(uint64_t seg, AllocSegment(SegState::kMeta));
    start = SegBase(seg);
  }
  Segment& seg = segments_[SegmentOf(start)];
  seg.cursor = std::max(seg.cursor, start + nblocks - SegBase(SegmentOf(start)));
  HoldRun(start, nblocks);
  return start;
}

void ObjectStore::HoldRun(uint64_t start, uint64_t nblocks) {
  for (uint64_t b = start; b < start + nblocks; b++) {
    SetLive(b, true);
  }
  stats_.blocks_allocated += nblocks;
  sim_->metrics.counter("store.blocks_allocated").Add(nblocks);
}

void ObjectStore::FreeRun(uint64_t start, uint64_t nblocks) {
  for (uint64_t b = start; b < start + nblocks; b++) {
    FreeBlock(b);
  }
}

Result<uint64_t> ObjectStore::AllocSegmentRun(SegState state, uint64_t nblocks) {
  const uint64_t s = segment_blocks();
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
      SegTransition(i, state, take);
      remaining -= take;
    }
    HoldRun(SegBase(first), nblocks);
    return SegBase(first);
  }
  return Status::Error(Errc::kNoSpace, "no contiguous free segment run");
}

void ObjectStore::FreeJournalRun(uint64_t start, uint64_t nblocks) {
  FreeRun(start, nblocks);
  for (uint64_t seg = SegmentOf(start); seg <= SegmentOf(start + nblocks - 1); seg++) {
    SegTransition(seg, SegState::kFree);
    sim_->metrics.counter("store.segments_reclaimed").Add();
  }
}

void ObjectStore::MaybeReclaimSegment(uint64_t seg) {
  const Segment& s = segments_[seg];
  // Only quiescent segments reclaim here: open segments are still appended
  // to, journals are freed wholesale and zombies wait for the next durable
  // commit (ReclaimZombies). The meta segment the next blob appends to holds
  // the newest blob, so it is never empty.
  if (s.state != SegState::kSealed && s.state != SegState::kMeta) {
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
  auto it = meta_.reloc.find(phys);
  if (it != meta_.reloc.end() && view_epoch < it->second.reloc_epoch) {
    return it->second.new_phys;
  }
  return phys;
}

void ObjectStore::FreeBlock(uint64_t block) {
  SetLive(block, false);
  stats_.blocks_freed++;
  sim_->metrics.counter("store.blocks_freed").Add();
  MaybeReclaimSegment(SegmentOf(block));
}

void ObjectStore::KillExtent(const Extent& extent) {
  auto rev = dedup_by_phys_.find(extent.phys);
  if (rev != dedup_by_phys_.end()) {
    auto idx = meta_.dedup_index.find(rev->second);
    if (idx == meta_.dedup_index.end()) {
      // Reverse-map stragglers cannot survive a mount (Rebuild derives the
      // map from the index); tolerate one anyway rather than crash.
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
      meta_.dedup_index.erase(idx);
      dedup_by_phys_.erase(rev);
      if (entry.first_birth == meta_.epoch) {
        FreeBlock(entry.phys);
      } else {
        meta_.deadlists[meta_.epoch].push_back(
            DeadEntry{entry.first_birth, entry.phys, entry.crc, entry.stored_len});
      }
      return;
    }
  }
  if (extent.birth == meta_.epoch) {
    // Born and killed inside the same uncommitted epoch: no checkpoint can
    // reference it, reuse immediately.
    FreeBlock(extent.phys);
  } else {
    meta_.deadlists[meta_.epoch].push_back(
        DeadEntry{extent.birth, extent.phys, extent.crc, extent.stored_len});
  }
}

Result<SimTime> ObjectStore::StoreBlockCow(uint32_t lane, const uint8_t* block, Extent* out,
                                           uint64_t* lane_bytes) {
  const uint32_t bs = block_size();
  // The flusher's CPU work on this block runs on its lane, from when the
  // lane finished its previous block's CPU work; the application's clock
  // does not move for it. The block's write is submitted when it ends.
  SimTime cpu = lanes_.StartOn(static_cast<int>(lane), sim_->clock.now());
  ContentKey key;
  if (meta_.options.dedup) {
    cpu += sim_->cost.ContentHash(bs);
    key = ContentHash128(block, bs);
    auto hit = meta_.dedup_index.find(key);
    if (hit != meta_.dedup_index.end()) {
      // Reference record instead of the block: no allocation, no device
      // write. The extent's birth is this epoch (the logical content of the
      // object block changed now), the physical block keeps its history.
      DedupAddRef(hit->second);
      *out = Extent{hit->second.phys, meta_.epoch, hit->second.crc, hit->second.stored_len,
                    hit->second.codec};
      stats_.bytes_deduped += bs;
      stats_.dedup_hits++;
      sim_->metrics.counter("ckpt.bytes_deduped").Add(bs);
      sim_->metrics.counter("store.dedup_hits").Add();
      lanes_.Occupy(static_cast<int>(lane), cpu);
      return cpu;
    }
  }

  // Dedup miss: optionally run the codec, then append the stored payload.
  const uint32_t dev_bs = device_->block_size();
  const uint8_t* payload = block;
  uint32_t stored_len = 0;
  uint8_t codec_id = static_cast<uint8_t>(CodecId::kRaw);
  std::vector<uint8_t> comp;
  // Format and DecodeMeta admit only known codec ids, so a null codec here
  // means kRaw. Only commit to the compressed form when it saves at least
  // one device block — the stored span is what the device actually writes.
  // A store block of one device block can never be saved that way, so it
  // never runs the codec and pays for no attempt.
  const ExtentCodec* codec = FindExtentCodec(meta_.options.codec);
  if (codec != nullptr && DevBlocksPerStoreBlock() > 1) {
    cpu += sim_->cost.Compress(bs);
    comp.resize(bs);
    size_t clen = codec->Compress(block, bs, comp.data());
    if (clen > 0 && (clen + dev_bs - 1) / dev_bs < DevBlocksPerStoreBlock()) {
      payload = comp.data();
      stored_len = static_cast<uint32_t>(clen);
      codec_id = static_cast<uint8_t>(meta_.options.codec);
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
  // A retried write backs off on the lane, which the backoff keeps busy.
  SimTime wdone = cpu;
  Status wrote = DevWrite(lane, DevLba(phys), payload, ndev, &wdone, &cpu);
  lanes_.Occupy(static_cast<int>(lane), cpu);
  if (!wrote.ok()) {
    FreeBlock(phys);  // no extent will ever point at it
    return wrote;
  }
  stats_.bytes_stored += static_cast<uint64_t>(ndev) * dev_bs;
  if (lane_bytes != nullptr) {
    *lane_bytes += static_cast<uint64_t>(ndev) * dev_bs;
  }
  *out = Extent{phys, meta_.epoch, crc, stored_len, codec_id};
  if (meta_.options.dedup) {
    meta_.dedup_index[key] = DedupEntry{phys, 1, meta_.epoch, crc, stored_len, codec_id};
    dedup_by_phys_[phys] = key;
  }
  return wdone;
}

uint64_t ObjectStore::FreeBlocks() const {
  return static_cast<uint64_t>(std::count(bitmap_.begin(), bitmap_.end(), false));
}

uint64_t ObjectStore::UsedPhysicalBlocks() const {
  uint64_t used = 0;
  for (const Segment& seg : segments_) {
    if (seg.state != SegState::kFree) {
      used += seg.cursor;
    }
  }
  return used;
}

SegmentStats ObjectStore::GetSegmentStats() const {
  SegmentStats out;
  out.segments_total = segments_.size();
  out.reloc_entries = meta_.reloc.size();
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
  sim_->metrics.gauge("store.dedup_entries").Set(meta_.dedup_index.size());
}

Status ObjectStore::CheckDedupInvariants() const {
  // Count live references per indexed physical block straight from the
  // object tables — the ground truth the refcounts must mirror.
  std::unordered_map<uint64_t, uint64_t> live_refs;
  for (const auto& [oid, info] : meta_.objects) {
    if (info.non_cow) {
      continue;
    }
    for (const auto& [logical, extent] : info.extents) {
      if (dedup_by_phys_.count(extent.phys) != 0) {
        live_refs[extent.phys]++;
      }
    }
  }
  if (meta_.dedup_index.size() != dedup_by_phys_.size()) {
    return Status::Error(Errc::kCorrupt, "dedup index and reverse map sizes differ");
  }
  for (const auto& [key, entry] : meta_.dedup_index) {
    auto rev = dedup_by_phys_.find(entry.phys);
    if (rev == dedup_by_phys_.end() || !(rev->second == key)) {
      return Status::Error(Errc::kCorrupt, "dedup reverse map does not mirror index");
    }
    if (!bitmap_[entry.phys]) {
      return Status::Error(Errc::kCorrupt, "dedup entry points at a free block");
    }
    uint64_t expect = live_refs.count(entry.phys) != 0 ? live_refs[entry.phys] : 0;
    if (entry.refs != expect) {
      return Status::Error(Errc::kCorrupt, "dedup refcount does not match live extents");
    }
  }
  // A block owned by the index must never also sit on a deadlist: the index
  // frees it exactly once, when the last reference dies.
  for (const auto& [epoch, entries] : meta_.deadlists) {
    for (const DeadEntry& e : entries) {
      if (dedup_by_phys_.count(e.phys) != 0) {
        return Status::Error(Errc::kCorrupt, "indexed block found on a deadlist");
      }
    }
  }
  return Status::Ok();
}

Status ObjectStore::CheckLiveBitmap() const {
  Derived d = DeriveAllocation();
  if (d.live != bitmap_) {
    return Status::Error(Errc::kCorrupt, "the live bitmap is not the one the tables derive");
  }
  if (d.live_count != seg_live_) {
    return Status::Error(Errc::kCorrupt, "a segment's live count is not its live blocks");
  }
  return Status::Ok();
}

// --- Objects -----------------------------------------------------------------

Result<Oid> ObjectStore::CreateObject(ObjType type, uint64_t size_hint) {
  Oid oid{meta_.next_oid++};
  ObjectInfo info;
  info.type = type;
  info.size = size_hint;
  meta_.objects[oid] = std::move(info);
  sim_->metrics.counter("store.objects_created").Add();
  sim_->clock.Advance(sim_->cost.small_alloc);
  return oid;
}

Status ObjectStore::DeleteObject(Oid oid) {
  AURORA_ASSIGN_OR_RETURN(ObjectInfo * info, FindObject(oid));
  if (info->non_cow) {
    FreeJournalRun(info->journal_start, info->journal_blocks);
  }
  for (auto& [logical, extent] : info->extents) {
    KillExtent(extent);
  }
  meta_.objects.erase(oid);
  return Status::Ok();
}

Result<ObjectInfo*> ObjectStore::FindObject(Oid oid, bool journal) {
  auto it = meta_.objects.find(oid);
  if (it == meta_.objects.end() || (journal && !it->second.non_cow)) {
    return Status::Error(Errc::kNotFound, journal ? "no such journal" : "no such object");
  }
  return &it->second;
}

Result<uint64_t> ObjectStore::SizeOf(Oid oid) const {
  auto it = meta_.objects.find(oid);
  if (it == meta_.objects.end()) {
    return Status::Error(Errc::kNotFound, "no such object");
  }
  return it->second.size;
}

std::vector<Oid> ObjectStore::ListObjects() const {
  std::vector<Oid> out;
  out.reserve(meta_.objects.size());
  for (const auto& [oid, info] : meta_.objects) {
    out.push_back(oid);
  }
  std::sort(out.begin(), out.end());
  return out;
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
  return static_cast<uint32_t>(z % static_cast<uint64_t>(lanes_.lanes()));
}

void ObjectStore::RecordLaneIo(uint32_t lane, uint64_t bytes, SimTime since) {
  const std::string prefix = "flush.lane" + std::to_string(lane);
  if (bytes > 0) {
    sim_->metrics.counter(prefix + ".bytes").Add(bytes);
  }
  // Busy time: how far the block's CPU work (and any retry backoff) moved
  // the lane's timeline past where it stood (idle gaps are not busy).
  SimTime until = lanes_.StartOn(static_cast<int>(lane), sim_->clock.now());
  if (until > since) {
    sim_->metrics.counter(prefix + ".busy_time").Add(static_cast<uint64_t>(until - since));
  }
}

Result<SimTime> ObjectStore::WriteAtBatch(Oid oid, const std::vector<IoRun>& runs) {
  AURORA_ASSIGN_OR_RETURN(ObjectInfo * info, FindObject(oid));
  if (info->non_cow) {
    return Status::Error(Errc::kInvalidArgument, "journal objects use JournalAppend");
  }
  const uint32_t bs = block_size();
  // Split runs at block boundaries and group by logical block.
  std::map<uint64_t, std::vector<IoRun>> by_block;
  uint64_t max_end = info->size;
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
    auto old = info->extents.find(logical);
    if (old != info->extents.end() && covered < bs) {
      // Asynchronous RMW read: data is host-resident; the device time folds
      // into this block's write completion rather than stalling the caller.
      // The CRC check keeps a silently corrupted block from being folded
      // into the rewrite and laundered under a fresh checksum.
      AURORA_RETURN_IF_ERROR(LoadExtent(lane, old->second, old->second.phys, buf.data(), &done));
      lane_bytes += static_cast<uint64_t>(DevBlocksForStored(old->second.stored_len)) *
                    device_->block_size();
      sim_->metrics.counter("store.rmw_folds").Add();
    } else {
      std::memset(buf.data(), 0, bs);
    }
    for (const IoRun& r : block_runs) {
      std::memcpy(buf.data() + (r.off % bs), r.data, r.len);
    }
    Extent ext;
    const SimTime lane_from = lanes_.StartOn(static_cast<int>(lane), sim_->clock.now());
    AURORA_ASSIGN_OR_RETURN(SimTime wdone, StoreBlockCow(lane, buf.data(), &ext, &lane_bytes));
    sim_->metrics.counter("store.bytes_written").Add(covered);
    done = std::max(done, wdone);
    RecordLaneIo(lane, lane_bytes, lane_from);
    if (old != info->extents.end()) {
      KillExtent(old->second);
      old->second = ext;
    } else {
      info->extents[logical] = ext;
    }
  }
  info->size = std::max(info->size, max_end);
  last_data_write_done_ = std::max(last_data_write_done_, done);
  return done;
}

Status ObjectStore::ReadAt(Oid oid, uint64_t off, void* out, uint64_t len) {
  AURORA_ASSIGN_OR_RETURN(ObjectInfo * info, FindObject(oid));
  return ReadExtents(*info, meta_.epoch, off, out, len, nullptr);
}

// --- Metadata / checkpoints ---------------------------------------------------

Status ObjectStore::WriteSuperblock(uint64_t meta_block, uint64_t meta_len, SimTime* done) {
  Superblock sb{meta_.epoch, block_size(), total_blocks_, meta_block, meta_len,
                sim_->clock.now(), ""};
  if (!meta_.checkpoints.empty() && meta_.checkpoints.back().epoch == meta_.epoch) {
    const char* name = meta_.checkpoints.back().name.c_str();
    sb.name.assign(name, strnlen(name, kSuperNameMax - 1));
  }
  std::vector<uint8_t> raw = EncodeSuperblock(sb);
  raw.resize(device_->block_size(), 0);
  uint64_t slot = meta_.epoch % kSuperSlots;
  return DevWrite(0, slot, raw.data(), 1, done);
}

Result<SimTime> ObjectStore::CommitCheckpoint(const std::string& name) {
  // Record this commit in the directory first so the metadata blob of the
  // *next* epoch knows where to find it. (The current blob cannot contain
  // its own location; the superblock carries that.)
  CheckpointRecord record{meta_.epoch, name, sim_->clock.now()};

  // The blob records no allocation state, so its run is allocated once the
  // blob is encoded.
  std::vector<uint8_t> blob = EncodeMeta(meta_);
  sim_->clock.Advance(sim_->cost.Serialize(blob.size()));
  uint64_t nblocks = MetaRunBlocks(blob.size(), block_size());
  AURORA_ASSIGN_OR_RETURN(uint64_t meta_block, AllocMetaRun(nblocks));

  record.meta_block = meta_block;
  record.meta_len = blob.size();

  std::vector<uint8_t> padded(nblocks * block_size(), 0);
  std::memcpy(padded.data(), blob.data(), blob.size());
  // Durability covers every data write of the epoch plus the metadata and
  // superblock writes below.
  SimTime done = last_data_write_done_;
  Status meta_wrote = DevWrite(0, DevLba(meta_block), padded.data(),
                               static_cast<uint32_t>(nblocks * DevBlocksPerStoreBlock()), &done);
  if (!meta_wrote.ok()) {
    // A failed commit leaves the epoch open for another attempt; it must not
    // leak its metadata blocks or record a checkpoint nobody can read.
    FreeRun(meta_block, nblocks);
    return meta_wrote;
  }

  meta_.checkpoints.push_back(record);
  Status super = WriteSuperblock(meta_block, blob.size(), &done);
  if (!super.ok()) {
    meta_.checkpoints.pop_back();
    FreeRun(meta_block, nblocks);
    return super;
  }

  meta_.epoch++;
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
  out.reserve(meta_.checkpoints.size());
  for (const CheckpointRecord& c : meta_.checkpoints) {
    out.push_back(CheckpointInfo{c.epoch, c.name, c.committed_at});
  }
  return out;
}

Status ObjectStore::DeleteCheckpointsBefore(uint64_t epoch) {
  // Free whole deadlists sealed at or before `epoch`: every retained
  // checkpoint is >= epoch, so no retained epoch can lie inside any
  // [birth, killed) window ending there.
  for (auto it = meta_.deadlists.begin(); it != meta_.deadlists.end();) {
    if (it->first <= epoch) {
      for (const DeadEntry& e : it->second) {
        FreeBlock(e.phys);
      }
      it = meta_.deadlists.erase(it);
    } else {
      ++it;
    }
  }
  // Drop directory entries and their metadata blobs. The newest committed
  // checkpoint is always retained (it is the recovery point).
  uint64_t newest = meta_.checkpoints.empty() ? 0 : meta_.checkpoints.back().epoch;
  for (auto it = meta_.checkpoints.begin(); it != meta_.checkpoints.end();) {
    if (it->epoch < epoch && it->epoch != newest) {
      FreeRun(it->meta_block, MetaRunBlocks(it->meta_len, block_size()));
      epoch_cache_.erase(it->epoch);
      it = meta_.checkpoints.erase(it);
    } else {
      ++it;
    }
  }
  // Relocation entries exist for readers of blobs older than the move. Once
  // every retained checkpoint is at least as new as reloc_epoch, no reader
  // can present an old enough view and the entry expires.
  if (!meta_.reloc.empty()) {
    uint64_t min_retained = meta_.epoch;
    for (const CheckpointRecord& c : meta_.checkpoints) {
      min_retained = std::min(min_retained, c.epoch);
    }
    for (auto it = meta_.reloc.begin(); it != meta_.reloc.end();) {
      if (it->second.reloc_epoch <= min_retained) {
        it = meta_.reloc.erase(it);
      } else {
        ++it;
      }
    }
  }
  return Status::Ok();
}

Result<const ObjectTable*> ObjectStore::TableAt(uint64_t epoch) {
  auto cached = epoch_cache_.find(epoch);
  if (cached == epoch_cache_.end()) {
    auto record = std::find_if(meta_.checkpoints.begin(), meta_.checkpoints.end(),
                               [epoch](const CheckpointRecord& c) { return c.epoch == epoch; });
    if (record == meta_.checkpoints.end()) {
      return Status::Error(Errc::kNotFound, "no such checkpoint");
    }
    AURORA_ASSIGN_OR_RETURN(StoreMeta meta, ReadMeta(record->meta_block, record->meta_len));
    cached = epoch_cache_.emplace(epoch, std::move(meta.objects)).first;
  }
  return &cached->second;
}

Status ObjectStore::ReadAtEpoch(uint64_t epoch, Oid oid, uint64_t off, void* out, uint64_t len,
                                SimTime* completion) {
  AURORA_ASSIGN_OR_RETURN(const ObjectTable* table, TableAt(epoch));
  auto info = table->find(oid);
  if (info == table->end()) {
    return Status::Error(Errc::kNotFound, "object absent from checkpoint");
  }
  return ReadExtents(info->second, epoch, off, out, len, completion);
}

Status ObjectStore::ReadExtents(const ObjectInfo& info, uint64_t view_epoch, uint64_t off,
                                void* out, uint64_t len, SimTime* completion) {
  const uint32_t bs = block_size();
  auto* dst = static_cast<uint8_t*>(out);
  std::vector<uint8_t> buf(bs);
  SimTime done = sim_->clock.now();
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
      // The recorded location translates through the relocation map in case
      // GC moved the block after the viewed epoch committed.
      uint64_t phys = TranslatePhys(ext->second.phys, view_epoch);
      // Streaming restore (a completion to report) pipelines its reads over
      // the flush lanes' submission queues; a synchronous read waits on
      // queue 0.
      bool stream = completion != nullptr;
      AURORA_RETURN_IF_ERROR(LoadExtent(stream ? NextFlushLane() : 0, ext->second, phys,
                                        buf.data(), stream ? &done : nullptr));
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

// --- Journals ------------------------------------------------------------------

Result<Oid> ObjectStore::CreateJournal(uint64_t capacity_bytes) {
  // The first device block of the extent holds the generation header, so
  // usable record capacity is one device block less than requested.
  const uint32_t dev_bs = device_->block_size();
  uint64_t nblocks = (capacity_bytes + block_size() - 1) / block_size();
  AURORA_ASSIGN_OR_RETURN(uint64_t start, AllocSegmentRun(SegState::kJournal, nblocks));
  // Persist the initial generation. A journal whose header never landed
  // gives its run back.
  auto header = EncodeJournalHeader(1, dev_bs);
  Status wrote = DevWrite(0, DevLba(start), header.data(), 1, nullptr);
  if (!wrote.ok()) {
    FreeJournalRun(start, nblocks);
    return wrote;
  }
  Oid oid{meta_.next_oid++};
  ObjectInfo info;
  info.type = ObjType::kJournal;
  info.size = nblocks * block_size();
  info.non_cow = true;
  info.journal_start = start;
  info.journal_blocks = nblocks;
  info.journal_gen = 1;
  info.journal_write_off = dev_bs;  // record area starts after the header
  meta_.objects[oid] = std::move(info);
  return oid;
}

Status ObjectStore::JournalAppend(Oid oid, const void* data, uint64_t len) {
  AURORA_ASSIGN_OR_RETURN(ObjectInfo * info, FindObject(oid, /*journal=*/true));
  const uint32_t dev_bs = device_->block_size();
  uint64_t padded = JournalRecordSpan(len, dev_bs);
  uint64_t capacity = info->journal_blocks * block_size();
  if (padded == 0 || padded > capacity || info->journal_write_off > capacity - padded) {
    return Status::Error(Errc::kNoSpace, "journal full");
  }
  std::vector<uint8_t> buf =
      EncodeJournalRecord(info->journal_gen, info->journal_next_seq, data, len, dev_bs);
  uint64_t lba = DevLba(info->journal_start) + info->journal_write_off / dev_bs;
  // Synchronous in-place write: this is the 28 us path of section 7. The
  // caller blocks for the full command, so there is no cross-device
  // pipelining; it is charged the calibrated synchronous rate instead of the
  // striped device's completion.
  SimTime device_done = 0;
  AURORA_RETURN_IF_ERROR(
      DevWrite(0, lba, buf.data(), static_cast<uint32_t>(padded / dev_bs), &device_done));
  sim_->clock.Advance(sim_->cost.NvmeWrite(padded));
  info->journal_write_off += padded;
  info->journal_next_seq++;
  stats_.journal_appends++;
  sim_->metrics.counter("store.journal_appends").Add();
  sim_->metrics.counter("store.journal_bytes").Add(len);
  return Status::Ok();
}

Status ObjectStore::JournalReset(Oid oid) {
  AURORA_ASSIGN_OR_RETURN(ObjectInfo * info, FindObject(oid, /*journal=*/true));
  info->journal_gen++;
  // The new generation becomes durable before any new-generation append can
  // be acknowledged; otherwise a crash could replay stale records or lose
  // acknowledged ones.
  auto header = EncodeJournalHeader(info->journal_gen, device_->block_size());
  AURORA_RETURN_IF_ERROR(DevWrite(0, DevLba(info->journal_start), header.data(), 1, nullptr));
  info->journal_write_off = device_->block_size();
  info->journal_next_seq = 0;
  return Status::Ok();
}

Result<std::vector<std::vector<uint8_t>>> ObjectStore::JournalReplay(Oid oid) {
  AURORA_ASSIGN_OR_RETURN(ObjectInfo * info, FindObject(oid, /*journal=*/true));
  AURORA_ASSIGN_OR_RETURN(JournalScan scan, ScanJournal(*info));
  return std::move(scan.records);
}

Result<ObjectStore::JournalScan> ObjectStore::ScanJournal(const ObjectInfo& info) {
  const uint32_t dev_bs = device_->block_size();
  const uint64_t capacity = info.journal_blocks * block_size();
  const uint64_t base = DevLba(info.journal_start);
  JournalScan scan{info.journal_gen, {}, dev_bs};
  // The DURABLE generation comes from the header block, not the (possibly
  // stale) checkpointed metadata.
  std::vector<uint8_t> block(dev_bs);
  AURORA_RETURN_IF_ERROR(DevRead(0, base, block.data(), 1, nullptr));
  if (auto gen = DecodeJournalHeader(block.data(), block.size()); gen.ok()) {
    scan.gen = *gen;
  }
  while (scan.end + dev_bs <= capacity) {
    uint64_t lba = base + scan.end / dev_bs;
    AURORA_RETURN_IF_ERROR(DevRead(0, lba, block.data(), 1, nullptr));
    auto head = DecodeJournalRecordHead(block.data(), block.size(), dev_bs);
    if (!head.ok() || head->gen != scan.gen || head->seq != scan.records.size() ||
        head->span > capacity - scan.end) {
      break;
    }
    std::vector<uint8_t> full(head->span);
    AURORA_RETURN_IF_ERROR(
        DevRead(0, lba, full.data(), static_cast<uint32_t>(head->span / dev_bs), nullptr));
    auto payload = DecodeJournalPayload(*head, full.data(), full.size());
    if (!payload.ok()) {
      break;  // torn record: everything before it is the durable prefix
    }
    scan.records.push_back(std::move(*payload));
    scan.end += head->span;
  }
  return scan;
}

Status ObjectStore::RecoverJournalOffsets() {
  for (auto& [oid, info] : meta_.objects) {
    if (!info.non_cow) {
      continue;
    }
    AURORA_ASSIGN_OR_RETURN(JournalScan scan, ScanJournal(info));
    info.journal_gen = scan.gen;
    info.journal_write_off = scan.end;
    info.journal_next_seq = scan.records.size();
  }
  return Status::Ok();
}

}  // namespace aurora
