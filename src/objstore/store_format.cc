#include "src/objstore/store_format.h"

#include <algorithm>
#include <cstring>
#include <limits>

#include "src/base/serializer.h"

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
// v5: only what cannot be derived — the bitmap and the segment table are
//     rebuilt at mount, the open meta segment and the blob's copy of the
//     store size are gone, and a sparse list of quarantined segments is
//     persisted instead.
constexpr uint32_t kVersion = 5;
// The meta blob's layout byte. 0 was the free-list allocator, retired.
constexpr uint8_t kFreeListLayout = 0;
constexpr uint8_t kSegmentLogLayout = 1;

// Encoded element sizes of the metadata tables, which cap each table's
// element count by the bytes left so a forged count fails before it loops
// or allocates: object header (without extents), extent, deadlist header,
// dead entry, checkpoint record (empty name), relocation entry,
// open-segment entry, quarantined segment and dedup entry.
constexpr size_t kObjectBytes = 8 + 1 + 8 + 1 + 8 + 8 + 8 + 8;
constexpr size_t kExtentBytes = 8 + 8 + 8 + 4 + 4 + 1;
constexpr size_t kDeadlistBytes = 8 + 8;
constexpr size_t kDeadEntryBytes = 8 + 8 + 4 + 4;
constexpr size_t kCheckpointBytes = 8 + 8 + 8 + 8 + 8;
constexpr size_t kRelocBytes = 8 + 8 + 8;
constexpr size_t kOpenSegBytes = 4 + 8;
constexpr size_t kQuarantineBytes = 8;
constexpr size_t kDedupBytes = 8 + 8 + 8 + 8 + 8 + 4 + 4 + 1;

Status Corrupt(const char* what) { return Status::Error(Errc::kCorrupt, what); }

// Appends the CRC32C of everything written so far and returns the bytes.
std::vector<uint8_t> Seal(BinaryWriter* w) {
  uint32_t crc = Crc32c(w->data().data(), w->size());
  w->PutU32(crc);
  return w->Take();
}

// An element count, capped by the bytes left at `elem` bytes per element.
Result<uint64_t> Count(BinaryReader* r, size_t elem) {
  AURORA_ASSIGN_OR_RETURN(uint64_t n, r->U64());
  if (n > r->Remaining() / elem) {
    return Corrupt("element count overruns the meta blob");
  }
  return n;
}

// A bool byte: 0 or 1.
Result<bool> Flag(BinaryReader* r) {
  AURORA_ASSIGN_OR_RETURN(uint8_t v, r->U8());
  if (v > 1) {
    return Corrupt("bool byte out of range");
  }
  return v == 1;
}

// True when the run [start, start + n) of store blocks lies in the store.
bool RunInside(uint64_t start, uint64_t n, uint64_t total_blocks) {
  return start <= total_blocks && n <= total_blocks - start;
}

// True when a metadata blob of `len` bytes at `block` lies in the store.
bool MetaRunInside(uint64_t block, uint64_t len, uint32_t block_size, uint64_t total_blocks) {
  return len >= sizeof(uint32_t) && block < total_blocks &&
         RunInside(block, MetaRunBlocks(len, block_size), total_blocks);
}

// A stored payload's location and length: a block of the store, and either
// raw (0) or shorter than one store block.
bool StoredInside(uint64_t phys, uint32_t stored_len, uint32_t block_size,
                  uint64_t total_blocks) {
  return phys < total_blocks && stored_len < block_size;
}

}  // namespace

bool IsStoreCodec(CodecId id) { return id == CodecId::kRaw || FindExtentCodec(id) != nullptr; }

// --- Superblock ---------------------------------------------------------------

std::vector<uint8_t> EncodeSuperblock(const Superblock& sb) {
  BinaryWriter w;
  w.PutU32(kSuperMagic);
  w.PutU32(kVersion);
  w.PutU64(sb.epoch);
  w.PutU32(sb.block_size);
  w.PutU64(sb.total_blocks);
  w.PutU64(sb.meta_block);
  w.PutU64(sb.meta_len);
  w.PutU64(sb.committed_at);
  char name[kSuperNameMax] = {};
  std::memcpy(name, sb.name.data(), std::min(sb.name.size(), kSuperNameMax));
  w.PutRaw(name, kSuperNameMax);
  return Seal(&w);
}

Result<Superblock> DecodeSuperblock(const uint8_t* data, size_t len, uint32_t dev_block_size,
                                    uint64_t dev_blocks) {
  BinaryReader r(data, len);
  Superblock sb;
  AURORA_ASSIGN_OR_RETURN(uint32_t magic, r.U32());
  AURORA_ASSIGN_OR_RETURN(uint32_t version, r.U32());
  AURORA_ASSIGN_OR_RETURN(sb.epoch, r.U64());
  AURORA_ASSIGN_OR_RETURN(sb.block_size, r.U32());
  AURORA_ASSIGN_OR_RETURN(sb.total_blocks, r.U64());
  AURORA_ASSIGN_OR_RETURN(sb.meta_block, r.U64());
  AURORA_ASSIGN_OR_RETURN(sb.meta_len, r.U64());
  AURORA_ASSIGN_OR_RETURN(sb.committed_at, r.U64());
  AURORA_ASSIGN_OR_RETURN(const uint8_t* name, r.View(kSuperNameMax));
  sb.name.assign(reinterpret_cast<const char*>(name),
                 strnlen(reinterpret_cast<const char*>(name), kSuperNameMax));
  const size_t sealed = r.pos();
  AURORA_ASSIGN_OR_RETURN(uint32_t crc, r.U32());
  if (magic != kSuperMagic || version != kVersion) {
    return Corrupt("bad superblock magic");
  }
  if (crc != Crc32c(data, sealed)) {
    return Corrupt("superblock checksum mismatch");
  }
  if (sb.block_size == 0 || sb.block_size % dev_block_size != 0) {
    return Corrupt("superblock block size is not a device-block multiple");
  }
  if (sb.total_blocks > dev_blocks / (sb.block_size / dev_block_size) ||
      !MetaRunInside(sb.meta_block, sb.meta_len, sb.block_size, sb.total_blocks)) {
    return Corrupt("superblock geometry does not fit the device");
  }
  return sb;
}

// --- Metadata blob ----------------------------------------------------------------

std::vector<uint8_t> EncodeMeta(const StoreMeta& m) {
  BinaryWriter w;
  w.PutU32(kMetaMagic);
  w.PutU64(m.epoch);
  w.PutU64(m.next_oid);

  w.PutU64(m.objects.size());
  for (const auto& [oid, info] : m.objects) {
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

  w.PutU64(m.deadlists.size());
  for (const auto& [epoch, entries] : m.deadlists) {
    w.PutU64(epoch);
    w.PutU64(entries.size());
    for (const DeadEntry& e : entries) {
      w.PutU64(e.birth);
      w.PutU64(e.phys);
      w.PutU32(e.crc);
      w.PutU32(e.stored_len);
    }
  }

  w.PutU64(m.checkpoints.size());
  for (const CheckpointRecord& c : m.checkpoints) {
    w.PutU64(c.epoch);
    w.PutString(c.name);
    w.PutU64(c.committed_at);
    w.PutU64(c.meta_block);
    w.PutU64(c.meta_len);
  }

  w.PutU8(kSegmentLogLayout);
  w.PutU32(m.options.segment_blocks);
  w.PutU64(m.reloc.size());
  for (const auto& [old_phys, entry] : m.reloc) {
    w.PutU64(old_phys);
    w.PutU64(entry.new_phys);
    w.PutU64(entry.reloc_epoch);
  }
  w.PutU64(m.open_data_seg.size());
  for (const auto& [lane, seg] : m.open_data_seg) {
    w.PutU32(lane);
    w.PutU64(seg);
  }
  w.PutU64(m.quarantined.size());
  for (uint64_t seg : m.quarantined) {
    w.PutU64(seg);
  }

  // The flush-path options ride along so a store formatted with dedup off
  // (ablation baseline) stays off after a remount instead of silently
  // picking up the defaults.
  w.PutU8(m.options.dedup ? 1 : 0);
  w.PutU8(static_cast<uint8_t>(m.options.codec));
  w.PutU64(m.dedup_index.size());
  for (const auto& [key, entry] : m.dedup_index) {
    w.PutU64(key.hi);
    w.PutU64(key.lo);
    w.PutU64(entry.phys);
    w.PutU64(entry.refs);
    w.PutU64(entry.first_birth);
    w.PutU32(entry.crc);
    w.PutU32(entry.stored_len);
    w.PutU8(entry.codec);
  }
  return Seal(&w);
}

Result<StoreMeta> DecodeMeta(const uint8_t* data, size_t len, uint32_t block_size,
                             uint64_t total_blocks) {
  if (len < sizeof(uint32_t)) {
    return Corrupt("meta blob too small");
  }
  BinaryReader trailer(data + len - sizeof(uint32_t), sizeof(uint32_t));
  AURORA_ASSIGN_OR_RETURN(uint32_t stored_crc, trailer.U32());
  if (Crc32c(data, len - sizeof(uint32_t)) != stored_crc) {
    return Corrupt("meta blob checksum mismatch");
  }
  BinaryReader r(data, len - sizeof(uint32_t));
  StoreMeta m;
  m.options.block_size = block_size;
  AURORA_ASSIGN_OR_RETURN(uint32_t magic, r.U32());
  if (magic != kMetaMagic) {
    return Corrupt("bad meta magic");
  }
  AURORA_ASSIGN_OR_RETURN(m.epoch, r.U64());
  AURORA_ASSIGN_OR_RETURN(m.next_oid, r.U64());

  AURORA_ASSIGN_OR_RETURN(uint64_t nobjects, Count(&r, kObjectBytes));
  for (uint64_t i = 0; i < nobjects; i++) {
    AURORA_ASSIGN_OR_RETURN(uint64_t oid, r.U64());
    ObjectInfo info;
    AURORA_ASSIGN_OR_RETURN(uint8_t type, r.U8());
    if (type < static_cast<uint8_t>(ObjType::kPosixRecord) ||
        type > static_cast<uint8_t>(ObjType::kManifest)) {
      return Corrupt("unknown object type");
    }
    info.type = static_cast<ObjType>(type);
    AURORA_ASSIGN_OR_RETURN(info.size, r.U64());
    AURORA_ASSIGN_OR_RETURN(info.non_cow, Flag(&r));
    AURORA_ASSIGN_OR_RETURN(info.journal_start, r.U64());
    AURORA_ASSIGN_OR_RETURN(info.journal_blocks, r.U64());
    AURORA_ASSIGN_OR_RETURN(info.journal_gen, r.U64());
    if (info.non_cow && !RunInside(info.journal_start, info.journal_blocks, total_blocks)) {
      return Corrupt("journal extent outside the store");
    }
    AURORA_ASSIGN_OR_RETURN(uint64_t nextents, Count(&r, kExtentBytes));
    for (uint64_t j = 0; j < nextents; j++) {
      AURORA_ASSIGN_OR_RETURN(uint64_t logical, r.U64());
      Extent extent;
      AURORA_ASSIGN_OR_RETURN(extent.phys, r.U64());
      AURORA_ASSIGN_OR_RETURN(extent.birth, r.U64());
      AURORA_ASSIGN_OR_RETURN(extent.crc, r.U32());
      AURORA_ASSIGN_OR_RETURN(extent.stored_len, r.U32());
      AURORA_ASSIGN_OR_RETURN(extent.codec, r.U8());
      if (!StoredInside(extent.phys, extent.stored_len, block_size, total_blocks) ||
          !IsStoreCodec(static_cast<CodecId>(extent.codec))) {
        return Corrupt("extent record out of range");
      }
      if (!info.extents.emplace(logical, extent).second) {
        return Corrupt("duplicate extent");
      }
    }
    if (!m.objects.emplace(Oid{oid}, std::move(info)).second) {
      return Corrupt("duplicate object id");
    }
  }

  AURORA_ASSIGN_OR_RETURN(uint64_t ndead, Count(&r, kDeadlistBytes));
  for (uint64_t i = 0; i < ndead; i++) {
    AURORA_ASSIGN_OR_RETURN(uint64_t epoch, r.U64());
    AURORA_ASSIGN_OR_RETURN(uint64_t nentries, Count(&r, kDeadEntryBytes));
    auto [list, fresh] = m.deadlists.try_emplace(epoch);
    if (!fresh) {
      return Corrupt("duplicate deadlist epoch");
    }
    list->second.reserve(nentries);
    for (uint64_t j = 0; j < nentries; j++) {
      DeadEntry e;
      AURORA_ASSIGN_OR_RETURN(e.birth, r.U64());
      AURORA_ASSIGN_OR_RETURN(e.phys, r.U64());
      AURORA_ASSIGN_OR_RETURN(e.crc, r.U32());
      AURORA_ASSIGN_OR_RETURN(e.stored_len, r.U32());
      if (!StoredInside(e.phys, e.stored_len, block_size, total_blocks)) {
        return Corrupt("deadlist entry out of range");
      }
      list->second.push_back(e);
    }
  }

  AURORA_ASSIGN_OR_RETURN(uint64_t nckpts, Count(&r, kCheckpointBytes));
  for (uint64_t i = 0; i < nckpts; i++) {
    CheckpointRecord c;
    AURORA_ASSIGN_OR_RETURN(c.epoch, r.U64());
    AURORA_ASSIGN_OR_RETURN(c.name, r.String());
    AURORA_ASSIGN_OR_RETURN(c.committed_at, r.U64());
    AURORA_ASSIGN_OR_RETURN(c.meta_block, r.U64());
    AURORA_ASSIGN_OR_RETURN(c.meta_len, r.U64());
    if (!m.checkpoints.empty() && c.epoch <= m.checkpoints.back().epoch) {
      return Corrupt("checkpoint directory out of epoch order");
    }
    if (!MetaRunInside(c.meta_block, c.meta_len, block_size, total_blocks)) {
      return Corrupt("checkpoint metadata run outside the store");
    }
    m.checkpoints.push_back(std::move(c));
  }

  AURORA_ASSIGN_OR_RETURN(uint8_t layout, r.U8());
  if (layout == kFreeListLayout) {
    return Status::Error(Errc::kNotSupported, "free-list layout retired");
  }
  if (layout != kSegmentLogLayout) {
    return Corrupt("unknown store layout");
  }
  AURORA_ASSIGN_OR_RETURN(m.options.segment_blocks, r.U32());
  const uint64_t seg_blocks = m.options.segment_blocks;
  if (seg_blocks < 2) {
    return Corrupt("segment size out of range");
  }
  const uint64_t nsegs = total_blocks / seg_blocks + (total_blocks % seg_blocks != 0);
  AURORA_ASSIGN_OR_RETURN(uint64_t nreloc, Count(&r, kRelocBytes));
  for (uint64_t i = 0; i < nreloc; i++) {
    AURORA_ASSIGN_OR_RETURN(uint64_t old_phys, r.U64());
    RelocEntry entry;
    AURORA_ASSIGN_OR_RETURN(entry.new_phys, r.U64());
    AURORA_ASSIGN_OR_RETURN(entry.reloc_epoch, r.U64());
    if (old_phys >= total_blocks || entry.new_phys >= total_blocks) {
      return Corrupt("relocation entry out of range");
    }
    if (!m.reloc.emplace(old_phys, entry).second) {
      return Corrupt("duplicate relocation entry");
    }
  }
  AURORA_ASSIGN_OR_RETURN(uint64_t nopen, Count(&r, kOpenSegBytes));
  for (uint64_t i = 0; i < nopen; i++) {
    AURORA_ASSIGN_OR_RETURN(uint32_t lane, r.U32());
    AURORA_ASSIGN_OR_RETURN(uint64_t seg, r.U64());
    if (seg >= nsegs || !m.open_data_seg.emplace(lane, seg).second) {
      return Corrupt("open-segment entry out of range");
    }
  }
  AURORA_ASSIGN_OR_RETURN(uint64_t nquarantined, Count(&r, kQuarantineBytes));
  for (uint64_t i = 0; i < nquarantined; i++) {
    AURORA_ASSIGN_OR_RETURN(uint64_t seg, r.U64());
    if (seg >= nsegs || (!m.quarantined.empty() && seg <= *m.quarantined.rbegin())) {
      return Corrupt("quarantined segment out of range or order");
    }
    m.quarantined.insert(m.quarantined.end(), seg);
  }

  AURORA_ASSIGN_OR_RETURN(m.options.dedup, Flag(&r));
  AURORA_ASSIGN_OR_RETURN(uint8_t codec, r.U8());
  m.options.codec = static_cast<CodecId>(codec);
  if (!IsStoreCodec(m.options.codec)) {
    return Corrupt("unknown store codec");
  }
  AURORA_ASSIGN_OR_RETURN(uint64_t ndedup, Count(&r, kDedupBytes));
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
    if (!StoredInside(entry.phys, entry.stored_len, block_size, total_blocks) ||
        !IsStoreCodec(static_cast<CodecId>(entry.codec))) {
      return Corrupt("dedup entry out of range");
    }
    if (!m.dedup_index.emplace(key, entry).second) {
      return Corrupt("duplicate dedup key");
    }
  }
  if (!r.AtEnd()) {
    return Corrupt("trailing bytes in the meta blob");
  }
  return m;
}

// --- Journal ------------------------------------------------------------------------

std::vector<uint8_t> EncodeJournalHeader(uint64_t gen, uint32_t dev_block_size) {
  BinaryWriter w;
  w.PutU32(kJournalMagic);
  w.PutU64(gen);
  w.PutU32(Crc32c(w.data().data() + sizeof(uint32_t), sizeof(gen)));
  std::vector<uint8_t> buf = w.Take();
  buf.resize(dev_block_size, 0);
  return buf;
}

Result<uint64_t> DecodeJournalHeader(const uint8_t* data, size_t len) {
  BinaryReader r(data, len);
  AURORA_ASSIGN_OR_RETURN(uint32_t magic, r.U32());
  AURORA_ASSIGN_OR_RETURN(uint64_t gen, r.U64());
  AURORA_ASSIGN_OR_RETURN(uint32_t crc, r.U32());
  if (magic != kJournalMagic || crc != Crc32c(data + sizeof(uint32_t), sizeof(gen))) {
    return Corrupt("bad journal header");
  }
  return gen;
}

uint64_t JournalRecordSpan(uint64_t payload_len, uint32_t dev_block_size) {
  if (payload_len > std::numeric_limits<uint64_t>::max() - kJournalRecordHeaderBytes -
                        dev_block_size) {
    return 0;
  }
  uint64_t bytes = kJournalRecordHeaderBytes + payload_len + dev_block_size - 1;
  return bytes / dev_block_size * dev_block_size;
}

std::vector<uint8_t> EncodeJournalRecord(uint64_t gen, uint64_t seq, const void* payload,
                                         uint64_t len, uint32_t dev_block_size) {
  BinaryWriter w;
  w.PutU32(kJournalMagic);
  w.PutU64(gen);
  w.PutU64(seq);
  w.PutU64(len);
  w.PutU32(Crc32c(payload, len));
  w.PutRaw(payload, len);
  std::vector<uint8_t> buf = w.Take();
  buf.resize(JournalRecordSpan(len, dev_block_size), 0);
  return buf;
}

Result<JournalRecordHead> DecodeJournalRecordHead(const uint8_t* data, size_t len,
                                                  uint32_t dev_block_size) {
  BinaryReader r(data, len);
  JournalRecordHead head;
  AURORA_ASSIGN_OR_RETURN(uint32_t magic, r.U32());
  AURORA_ASSIGN_OR_RETURN(head.gen, r.U64());
  AURORA_ASSIGN_OR_RETURN(head.seq, r.U64());
  AURORA_ASSIGN_OR_RETURN(head.len, r.U64());
  AURORA_ASSIGN_OR_RETURN(head.crc, r.U32());
  head.span = JournalRecordSpan(head.len, dev_block_size);
  if (magic != kJournalMagic || head.span == 0) {
    return Corrupt("bad journal record header");
  }
  return head;
}

Result<std::vector<uint8_t>> DecodeJournalPayload(const JournalRecordHead& head,
                                                  const uint8_t* data, size_t len) {
  if (len < kJournalRecordHeaderBytes || head.len > len - kJournalRecordHeaderBytes) {
    return Corrupt("journal record overruns its buffer");
  }
  const uint8_t* payload = data + kJournalRecordHeaderBytes;
  if (Crc32c(payload, head.len) != head.crc) {
    return Corrupt("journal record checksum mismatch");
  }
  return std::vector<uint8_t>(payload, payload + head.len);
}

}  // namespace aurora
