#include "src/core/epoch_stream.h"

#include <algorithm>
#include <cstring>

#include "src/base/serializer.h"
#include "src/base/units.h"

namespace aurora {

namespace {

constexpr uint32_t kFrameMagic = 0x46504541;  // "AEPF"
constexpr size_t kLengthOffset = 6;
constexpr uint8_t kEntryRaw = 0;
constexpr uint8_t kEntryRef = 1;
constexpr size_t kEntryHeaderBytes = 9;                   // page index + tag
constexpr size_t kMinEntryBytes = kEntryHeaderBytes + 8;  // a reference
constexpr size_t kDataBodyHeaderBytes = 24;               // oid, size, entry count

// Writes a frame header and returns where the frame starts.
size_t BeginFrame(FrameKind kind, const FrameId& id, BinaryWriter* w) {
  size_t start = w->size();
  w->PutU32(kFrameMagic);
  w->PutU8(kEpochStreamVersion);
  w->PutU8(static_cast<uint8_t>(kind));
  w->PutU64(0);  // length, filled in by SealFrame
  w->PutU64(id.epoch);
  w->PutU64(id.attempt);
  w->PutU64(id.seq);
  return start;
}

std::vector<uint8_t> SealFrame(size_t start, BinaryWriter* w) {
  w->PatchU64(start + kLengthOffset, w->size() - start + kFrameCrcBytes);
  w->PutU32(Crc32c(w->data().data() + start, w->size() - start));
  return w->Take();
}

// `raw` holds the page bytes of every entry decoded so far, by ordinal, and
// null for references: a reference may only name a non-null slot.
Status DecodeObject(BinaryReader* r, std::vector<const uint8_t*>* raw, DecodedObject* obj) {
  AURORA_ASSIGN_OR_RETURN(obj->oid, r->U64());
  AURORA_ASSIGN_OR_RETURN(obj->size, r->U64());
  AURORA_ASSIGN_OR_RETURN(uint64_t count, r->U64());
  if (count > r->Remaining() / kMinEntryBytes) {
    return Status::Error(Errc::kCorrupt, "page entry count overruns the frame");
  }
  uint64_t npages = PagesOf(obj->size);
  obj->pages.reserve(count);
  for (uint64_t i = 0; i < count; i++) {
    PageView page;
    AURORA_ASSIGN_OR_RETURN(page.pgidx, r->U64());
    AURORA_ASSIGN_OR_RETURN(uint8_t tag, r->U8());
    if (page.pgidx >= npages || (!obj->pages.empty() && page.pgidx <= obj->pages.back().pgidx)) {
      return Status::Error(Errc::kCorrupt, "page index beyond the object or out of order");
    }
    if (tag == kEntryRaw) {
      AURORA_ASSIGN_OR_RETURN(page.data, r->View(kPageSize));
    } else if (tag == kEntryRef) {
      AURORA_ASSIGN_OR_RETURN(uint64_t target, r->U64());
      if (target >= raw->size() || (*raw)[target] == nullptr) {
        return Status::Error(Errc::kCorrupt, "page reference to a later or non-raw entry");
      }
      page.data = (*raw)[target];
    } else {
      return Status::Error(Errc::kCorrupt, "unknown page entry tag");
    }
    raw->push_back(tag == kEntryRaw ? page.data : nullptr);
    obj->pages.push_back(page);
  }
  return Status::Ok();
}

}  // namespace

std::optional<uint64_t> PageRefTable::Reference(const uint8_t* page,
                                                const std::vector<uint8_t>& stream,
                                                size_t raw_offset) {
  uint64_t ordinal = next_ordinal_++;
  auto [it, fresh] =
      raw_.try_emplace(ContentHash128(page, kPageSize), std::make_pair(ordinal, raw_offset));
  // The memcmp keeps a content-key collision from becoming a wrong page on
  // the receiver: a colliding page ships raw.
  if (!fresh && std::memcmp(stream.data() + it->second.second, page, kPageSize) == 0) {
    return it->second.first;
  }
  return std::nullopt;
}

void AppendDataFrame(const FrameId& id, uint64_t oid, uint64_t object_size,
                     const std::vector<PageView>& pages, PageRefTable* refs,
                     std::vector<uint8_t>* out) {
  // Room for every page raw, growing geometrically so a stream of many
  // frames in one buffer still copies each byte O(1) times.
  size_t need = out->size() + kFrameHeaderBytes + kDataBodyHeaderBytes +
                pages.size() * (kEntryHeaderBytes + kPageSize) + kFrameCrcBytes;
  if (need > out->capacity()) {
    out->reserve(std::max(need, 2 * out->capacity()));
  }
  BinaryWriter w(std::move(*out));
  size_t start = BeginFrame(FrameKind::kData, id, &w);
  w.PutU64(oid);
  w.PutU64(object_size);
  w.PutU64(pages.size());
  for (const PageView& page : pages) {
    w.PutU64(page.pgidx);
    std::optional<uint64_t> ref;
    if (refs != nullptr) {
      ref = refs->Reference(page.data, w.data(), w.size() + 1);
    }
    w.PutU8(ref.has_value() ? kEntryRef : kEntryRaw);
    if (ref.has_value()) {
      w.PutU64(*ref);
    } else {
      w.PutRaw(page.data, kPageSize);
    }
  }
  *out = SealFrame(start, &w);
}

void AppendCommitFrame(const FrameId& id, const EpochCommit& commit, std::vector<uint8_t>* out) {
  BinaryWriter w(std::move(*out));
  size_t start = BeginFrame(FrameKind::kCommit, id, &w);
  w.PutU64(commit.nframes);
  w.PutU64(commit.since_epoch);
  w.PutString(commit.group);
  w.PutString(commit.ckpt_name);
  w.PutBytes(commit.manifest.data(), commit.manifest.size());
  *out = SealFrame(start, &w);
}

Result<FrameHeader> PeekFrame(std::span<const uint8_t> bytes) {
  BinaryReader r(bytes.data(), bytes.size());
  AURORA_ASSIGN_OR_RETURN(uint32_t magic, r.U32());
  if (magic != kFrameMagic) {
    return Status::Error(Errc::kCorrupt, "bad frame magic");
  }
  AURORA_ASSIGN_OR_RETURN(uint8_t version, r.U8());
  if (version != kEpochStreamVersion) {
    return Status::Error(Errc::kNotSupported, "epoch stream version " + std::to_string(version));
  }
  FrameHeader head;
  AURORA_ASSIGN_OR_RETURN(uint8_t kind, r.U8());
  head.kind = static_cast<FrameKind>(kind);
  AURORA_ASSIGN_OR_RETURN(head.length, r.U64());
  AURORA_ASSIGN_OR_RETURN(head.id.epoch, r.U64());
  AURORA_ASSIGN_OR_RETURN(head.id.attempt, r.U64());
  AURORA_ASSIGN_OR_RETURN(head.id.seq, r.U64());
  if (kind > static_cast<uint8_t>(FrameKind::kCommit) ||
      head.length < kFrameHeaderBytes + kFrameCrcBytes || head.length > bytes.size()) {
    return Status::Error(Errc::kCorrupt, "bad frame kind or length");
  }
  return head;
}

Result<std::vector<std::span<const uint8_t>>> SplitFrames(std::span<const uint8_t> stream) {
  std::vector<std::span<const uint8_t>> frames;
  while (!stream.empty()) {
    AURORA_ASSIGN_OR_RETURN(FrameHeader head, PeekFrame(stream));
    frames.push_back(stream.first(head.length));
    stream = stream.subspan(head.length);
  }
  return frames;
}

Result<DecodedEpoch> DecodeEpoch(const std::vector<std::span<const uint8_t>>& frames) {
  if (frames.empty()) {
    return Status::Error(Errc::kCorrupt, "epoch without frames");
  }
  DecodedEpoch out;
  out.objects.reserve(frames.size() - 1);
  uint64_t attempt = 0;
  std::vector<const uint8_t*> raw;
  for (size_t i = 0; i < frames.size(); i++) {
    std::span<const uint8_t> frame = frames[i];
    AURORA_ASSIGN_OR_RETURN(FrameHeader head, PeekFrame(frame));
    size_t body_end = frame.size() - kFrameCrcBytes;
    BinaryReader trailer(frame.data() + body_end, kFrameCrcBytes);
    AURORA_ASSIGN_OR_RETURN(uint32_t crc, trailer.U32());
    if (head.length != frame.size() || Crc32c(frame.data(), body_end) != crc) {
      return Status::Error(Errc::kCorrupt, "frame length or CRC mismatch");
    }
    bool last = i + 1 == frames.size();
    if (head.id.seq != i || (head.kind == FrameKind::kCommit) != last ||
        (i > 0 && (head.id.epoch != out.epoch || head.id.attempt != attempt))) {
      return Status::Error(Errc::kCorrupt, "frame out of its epoch's sequence");
    }
    out.epoch = head.id.epoch;
    attempt = head.id.attempt;
    BinaryReader body(frame.data() + kFrameHeaderBytes, body_end - kFrameHeaderBytes);
    if (!last) {
      AURORA_RETURN_IF_ERROR(DecodeObject(&body, &raw, &out.objects.emplace_back()));
    } else {
      EpochCommit& commit = out.commit;
      AURORA_ASSIGN_OR_RETURN(commit.nframes, body.U64());
      AURORA_ASSIGN_OR_RETURN(commit.since_epoch, body.U64());
      AURORA_ASSIGN_OR_RETURN(commit.group, body.String());
      AURORA_ASSIGN_OR_RETURN(commit.ckpt_name, body.String());
      AURORA_ASSIGN_OR_RETURN(commit.manifest, body.Bytes());
      if (commit.nframes != frames.size()) {
        return Status::Error(Errc::kCorrupt, "commit frame count disagrees with the epoch");
      }
    }
    if (!body.AtEnd()) {
      return Status::Error(Errc::kCorrupt, "trailing bytes in frame");
    }
  }
  return out;
}

}  // namespace aurora
