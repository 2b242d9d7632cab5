// The epoch wire format: how one checkpoint epoch crosses a wire, for both
// `sls send` / `sls recv` migration and the warm-standby replica stream. It
// has one receiver, ReplicaStandby (src/core/backend.h), which `sls recv`
// feeds a stream's frames as a replica link feeds it a link's.
//
// An epoch is a sequence of self-delimiting frames, each sealed by one
// CRC32C over its bytes. All integers are little-endian.
//
//   offset 0   u32 magic "AEPF"
//          4   u8  version (kEpochStreamVersion)
//          5   u8  kind: 0 = data, 1 = commit
//          6   u64 length: the whole frame, header and CRC included
//         14   u64 epoch
//         22   u64 attempt (re-ship attempt after an aborted epoch)
//         30   u64 seq: position in the epoch, 0-based, commit last
//         38   body
//   length-4   u32 CRC32C of every preceding byte of the frame
//
// A data frame's body is one object's pages: u64 oid, u64 object size,
// u64 entry count, then per entry u64 page index and u8 tag. Tag 0 is
// followed by the raw 4 KiB page; tag 1 by the u64 ordinal of an earlier
// raw entry of the same epoch with the same bytes (entries are numbered
// across the epoch's data frames in stream order, references included).
// Page indices rise strictly within a frame and stay below
// ceil(object size / 4 KiB).
//
// A commit frame's body is u64 frame count (commit included), u64
// since_epoch (0 = a full image), then group name, checkpoint name and
// manifest, each as u64 length + bytes.
//
// DecodeEpoch is total: any input yields either a decoded epoch or a typed
// error (kNotSupported for an unknown version, kCorrupt for anything else),
// and no count it reads sizes an allocation beyond the input's size.
#ifndef SRC_CORE_EPOCH_STREAM_H_
#define SRC_CORE_EPOCH_STREAM_H_

#include <cstdint>
#include <map>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "src/base/checksum.h"
#include "src/base/result.h"

namespace aurora {

inline constexpr uint8_t kEpochStreamVersion = 1;
inline constexpr size_t kFrameHeaderBytes = 38;
inline constexpr size_t kFrameCrcBytes = 4;

enum class FrameKind : uint8_t { kData = 0, kCommit = 1 };

struct FrameId {
  uint64_t epoch = 0;
  uint64_t attempt = 0;
  uint64_t seq = 0;
};

struct FrameHeader {
  FrameKind kind = FrameKind::kData;
  uint64_t length = 0;
  FrameId id;
};

// One page: its index in the object and its 4 KiB of bytes. Decoded pages
// point into the frame bytes they arrived in.
struct PageView {
  uint64_t pgidx = 0;
  const uint8_t* data = nullptr;
};

struct EpochCommit {
  std::string group;
  std::string ckpt_name;
  std::vector<uint8_t> manifest;
  uint64_t since_epoch = 0;
  uint64_t nframes = 0;
};

struct DecodedObject {
  uint64_t oid = 0;
  uint64_t size = 0;
  std::vector<PageView> pages;
};

struct DecodedEpoch {
  uint64_t epoch = 0;
  std::vector<DecodedObject> objects;  // data frames, in seq order
  EpochCommit commit;
};

// The per-stream content table of `sls send`: a page whose bytes an earlier
// raw page of the same stream already carries encodes as a reference to it.
// Every frame of the stream must be appended to the same buffer, because the
// table remembers where in it each raw page went.
class PageRefTable {
 public:
  // Numbers the stream's next entry. Returns the ordinal of an earlier raw
  // page in `stream` with the same bytes as `page`; otherwise records `page`
  // as the raw page about to be written at `stream[raw_offset]`.
  std::optional<uint64_t> Reference(const uint8_t* page, const std::vector<uint8_t>& stream,
                                    size_t raw_offset);

 private:
  std::map<ContentKey, std::pair<uint64_t, size_t>> raw_;  // key -> (ordinal, offset)
  uint64_t next_ordinal_ = 0;
};

// Appends one data frame holding `pages` (ascending page indices) of object
// `oid`. With `refs`, repeated pages become references; without, every page
// ships raw and the frame is sized exactly before the first byte is written.
void AppendDataFrame(const FrameId& id, uint64_t oid, uint64_t object_size,
                     const std::vector<PageView>& pages, PageRefTable* refs,
                     std::vector<uint8_t>* out);
void AppendCommitFrame(const FrameId& id, const EpochCommit& commit, std::vector<uint8_t>* out);

// Reads the header of the frame `bytes` starts with: magic, version, kind and
// a length that fits in `bytes`. The CRC is not checked here.
[[nodiscard]] Result<FrameHeader> PeekFrame(std::span<const uint8_t> bytes);
// Cuts a stream of concatenated frames at the frame lengths.
[[nodiscard]] Result<std::vector<std::span<const uint8_t>>> SplitFrames(
    std::span<const uint8_t> stream);
// Validates and decodes one whole epoch, frames in seq order: every CRC,
// seq contiguity, one epoch and attempt, the commit frame last with the
// right frame count, every reference and every page index.
[[nodiscard]] Result<DecodedEpoch> DecodeEpoch(
    const std::vector<std::span<const uint8_t>>& frames);

}  // namespace aurora

#endif  // SRC_CORE_EPOCH_STREAM_H_
