// On-media formats of the object store (paper section 7): the superblock
// ring, the metadata blob and the journal header and records.
//
// Every function here is pure over bytes. The encoders' output is pinned
// byte for byte by tests/store_golden_test.cc. The version field names the
// format: an image of another version does not mount. Every decoder is
// total: it checks each field the rest of the store trusts (geometry, enum
// and bool bytes, stored lengths, block numbers, counts, duplicate keys)
// and returns kCorrupt — kNotSupported for the retired free-list layout —
// instead of crashing or allocating more than its input. Recovery picks the
// newest superblock whose metadata verifies, so these decoders are the
// store's trust boundary.
//
// A metadata blob persists only what the store cannot derive, StoreMeta: the
// object table, deadlists, checkpoint directory, relocation map, open data
// segments, quarantined segments, dedup index and options. The allocation
// bitmap and the segment table follow from those tables and are rebuilt at
// mount (ObjectStore::Rebuild). Open, historic-epoch reads and the scrubber
// all decode through DecodeMeta.
#ifndef SRC_OBJSTORE_STORE_FORMAT_H_
#define SRC_OBJSTORE_STORE_FORMAT_H_

#include <cstddef>
#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/base/checksum.h"
#include "src/base/result.h"
#include "src/base/units.h"
#include "src/objstore/extent_codec.h"
#include "src/objstore/oid.h"

namespace aurora {

enum class ObjType : uint8_t {
  kPosixRecord = 1,  // serialized POSIX object state
  kMemory = 2,       // VM object pages
  kFile = 3,         // Aurora file system file data
  kJournal = 4,      // non-COW write-ahead journal
  kManifest = 5,     // per-checkpoint application manifest
};

struct StoreOptions {
  uint32_t block_size = 64 * 1024;  // paper configures 64 KiB everywhere
  uint32_t segment_blocks = 64;  // store blocks per log segment
  // Content-addressed dedup on the COW write path (DESIGN.md section 17):
  // a block whose content key is already indexed installs a reference to the
  // existing physical block instead of writing a new one. Off keeps the
  // pre-dedup byte-for-byte flush behavior (ablation baseline).
  bool dedup = true;
  // Per-extent compressor applied to dedup misses; kRaw stores verbatim.
  CodecId codec = CodecId::kLz;
  bool operator==(const StoreOptions&) const = default;
};

// The store-wide codec option: kRaw or a registered codec id.
bool IsStoreCodec(CodecId id);

struct Extent {
  uint64_t phys = 0;   // store-block number
  uint64_t birth = 0;  // epoch that installed this reference
  uint32_t crc = 0;    // CRC32C of the stored payload (full block when raw)
  // 0 = raw full block. Otherwise the payload is `stored_len` bytes of
  // codec output occupying ceil(stored_len / dev_bs) device blocks at the
  // head of the store block.
  uint32_t stored_len = 0;
  uint8_t codec = 0;   // CodecId of the stored payload
  bool operator==(const Extent&) const = default;
};

struct ObjectInfo {
  ObjType type = ObjType::kPosixRecord;
  uint64_t size = 0;
  // Journal fields.
  bool non_cow = false;
  uint64_t journal_start = 0;   // first store block of the preallocated extent
  uint64_t journal_blocks = 0;  // extent length
  uint64_t journal_gen = 0;
  uint64_t journal_write_off = 0;  // bytes, volatile (recovered by scan)
  uint64_t journal_next_seq = 0;   // volatile
  std::map<uint64_t, Extent> extents;  // logical block -> physical
  bool operator==(const ObjectInfo&) const = default;
};

// One epoch's objects by oid: the live table, or a committed epoch's as its
// blob recorded it (ObjectStore::TableAt).
using ObjectTable = std::unordered_map<Oid, ObjectInfo>;

struct DeadEntry {
  uint64_t birth = 0;
  uint64_t phys = 0;
  uint32_t crc = 0;         // lets GC verify the block when relocating it
  uint32_t stored_len = 0;  // stored payload length (0 = raw full block)
  bool operator==(const DeadEntry&) const = default;
};

// Dedup index entry (content key -> physical block + refcount). The
// refcount counts live-table extents only; once it reaches zero the block
// leaves the index and dies through the normal deadlist path using
// `first_birth` (the epoch that physically wrote it), which bounds every
// retained checkpoint that can still reference it.
struct DedupEntry {
  uint64_t phys = 0;
  uint64_t refs = 0;
  uint64_t first_birth = 0;
  uint32_t crc = 0;
  uint32_t stored_len = 0;
  uint8_t codec = 0;
  bool operator==(const DedupEntry&) const = default;
};

// Relocation map entry: blocks that used to live at the key physical block
// were moved to `new_phys` during epoch `reloc_epoch`. Committed metadata
// blobs older than reloc_epoch still reference the old location, so
// historic reads translate through this map until those epochs are pruned.
struct RelocEntry {
  uint64_t new_phys = 0;
  uint64_t reloc_epoch = 0;
  bool operator==(const RelocEntry&) const = default;
};

struct CheckpointRecord {
  uint64_t epoch = 0;
  std::string name;
  SimTime committed_at = 0;
  uint64_t meta_block = 0;  // store block of the metadata blob
  uint64_t meta_len = 0;    // bytes
  bool operator==(const CheckpointRecord&) const = default;
};

// Everything one metadata blob persists. The geometry is the superblock's:
// DecodeMeta fills `options.block_size` in from it.
struct StoreMeta {
  uint64_t epoch = 1;  // current, uncommitted epoch
  uint64_t next_oid = 1;
  ObjectTable objects;
  std::map<uint64_t, std::vector<DeadEntry>> deadlists;  // sealed per epoch
  std::vector<CheckpointRecord> checkpoints;
  StoreOptions options;
  std::map<uint64_t, RelocEntry> reloc;  // old phys -> current location
  std::map<uint32_t, uint64_t> open_data_seg;  // lane -> open segment
  // Segments whose GC evacuation failed its CRC walk: pinned, never a victim
  // and never reclaimed, across remounts too.
  std::set<uint64_t> quarantined;
  // Content-addressed dedup index, ordered by key so encoding is
  // deterministic.
  std::map<ContentKey, DedupEntry> dedup_index;
  bool operator==(const StoreMeta&) const = default;
};

// --- Superblock ring ----------------------------------------------------------
// Device blocks [0, kSuperSlots) hold one superblock each; epoch E commits
// into slot E % kSuperSlots.
constexpr int kSuperSlots = 8;
constexpr size_t kSuperNameMax = 64;

struct Superblock {
  uint64_t epoch = 0;
  uint32_t block_size = 0;  // store block size in bytes
  uint64_t total_blocks = 0;
  uint64_t meta_block = 0;
  uint64_t meta_len = 0;
  SimTime committed_at = 0;
  std::string name;  // checkpoint name: at most kSuperNameMax bytes, no NUL
  bool operator==(const Superblock&) const = default;
};

// The encoded superblock, unpadded (the caller pads it to a device block).
std::vector<uint8_t> EncodeSuperblock(const Superblock& sb);
// Decodes one superblock slot read from a device of `dev_blocks` blocks of
// `dev_block_size` bytes. Beyond magic, version and CRC it checks that the
// store block size is a nonzero device multiple, that the store fits the
// device and that the metadata run lies inside the store.
[[nodiscard]] Result<Superblock> DecodeSuperblock(const uint8_t* data, size_t len,
                                                  uint32_t dev_block_size, uint64_t dev_blocks);

// --- Metadata blob --------------------------------------------------------------
// Store blocks a metadata blob of `meta_len` bytes occupies.
inline uint64_t MetaRunBlocks(uint64_t meta_len, uint32_t block_size) {
  return meta_len / block_size + (meta_len % block_size != 0 ? 1 : 0);
}
std::vector<uint8_t> EncodeMeta(const StoreMeta& meta);
// Decodes a blob of a store with `block_size`-byte blocks and
// `total_blocks` blocks, as its superblock states them.
[[nodiscard]] Result<StoreMeta> DecodeMeta(const uint8_t* data, size_t len, uint32_t block_size,
                                           uint64_t total_blocks);

// --- Journal --------------------------------------------------------------------
// A journal extent's first device block is its generation header; records
// follow, each a fixed header and its payload padded to whole device blocks.
constexpr uint64_t kJournalRecordHeaderBytes = 4 + 8 + 8 + 8 + 4;

// The header block, padded to `dev_block_size`.
std::vector<uint8_t> EncodeJournalHeader(uint64_t gen, uint32_t dev_block_size);
// The generation a header block carries.
[[nodiscard]] Result<uint64_t> DecodeJournalHeader(const uint8_t* data, size_t len);

// Bytes a record with a `payload_len`-byte payload occupies on media, or 0
// when that does not fit in 64 bits. The one place record padding is
// computed: appends, replay and mount-time recovery all go through it.
uint64_t JournalRecordSpan(uint64_t payload_len, uint32_t dev_block_size);
// One record, padded to its span.
std::vector<uint8_t> EncodeJournalRecord(uint64_t gen, uint64_t seq, const void* payload,
                                         uint64_t len, uint32_t dev_block_size);

struct JournalRecordHead {
  uint64_t gen = 0;
  uint64_t seq = 0;
  uint64_t len = 0;   // payload bytes
  uint32_t crc = 0;   // CRC32C of the payload
  uint64_t span = 0;  // padded bytes the whole record occupies
  bool operator==(const JournalRecordHead&) const = default;
};
// Decodes the fixed header at the start of a record.
[[nodiscard]] Result<JournalRecordHead> DecodeJournalRecordHead(const uint8_t* data, size_t len,
                                                                uint32_t dev_block_size);
// The payload of the record whose header is `head`, given the record's
// bytes from its start; kCorrupt when they are short or fail the CRC.
[[nodiscard]] Result<std::vector<uint8_t>> DecodeJournalPayload(const JournalRecordHead& head,
                                                                const uint8_t* data, size_t len);

}  // namespace aurora

#endif  // SRC_OBJSTORE_STORE_FORMAT_H_
