// Background integrity scrubber for committed checkpoints.
//
// A latent bit flip in a committed epoch is only discovered today when a
// restore happens to read the block — possibly long after the healthy
// redundant copy (an older epoch, a remote backend) has been pruned. The
// scrubber walks every committed checkpoint's metadata, re-reads each COW
// extent and compares the stored bytes against the per-extent CRC32C
// recorded at write time, producing one verdict per epoch. Journal objects
// are skipped: their records carry their own CRCs and are verified on every
// replay.
//
// Scrubbing is read-only and bypasses the store's epoch cache so a cached
// (healthy) table can never mask on-media metadata corruption.
#ifndef SRC_OBJSTORE_SCRUBBER_H_
#define SRC_OBJSTORE_SCRUBBER_H_

#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include "src/base/result.h"
#include "src/objstore/object_store.h"
#include "src/objstore/oid.h"

namespace aurora {

// One damaged store block found by the scrub.
struct ScrubBadBlock {
  uint64_t epoch = 0;
  Oid oid{0};
  uint64_t logical = 0;  // logical block index within the object
  uint64_t phys = 0;     // store block number
  Errc error = Errc::kCorrupt;  // kCorrupt (CRC) or kIoError (unreadable)
};

struct ScrubEpochVerdict {
  uint64_t epoch = 0;
  std::string name;
  bool meta_ok = true;  // metadata blob read and verified
  uint64_t blocks_scanned = 0;
  uint64_t crc_errors = 0;
  uint64_t io_errors = 0;
  bool clean() const { return meta_ok && crc_errors == 0 && io_errors == 0; }
};

struct ScrubReport {
  std::vector<ScrubEpochVerdict> epochs;
  std::vector<ScrubBadBlock> bad_blocks;
  // Every CRC-covered store block the scrub visited, across all epochs.
  // Blocks outside this set (metadata blobs, the superblock ring, journal
  // records) are protected by their own structural checksums instead.
  std::set<uint64_t> data_phys;
  bool clean() const {
    for (const ScrubEpochVerdict& v : epochs) {
      if (!v.clean()) {
        return false;
      }
    }
    return true;
  }
};

class Scrubber {
 public:
  explicit Scrubber(ObjectStore* store) : store_(store) {}

  // Scrubs every committed checkpoint, oldest first.
  [[nodiscard]] Result<ScrubReport> ScrubAll();

 private:
  ScrubEpochVerdict ScrubRecord(uint64_t epoch, const std::string& name, uint64_t meta_block,
                                uint64_t meta_len, ScrubReport* report);

  ObjectStore* store_;
};

}  // namespace aurora

#endif  // SRC_OBJSTORE_SCRUBBER_H_
