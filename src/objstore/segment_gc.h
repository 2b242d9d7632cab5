// Background compactor for the segment-log object store.
//
// The segment log never overwrites in place: overwritten and pruned blocks
// merely lose their bitmap bit, so a long-horizon run accumulates sealed
// segments that are mostly dead. The compactor picks sealed data segments
// below a utilization threshold and evacuates their remaining live blocks —
// extents of the current table and not-yet-reclaimed deadlist entries alike —
// into a dedicated GC append lane, then parks the emptied segment as a
// zombie until the next commit makes the rewritten pointers durable.
//
// Relocation doubles as a scrub pass: every block is re-read through
// ObjectStore::ReadBlockVerified (the Scrubber's verification primitive)
// before it is rewritten, so a latent corruption is detected — and the
// segment quarantined with the damaged block left in place for the Scrubber
// to report — rather than silently laundered under a fresh copy. A
// quarantined segment (SegState::kQuarantine) is listed in the metadata blob
// (StoreMeta::quarantined), so a remount still pins it away from compaction
// and reuse until the operator intervenes.
//
// Dedup interplay: slots are grouped by physical block before evacuation, so
// a block shared by many extents (or still referenced from deadlists) moves
// exactly once and every slot plus the dedup index entry is rewritten to the
// new address; the relocation-map entry uses the earliest birth any
// referencing blob could carry (including the index's first_birth).
//
// Crash consistency (the relocation protocol, DESIGN.md §16): pointers are
// rewritten in memory only; committed metadata blobs on the device keep the
// old locations. Readers of those blobs translate through the store's
// relocation map (old phys -> new phys, stamped with the epoch of the move),
// and the evacuated segment is not reused until the commit that persists the
// rewritten table and the map is durable. A crash at any point therefore
// recovers to either the fully-old view (previous blob: old pointers, old
// data intact) or the fully-new view (next blob: new pointers + map) — never
// a mix.
//
// GC device traffic is charged to a token bucket (bytes_per_sec, burst) so a
// compaction burst cannot starve foreground flush lanes; an exhausted bucket
// defers the rest of the run rather than queueing behind the application.
#ifndef SRC_OBJSTORE_SEGMENT_GC_H_
#define SRC_OBJSTORE_SEGMENT_GC_H_

#include <cstdint>

#include "src/base/result.h"
#include "src/base/units.h"
#include "src/objstore/object_store.h"

namespace aurora {

struct GcConfig {
  // Sealed data segments with live/appended below this fraction are victims.
  double utilization_threshold = 0.5;
  // Token bucket over GC device bytes (reads + writes). 0 = unthrottled.
  uint64_t bytes_per_sec = 0;
  uint64_t burst_bytes = 8ull * 1024 * 1024;
  // Upper bound on segments compacted per Run(); 0 = no bound.
  uint64_t max_segments_per_run = 0;
};

struct GcRunReport {
  uint64_t segments_examined = 0;  // sealed segments considered
  uint64_t segments_compacted = 0;
  uint64_t blocks_relocated = 0;
  uint64_t bytes_relocated = 0;
  uint64_t crc_errors = 0;  // damaged blocks found (and left in place)
  uint64_t io_errors = 0;
  bool throttled = false;  // run stopped early: token bucket exhausted
};

class SegmentGc {
 public:
  explicit SegmentGc(ObjectStore* store, GcConfig config = GcConfig())
      : store_(store), config_(config) {}

  // One compaction pass. Only in-memory pointers move; durability of the
  // relocation follows from the next CommitCheckpoint, which also reclaims
  // the emptied segments.
  [[nodiscard]] Result<GcRunReport> Run();

  const GcConfig& config() const { return config_; }
  void set_config(const GcConfig& config) { config_ = config; }
  // Segments with a damaged block, left untouched for the Scrubber: the
  // store's persisted quarantine list, so the count is remount-stable.
  uint64_t quarantined_segments() const;

 private:
  // Charges `bytes` to the token bucket; false = exhausted (defer the run).
  bool TakeTokens(uint64_t bytes);

  ObjectStore* store_;
  GcConfig config_;
  uint64_t tokens_ = 0;
  SimTime last_refill_ = 0;
  bool bucket_primed_ = false;
};

}  // namespace aurora

#endif  // SRC_OBJSTORE_SEGMENT_GC_H_
