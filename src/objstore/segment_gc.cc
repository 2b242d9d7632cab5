#include "src/objstore/segment_gc.h"

#include <algorithm>
#include <map>
#include <vector>

#include "src/obs/trace.h"

namespace aurora {

namespace {

// One live physical block inside a victim segment, with every in-memory
// pointer slot that records its location. With dedup, a single block can be
// referenced by many extents (and by deadlist entries after unrelated kills),
// so evacuation moves the block once and rewrites all slots together.
struct LiveGroup {
  std::vector<uint64_t*> slots;
  uint64_t min_birth = ~0ull;  // earliest epoch a committed blob may reference
  uint32_t crc = 0;
  uint32_t stored_len = 0;  // 0 = raw full block
};

}  // namespace

uint64_t SegmentGc::quarantined_segments() const { return store_->meta_.quarantined.size(); }

bool SegmentGc::TakeTokens(uint64_t bytes) {
  if (config_.bytes_per_sec == 0) {
    return true;
  }
  SimTime now = store_->sim_->clock.now();
  if (!bucket_primed_) {
    // First use: start with a full burst rather than an empty bucket.
    tokens_ = config_.burst_bytes;
    bucket_primed_ = true;
  } else if (now > last_refill_) {
    // 128-bit-free refill: split the elapsed time into whole seconds and a
    // remainder so the product cannot overflow at realistic rates.
    SimDuration elapsed = now - last_refill_;
    uint64_t refill = (elapsed / kSecond) * config_.bytes_per_sec +
                      (elapsed % kSecond) * config_.bytes_per_sec / kSecond;
    tokens_ = std::min(config_.burst_bytes, tokens_ + refill);
  }
  last_refill_ = now;
  if (tokens_ < bytes) {
    store_->sim_->metrics.counter("gc.throttle_defers").Add();
    return false;
  }
  tokens_ -= bytes;
  return true;
}

Result<GcRunReport> SegmentGc::Run() {
  GcRunReport report;
  ObjectStore* s = store_;
  MetricsRegistry& metrics = s->sim_->metrics;
  metrics.counter("gc.runs").Add();
  ScopedSpan span(&s->sim_->tracer, "gc");

  const uint64_t bs = s->block_size();

  // --- Victim selection ------------------------------------------------------
  // Sealed data segments under the utilization threshold. Segments holding a
  // live relocation-map KEY are excluded: evacuating one would need a second
  // entry under the same old address (the address was reused after an earlier
  // relocation expired its segment), which the single-hop map cannot express.
  std::vector<std::pair<uint64_t, uint64_t>> victims;  // (live, seg)
  for (uint64_t seg = 0; seg < s->segments_.size(); seg++) {
    const Segment& info = s->segments_[seg];
    if (info.state != SegState::kSealed || info.cursor == 0) {
      continue;
    }
    report.segments_examined++;
    uint64_t live = s->SegLiveBlocks(seg);
    if (live == 0) {
      // Fully dead already (every block freed while it was open): reclaim
      // directly, no relocation needed.
      s->MaybeReclaimSegment(seg);
      continue;
    }
    if (static_cast<double>(live) >= config_.utilization_threshold *
                                         static_cast<double>(info.cursor)) {
      continue;
    }
    uint64_t base = s->SegBase(seg);
    auto key = s->meta_.reloc.lower_bound(base);
    if (key != s->meta_.reloc.end() && key->first < base + s->SegCapacity(seg)) {
      continue;
    }
    victims.emplace_back(live, seg);
  }
  std::sort(victims.begin(), victims.end());
  if (config_.max_segments_per_run > 0 && victims.size() > config_.max_segments_per_run) {
    victims.resize(config_.max_segments_per_run);
  }
  if (victims.empty()) {
    return report;
  }

  // --- Reference collection --------------------------------------------------
  // One walk over the live table and the deadlists finds every pointer into a
  // victim, grouped by physical block (dedup makes many slots share one).
  // Deadlist entries are live too: old checkpoints still read them.
  std::map<uint64_t, std::map<uint64_t, LiveGroup>> refs;  // seg -> phys -> group
  for (const auto& [live, seg] : victims) {
    refs[seg];  // materialize in victim order
  }
  auto add_ref = [&](uint64_t* phys_slot, uint64_t birth, uint32_t crc,
                     uint32_t stored_len) {
    auto it = refs.find(s->SegmentOf(*phys_slot));
    if (it == refs.end()) {
      return;
    }
    LiveGroup& g = it->second[*phys_slot];
    g.slots.push_back(phys_slot);
    g.min_birth = std::min(g.min_birth, birth);
    g.crc = crc;
    g.stored_len = stored_len;
  };
  for (auto& [oid, info] : s->meta_.objects) {
    if (info.non_cow) {
      continue;  // journal extents live in kJournal segments, never victims
    }
    for (auto& [logical, extent] : info.extents) {
      add_ref(&extent.phys, extent.birth, extent.crc, extent.stored_len);
    }
  }
  for (auto& [kill_epoch, entries] : s->meta_.deadlists) {
    for (DeadEntry& e : entries) {
      add_ref(&e.phys, e.birth, e.crc, e.stored_len);
    }
  }
  // A dedup-indexed block may predate every slot that currently references
  // it: committed blobs as old as first_birth can still read the address, so
  // the relocation-map decision must use the index's birth, not the slots'.
  for (auto& [seg, groups] : refs) {
    for (auto& [phys, group] : groups) {
      auto rev = s->dedup_by_phys_.find(phys);
      if (rev != s->dedup_by_phys_.end()) {
        auto idx = s->meta_.dedup_index.find(rev->second);
        if (idx != s->meta_.dedup_index.end()) {
          group.min_birth = std::min(group.min_birth, idx->second.first_birth);
        }
      }
    }
  }

  // --- Evacuation -------------------------------------------------------------
  std::vector<uint8_t> buf(bs);
  for (auto& [seg, groups] : refs) {
    bool evacuated = true;
    std::map<uint64_t, uint64_t> moved;  // old phys -> new phys (this victim)
    // std::map iteration gives deterministic relocation order by old phys.
    for (auto& [old_phys, group] : groups) {
      // Token cost is the device traffic actually generated: compressed
      // extents move only their stored span, and a shared block moves once
      // no matter how many slots point at it.
      uint64_t dev_bytes = static_cast<uint64_t>(s->DevBlocksForStored(group.stored_len)) *
                           s->device_->block_size();
      if (!TakeTokens(2 * dev_bytes)) {  // one read + one write per block
        report.throttled = true;
        evacuated = false;
        break;
      }
      Status read = s->ReadBlockVerified(old_phys, group.crc, group.stored_len, buf.data());
      if (!read.ok()) {
        // Damaged block: leave it where the Scrubber (and the bad-block
        // report) can find it, and never retry this segment. Quarantine is a
        // segment *state*, so it survives remount with the metadata blob.
        if (read.code() == Errc::kCorrupt) {
          report.crc_errors++;
          metrics.counter("gc.crc_errors").Add();
        } else {
          report.io_errors++;
          metrics.counter("gc.io_errors").Add();
        }
        s->SegTransition(seg, SegState::kQuarantine);
        metrics.counter("gc.segments_quarantined").Add();
        evacuated = false;
        break;
      }
      auto appended = s->AppendBlock(ObjectStore::kGcLane);
      if (!appended.ok()) {
        // Store full: stop compacting, state is consistent (pointer untouched).
        evacuated = false;
        break;
      }
      uint64_t new_phys = *appended;
      // Relocation writes ride the earliest-free flush lane's queue. The
      // commit that publishes the rewritten pointer must not declare
      // durability before the relocated data is on media, so the write's
      // completion folds into the epoch's last data write.
      Status wrote = s->DevWrite(s->GcWriteQueue(), s->DevLba(new_phys), buf.data(),
                                 s->DevBlocksForStored(group.stored_len),
                                 &s->last_data_write_done_);
      if (!wrote.ok()) {
        // Undo the append's liveness; the gap stays dead until reclaim.
        s->SetLive(new_phys, false);
        evacuated = false;
        break;
      }
      for (uint64_t* slot : group.slots) {
        *slot = new_phys;
      }
      // The dedup index tracks the block by physical address: move the entry
      // with the block so future flushes of the same content keep hitting.
      auto rev = s->dedup_by_phys_.find(old_phys);
      if (rev != s->dedup_by_phys_.end()) {
        ContentKey key = rev->second;
        s->dedup_by_phys_.erase(rev);
        auto idx = s->meta_.dedup_index.find(key);
        if (idx != s->meta_.dedup_index.end()) {
          idx->second.phys = new_phys;
          s->dedup_by_phys_[new_phys] = key;
        }
      }
      s->SetLive(old_phys, false);
      if (group.min_birth < s->meta_.epoch) {
        // Some committed blob references the old address; translate until
        // every such epoch is pruned. Blocks born in the current epoch have
        // no committed referencer and need no entry.
        s->meta_.reloc[old_phys] = RelocEntry{new_phys, s->meta_.epoch};
      }
      moved[old_phys] = new_phys;
      report.blocks_relocated++;
      report.bytes_relocated += dev_bytes;
    }
    if (!moved.empty()) {
      // Chain collapse: entries pointing AT a block this victim just moved
      // are rewritten to the fresh location, keeping their original epoch
      // stamp, so every map value is always the block's current address
      // (translation stays single-hop).
      for (auto& [old_phys, entry] : s->meta_.reloc) {
        auto m = moved.find(entry.new_phys);
        if (m != moved.end()) {
          entry.new_phys = m->second;
        }
      }
    }
    if (evacuated) {
      // Fully drained: park as a zombie until the next commit persists the
      // rewritten table; ReclaimZombies then returns it to the free pool.
      s->SegTransition(seg, SegState::kZombie);
      report.segments_compacted++;
      metrics.counter("gc.segments_compacted").Add();
    }
    if (report.throttled) {
      break;
    }
  }

  metrics.counter("gc.blocks_relocated").Add(report.blocks_relocated);
  metrics.counter("gc.bytes_relocated").Add(report.bytes_relocated);
  s->PublishSegmentGauges();
  return report;
}

}  // namespace aurora
