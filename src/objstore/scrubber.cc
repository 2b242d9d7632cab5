#include "src/objstore/scrubber.h"

namespace aurora {

ScrubEpochVerdict Scrubber::ScrubRecord(uint64_t epoch, const std::string& name,
                                        uint64_t meta_block, uint64_t meta_len,
                                        ScrubReport* report) {
  ScrubEpochVerdict verdict;
  verdict.epoch = epoch;
  verdict.name = name;

  ObjectStore* s = store_;
  // The blob's own CRC and range checks catch metadata corruption.
  auto meta = s->ReadMeta(meta_block, meta_len);
  if (!meta.ok()) {
    verdict.meta_ok = false;
    Errc code = meta.status().code();
    if (code == Errc::kCorrupt || code == Errc::kNotSupported) {
      verdict.crc_errors++;  // read, but did not decode
    } else {
      verdict.io_errors++;
    }
    return verdict;
  }

  std::vector<uint8_t> buf(s->block_size());
  for (const auto& [oid, info] : meta->objects) {
    if (info.non_cow) {
      continue;  // journal records carry their own CRCs, verified at replay
    }
    for (const auto& [logical, extent] : info.extents) {
      verdict.blocks_scanned++;
      // Blocks the compactor moved after this epoch committed live at their
      // relocated address now; the LIVE store's relocation map knows, the
      // historic blob does not.
      uint64_t phys = s->TranslatePhys(extent.phys, epoch);
      report->data_phys.insert(phys);
      Status read = s->ReadBlockVerified(phys, extent.crc, extent.stored_len, buf.data());
      Errc error;
      if (!read.ok() && read.code() == Errc::kCorrupt) {
        verdict.crc_errors++;
        error = Errc::kCorrupt;
      } else if (!read.ok()) {
        verdict.io_errors++;
        error = Errc::kIoError;
      } else {
        continue;
      }
      report->bad_blocks.push_back(ScrubBadBlock{epoch, oid, logical, phys, error});
    }
  }

  MetricsRegistry& metrics = s->sim_->metrics;
  metrics.counter("scrub.blocks_scanned").Add(verdict.blocks_scanned);
  metrics.counter("scrub.crc_errors").Add(verdict.crc_errors);
  metrics.counter("scrub.io_errors").Add(verdict.io_errors);
  return verdict;
}

Result<ScrubReport> Scrubber::ScrubAll() {
  ScrubReport report;
  store_->sim_->metrics.counter("scrub.runs").Add();
  for (const CheckpointRecord& record : store_->meta_.checkpoints) {
    report.epochs.push_back(
        ScrubRecord(record.epoch, record.name, record.meta_block, record.meta_len, &report));
  }
  return report;
}

}  // namespace aurora
