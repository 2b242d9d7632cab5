#include "perfbench/workload.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace aurora::perfbench {

namespace {

std::map<std::string, uint64_t> SnapshotCounters(const MetricsRegistry& metrics) {
  std::map<std::string, uint64_t> out;
  for (const auto& [name, counter] : metrics.counters()) {
    out[name] = counter.value();
  }
  return out;
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

}  // namespace

void Workload::Adopt(std::unique_ptr<BenchMachine> machine) {
  machine_ = std::move(machine);
  tracer_.set_clock(&machine_->sim.clock);
}

void Workload::ArmLoop(ConsistencyGroup* group) {
  group_ = group;
  loop_.sim = &machine_->sim;
  loop_.arrivals = &arrivals_;
  loop_.op = [this](uint64_t index) { return Op(index); };
  loop_.checkpoint = [this]() { return PeriodicCheckpoint(); };
  loop_.next_ckpt = machine_->sim.clock.now() + group->period;
}

Status Workload::VmWrite(Process* proc, uint64_t addr, const void* data, uint64_t len) {
  Tracer::Scope span(&tracer_, "VmMap::Write", "vm", loop_.op_index, len);
  return proc->vm().Write(addr, data, len);
}

Result<CheckpointResult> Workload::TracedCheckpoint(ConsistencyGroup* group) {
  Tracer::Scope span(&tracer_, "Sls::Checkpoint", "core", ++epoch_id_);
  return machine_->sls->Checkpoint(group);
}

Result<RestoreResult> Workload::TracedRestore(const std::string& group, RestoreMode mode,
                                              CheckpointBackend* backend) {
  Tracer::Scope span(&tracer_, "Sls::Restore", "core", epoch_id_);
  attempted_++;
  auto restored = machine_->sls->Restore(group, 0, mode, backend);
  if (!restored.ok()) {
    failed_++;
    return restored;
  }
  (mode == RestoreMode::kLazy ? lazy_restore_ms_ : restore_ms_)
      .push_back(ToMillis(restored->restore_time));
  return restored;
}

Result<SimTime> Workload::PeriodicCheckpoint() {
  SimClock& clock = machine_->sim.clock;
  const double fs_dirty = static_cast<double>(machine_->fs->DirtyBytes());
  const SimTime start = clock.now();
  attempted_++;
  auto result = TracedCheckpoint(group_);
  if (!result.ok()) {
    failed_++;
    return clock.now() + group_->period;
  }
  checkpoints_++;
  if (result->aborted) {
    aborted_++;
    failed_++;
    return clock.now() + group_->period;
  }
  // Checkpoint samples describe the reference load: the sweep's epochs,
  // at many times the rate, would otherwise set the tails.
  if (!sweeping_) {
    fs_dirty_bytes_.push_back(fs_dirty);
    stop_us_.push_back(ToMicros(result->stop_time));
    quiesce_us_.push_back(ToMicros(result->quiesce_time));
    serialize_us_.push_back(ToMicros(result->os_serialize_time));
    shadow_us_.push_back(ToMicros(result->shadow_time));
    durable_ms_.push_back(ToMillis(result->durable_at - start));
  }
  AURORA_RETURN_IF_ERROR(AfterCheckpoint(*result));
  if (sample_space_ && !sweeping_ && live_bytes_ > 0) {
    space_amp_.push_back(static_cast<double>(UsedBytes()) / static_cast<double>(live_bytes_));
  }
  return std::max(result->durable_at, clock.now() + group_->period);
}

uint64_t Workload::UsedBytes() const {
  return machine_->store->UsedPhysicalBlocks() * machine_->store->block_size();
}

Status Workload::RunReferenceWindow() {
  uint64_t ops_before = reference_.ops;
  uint64_t failed_before = reference_.failed;
  // Poisson arrivals are memoryless, so slicing the window changes no
  // statistic of the load; the slices only time its parts.
  for (int k = 0; k < kWindowSegments; k++) {
    AURORA_RETURN_IF_ERROR(
        loop_.Run(shape_.ref_rate, shape_.round_length / kWindowSegments, &reference_));
    EndSegment();
  }
  attempted_ += reference_.ops - ops_before;
  failed_ += reference_.failed - failed_before;
  return Status::Ok();
}

void Workload::BeginRoundSegments() {
  segments_.clear();
  segment_checks_ = check_seconds_;
  segment_watch_.Restart();
}

void Workload::EndSegment() {
  segments_.push_back(segment_watch_.Seconds() - (check_seconds_ - segment_checks_));
  segment_checks_ = check_seconds_;
  segment_watch_.Restart();
}

Status Workload::Sweep() {
  // A window's limiting latency is the larger of its p99 and its backlog;
  // it meets the limit when that is within slo_p99_us and no op failed.
  struct Probe {
    double rate;
    double worst_us;
  };
  std::vector<Probe> probes;
  auto probe = [&](double rate) -> Result<bool> {
    WindowStats w;
    AURORA_RETURN_IF_ERROR(loop_.Run(rate, shape_.sweep_length, &w));
    attempted_ += w.ops;
    failed_ += w.failed;
    const double p99 = Quantile(w.latency_us, 0.99);
    const bool meets = w.failed == 0 && !w.latency_us.empty() &&
                       std::max(p99, w.backlog_us) <= shape_.slo_p99_us;
    std::fprintf(stderr, "perfbench %s: sweep %.0f ops/s: p99 %.1f us, backlog %.1f us, %s\n",
                 name_.c_str(), rate, p99, w.backlog_us, meets ? "meets" : "misses");
    if (w.failed == 0 && !w.latency_us.empty()) {
      probes.push_back({rate, std::max(p99, w.backlog_us)});
    }
    return meets;
  };
  sweeping_ = true;
  rounds_bytes_written_ = WrittenBytes() - bytes_written_begin_;
  rounds_app_bytes_ = app_bytes_written_;
  constexpr double kBracketStep = 1.25;
  constexpr int kMaxBracketSteps = 12;  // ~15x either way of sweep_start
  double lo = 0;  // highest rate that met the limit
  double hi = 0;  // lowest rate that missed it (0 = none yet)
  double rate = shape_.sweep_start;
  for (int step = 0; step <= kMaxBracketSteps && (lo == 0 || hi == 0); step++) {
    AURORA_ASSIGN_OR_RETURN(bool meets, probe(rate));
    if (meets) {
      lo = rate;
      rate *= kBracketStep;
    } else {
      hi = rate;
      rate /= kBracketStep;
    }
  }
  if (lo == 0 || hi == 0) {
    return Status::Error(Errc::kBadState, "sweep found no rate bracketing the latency limit");
  }
  while (hi / lo > 1.0 + kSweepResolution) {
    rate = std::sqrt(lo * hi);
    AURORA_ASSIGN_OR_RETURN(bool meets, probe(rate));
    (meets ? lo : hi) = rate;
  }
  sweeping_ = false;
  // Near the limit one window's pass or fail is noisy, and on a flat
  // latency curve (churn_gc's p99 grows about as rate^0.4) that noise moves
  // the highest passing rate by several percent. The estimate is instead
  // where a least-squares line through log(latency) against log(rate), over
  // the windows within one bracket step of the bracket, crosses the limit.
  double n = 0, sx = 0, sy = 0, sxx = 0, sxy = 0;
  for (const Probe& p : probes) {
    if (p.rate >= lo / kBracketStep && p.rate <= hi * kBracketStep) {
      const double x = std::log(p.rate), y = std::log(p.worst_us);
      n += 1;
      sx += x;
      sy += y;
      sxx += x * x;
      sxy += x * y;
    }
  }
  const double slope = n >= 2 ? (n * sxy - sx * sy) / (n * sxx - sx * sx) : 0;
  const double crossing = slope > 0 ? std::exp((std::log(shape_.slo_p99_us) - (sy - slope * sx) / n) /
                                               slope)
                                    : lo;  // latency does not rise: the highest passing rate
  max_kops_at_slo_ = crossing / 1000.0;
  std::fprintf(stderr, "perfbench %s: sweep bracket [%.0f, %.0f] ops/s, fit over %.0f windows: "
               "slope %.3f, limit crossed at %.0f ops/s\n",
               name_.c_str(), lo, hi, n, slope, crossing);
  return Status::Ok();
}

void Workload::CheckFailed(const std::string& what) {
  std::fprintf(stderr, "perfbench %s: check failed: %s\n", name_.c_str(), what.c_str());
  checks_failed_++;
}

uint64_t Workload::WrittenBytes() const {
  const MetricsRegistry& metrics = machine_->sim.metrics;
  return metrics.CounterValue("device.bytes_written") +
         metrics.CounterValue("backend.replica.bytes_shipped");
}

void Workload::BeginMeasurement() {
  MetricsRegistry& metrics = machine_->sim.metrics;
  counters_begin_ = SnapshotCounters(metrics);
  bytes_written_begin_ = WrittenBytes();
  store_begin_ = machine_->store->stats();
  metrics.histogram("device.queue_delay").Reset();
  sim_begin_ = machine_->sim.clock.now();
}

void Workload::EndMeasurement() {
  MetricsRegistry& metrics = machine_->sim.metrics;
  counters_end_ = SnapshotCounters(metrics);
  store_end_ = machine_->store->stats();
  segments_end_ = machine_->store->GetSegmentStats();
  used_blocks_end_ = machine_->store->UsedPhysicalBlocks();
  sim_end_ = machine_->sim.clock.now();
  queue_delay_p99_us_ = ToMicros(metrics.histogram("device.queue_delay").Percentile(99));
  flush_lanes_ = machine_->sim.flush_lanes;
}

uint64_t Workload::Delta(const std::string& counter) const {
  auto end = counters_end_.find(counter);
  if (end == counters_end_.end()) {
    return 0;
  }
  auto begin = counters_begin_.find(counter);
  return end->second - (begin == counters_begin_.end() ? 0 : begin->second);
}

uint64_t Workload::DeltaPrefixSuffix(const std::string& prefix, const std::string& suffix) const {
  uint64_t sum = 0;
  for (const auto& [name, value] : counters_end_) {
    if (name.rfind(prefix, 0) == 0 && name.size() >= prefix.size() + suffix.size() &&
        name.compare(name.size() - suffix.size(), suffix.size(), suffix) == 0) {
      sum += Delta(name);
    }
  }
  return sum;
}

uint64_t Workload::CounterDigest() const {
  uint64_t h = 0;
  for (const auto& [name, value] : counters_end_) {
    h = PageModel::Mix(HashBytes(name.data(), name.size(), h), Delta(name));
  }
  return h;
}

MetricMap Workload::SimMetrics() const {
  MetricMap m;
  m["op_p50_us"] = {Median(reference_.latency_us), "us"};
  m["op_p99_us"] = {SupportedTail(reference_.latency_us).second, "us"};
  m["max_kops_at_slo"] = {max_kops_at_slo_, "kops/s"};
  m["stop_p50_us"] = {Median(stop_us_), "us"};
  m["stop_p99_us"] = {SupportedTail(stop_us_).second, "us"};
  m["durable_p99_ms"] = {SupportedTail(durable_ms_).second, "ms"};
  m["restore_p50_ms"] = {Median(restore_ms_), "ms"};
  m["lazy_restore_p50_ms"] = {Median(lazy_restore_ms_), "ms"};
  m["write_amp"] = {Ratio(static_cast<double>(rounds_bytes_written_),
                          static_cast<double>(rounds_app_bytes_)),
                    "ratio"};
  m["space_amp"] = {Median(space_amp_), "ratio"};
  return m;
}

MetricMap Workload::PerLayer(const BaseRates& rates, double measured_host_s) const {
  MetricMap m;
  const auto names = tracer_.by_name();
  const auto layers = tracer_.by_layer();
  auto host_per_call = [&](const char* span, double scale) {
    auto it = names.find(span);
    return it == names.end() || it->second.calls == 0
               ? 0.0
               : it->second.host_s * scale / static_cast<double>(it->second.calls);
  };
  const double kops = static_cast<double>(loop_.op_index) / 1000.0;
  const double ckpts = static_cast<double>(checkpoints_);

  // apps
  m["apps.kv.ops"] = {static_cast<double>(kv_ops_), "count"};
  m["apps.kv.host_ns_per_op"] = {host_per_call("KvServer::Execute", 1e9), "ns"};
  m["apps.kv.queue_wait_p99_us"] = {
      kv_ops_ > 0 ? SupportedTail(reference_.queue_wait_us).second : 0.0, "us"};

  // core
  m["core.ckpt.calls"] = {ckpts, "count"};
  m["core.ckpt.quiesce_p99_us"] = {SupportedTail(quiesce_us_).second, "us"};
  m["core.ckpt.serialize_p99_us"] = {SupportedTail(serialize_us_).second, "us"};
  m["core.ckpt.shadow_p99_us"] = {SupportedTail(shadow_us_).second, "us"};
  const double hits = static_cast<double>(Delta("ckpt.serialize_cache_hits"));
  const double lookups = hits + static_cast<double>(Delta("ckpt.serialize_cache_misses") +
                                                    Delta("ckpt.serialize_cache_stale"));
  m["core.serialize.cache_hit_ratio"] = {Ratio(hits, lookups), "ratio"};
  m["core.serialize.cache_lookups"] = {lookups, "count"};
  m["core.ckpt.host_ms_per_call"] = {host_per_call("Sls::Checkpoint", 1e3), "ms"};
  m["core.restore.host_ms_per_call"] = {host_per_call("Sls::Restore", 1e3), "ms"};
  m["core.restore.calls"] = {static_cast<double>(restore_ms_.size() + lazy_restore_ms_.size()),
                             "count"};
  m["core.failover.host_ms"] = {host_per_call("SlsCli::Promote", 1e3), "ms"};
  m["core.failover.delta_pages"] = {static_cast<double>(failover_delta_pages_), "count"};
  m["core.replica.frames_shipped"] = {static_cast<double>(Delta("repl.frames_shipped")), "count"};
  m["core.replica.bytes_applied"] = {static_cast<double>(Delta("repl.bytes_applied")), "bytes"};
  m["core.replica.pump_host_ms"] = {host_per_call("ReplicaStandby::Pump", 1e3), "ms"};
  m["core.replica.lag_epochs_max"] = {static_cast<double>(lag_epochs_max_), "count"};
  m["core.ckpt.aborted"] = {static_cast<double>(aborted_), "count"};

  // vm
  m["vm.cow_faults_per_kop"] = {Ratio(static_cast<double>(Delta("vm.cow_faults")), kops),
                                "count/kop"};
  m["vm.soft_faults_per_kop"] = {Ratio(static_cast<double>(Delta("vm.soft_faults")), kops),
                                 "count/kop"};
  m["vm.ptes_protected_per_ckpt"] = {
      Ratio(static_cast<double>(Delta("vm.ptes_protected")), ckpts), "count"};
  const double elided = static_cast<double>(Delta("vm.shootdowns_elided"));
  const double shootdown_decisions = elided + static_cast<double>(Delta("vm.tlb_shootdowns"));
  m["vm.shootdown_elided_ratio"] = {Ratio(elided, shootdown_decisions), "ratio"};
  m["vm.shootdown_decisions"] = {shootdown_decisions, "count"};
  const double skipped = static_cast<double>(Delta("vm.objects_skipped_clean"));
  const double considered = skipped + static_cast<double>(Delta("vm.objects_shadowed"));
  m["vm.clean_skip_ratio"] = {Ratio(skipped, considered), "ratio"};
  m["vm.objects_considered"] = {considered, "count"};
  {
    auto it = names.find("VmMap::Write");
    m["vm.write_host_ns_per_kib"] = {
        it == names.end() || it->second.units == 0
            ? 0.0
            : it->second.host_s * 1e9 / (static_cast<double>(it->second.units) / 1024.0),
        "ns"};
  }

  // posix
  m["posix.syscalls"] = {static_cast<double>(Delta("kernel.syscalls")), "count"};
  m["posix.quiesce_ipis_per_ckpt"] = {
      Ratio(static_cast<double>(Delta("kernel.quiesce_ipis")),
            static_cast<double>(Delta("kernel.quiesces"))),
      "count"};
  m["posix.syscalls_restarted"] = {static_cast<double>(Delta("kernel.syscalls_restarted")),
                                   "count"};
  {
    double host = 0;
    uint64_t calls = 0;
    for (const auto& [name, totals] : names) {
      if (name.rfind("Kernel::", 0) == 0) {
        host += totals.host_s;
        calls += totals.calls;
      }
    }
    m["posix.call_host_ns"] = {calls == 0 ? 0.0 : host * 1e9 / static_cast<double>(calls), "ns"};
  }

  // fs
  m["fs.dirty_bytes_at_ckpt"] = {Median(fs_dirty_bytes_), "bytes"};

  // objstore
  const double stored = static_cast<double>(store_end_.bytes_stored - store_begin_.bytes_stored);
  const double deduped =
      static_cast<double>(store_end_.bytes_deduped - store_begin_.bytes_deduped);
  const double saved = static_cast<double>(store_end_.bytes_compressed_saved -
                                           store_begin_.bytes_compressed_saved);
  m["objstore.bytes_written"] = {stored, "bytes"};
  m["objstore.meta_bytes_per_commit"] = {
      Ratio(static_cast<double>(Delta("store.meta_bytes")),
            static_cast<double>(Delta("store.commits"))),
      "bytes"};
  m["objstore.logical_bytes"] = {deduped + stored + saved, "bytes"};
  m["objstore.dedup_hit_ratio"] = {Ratio(deduped, deduped + stored + saved), "ratio"};
  m["objstore.compress_ratio"] = {Ratio(stored, stored + saved), "ratio"};
  m["objstore.used_blocks"] = {static_cast<double>(used_blocks_end_), "count"};
  m["objstore.dead_blocks"] = {static_cast<double>(segments_end_.dead_blocks), "count"};
  m["objstore.gc.bytes_relocated"] = {static_cast<double>(Delta("gc.bytes_relocated")), "bytes"};
  const double compacted = static_cast<double>(Delta("gc.segments_compacted"));
  m["objstore.gc.segments_compacted"] = {compacted, "count"};
  m["objstore.gc.reclaim_ratio"] = {
      Ratio(static_cast<double>(Delta("gc.segments_reclaimed")), compacted), "ratio"};
  m["objstore.gc.throttle_defers"] = {static_cast<double>(Delta("gc.throttle_defers")), "count"};
  m["objstore.gc.host_ms_per_run"] = {host_per_call("SegmentGc::Run", 1e3), "ms"};
  m["objstore.crc_errors"] = {static_cast<double>(Delta("io.crc_errors") + Delta("gc.crc_errors")),
                              "count"};
  m["objstore.io_retries"] = {static_cast<double>(Delta("io.retries")), "count"};

  // storage
  const double dev_written = static_cast<double>(Delta("device.bytes_written"));
  m["storage.writes"] = {static_cast<double>(Delta("device.writes")), "count"};
  m["storage.bytes_per_write"] = {
      Ratio(dev_written, static_cast<double>(Delta("store.blocks_allocated"))), "bytes"};
  m["storage.bytes_read"] = {static_cast<double>(Delta("device.bytes_read")), "bytes"};
  m["storage.queue_delay_p99_us"] = {queue_delay_p99_us_, "us"};
  const double busy = static_cast<double>(DeltaPrefixSuffix("flush.lane", ".busy_time"));
  m["storage.lane_busy_ratio"] = {
      Ratio(busy, static_cast<double>(flush_lanes_) * static_cast<double>(sim_end_ - sim_begin_)),
      "ratio"};

  // base: calibrated primitive rates, and the share of a round's host time
  // they explain given this workload's byte counts.
  m["base.crc32c_gbps"] = {rates.crc32c_gbps_4k, "GB/s"};
  m["base.crc32c_gbps_64k"] = {rates.crc32c_gbps_64k, "GB/s"};
  m["base.content_hash_gbps"] = {rates.content_hash_gbps_4k, "GB/s"};
  m["base.content_hash_gbps_64k"] = {rates.content_hash_gbps_64k, "GB/s"};
  m["objstore.lz_compress_gbps"] = {rates.lz_compress_gbps, "GB/s"};
  m["objstore.lz_decompress_gbps"] = {rates.lz_decompress_gbps, "GB/s"};
  {
    // Write-side estimate: Crc32c over every stored payload, GC relocation
    // and replication frame (sender and standby), ContentHash128 over every
    // block the dedup path considers. Read-side verification is left out:
    // most reads here are restores whose checks are excluded from host time.
    const bool small = machine_->store->block_size() <= kPageSize;
    const double crc_rate = (small ? rates.crc32c_gbps_4k : rates.crc32c_gbps_64k) * 1e9;
    const double hash_rate =
        (small ? rates.content_hash_gbps_4k : rates.content_hash_gbps_64k) * 1e9;
    const double crc_bytes = stored + static_cast<double>(Delta("gc.bytes_relocated")) +
                             2.0 * static_cast<double>(Delta("repl.bytes_applied"));
    const double hashed = deduped + stored + saved;
    const double est_s = (crc_rate > 0 ? crc_bytes / crc_rate : 0) +
                         (hash_rate > 0 ? hashed / hash_rate : 0);
    m["base.crc_host_share"] = {Ratio(est_s, measured_host_s), "ratio"};
    m["base.measured_host_s"] = {measured_host_s, "s"};
  }

  // Self time per layer, as a share of the traced host time outside checks.
  double total_self = 0;
  for (const auto& [layer, totals] : layers) {
    total_self += layer == "check" ? 0 : totals.self_host_s;
  }
  for (const char* layer : {"bench", "apps", "core", "vm", "posix", "objstore"}) {
    auto it = layers.find(layer);
    const double self = it == layers.end() ? 0 : it->second.self_host_s;
    const double self_sim = it == layers.end() ? 0 : ToMillis(it->second.self_sim);
    m[std::string("trace.self_share.") + layer] = {Ratio(self, total_self), "ratio"};
    m[std::string("trace.self_sim_ms.") + layer] = {self_sim, "ms"};
  }
  m["trace.spans"] = {static_cast<double>(tracer_.spans_recorded()), "count"};
  return m;
}

}  // namespace aurora::perfbench
