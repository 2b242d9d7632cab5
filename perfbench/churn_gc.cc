// churn_gc: one process overwrites a hot/cold working set of AuroraFS files
// (through Kernel::WriteFd) and anonymous memory with a seeded content mix —
// repeats of earlier content, compressible records and random bytes — and
// appends a variable-length record to a write-ahead log per write, while
// 10 ms checkpoints go to the store with 64 KiB blocks, retention keeps a
// fixed number of epochs and the benchmark runs SegmentGc::Run after every
// checkpoint. Each round ends with a lazy and a full restore from the store,
// both verified against the content model.
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "perfbench/workload.h"
#include "src/objstore/segment_gc.h"

namespace aurora::perfbench {
namespace {

// The sizes, rate and content mix below are not from the paper, which has
// no churn workload. They are chosen so that each layer the workload is for
// does visible work: a third of the writes can dedup, a third cannot
// compress, the working set is a few times the retained epochs' dirty data
// so GC has dead space to reclaim, and 1 k writes/s (64 MiB/s) leaves the
// store's flush well below its capacity at the reference rate.
constexpr uint64_t kChunk = 64 * kKiB;  // one store block per write
constexpr uint64_t kMemBytes = 8 * kMiB;
constexpr uint64_t kMemBase = 0x40000000ull;
constexpr int kFiles = 8;
constexpr uint64_t kFileBytes = 3 * kMiB;
constexpr uint64_t kHotFraction = 8;  // the hot set is 1/8 of each region...
constexpr double kHotShare = 0.9;     // ...and takes 90% of the writes
constexpr double kRepeatShare = 0.3;  // writes repeating one of kRepeatPool chunks (dedup)
constexpr double kRecordShare = 0.4;  // writes of LZ-compressible records; the rest random
constexpr int kRepeatPool = 16;
constexpr uint64_t kRetainedEpochs = 8;
constexpr uint64_t kLogBytes = 1 * kMiB;  // write-ahead log, appended cyclically
constexpr uint64_t kLogRegion = kFiles + 1;
constexpr double kScratchShare = 0.15;  // ops that also open or close a scratch file
constexpr size_t kMaxScratch = 32;

Shape ChurnShape() {
  Shape s;
  s.ref_rate = 1000;  // 64 MiB/s of overwrites
  s.round_length = 500 * kMillisecond;
  s.sweep_start = 5000;
  s.sweep_length = 1000 * kMillisecond;
  s.slo_p99_us = 3000;
  s.nominal_round_host_s = 1.0;
  return s;
}

// Page-model key of page `page` in region `region` (0 = memory, 1.. = files).
uint64_t Key(uint64_t region, uint64_t page) { return region << 40 | page; }

class ChurnGc : public Workload {
 public:
  explicit ChurnGc(uint64_t seed) : Workload("churn_gc", seed, ChurnShape()), rng_(seed ^ 0xc4u) {}

  Status Setup() override {
    Adopt(std::make_unique<BenchMachine>(4 * kGiB, 64 * kKiB));
    Kernel* kernel = machine_->kernel.get();
    AURORA_ASSIGN_OR_RETURN(proc_, kernel->CreateProcess("churn"));
    auto mem = VmObject::CreateAnonymous(kMemBytes);
    AURORA_ASSIGN_OR_RETURN(uint64_t addr, proc_->vm().Map(kMemBase, kMemBytes,
                                                           kProtRead | kProtWrite, mem, 0, false));
    if (addr != kMemBase) {
      return Status::Error(Errc::kBadState, "anonymous region not at its fixed address");
    }
    for (int f = 0; f <= kFiles; f++) {
      AURORA_ASSIGN_OR_RETURN(int fd, kernel->Open(*proc_, FileName(f), kOpenRead | kOpenWrite, true));
      fds_.push_back(fd);
    }
    log_.assign(kLogBytes, 0);
    AURORA_RETURN_IF_ERROR(WriteFile(kLogRegion, 0, log_.data(), log_.size()));
    RecordPages(kLogRegion, 0, log_.data(), log_.size());
    for (int p = 0; p < kRepeatPool; p++) {
      pool_.push_back(RandomChunk(rng_));
    }
    // Initial contents: every chunk of every region written once.
    for (uint64_t region = 0; region <= kFiles; region++) {
      for (uint64_t off = 0; off < RegionBytes(region); off += kChunk) {
        AURORA_RETURN_IF_ERROR(WriteChunk(region, off, RandomChunk(rng_)));
      }
    }
    AURORA_ASSIGN_OR_RETURN(ConsistencyGroup * group, machine_->sls->CreateGroup("churn"));
    AURORA_RETURN_IF_ERROR(machine_->sls->Attach(group, proc_));
    RetentionPolicy retention;
    retention.keep_epochs = kRetainedEpochs;
    machine_->sls->SetRetentionPolicy(group, retention);
    machine_->sls->SetAutoGc(false);
    GcConfig gc;
    gc.bytes_per_sec = 128 * kMiB;  // paced: GC must not stall the foreground
    gc.burst_bytes = 2 * kMiB;
    machine_->sls->gc()->set_config(gc);
    AURORA_ASSIGN_OR_RETURN(CheckpointResult first, machine_->sls->Checkpoint(group));
    sim().clock.AdvanceTo(first.durable_at);
    model_[0].Commit();
    model_[1].Commit();
    ArmLoop(group);
    live_bytes_ = kMemBytes + kFiles * kFileBytes + kLogBytes;
    app_bytes_written_ = 0;
    return Status::Ok();
  }

  Status Round(int round) override {
    sample_space_ = round >= rounds_measured_ / 2;
    AURORA_RETURN_IF_ERROR(RunReferenceWindow());
    // Restore drill: the round's last epoch made durable, then a lazy and a
    // full restore of it from the store, each verified; the application
    // carries on in the fully restored incarnation.
    AURORA_ASSIGN_OR_RETURN(SimTime next, PeriodicCheckpoint());
    sim().clock.AdvanceTo(next);
    for (RestoreMode mode : {RestoreMode::kLazy, RestoreMode::kFull}) {
      auto restored = TracedRestore("churn", mode);
      if (!restored.ok()) {
        CheckFailed("restore from the store failed: " + restored.status().message());
        return restored.status();
      }
      if (restored->group->processes.size() != 1) {
        CheckFailed("restored group does not hold exactly the churn process");
        return Status::Error(Errc::kBadState, "bad restored group");
      }
      proc_ = restored->group->processes[0];
      // Both restores read the same epoch's files; check them once.
      Verify(restored->epoch, /*files=*/mode == RestoreMode::kLazy);
      ArmLoop(restored->group);
    }
    return Status::Ok();
  }

  Status Finish() override {
    CheckTimer timer(this);
    Status invariants = machine_->store->CheckDedupInvariants();
    if (!invariants.ok()) {
      CheckFailed("dedup invariants: " + invariants.message());
    }
    return Status::Ok();
  }

  uint64_t InputDigest() const override { return input_digest_; }

 protected:
  Result<SimDuration> Op(uint64_t index) override {
    (void)index;
    const uint64_t region = rng_.Below(kFiles + 1);
    const uint64_t chunks = RegionBytes(region) / kChunk;
    const uint64_t hot = chunks / kHotFraction;
    const uint64_t chunk = rng_.NextBool(kHotShare) ? rng_.Below(hot) : hot + rng_.Below(chunks - hot);
    const double kind = rng_.NextDouble();
    std::vector<uint8_t> data = kind < kRepeatShare                  ? pool_[rng_.Below(kRepeatPool)]
                                : kind < kRepeatShare + kRecordShare ? RecordChunk(rng_)
                                                                     : RandomChunk(rng_);
    AURORA_RETURN_IF_ERROR(WriteChunk(region, chunk * kChunk, data));
    AURORA_ASSIGN_OR_RETURN(uint64_t logged, AppendLog());
    app_bytes_written_ += kChunk + logged;
    if (rng_.NextBool(kScratchShare)) {
      AURORA_RETURN_IF_ERROR(ChurnScratchFile());
    }
    return SimDuration{0};
  }

  Status AfterCheckpoint(const CheckpointResult& result) override {
    (void)result;
    model_[0].Commit();
    model_[1].Commit();
    Tracer::Scope span(&tracer_, "SegmentGc::Run", "objstore", epoch_id_);
    return machine_->sls->gc()->Run().status();
  }

 private:
  static uint64_t RegionBytes(uint64_t region) {
    return region == 0 ? kMemBytes : region == kLogRegion ? kLogBytes : kFileBytes;
  }
  // Data file f < kFiles, or the log (f == kFiles).
  static std::string FileName(int f) {
    return f == kFiles ? "churn.log" : "churn-" + std::to_string(f) + ".dat";
  }

  static std::vector<uint8_t> RandomChunk(Rng& rng) {
    std::vector<uint8_t> c(kChunk);
    for (uint64_t i = 0; i < kChunk; i += 8) {
      uint64_t v = rng.Next();
      for (int b = 0; b < 8; b++) {
        c[i + static_cast<uint64_t>(b)] = static_cast<uint8_t>(v >> (8 * b));
      }
    }
    return c;
  }

  // Log-like records: a fixed 64-byte layout with seeded hex fields, which
  // the LZ codec shrinks but dedup never matches.
  static std::vector<uint8_t> RecordChunk(Rng& rng) {
    static constexpr char kTemplate[] = "rec ................ field=...... status=ok \n";
    static constexpr char kHex[] = "0123456789abcdef";
    std::vector<uint8_t> c(kChunk, ' ');
    const uint64_t base = rng.Next();
    for (uint64_t i = 0; i < kChunk; i += 64) {
      uint8_t* rec = &c[i];
      std::memcpy(rec, kTemplate, sizeof(kTemplate) - 1);
      const uint64_t id = base + i;
      const uint64_t field = rng.Next();
      for (int d = 0; d < 16; d++) {
        rec[4 + d] = static_cast<uint8_t>(kHex[(id >> (60 - 4 * d)) & 15]);
      }
      for (int d = 0; d < 6; d++) {
        rec[27 + d] = static_cast<uint8_t>(kHex[(field >> (4 * d)) & 15]);
      }
    }
    return c;
  }

  // Writes one chunk through the kernel (files) or the VM (memory) and
  // records every page's content in the model.
  Status WriteChunk(uint64_t region, uint64_t off, const std::vector<uint8_t>& data) {
    input_digest_ = PageModel::Mix(input_digest_ ^ Key(region, off), HashBytes(data.data(), 64));
    if (region == 0) {
      AURORA_RETURN_IF_ERROR(VmWrite(proc_, kMemBase + off, data.data(), data.size()));
    } else {
      AURORA_RETURN_IF_ERROR(WriteFile(region, off, data.data(), data.size()));
    }
    if (!sweeping()) {  // no check reads the model after the sweep
      CheckTimer model(this);
      RecordPages(region, off, data.data(), data.size());
    }
    return Status::Ok();
  }

  // pwrite-style: seek, then write through the descriptor.
  Status WriteFile(uint64_t region, uint64_t off, const uint8_t* data, uint64_t len) {
    Kernel* kernel = machine_->kernel.get();
    const int fd = fds_[region - 1];
    {
      Tracer::Scope span(&tracer_, "Kernel::SeekFd", "posix", loop_.op_index);
      AURORA_RETURN_IF_ERROR(kernel->SeekFd(*proc_, fd, static_cast<int64_t>(off), 0).status());
    }
    Tracer::Scope span(&tracer_, "Kernel::WriteFd", "posix", loop_.op_index, len);
    AURORA_ASSIGN_OR_RETURN(uint64_t n, kernel->WriteFd(*proc_, fd, data, len));
    return n == len ? Status::Ok() : Status::Error(Errc::kBadState, "short file write");
  }

  // Appends one variable-length record to the cyclic log; returns its size.
  Result<uint64_t> AppendLog() {
    const uint64_t len = 64 + rng_.Below(4033);
    if (log_off_ + len > kLogBytes) {
      log_off_ = 0;
    }
    const uint64_t stamp = rng_.Next();
    for (uint64_t i = 0; i < len; i++) {
      log_[log_off_ + i] = static_cast<uint8_t>("0123456789abcdef"[(stamp >> (i % 60)) & 15]);
    }
    AURORA_RETURN_IF_ERROR(WriteFile(kLogRegion, log_off_, log_.data() + log_off_, len));
    if (!sweeping()) {
      CheckTimer model(this);
      const uint64_t first = PageTrunc(log_off_);
      RecordPages(kLogRegion, first, log_.data() + first, PageRound(log_off_ + len) - first);
    }
    log_off_ += len;
    return len;
  }

  void RecordPages(uint64_t region, uint64_t off, const uint8_t* data, uint64_t len) {
    AddPages(&model_[region == 0 ? 0 : 1], region, off, data, len);
  }

  // Opens or closes one scratch descriptor: a walk of the descriptor table's
  // size that reverts to half the maximum, so the OS state the checkpoint
  // serializes varies by epoch but has the same distribution for every seed.
  Status ChurnScratchFile() {
    Kernel* kernel = machine_->kernel.get();
    const double open_odds = 1.0 - static_cast<double>(scratch_.size()) / kMaxScratch;
    if (rng_.NextBool(open_odds)) {
      const std::string path = "scratch-" + std::to_string(rng_.Below(kMaxScratch));
      Tracer::Scope span(&tracer_, "Kernel::Open", "posix", loop_.op_index);
      AURORA_ASSIGN_OR_RETURN(int fd, kernel->Open(*proc_, path, kOpenRead | kOpenWrite, true));
      scratch_.push_back(fd);
      return Status::Ok();
    }
    const size_t victim = rng_.Below(scratch_.size());
    const int fd = scratch_[victim];
    scratch_.erase(scratch_.begin() + static_cast<std::ptrdiff_t>(victim));
    Tracer::Scope span(&tracer_, "Kernel::Close", "posix", loop_.op_index);
    return kernel->Close(*proc_, fd);
  }

  // The restored memory and (with `files`) the store's file contents at
  // `epoch` must hash to the model recorded at that epoch.
  void Verify(uint64_t epoch, bool files) {
    CheckTimer timer(this);
    PageModel memory;
    std::vector<uint8_t> buf(kChunk);
    for (uint64_t off = 0; off < kMemBytes; off += kChunk) {
      if (!proc_->vm().Read(kMemBase + off, buf.data(), kChunk).ok()) {
        CheckFailed("restored memory unreadable");
        return;
      }
      AddPages(&memory, 0, off, buf.data(), kChunk);
    }
    if (memory.digest() != model_[0].digest() || memory.pages() != model_[0].pages()) {
      CheckFailed("restored memory differs from epoch " + std::to_string(epoch));
    }
    if (!files) {
      return;
    }
    PageModel stored;
    for (int f = 0; f <= kFiles; f++) {
      auto vn = machine_->fs->Lookup(FileName(f));
      if (!vn.ok()) {
        CheckFailed("restored file missing");
        return;
      }
      const Oid oid = AuroraFs::OidOf(vn->get());
      const uint64_t region = static_cast<uint64_t>(f) + 1;
      for (uint64_t off = 0; off < RegionBytes(region); off += kChunk) {
        if (!machine_->store->ReadAtEpoch(epoch, oid, off, buf.data(), kChunk).ok()) {
          CheckFailed("file data unreadable at the restored epoch");
          return;
        }
        AddPages(&stored, region, off, buf.data(), kChunk);
      }
    }
    if (stored.digest() != model_[1].digest() || stored.pages() != model_[1].pages()) {
      CheckFailed("stored file contents differ from epoch " + std::to_string(epoch));
    }
  }

  static void AddPages(PageModel* model, uint64_t region, uint64_t off, const uint8_t* data,
                       uint64_t len) {
    for (uint64_t p = 0; p < len / kPageSize; p++) {
      model->Set(Key(region, off / kPageSize + p), HashBytes(data + p * kPageSize, kPageSize));
    }
  }

  Rng rng_;
  Process* proc_ = nullptr;
  std::vector<int> fds_;
  std::vector<int> scratch_;  // open scratch descriptors
  std::vector<std::vector<uint8_t>> pool_;
  PageModel model_[2];  // anonymous memory, files
  std::vector<uint8_t> log_;  // host copy of the log file, for its page hashes
  uint64_t log_off_ = 0;
  uint64_t input_digest_ = 0;
};

}  // namespace

std::unique_ptr<Workload> MakeChurnGc(uint64_t seed) { return std::make_unique<ChurnGc>(seed); }

}  // namespace aurora::perfbench
