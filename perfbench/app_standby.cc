// app_standby: a multi-process, OS-state-heavy application — Table 6's
// firefox profile — that is mostly idle. Every request it serves moves a
// variable-length message through a pipe, and most also dirty one page of a
// seeded hot set or mutate a descriptor, so the serialize cache sees both
// hits and misses. Every 10 ms an epoch ships through ReplicaBackend to a
// warm ReplicaStandby over a fault-free link; each round ends with a failover
// drill: the primary crashes mid-epoch, SlsCli::Promote restores the standby's
// image (verified against the content model), the standby is demoted, and the
// primary fails back by restoring the group over the replica link.
#include <memory>
#include <string>
#include <vector>

#include "perfbench/workload.h"
#include "src/core/backend.h"

namespace aurora::perfbench {
namespace {

// Sizes are Table 6's firefox profile, as bench/bench_table6_apps.cc builds
// it: 198 MiB resident across 4 processes, 60 threads, 225 map entries and
// 45 descriptors (files, pipes, sockets, a pty) per process, 2 kqueues.
constexpr uint64_t kRssBytes = 198 * kMiB;
constexpr int kProcesses = 4;
constexpr int kThreads = 60;
constexpr int kMapEntries = 225;
constexpr int kFds = 45;
constexpr int kKqueues = 2;
// BuildAppProfile maps each process's share of the RSS here and dirties
// every page of it with one byte.
constexpr uint64_t kRegionBase = 0x40000000ull;
constexpr uint64_t kRegionBytes = PageRound(kRssBytes / kProcesses);
// Descriptors the requests use, opened on top of the profile's own.
constexpr int kSeekFiles = 4;                     // per process
constexpr uint64_t kHotPages = 512;               // per process, the pages requests dirty
constexpr uint64_t kAccessLogBytes = 256 * kKiB;  // per process, written cyclically
constexpr size_t kMaxScratch = 16;                // per process
constexpr size_t kMaxArenas = 16;                 // per process
// Request mix beyond the message every request carries.
constexpr double kPageWriteShare = 0.6;
constexpr double kSeekShare = 0.1;
constexpr double kScratchShare = 0.05;
constexpr double kArenaShare = 0.05;

Shape StandbyShape() {
  Shape s;
  // Not a paper figure (Table 6 measures an idle application): 5 k req/s
  // keeps it mostly idle, ~50 requests and ~30 dirtied pages of the 198 MiB
  // image per 10 ms epoch, while every epoch still mutates some OS state.
  s.ref_rate = 5000;
  // One failover drill per 2 s: the second epoch after each failback is
  // slower than the rest, and at 200 epochs per drill it stays below the
  // 1 % the epoch-time p99 reports, so that p99 does not flip between the
  // two kinds of epoch from seed to seed.
  s.round_length = 2000 * kMillisecond;
  s.sweep_start = 76000;
  s.sweep_length = 400 * kMillisecond;
  s.slo_p99_us = 4000;
  s.nominal_round_host_s = 1.4;
  return s;
}

// One process of the profile and the descriptors requests use.
struct AppProc {
  Process* proc = nullptr;
  std::pair<int, int> pipe{-1, -1};  // read end, write end
  int access_log = -1;
  std::vector<int> files;
  std::vector<uint64_t> hot;  // page indices of the hot set
  // OS state requests grow and shrink, as of now and as of the last
  // committed epoch (what a crash rolls back to).
  struct Churn {
    uint64_t log_off = 0;
    std::vector<int> scratch;                           // open scratch descriptors
    std::vector<std::pair<uint64_t, uint64_t>> arenas;  // mapped (addr, bytes)
  };
  Churn now, committed;
};

class AppStandby : public Workload {
 public:
  explicit AppStandby(uint64_t seed)
      : Workload("app_standby", seed, StandbyShape()), rng_(seed ^ 0x5a5aull) {}
  ~AppStandby() override { machine_.reset(); }  // backends hold the link

  Status Setup() override {
    Adopt(std::make_unique<BenchMachine>(1 * kGiB, 64 * kKiB));
    Sls* sls = machine_->sls.get();
    standby_ = static_cast<ReplicaStandby*>(
        sls->RegisterBackend(std::make_unique<ReplicaStandby>(&sim(), &link_)));
    replica_ = sls->RegisterBackend(std::make_unique<ReplicaBackend>(&sim(), standby_, &link_));
    AURORA_RETURN_IF_ERROR(BuildProfile());
    AURORA_RETURN_IF_ERROR(StartGroup());
    live_bytes_ = kProcesses * kRegionBytes;
    return Status::Ok();
  }

  Status Round(int round) override {
    sample_space_ = round >= rounds_measured_ / 2;
    AURORA_RETURN_IF_ERROR(RunReferenceWindow());
    return FailoverDrill();
  }

  Status Finish() override {
    // Lazy cold restores from the standby's applied image table, verified.
    AURORA_ASSIGN_OR_RETURN(CheckpointResult last, TracedCheckpoint(group_));
    if (last.aborted) {
      return Status::Error(Errc::kUnavailable, "final epoch aborted");
    }
    sim().clock.AdvanceTo(last.durable_at);
    Commit();
    Crash();
    for (int i = 0; i < 3; i++) {
      auto restored = TracedRestore(group_->name(), RestoreMode::kLazy, standby_);
      if (!restored.ok()) {
        CheckFailed("lazy restore from the standby failed: " + restored.status().message());
        continue;
      }
      Verify(restored->group, "lazy restore");
    }
    return Status::Ok();
  }

  uint64_t InputDigest() const override { return input_digest_; }

 protected:
  Result<SimDuration> Op(uint64_t index) override {
    const size_t which = rng_.Below(procs_.size());
    AppProc& a = procs_[which];
    Kernel* kernel = machine_->kernel.get();
    // Every request arrives as a variable-length message through the pipe
    // and leaves a line of the same length in the access log.
    const uint64_t len = 16 + rng_.Below(2033);
    message_.assign(len, static_cast<uint8_t>(index));
    input_digest_ = PageModel::Mix(input_digest_, len);
    {
      Tracer::Scope span(&tracer_, "Kernel::WriteFd", "posix", index, len);
      AURORA_RETURN_IF_ERROR(kernel->WriteFd(*a.proc, a.pipe.second, message_.data(), len).status());
    }
    {
      Tracer::Scope span(&tracer_, "Kernel::ReadFd", "posix", index, len);
      AURORA_RETURN_IF_ERROR(kernel->ReadFd(*a.proc, a.pipe.first, message_.data(), len).status());
    }
    if (a.now.log_off + len > kAccessLogBytes) {
      a.now.log_off = 0;
    }
    AURORA_RETURN_IF_ERROR(Pwrite(a, a.access_log, a.now.log_off, message_.data(), len));
    a.now.log_off += len;
    app_bytes_written_ += len;
    double kind = rng_.NextDouble();
    if (kind < kPageWriteShare) {
      const uint64_t page = a.hot[rng_.Below(a.hot.size())];
      std::vector<uint8_t> data = PageContent(rng_.Next());
      AURORA_RETURN_IF_ERROR(VmWrite(a.proc, kRegionBase + page * kPageSize, data.data(), kPageSize));
      {
        CheckTimer model(this);
        model_.Set(Key(which, page), HashBytes(data.data(), kPageSize));
      }
      input_digest_ = PageModel::Mix(input_digest_ ^ page, data[0]);
      app_bytes_written_ += kPageSize;
    } else if ((kind -= kPageWriteShare) < kSeekShare) {
      const int fd = a.files[rng_.Below(a.files.size())];
      Tracer::Scope span(&tracer_, "Kernel::SeekFd", "posix", index);
      AURORA_RETURN_IF_ERROR(
          kernel->SeekFd(*a.proc, fd, static_cast<int64_t>(rng_.Below(1 << 20)), 0).status());
    } else if ((kind -= kSeekShare) < kScratchShare) {
      AURORA_RETURN_IF_ERROR(ChurnScratch(which));
    } else if ((kind -= kScratchShare) < kArenaShare) {
      AURORA_RETURN_IF_ERROR(ChurnArena(a));
    }
    return SimDuration{0};
  }

  Status AfterCheckpoint(const CheckpointResult& result) override {
    last_epoch_ = result.epoch;
    Commit();
    {
      Tracer::Scope span(&tracer_, "ReplicaStandby::Pump", "core", epoch_id_);
      standby_->Pump();
    }
    lag_epochs_max_ = std::max(lag_epochs_max_, sim().metrics.GaugeValue("repl.lag_epochs"));
    return Status::Ok();
  }

  uint64_t UsedBytes() const override {
    uint64_t pages = 0;
    for (const auto& [oid, image] : standby_->object_table()) {
      pages += image.pages.size();
    }
    return pages * kPageSize;
  }

 private:
  static uint64_t Key(uint64_t proc, uint64_t page) { return proc << 40 | page; }

  // The epoch is durable: crashes roll back to this state.
  void Commit() {
    model_.Commit();
    for (AppProc& a : procs_) {
      a.committed = a.now;
    }
  }

  Status Pwrite(AppProc& a, int fd, uint64_t off, const uint8_t* data, uint64_t len) {
    Kernel* kernel = machine_->kernel.get();
    {
      Tracer::Scope span(&tracer_, "Kernel::SeekFd", "posix", loop_.op_index);
      AURORA_RETURN_IF_ERROR(kernel->SeekFd(*a.proc, fd, static_cast<int64_t>(off), 0).status());
    }
    Tracer::Scope span(&tracer_, "Kernel::WriteFd", "posix", loop_.op_index, len);
    return kernel->WriteFd(*a.proc, fd, data, len).status();
  }

  // Opens or closes one scratch descriptor: a walk of the table size that
  // reverts to half the maximum (likewise the arenas below).
  Status ChurnScratch(size_t which) {
    AppProc& a = procs_[which];
    Kernel* kernel = machine_->kernel.get();
    std::vector<int>& open = a.now.scratch;
    if (rng_.NextBool(1.0 - static_cast<double>(open.size()) / kMaxScratch)) {
      const std::string path = "scratch-" + std::to_string(which) + "-" +
                               std::to_string(rng_.Below(kMaxScratch));
      Tracer::Scope span(&tracer_, "Kernel::Open", "posix", loop_.op_index);
      AURORA_ASSIGN_OR_RETURN(int fd, kernel->Open(*a.proc, path, kOpenRead | kOpenWrite, true));
      open.push_back(fd);
      return Status::Ok();
    }
    const size_t victim = rng_.Below(open.size());
    const int fd = open[victim];
    open.erase(open.begin() + static_cast<std::ptrdiff_t>(victim));
    Tracer::Scope span(&tracer_, "Kernel::Close", "posix", loop_.op_index);
    return kernel->Close(*a.proc, fd);
  }

  // Maps (and touches) or unmaps one small arena.
  Status ChurnArena(AppProc& a) {
    auto& arenas = a.now.arenas;
    if (rng_.NextBool(1.0 - static_cast<double>(arenas.size()) / kMaxArenas)) {
      const uint64_t bytes = kPageSize * (1 + rng_.Below(4));
      uint64_t at = 0;
      {
        Tracer::Scope span(&tracer_, "VmMap::Map", "vm", loop_.op_index);
        AURORA_ASSIGN_OR_RETURN(at, a.proc->vm().Map(0, bytes, kProtRead | kProtWrite,
                                                     VmObject::CreateAnonymous(bytes), 0, true));
      }
      std::vector<uint8_t> data = PageContent(rng_.Next());
      AURORA_RETURN_IF_ERROR(VmWrite(a.proc, at, data.data(), kPageSize));
      arenas.emplace_back(at, bytes);
      return Status::Ok();
    }
    const size_t victim = rng_.Below(arenas.size());
    const auto [at, bytes] = arenas[victim];
    arenas.erase(arenas.begin() + static_cast<std::ptrdiff_t>(victim));
    Tracer::Scope span(&tracer_, "VmMap::Unmap", "vm", loop_.op_index);
    return a.proc->vm().Unmap(at, bytes);
  }

  std::vector<uint8_t> PageContent(uint64_t salt) {
    std::vector<uint8_t> page(kPageSize);
    Rng r(salt);
    for (uint64_t i = 0; i < kPageSize; i += 8) {
      const uint64_t v = r.Next();
      for (int b = 0; b < 8; b++) {
        page[i + static_cast<uint64_t>(b)] = static_cast<uint8_t>(v >> (8 * b));
      }
    }
    return page;
  }

  // Table 6's firefox profile, plus the pipe, access log and files the
  // requests use and each process's seeded hot set.
  Status BuildProfile() {
    Kernel* kernel = machine_->kernel.get();
    AppProfile profile;
    profile.name = "firefox";
    profile.rss_bytes = kRssBytes;
    profile.processes = kProcesses;
    profile.threads = kThreads;
    profile.map_entries = kMapEntries;
    profile.fds = kFds;
    profile.kqueues = kKqueues;
    const std::vector<Process*> tree = BuildAppProfile(*machine_, profile);
    // The region's initial content: DirtyRange wrote the page number's low
    // byte at the start of every page.
    std::vector<uint64_t> initial(256);
    std::vector<uint8_t> page(kPageSize, 0);
    for (size_t b = 0; b < initial.size(); b++) {
      page[0] = static_cast<uint8_t>(b);
      initial[b] = HashBytes(page.data(), kPageSize);
    }
    procs_.clear();
    for (size_t i = 0; i < tree.size(); i++) {
      AppProc a;
      a.proc = tree[i];
      Process& proc = *a.proc;
      const VmMapEntry* region = proc.vm().FindEntry(kRegionBase);
      if (region == nullptr || region->start != kRegionBase || region->size() != kRegionBytes) {
        return Status::Error(Errc::kBadState, "profile data region not where expected");
      }
      for (uint64_t p = 0; p < kRegionBytes / kPageSize; p++) {
        model_.Set(Key(i, p), initial[((kRegionBase >> kPageShift) + p) & 0xff]);
      }
      AURORA_ASSIGN_OR_RETURN(a.pipe, kernel->MakePipe(proc));
      AURORA_ASSIGN_OR_RETURN(a.access_log, kernel->Open(proc, "access-" + std::to_string(i) + ".log",
                                                         kOpenRead | kOpenWrite, true));
      for (int f = 0; f < kSeekFiles; f++) {
        AURORA_ASSIGN_OR_RETURN(int fd, kernel->Open(proc, "app-" + std::to_string(i) + "-" +
                                                               std::to_string(f),
                                                     kOpenRead | kOpenWrite, true));
        a.files.push_back(fd);
      }
      for (uint64_t h = 0; h < kHotPages; h++) {
        a.hot.push_back(rng_.Below(kRegionBytes / kPageSize));
      }
      procs_.push_back(std::move(a));
    }
    return Status::Ok();
  }

  // The application's group, streaming to the standby, with its full
  // baseline epoch shipped.
  Status StartGroup() {
    Sls* sls = machine_->sls.get();
    AURORA_ASSIGN_OR_RETURN(ConsistencyGroup * group, sls->CreateGroup("appserver"));
    for (AppProc& a : procs_) {
      AURORA_RETURN_IF_ERROR(sls->Attach(group, a.proc));
    }
    AURORA_RETURN_IF_ERROR(sls->SetBackend(group, "replica"));
    AURORA_ASSIGN_OR_RETURN(CheckpointResult base, TracedCheckpoint(group));
    if (base.aborted) {
      return Status::Error(Errc::kUnavailable, "baseline epoch aborted");
    }
    last_epoch_ = base.epoch;
    sim().clock.AdvanceTo(base.durable_at);
    Commit();
    ArmLoop(group);
    return Status::Ok();
  }

  // The primary host dies: requests since the last epoch are lost.
  void Crash() {
    for (Process* p : group_->processes) {
      machine_->kernel->DestroyProcess(p);
    }
    group_->processes.clear();
    model_.Rollback();
    for (AppProc& a : procs_) {
      a.now = a.committed;
    }
  }

  Status FailoverDrill() {
    Crash();
    attempted_++;
    const uint64_t pages_before = sim().metrics.CounterValue("repl.pages_applied");
    SlsCli cli(machine_->sls.get());
    Result<RestoreResult> promoted = Status::Error(Errc::kBadState, "not promoted");
    {
      Tracer::Scope span(&tracer_, "SlsCli::Promote", "core", last_epoch_);
      promoted = cli.Promote(group_->name(), "replica", /*force=*/true);
    }
    if (!promoted.ok()) {
      failed_++;
      CheckFailed("promotion failed: " + promoted.status().message());
      return promoted.status();
    }
    failover_delta_pages_ += sim().metrics.CounterValue("repl.pages_applied") - pages_before;
    restore_ms_.push_back(ToMillis(promoted->restore_time));
    if (promoted->epoch != last_epoch_) {
      CheckFailed("promoted epoch " + std::to_string(promoted->epoch) + ", last durable " +
                  std::to_string(last_epoch_));
    }
    if (sim().metrics.CounterValue("repl.torn_promotions") != 0) {
      CheckFailed("torn promotion");
    }
    Verify(promoted->group, "promotion");
    // Fail back: the standby returns to ingest duty and the recovered
    // primary pulls the promoted image back over the replica link, after
    // which the group streams to the standby again. Reusing the group keeps
    // the library's per-group snapshot map from pinning an image per drill.
    {
      Tracer::Scope span(&tracer_, "SlsCli::Demote", "core", last_epoch_);
      AURORA_RETURN_IF_ERROR(cli.Demote("replica"));
    }
    Result<RestoreResult> back = Status::Error(Errc::kBadState, "not failed back");
    {
      Tracer::Scope span(&tracer_, "Sls::Restore", "core", last_epoch_);
      back = machine_->sls->Restore(group_->name(), 0, RestoreMode::kFull, replica_);
    }
    if (!back.ok()) {
      failed_++;
      CheckFailed("failback restore failed: " + back.status().message());
      return back.status();
    }
    for (size_t i = 0; i < procs_.size() && i < back->group->processes.size(); i++) {
      procs_[i].proc = back->group->processes[i];
    }
    Verify(back->group, "failback");
    ArmLoop(back->group);
    return Status::Ok();
  }

  // The group's memory must hash to the model at the promoted epoch.
  void Verify(ConsistencyGroup* group, const char* what) {
    CheckTimer timer(this);
    if (group->processes.size() != procs_.size()) {
      CheckFailed(std::string(what) + ": wrong process count");
      return;
    }
    PageModel seen;
    std::vector<uint8_t> buf(64 * kKiB);
    for (size_t i = 0; i < procs_.size(); i++) {
      for (uint64_t off = 0; off < kRegionBytes; off += buf.size()) {
        if (!group->processes[i]->vm().Read(kRegionBase + off, buf.data(), buf.size()).ok()) {
          CheckFailed(std::string(what) + ": image unreadable");
          return;
        }
        for (uint64_t p = 0; p < buf.size() / kPageSize; p++) {
          seen.Set(Key(i, off / kPageSize + p), HashBytes(buf.data() + p * kPageSize, kPageSize));
        }
      }
    }
    if (seen.digest() != model_.digest()) {
      CheckFailed(std::string(what) + ": image differs from the primary at the promoted epoch");
    }
  }

  ReplicaLink link_;
  ReplicaStandby* standby_ = nullptr;
  CheckpointBackend* replica_ = nullptr;
  Rng rng_;
  std::vector<AppProc> procs_;
  std::vector<uint8_t> message_;
  PageModel model_;
  uint64_t last_epoch_ = 0;
  uint64_t input_digest_ = 0;
};

}  // namespace

std::unique_ptr<Workload> MakeAppStandby(uint64_t seed) {
  return std::make_unique<AppStandby>(seed);
}

}  // namespace aurora::perfbench
