// kv_etc: the memcached KvServer under the Facebook ETC mix, open-loop
// Poisson arrivals, transparent 10 ms checkpoints to the local store with
// page-granular (4 KiB) blocks — the Fig. 4/5 scenario.
#include <memory>

#include "perfbench/workload.h"
#include "src/apps/kv_server.h"
#include "src/apps/workloads.h"

namespace aurora::perfbench {
namespace {

constexpr uint64_t kKeys = 64 << 10;
constexpr uint64_t kValueSize = 200;
constexpr SimDuration kAggregateOpCpu = 920;  // 12-worker pipeline, as in fig5
constexpr SimDuration kWorkerCpu = 11 * kMicrosecond;
constexpr uint64_t kTableBase = 0x100000000ull;  // KvServer's fixed layout
constexpr uint64_t kSlabBase = 0x200000000ull;
constexpr int kRestoreRepeats = 5;
// Client connections come and go: a mean-reverting random walk of the
// server's socket count, so the OS state each checkpoint serializes varies
// by epoch.
constexpr double kConnectionChurn = 0.002;  // per request
constexpr size_t kMaxConnections = 64;

Shape KvShape() {
  Shape s;
  s.ref_rate = 120000;  // the paper's Fig. 5 rate
  s.round_length = 250 * kMillisecond;
  s.sweep_start = 280000;
  s.sweep_length = 150 * kMillisecond;
  s.slo_p99_us = 4000;
  s.nominal_round_host_s = 1.1;
  return s;
}

class KvEtc : public Workload {
 public:
  explicit KvEtc(uint64_t seed) : Workload("kv_etc", seed, KvShape()) {}

  Status Setup() override {
    Adopt(std::make_unique<BenchMachine>(8 * kGiB, 4096));
    KvServerConfig config;
    config.num_keys = kKeys;
    config.value_size = kValueSize;
    config.op_cpu = kAggregateOpCpu;
    server_ = std::make_unique<KvServer>(&sim(), machine_->kernel.get(), config);
    AURORA_RETURN_IF_ERROR(server_->Warmup());
    AURORA_ASSIGN_OR_RETURN(ConsistencyGroup * group, machine_->sls->CreateGroup("memcached"));
    AURORA_RETURN_IF_ERROR(machine_->sls->Attach(group, server_->process()));
    RetentionPolicy retention;
    retention.keep_epochs = kRetainedEpochs;
    machine_->sls->SetRetentionPolicy(group, retention);
    machine_->sls->SetAutoGc(false);
    AURORA_ASSIGN_OR_RETURN(CheckpointResult first, machine_->sls->Checkpoint(group));
    sim().clock.AdvanceTo(first.durable_at);
    etc_ = std::make_unique<EtcWorkload>(kKeys, seed_);
    ArmLoop(group);
    live_bytes_ = TableBytes() + SlabBytes();
    return Status::Ok();
  }

  Status Round(int round) override {
    sample_space_ = round >= rounds_measured_ / 2;
    return RunReferenceWindow();
  }

  Status Finish() override {
    // Crash-restore check: the restored KV memory must hash equal to the
    // memory at the last durable epoch, not to the later, lost updates.
    AURORA_ASSIGN_OR_RETURN(CheckpointResult last, TracedCheckpoint(group_));
    sim().clock.AdvanceTo(last.durable_at);
    uint64_t durable_hash = 0;
    {
      CheckTimer timer(this);
      AURORA_ASSIGN_OR_RETURN(durable_hash, HashKvMemory(server_->process()));
    }
    for (uint64_t k = 0; k < 256; k++) {
      auto lost = server_->ExecuteSet(k, 0xEE);
      if (!lost.ok()) {
        return lost.status();
      }
    }
    for (Process* p : group_->processes) {
      machine_->kernel->DestroyProcess(p);
    }
    group_->processes.clear();
    for (int i = 0; i < 2 * kRestoreRepeats; i++) {
      const RestoreMode mode = i < kRestoreRepeats ? RestoreMode::kFull : RestoreMode::kLazy;
      auto restored = TracedRestore("memcached", mode);
      if (!restored.ok()) {
        CheckFailed("restore from the store failed: " + restored.status().message());
        continue;
      }
      CheckTimer timer(this);
      if (restored->group->processes.size() != 1) {
        CheckFailed("restored group does not hold exactly the server process");
        continue;
      }
      auto hash = HashKvMemory(restored->group->processes[0]);
      if (!hash.ok() || *hash != durable_hash) {
        CheckFailed("restored KV memory differs from the last durable epoch");
      }
    }
    return Status::Ok();
  }

  uint64_t InputDigest() const override { return input_digest_; }

 protected:
  Result<SimDuration> Op(uint64_t index) override {
    KvRequest req = etc_->Next();
    input_digest_ = PageModel::Mix(input_digest_ ^ req.key, static_cast<uint64_t>(req.op));
    const bool set = req.op == KvOp::kSet;
    Result<SimDuration> service = SimDuration{0};
    {
      Tracer::Scope span(&tracer_, "KvServer::Execute", "apps", index);
      service = set ? server_->ExecuteSet(req.key, static_cast<uint8_t>(req.key ^ seed_))
                    : server_->ExecuteGet(req.key);
    }
    AURORA_RETURN_IF_ERROR(service.status());
    if (rng_.NextBool(kConnectionChurn)) {
      AURORA_RETURN_IF_ERROR(ChurnConnection());
    }
    kv_ops_++;
    app_bytes_written_ += set ? kValueSize + sizeof(uint64_t) : sizeof(uint64_t);
    // Client-observed latency: network RTT plus one worker's full service
    // time; the clock only paced the ops at the 12-worker aggregate rate.
    return sim().cost.net_rtt + kWorkerCpu - kAggregateOpCpu;
  }

 private:
  static constexpr uint64_t kRetainedEpochs = 16;

  Status ChurnConnection() {
    Kernel* kernel = machine_->kernel.get();
    Process* proc = server_->process();
    // Opening gets likelier the fewer are open: the count reverts to half
    // the maximum, so every seed sees the same distribution over time.
    const double open_odds = 1.0 - static_cast<double>(conns_.size()) / kMaxConnections;
    if (rng_.NextBool(open_odds)) {
      Tracer::Scope span(&tracer_, "Kernel::MakeSocket", "posix", loop_.op_index);
      AURORA_ASSIGN_OR_RETURN(int fd, kernel->MakeSocket(*proc, SocketDomain::kInet, SocketProto::kTcp));
      conns_.push_back(fd);
      return Status::Ok();
    }
    const size_t victim = rng_.Below(conns_.size());
    const int fd = conns_[victim];
    conns_.erase(conns_.begin() + static_cast<std::ptrdiff_t>(victim));
    Tracer::Scope span(&tracer_, "Kernel::Close", "posix", loop_.op_index);
    return kernel->Close(*proc, fd);
  }

  static uint64_t TableBytes() { return PageRound(kKeys * 64); }
  static uint64_t SlabBytes() { return PageRound(kKeys * (64 + kValueSize)); }

  static Result<uint64_t> HashKvMemory(Process* proc) {
    std::vector<uint8_t> buf(64 * kKiB);
    uint64_t h = 0;
    for (auto [base, len] : {std::pair{kTableBase, TableBytes()}, std::pair{kSlabBase, SlabBytes()}}) {
      for (uint64_t off = 0; off < len; off += buf.size()) {
        uint64_t n = std::min<uint64_t>(buf.size(), len - off);
        AURORA_RETURN_IF_ERROR(proc->vm().Read(base + off, buf.data(), n));
        h = HashBytes(buf.data(), n, h);
      }
    }
    return h;
  }

  std::unique_ptr<KvServer> server_;
  std::unique_ptr<EtcWorkload> etc_;
  Rng rng_{seed_ ^ 0xc0ffeeull};
  std::vector<int> conns_;  // open client connections
  uint64_t input_digest_ = 0;
};

}  // namespace

std::unique_ptr<Workload> MakeKvEtc(uint64_t seed) { return std::make_unique<KvEtc>(seed); }

}  // namespace aurora::perfbench
