// Figure 3: FileBench microbenchmarks — AuroraFS vs ZFS (+/- checksums) vs
// FFS(SU+J), all configured with 64 KiB blocks on the paper's striped
// NVMe array.
//
//   (a) 64 KiB random/sequential write throughput (GiB/s)
//   (b)  4 KiB random/sequential write throughput (GiB/s)
//   (c) createfiles and write+fsync operation rates (ops/s)
//   (d) fileserver / varmail / webserver personalities (ops/s)
#include <cstdio>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "src/base/rng.h"

namespace aurora {
namespace {

// Syscall entry/exit + copyin for one file system call.
constexpr SimDuration kSyscallCost = 2000;

struct FsUnderTest {
  std::string name;
  std::unique_ptr<BenchMachine> machine;      // for AuroraFS (owns the store)
  std::unique_ptr<MemBlockDevice> raw_device;  // for the baselines
  std::unique_ptr<BufferedFs> baseline;
  BufferedFs* fs = nullptr;
  SimContext* sim = nullptr;
  ObjectStore* store = nullptr;  // non-null for AuroraFS: periodic commits
};

std::vector<FsUnderTest> MakeFilesystems() {
  std::vector<FsUnderTest> out;
  {
    FsUnderTest zfs;
    zfs.name = "zfs";
    zfs.machine = std::make_unique<BenchMachine>(16 * kGiB);
    zfs.raw_device = std::make_unique<MemBlockDevice>(&zfs.machine->sim.clock,
                                                      (16 * kGiB) / kPageSize);
    zfs.baseline = std::make_unique<ZfsLikeFs>(&zfs.machine->sim, zfs.raw_device.get(),
                                               64 * kKiB, false);
    zfs.fs = zfs.baseline.get();
    zfs.sim = &zfs.machine->sim;
    out.push_back(std::move(zfs));
  }
  {
    FsUnderTest zfsc;
    zfsc.name = "zfs+csum";
    zfsc.machine = std::make_unique<BenchMachine>(16 * kGiB);
    zfsc.raw_device = std::make_unique<MemBlockDevice>(&zfsc.machine->sim.clock,
                                                       (16 * kGiB) / kPageSize);
    zfsc.baseline = std::make_unique<ZfsLikeFs>(&zfsc.machine->sim, zfsc.raw_device.get(),
                                                64 * kKiB, true);
    zfsc.fs = zfsc.baseline.get();
    zfsc.sim = &zfsc.machine->sim;
    out.push_back(std::move(zfsc));
  }
  {
    FsUnderTest ffs;
    ffs.name = "ffs";
    ffs.machine = std::make_unique<BenchMachine>(16 * kGiB);
    ffs.raw_device = std::make_unique<MemBlockDevice>(&ffs.machine->sim.clock,
                                                      (16 * kGiB) / kPageSize);
    ffs.baseline = std::make_unique<FfsLikeFs>(&ffs.machine->sim, ffs.raw_device.get(),
                                               64 * kKiB);
    ffs.fs = ffs.baseline.get();
    ffs.sim = &ffs.machine->sim;
    out.push_back(std::move(ffs));
  }
  {
    FsUnderTest aurora_fs;
    aurora_fs.name = "aurora";
    aurora_fs.machine = std::make_unique<BenchMachine>(16 * kGiB);
    aurora_fs.fs = aurora_fs.machine->fs.get();
    aurora_fs.sim = &aurora_fs.machine->sim;
    aurora_fs.store = aurora_fs.machine->store.get();
    out.push_back(std::move(aurora_fs));
  }
  return out;
}

// Runs `op` exactly `nops` times, flushing dirty data periodically like the
// kernel syncer (10 ms store checkpoints for Aurora, txg-style syncs for the
// baselines) with dirty-data backpressure. Returns GiB/s of payload.
double RunLoop(FsUnderTest& f, uint64_t nops, double* seconds_out,
               const std::function<uint64_t()>& op) {
  SimClock& clock = f.sim->clock;
  SimTime start = clock.now();
  SimDuration sync_period = f.store != nullptr ? 10 * kMillisecond : 5 * kSecond;
  SimTime next_sync = clock.now() + sync_period;
  uint64_t bytes = 0;
  for (uint64_t i = 0; i < nops; i++) {
    clock.Advance(kSyscallCost);
    bytes += op();
    if (clock.now() >= next_sync || f.fs->DirtyBytes() > 128 * kMiB) {
      auto done = f.fs->FlushAll();
      if (done.ok() && f.fs->DirtyBytes() > 128 * kMiB) {
        clock.AdvanceTo(*done);  // backpressure: writer waits for the device
      }
      if (f.store != nullptr) {
        AURORA_IGNORE_STATUS(f.store->CommitCheckpoint(""), "steady-state retention churn; failures would skew the figures visibly");
        AURORA_IGNORE_STATUS(f.store->DeleteCheckpointsBefore(f.store->current_epoch() - 1), "steady-state retention churn; failures would skew the figures visibly");
      }
      next_sync = clock.now() + sync_period;
    }
  }
  double seconds = ToSeconds(clock.now() - start);
  if (seconds_out != nullptr) {
    *seconds_out = seconds;
  }
  return static_cast<double>(bytes) / seconds / static_cast<double>(kGiB);
}

double WriteBench(FsUnderTest& f, uint64_t io_size, bool random) {
  auto vn = *f.fs->Create("bigfile-" + std::to_string(io_size) + (random ? "r" : "s"));
  const uint64_t file_size = 256 * kMiB;
  std::vector<uint8_t> buf(io_size, 0xd1);
  Rng rng(42);
  uint64_t off = 0;
  uint64_t nops = io_size >= 64 * kKiB ? 4096 : 16384;
  return RunLoop(f, nops, nullptr, [&]() {
    uint64_t pos = random ? (rng.Below(file_size / io_size)) * io_size : off;
    off = (off + io_size) % file_size;
    AURORA_IGNORE_STATUS(vn->Write(pos, buf.data(), buf.size()), "workload I/O into a mapping created above");
    return io_size;
  });
}

void Cleanup(FsUnderTest& f) {
  AURORA_IGNORE_STATUS(f.fs->FlushAll(), "best-effort flush inside the workload loop");
  if (f.store != nullptr) {
    AURORA_IGNORE_STATUS(f.store->CommitCheckpoint(""), "steady-state retention churn; failures would skew the figures visibly");
    AURORA_IGNORE_STATUS(f.store->DeleteCheckpointsBefore(f.store->current_epoch() - 1), "steady-state retention churn; failures would skew the figures visibly");
  }
  f.fs->DropCleanCache();
}

double CreateFilesBench(FsUnderTest& f) {
  uint64_t n = 0;
  double seconds = 0;
  const uint64_t nops = 4000;
  RunLoop(f, nops, &seconds, [&]() {
    auto vn = f.fs->Create("dir/f" + std::to_string(n++));
    if (vn.ok()) {
      AURORA_IGNORE_STATUS((*vn)->Write(0, "x", 1), "workload I/O into a mapping created above");
    }
    return uint64_t{1};
  });
  return static_cast<double>(nops) / seconds;
}

double FsyncBench(FsUnderTest& f, uint64_t io_size) {
  auto vn = *f.fs->Create("synced-" + std::to_string(io_size));
  std::vector<uint8_t> buf(io_size, 0x9e);
  uint64_t off = 0;
  double seconds = 0;
  const uint64_t nops = 3000;
  RunLoop(f, nops, &seconds, [&]() {
    AURORA_IGNORE_STATUS(vn->Write(off, buf.data(), buf.size()), "workload I/O into a mapping created above");
    off += io_size;
    if (off > 64 * kMiB) {
      off = 0;
    }
    AURORA_IGNORE_STATUS(vn->Fsync(), "best-effort flush inside the workload loop");
    return io_size;
  });
  return static_cast<double>(nops) / seconds;
}

// FileBench personalities: op mixes from the classic workload definitions.
double Personality(FsUnderTest& f, const std::string& kind) {
  Rng rng(7);
  std::vector<std::shared_ptr<Vnode>> files;
  for (int i = 0; i < 64; i++) {
    files.push_back(*f.fs->Create(kind + "-f" + std::to_string(i)));
    std::vector<uint8_t> init(64 * kKiB, 1);
    AURORA_IGNORE_STATUS(files.back()->Write(0, init.data(), init.size()), "workload I/O into a mapping created above");
  }
  std::vector<uint8_t> buf(16 * kKiB, 0x3c);
  double seconds = 0;
  uint64_t seq = 1000;
  const uint64_t nops = 3000;
  RunLoop(f, nops, &seconds, [&]() {
    auto& vn = files[rng.Below(files.size())];
    if (kind == "fileserver") {
      // create/write/read/append/stat/delete-ish mix, no fsync.
      switch (rng.Below(6)) {
        case 0:
          AURORA_IGNORE_STATUS(vn->Write(rng.Below(32) * 16 * kKiB, buf.data(), buf.size()), "workload I/O into a mapping created above");
          break;
        case 1:
          AURORA_IGNORE_STATUS(vn->Read(rng.Below(32) * 16 * kKiB, buf.data(), buf.size()), "workload I/O into a mapping created above");
          break;
        case 2:
          AURORA_IGNORE_STATUS(vn->Write(vn->size(), buf.data(), buf.size()), "workload I/O into a mapping created above");
          break;
        case 3:
        case 4:
          AURORA_IGNORE_STATUS(vn->Read(rng.Below(32) * 16 * kKiB, buf.data(), 4 * kKiB), "workload I/O into a mapping created above");
          break;
        case 5: {
          auto nv = f.fs->Create(kind + "-n" + std::to_string(seq++));
          if (nv.ok()) {
            AURORA_IGNORE_STATUS((*nv)->Write(0, buf.data(), 4 * kKiB), "workload I/O into a mapping created above");
          }
          break;
        }
      }
    } else if (kind == "varmail") {
      // Mail server: small writes with fsync after each delivery.
      AURORA_IGNORE_STATUS(vn->Write(vn->size() % (1 * kMiB), buf.data(), 8 * kKiB), "workload I/O into a mapping created above");
      AURORA_IGNORE_STATUS(vn->Fsync(), "best-effort flush inside the workload loop");
      AURORA_IGNORE_STATUS(vn->Read(0, buf.data(), 8 * kKiB), "workload I/O into a mapping created above");
    } else {  // webserver
      // Read-mostly with a shared append-only log.
      AURORA_IGNORE_STATUS(vn->Read(rng.Below(32) * 16 * kKiB, buf.data(), buf.size()), "workload I/O into a mapping created above");
      AURORA_IGNORE_STATUS(vn->Read(rng.Below(32) * 16 * kKiB, buf.data(), buf.size()), "workload I/O into a mapping created above");
      AURORA_IGNORE_STATUS(files[0]->Write(files[0]->size(), buf.data(), 512), "workload I/O into a mapping created above");
    }
    return uint64_t{1};
  });
  return static_cast<double>(nops) / seconds;
}

}  // namespace
}  // namespace aurora

int main() {
  aurora::BenchReport report("fig3_filebench");
  using namespace aurora;
  // Every printed cell is also a results row. The figure states shapes, not
  // values, so each row's paper value is 0.
  auto record = [&report](const std::string& fs, const char* column, double measured,
                          const char* unit) {
    report.AddResult(fs + " " + column, measured, 0, unit);
  };
  PrintHeader("Figure 3(a,b): write throughput, GiB/s (paper shape: Aurora > FFS > ZFS at\n"
              "64 KiB; FFS > Aurora > ZFS at 4 KiB)");
  std::printf("  %-10s | %8s %8s | %8s %8s\n", "fs", "64K-rand", "64K-seq", "4K-rand", "4K-seq");
  for (auto& f : MakeFilesystems()) {
    double r64 = WriteBench(f, 64 * kKiB, true);
    Cleanup(f);
    double s64 = WriteBench(f, 64 * kKiB, false);
    Cleanup(f);
    double r4 = WriteBench(f, 4 * kKiB, true);
    Cleanup(f);
    double s4 = WriteBench(f, 4 * kKiB, false);
    Cleanup(f);
    std::printf("  %-10s | %8.2f %8.2f | %8.2f %8.2f\n", f.name.c_str(), r64, s64, r4, s4);
    record(f.name, "64K-rand", r64, "GiB/s");
    record(f.name, "64K-seq", s64, "GiB/s");
    record(f.name, "4K-rand", r4, "GiB/s");
    record(f.name, "4K-seq", s4, "GiB/s");
  }

  PrintHeader("Figure 3(c): metadata operations, ops/s (paper shape: Aurora slowest on\n"
              "createfiles (global lock), fastest on fsync (no-op))");
  std::printf("  %-10s | %12s %12s %12s\n", "fs", "createfiles", "fsync-4K", "fsync-64K");
  for (auto& f : MakeFilesystems()) {
    double create = CreateFilesBench(f);
    Cleanup(f);
    double f4 = FsyncBench(f, 4 * kKiB);
    Cleanup(f);
    double f64 = FsyncBench(f, 64 * kKiB);
    Cleanup(f);
    std::printf("  %-10s | %12.0f %12.0f %12.0f\n", f.name.c_str(), create, f4, f64);
    record(f.name, "createfiles", create, "ops/s");
    record(f.name, "fsync-4K", f4, "ops/s");
    record(f.name, "fsync-64K", f64, "ops/s");
  }

  PrintHeader("Figure 3(d): simulated applications, ops/s (paper shape: comparable on\n"
              "fileserver/webserver; Aurora wins varmail because fsync is free)");
  std::printf("  %-10s | %12s %12s %12s\n", "fs", "fileserver", "varmail", "webserver");
  for (auto& f : MakeFilesystems()) {
    double fsrv = Personality(f, "fileserver");
    Cleanup(f);
    double mail = Personality(f, "varmail");
    Cleanup(f);
    double web = Personality(f, "webserver");
    Cleanup(f);
    std::printf("  %-10s | %12.0f %12.0f %12.0f\n", f.name.c_str(), fsrv, mail, web);
    record(f.name, "fileserver", fsrv, "ops/s");
    record(f.name, "varmail", mail, "ops/s");
    record(f.name, "webserver", web, "ops/s");
  }
  return 0;
}
