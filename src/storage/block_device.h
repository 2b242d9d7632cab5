// Simulated block devices.
//
// The paper's testbed stripes four Intel Optane 900P NVMe devices at 64 KiB.
// We model each device as a sparse in-memory block array plus a timeline:
// an I/O submitted at simulated time T occupies the device for
// bytes/bandwidth and completes after an additional fixed latency. Multiple
// outstanding I/Os pipeline, which is how the checkpoint flusher overlaps
// writes with application execution.
//
// Crash injection: tests arm a write-count fuse; once it blows, the fused
// write is torn (first half applied) and all later writes are dropped. This
// models power loss mid-flush for recovery testing.
#ifndef SRC_STORAGE_BLOCK_DEVICE_H_
#define SRC_STORAGE_BLOCK_DEVICE_H_

#include <array>
#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "src/base/cost_model.h"
#include "src/base/result.h"
#include "src/base/sim_clock.h"
#include "src/base/units.h"
#include "src/obs/metrics.h"
#include "src/storage/fault_injector.h"

namespace aurora {

struct DeviceProfile {
  SimDuration read_latency = 10 * kMicrosecond;
  SimDuration write_latency = 26 * kMicrosecond;
  double read_bytes_per_ns = 2.9;
  double write_bytes_per_ns = 2.575;
  // Channel occupancy per command beyond the transfer itself: small random
  // I/O cannot reach streaming bandwidth (4 KiB writes top out at ~500k
  // IOPS per device).
  SimDuration command_overhead = 2 * kMicrosecond;
  // Aggregate media/PCIe bandwidth shared by all submission queues of one
  // device. The per-queue rates above are what a single submitter observes
  // (queue-depth limited); extra queues scale throughput until this channel
  // saturates. Zero means uncapped (single-queue callers never hit it).
  double channel_bytes_per_ns = 0;
};

// Submission queues per device, each with its own timeline from the moment
// the device is built. Queue ids fold modulo this count, which is above the
// paper testbed's core count (SimContext::ncpus caps the flush lanes), so
// no two lanes share a queue there.
inline constexpr uint32_t kDeviceQueues = 64;

struct DeviceStats {
  uint64_t reads = 0;
  uint64_t writes = 0;
  uint64_t bytes_read = 0;
  uint64_t bytes_written = 0;
};

class BlockDevice {
 public:
  virtual ~BlockDevice() = default;

  virtual uint32_t block_size() const = 0;
  virtual uint64_t block_count() const = 0;

  // Submits an I/O on submission queue `queue` (modulo kDeviceQueues). A
  // write is submitted at `submit`, which is never earlier than now: a
  // flush lane submits a block when its CPU work on it ends, which may lie
  // ahead of the application's clock. A read is submitted now. Data moves
  // immediately (host memory); the returned SimTime is when the device
  // reports completion. Queues have independent timelines, so I/Os on
  // different queues pipeline. Callers that need durability wait for the
  // completion (WriteSync) or collect completion times and wait for the max
  // (async checkpoint flush).
  [[nodiscard]] virtual Result<SimTime> WriteAsync(uint32_t queue, SimTime submit, uint64_t lba,
                                                   const void* data, uint32_t nblocks) = 0;
  [[nodiscard]] virtual Result<SimTime> ReadAsync(uint32_t queue, uint64_t lba, void* out,
                                                  uint32_t nblocks) = 0;

  // Queue-0 submissions that wait for their completion.
  [[nodiscard]] Status WriteSync(uint64_t lba, const void* data, uint32_t nblocks);
  [[nodiscard]] Status ReadSync(uint64_t lba, void* out, uint32_t nblocks);

  // Attaches a deterministic fault-injection profile (see fault_injector.h),
  // replacing any previous one. Striped devices fan the rules out to every
  // child with per-child decorrelated seeds. Devices without fault modeling
  // ignore the call.
  virtual void InstallFaults(uint64_t seed, const std::vector<FaultRule>& rules) {
    (void)seed;
    (void)rules;
  }
  // Removes any installed injector, including its sticky latent marks
  // (models swapping in healthy media).
  virtual void ClearFaults() {}
  // The device's own injector, or nullptr when none is installed (composite
  // devices expose their children's injectors instead).
  virtual FaultInjector* fault_injector() { return nullptr; }

  virtual SimClock* clock() = 0;
  // Snapshot of the device counters. Returned by value: striped devices
  // merge their children on demand, and a reference would be silently
  // invalidated by the next call while callers hold it across IOs.
  virtual DeviceStats stats() const = 0;
};

// Sparse in-memory device with the timeline model described above.
class MemBlockDevice : public BlockDevice {
 public:
  MemBlockDevice(SimClock* clock, uint64_t block_count, uint32_t block_size = kPageSize,
                 DeviceProfile profile = DeviceProfile());

  uint32_t block_size() const override { return block_size_; }
  uint64_t block_count() const override { return block_count_; }

  [[nodiscard]] Result<SimTime> WriteAsync(uint32_t queue, SimTime submit, uint64_t lba,
                                           const void* data, uint32_t nblocks) override;
  [[nodiscard]] Result<SimTime> ReadAsync(uint32_t queue, uint64_t lba, void* out,
                                          uint32_t nblocks) override;

  SimClock* clock() override { return clock_; }
  DeviceStats stats() const override { return stats_; }

  void InstallFaults(uint64_t seed, const std::vector<FaultRule>& rules) override;
  void ClearFaults() override { injector_.reset(); }
  FaultInjector* fault_injector() override { return injector_.get(); }

  // Mirrors per-IO counters and channel-queue delay histograms into the
  // machine-wide registry ("device.*" namespace).
  void set_metrics(MetricsRegistry* metrics) {
    metrics_ = metrics;
    if (injector_) {
      injector_->set_metrics(metrics);
    }
  }

  // Crash injection: after `n` further block writes succeed, the next write
  // is torn (only its first half is applied) and all subsequent writes are
  // silently dropped, as if power was lost. DisarmCrash() restores service
  // (models reboot with the same media).
  void CrashAfterWrites(uint64_t n) {
    crash_armed_ = true;
    writes_until_crash_ = n;
    crashed_ = false;
  }
  void DisarmCrash() {
    crash_armed_ = false;
    crashed_ = false;
  }
  bool crashed() const { return crashed_; }

  // Approximate host memory used by written blocks (for tests).
  size_t ResidentBlocks() const { return blocks_.size(); }

 private:
  // The transfer starts at max(submit, queue free). `stretch` multiplies
  // the transfer time (tail-latency injection); the exact 1.0 of the
  // no-fault path leaves the timeline bit-identical.
  SimTime CompleteIo(uint32_t queue, SimTime submit, uint64_t bytes, SimDuration latency,
                     double bw, double stretch = 1.0);

  SimClock* clock_;
  uint64_t block_count_;
  uint32_t block_size_;
  DeviceProfile profile_;
  DeviceStats stats_;
  MetricsRegistry* metrics_ = nullptr;
  std::unique_ptr<FaultInjector> injector_;
  // Per-submission-queue timelines, all idle from construction: when each
  // queue is free for its next transfer. A caller that uses one queue sees
  // a serial device.
  std::array<SimTime, kDeviceQueues> queue_free_{};
  // Shared media/PCIe occupancy across queues; only binds when the profile
  // sets channel_bytes_per_ns and more than one queue is active.
  SimTime channel_busy_ = 0;

  bool crash_armed_ = false;
  bool crashed_ = false;
  uint64_t writes_until_crash_ = 0;

  std::unordered_map<uint64_t, std::vector<uint8_t>> blocks_;
};

// RAID-0 over identical children with a fixed stripe unit (paper: 64 KiB).
// Bandwidth aggregates because children timelines advance independently.
class StripedDevice : public BlockDevice {
 public:
  StripedDevice(std::vector<std::unique_ptr<BlockDevice>> children, uint32_t stripe_bytes);

  uint32_t block_size() const override { return block_size_; }
  uint64_t block_count() const override { return block_count_; }

  [[nodiscard]] Result<SimTime> WriteAsync(uint32_t queue, SimTime submit, uint64_t lba,
                                           const void* data, uint32_t nblocks) override;
  [[nodiscard]] Result<SimTime> ReadAsync(uint32_t queue, uint64_t lba, void* out,
                                          uint32_t nblocks) override;

  SimClock* clock() override { return children_[0]->clock(); }
  DeviceStats stats() const override;

  void InstallFaults(uint64_t seed, const std::vector<FaultRule>& rules) override;
  void ClearFaults() override;

  // Children, for tests that inspect per-child injectors.
  size_t child_count() const { return children_.size(); }
  BlockDevice* child(size_t i) { return children_[i].get(); }

 private:
  // Maps a logical block to (child index, child lba).
  std::pair<size_t, uint64_t> MapBlock(uint64_t lba) const;

  template <typename Op>
  [[nodiscard]] Result<SimTime> ForEachRun(uint64_t lba, uint32_t nblocks, Op op);

  std::vector<std::unique_ptr<BlockDevice>> children_;
  uint32_t stripe_blocks_;
  uint32_t block_size_;
  uint64_t block_count_;
};

// Builds the paper's storage configuration: four NVMe devices striped at
// 64 KiB, with total capacity `total_bytes`. With `metrics` non-null, every
// child device reports into it ("device.*").
std::unique_ptr<BlockDevice> MakePaperTestbedStore(SimClock* clock, uint64_t total_bytes,
                                                   uint32_t block_size = kPageSize,
                                                   MetricsRegistry* metrics = nullptr);

}  // namespace aurora

#endif  // SRC_STORAGE_BLOCK_DEVICE_H_
