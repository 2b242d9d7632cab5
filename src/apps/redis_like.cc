#include "src/apps/redis_like.h"

#include <algorithm>
#include <cstring>
#include <vector>

namespace aurora {

namespace {
// RDB serialization walks every object, formats it, and writes through the
// libc stream: an effective ~1.75 GB/s on the paper's hardware (Table 7's
// 300 ms for 500 MB: "3x slower than Aurora because of serialization
// overheads").
constexpr double kRdbSerializeBytesPerNs = 1.75;
}  // namespace

RedisLike::RedisLike(SimContext* sim, Kernel* kernel, uint64_t num_keys, uint64_t value_size)
    : sim_(sim), kernel_(kernel), num_keys_(num_keys), value_size_(value_size) {
  slot_size_ = 16 + value_size_;  // key header + value
  proc_ = *kernel_->CreateProcess("redis");
  uint64_t region = PageRound(num_keys_ * slot_size_ + kPageSize);
  auto obj = VmObject::CreateAnonymous(region);
  base_ = *proc_->vm().Map(0x10000000, region, kProtRead | kProtWrite, obj, 0,
                           /*copy_on_write=*/true);
  // Populate: every slot written once, like a loaded Redis instance. The
  // writes land in a mapping this constructor just created, so they cannot
  // fail short of a simulator bug — but a constructor cannot propagate, so
  // any failure is counted where the benches (and tests) can see it.
  std::vector<uint8_t> slot(slot_size_);
  for (uint64_t k = 0; k < num_keys_; k++) {
    std::memset(slot.data(), static_cast<int>(k & 0xff), slot.size());
    Status wrote = proc_->vm().Write(SlotAddr(k), slot.data(), slot.size());
    if (!wrote.ok()) {
      sim_->metrics.counter("redis.populate_failures").Add(1);
    }
  }
}

Status RedisLike::Set(uint64_t key, uint8_t fill) {
  if (key >= num_keys_) {
    return Status::Error(Errc::kOutOfRange, "no such key");
  }
  std::vector<uint8_t> value(value_size_, fill);
  return proc_->vm().Write(SlotAddr(key) + 16, value.data(), value.size());
}

Result<uint8_t> RedisLike::Get(uint64_t key) {
  if (key >= num_keys_) {
    return Status::Error(Errc::kOutOfRange, "no such key");
  }
  uint8_t byte = 0;
  AURORA_RETURN_IF_ERROR(proc_->vm().Read(SlotAddr(key) + 16, &byte, 1));
  return byte;
}

Result<RdbSaveResult> RedisLike::BgSave(BlockDevice* device) {
  RdbSaveResult result;

  // fork(): the parent stalls while every resident PTE is copied and
  // write-protected — this is the RDB "stop time" of Table 7.
  SimStopwatch fork_watch(sim_->clock);
  AURORA_ASSIGN_OR_RETURN(Process* child, kernel_->Fork(*proc_));
  result.fork_stop_time = fork_watch.Elapsed();

  // Child: walk the dictionary, serialize, write the RDB file. The parent
  // keeps running (simulated time advances; COW isolates it).
  SimStopwatch save_watch(sim_->clock);
  result.rdb_bytes = dataset_bytes();
  sim_->clock.Advance(static_cast<SimDuration>(static_cast<double>(result.rdb_bytes) /
                                               kRdbSerializeBytesPerNs));
  // The child really reads its (COW-shared) pages — a sampled walk keeps the
  // host-time cost of the simulation reasonable while touching real memory.
  // The read targets the child's freshly forked image (resident by
  // construction); a failure means the fork is corrupt and the save must be
  // abandoned like any other RDB error.
  uint8_t sink = 0;
  for (uint64_t k = 0; k < num_keys_; k += std::max<uint64_t>(1, num_keys_ / 1024)) {
    uint8_t b = 0;
    Status read = child->vm().Read(SlotAddr(k), &b, 1);
    if (!read.ok()) {
      kernel_->DestroyProcess(child);
      return read;
    }
    sink ^= b;
  }
  (void)sink;
  // Issue the image writes to the device. A failed write aborts the save —
  // redis discards a partial RDB file rather than advertising it as durable.
  uint64_t blocks = result.rdb_bytes / device->block_size() + 1;
  std::vector<uint8_t> chunk(device->block_size() * 64, 0);
  for (uint64_t b = 0; b < blocks; b += 64) {
    uint32_t n = static_cast<uint32_t>(std::min<uint64_t>(64, blocks - b));
    if (b + n < device->block_count()) {
      Result<SimTime> wrote = device->WriteAsync(0, sim_->clock.now(), b, chunk.data(), n);
      if (!wrote.ok()) {
        kernel_->DestroyProcess(child);
        return wrote.status();
      }
    }
  }
  result.child_save_time = save_watch.Elapsed();

  kernel_->DestroyProcess(child);
  return result;
}

}  // namespace aurora
