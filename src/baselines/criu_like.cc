#include "src/baselines/criu_like.h"

#include <set>
#include <vector>

namespace aurora {

namespace {
// Parsing one /proc/pid/pagemap entry batch (CRIU reads pagemap to learn
// which pages are resident/dirty). Calibrated with the rest of the OS-state
// phase to Table 1's 49 ms for a 500 MB Redis.
constexpr SimDuration kPagemapPerPage = 370;
}  // namespace

Result<CriuBreakdown> CriuLike::Checkpoint(const std::vector<Process*>& procs) {
  CriuBreakdown result;
  const CostModel& cost = sim_->cost;
  SimStopwatch stop_total(sim_->clock);

  // --- Freeze: ptrace-seize every task --------------------------------------
  for (Process* proc : procs) {
    for (auto& t : proc->threads()) {
      (void)t;
      sim_->clock.Advance(cost.criu_object_query);  // PTRACE_SEIZE+INTERRUPT
      result.objects_queried++;
    }
  }
  kernel_->Quiesce(procs);

  // --- OS state: procfs parsing + sharing inference --------------------------
  SimStopwatch stop_os(sim_->clock);
  // Already-seen open-file entries; each new fd is compared against all of
  // them (CRIU's kcmp-based dedup) because the kernel object graph is not
  // visible from userspace.
  std::vector<uint64_t> seen_descriptions;
  uint64_t total_pages = 0;
  for (Process* proc : procs) {
    // /proc/pid/{stat,status,maps,auxv,...}
    for (int f = 0; f < 6; f++) {
      sim_->clock.Advance(cost.criu_object_query);
      result.objects_queried++;
    }
    for (auto& t : proc->threads()) {
      (void)t;
      sim_->clock.Advance(cost.criu_object_query);  // per-task GETREGSET
      result.objects_queried++;
    }
    for (const auto& slot : proc->fds().slots()) {
      if (slot.desc == nullptr) {
        continue;
      }
      // /proc/pid/fdinfo/N + kcmp comparisons against every seen entry.
      sim_->clock.Advance(cost.criu_object_query);
      result.objects_queried++;
      for (uint64_t kid : seen_descriptions) {
        (void)kid;
        sim_->clock.Advance(cost.cacheline_miss + cost.lock_acquire);
        result.sharing_comparisons++;
      }
      seen_descriptions.push_back(slot.desc->kernel_id);
    }
    for (const auto& [start, entry] : proc->vm().entries()) {
      sim_->clock.Advance(cost.criu_object_query / 8);  // one maps line
      // pagemap walk over the whole entry.
      uint64_t pages = entry.size() / kPageSize;
      sim_->clock.Advance(kPagemapPerPage * pages);
      std::shared_ptr<VmObject> obj = entry.object;
      while (obj != nullptr) {
        total_pages += obj->ResidentPages();
        obj = obj->parent_ref();
      }
    }
  }
  result.os_state_time = stop_os.Elapsed();

  // --- Memory: stream every resident page through the dump pipe --------------
  // This is the defining difference from Aurora: the copy happens while the
  // application is frozen, with no COW to hide it.
  SimStopwatch stop_mem(sim_->clock);
  uint64_t mem_bytes = total_pages * kPageSize;
  sim_->clock.Advance(static_cast<SimDuration>(static_cast<double>(mem_bytes) /
                                               cost.criu_mem_copy_bytes_per_ns));
  result.memory_copy_time = stop_mem.Elapsed();

  kernel_->Resume(procs);
  result.total_stop_time = stop_total.Elapsed();

  // --- Image writeout (after resume; CRIU does not flush caches) -------------
  result.image_bytes = mem_bytes + result.objects_queried * 512;
  SimStopwatch io(sim_->clock);
  // Issue the writes so the device sees the load too; a failed image write
  // fails the whole dump (criu exits nonzero), and the dump is not finished
  // until the last write completes.
  uint64_t blocks = result.image_bytes / device_->block_size() + 1;
  std::vector<uint8_t> chunk(device_->block_size() * 64, 0);
  SimTime last_write_done = sim_->clock.now();
  for (uint64_t b = 0; b < blocks; b += 64) {
    uint32_t n = static_cast<uint32_t>(std::min<uint64_t>(64, blocks - b));
    if (next_image_lba_ + b + n >= device_->block_count()) {
      next_image_lba_ = 0;
    }
    AURORA_ASSIGN_OR_RETURN(SimTime wrote,
                            device_->WriteAsync(0, sim_->clock.now(), next_image_lba_ + b,
                                                chunk.data(), n));
    last_write_done = std::max(last_write_done, wrote);
  }
  next_image_lba_ += blocks;
  // The userspace image stream (page pipe + protobuf serialization) runs
  // concurrently with the device writes; the dump ends when both have.
  SimTime stream_done =
      sim_->clock.now() + static_cast<SimDuration>(static_cast<double>(result.image_bytes) /
                                                   cost.criu_image_write_bytes_per_ns);
  sim_->clock.AdvanceTo(std::max(stream_done, last_write_done));
  result.io_write_time = io.Elapsed();
  return result;
}

}  // namespace aurora
