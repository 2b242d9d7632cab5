#include "src/fs/baseline_fs.h"

#include "src/base/checksum.h"

namespace aurora {

uint64_t DeviceBackedFs::AllocateIno(const std::string& path) {
  (void)path;
  return next_ino_++;
}

uint64_t DeviceBackedFs::AllocDeviceRun() {
  uint64_t lba = next_lba_;
  next_lba_ += DevBlocksPerFsBlock();
  return lba;
}

Status DeviceBackedFs::LoadBlock(Vnode* vn, uint64_t block_idx, uint8_t* out) {
  auto it = placement_.find({vn->ino(), block_idx});
  if (it == placement_.end()) {
    std::fill(out, out + fs_block_size(), 0);
    return Status::Ok();
  }
  return device_->ReadSync(it->second, out, DevBlocksPerFsBlock());
}

// --- FFS ---------------------------------------------------------------------

void FfsLikeFs::ChargeCreate() {
  // Directory entry + inode allocation + cylinder-group bookkeeping.
  sim_->clock.Advance(8 * kMicrosecond);
}

void FfsLikeFs::ChargeWrite(uint64_t len, bool sub_block, bool first_dirty) {
  pending_bytes_ += len;
  if (first_dirty) {
    if (sub_block) {
      // The optimized small-write path: fragments avoid full-block
      // allocation, and delayed allocation lets fragments get promoted to
      // full blocks before IO (paper section 9.1).
      sim_->clock.Advance(300);
    } else {
      sim_->clock.Advance(1200);  // block allocation + block map update
    }
  }
}

Status FfsLikeFs::FsyncImpl(Vnode* vn, uint64_t dirty_len) {
  (void)vn;
  (void)dirty_len;
  // Soft updates + journaling: fsync writes the data added since the last
  // sync, then the SU+J journal record — two ordered device commands (the
  // journal entry must not land before the data it describes).
  sim_->clock.Advance(sim_->cost.NvmeWrite(pending_bytes_));
  sim_->clock.Advance(sim_->cost.NvmeWrite(4 * kKiB));
  pending_bytes_ = 0;
  return Status::Ok();
}

Result<SimTime> FfsLikeFs::PersistBlock(Vnode* vn, uint64_t block_idx, const CacheBlock& cb) {
  // In-place update: the placement is allocated once and reused.
  auto key = std::make_pair(vn->ino(), block_idx);
  auto it = placement_.find(key);
  if (it == placement_.end()) {
    it = placement_.emplace(key, AllocDeviceRun()).first;
  }
  return device_->WriteAsync(0, sim_->clock.now(), it->second, cb.data.data(),
                             DevBlocksPerFsBlock());
}

// --- ZFS ---------------------------------------------------------------------

void ZfsLikeFs::ChargeCreate() {
  // Dnode allocation plus COW updates up the object tree.
  sim_->clock.Advance(10 * kMicrosecond);
}

void ZfsLikeFs::ChargeWrite(uint64_t len, bool sub_block, bool first_dirty) {
  zil_pending_ += len;
  if (checksums_) {
    // End-to-end checksumming really hashes every byte written.
    sim_->clock.Advance(static_cast<SimDuration>(static_cast<double>(len) / 8.0));
  }
  // Dirty-record creation and merkle-path bookkeeping in the DMU; this is
  // the "complex changes to file system state" of paper section 9.1.
  sim_->clock.Advance(first_dirty ? 6000 : 600);
  if (sub_block) {
    sim_->clock.Advance(1500);  // COW read-modify-write preparation
  }
}

Status ZfsLikeFs::FsyncImpl(Vnode* vn, uint64_t dirty_len) {
  (void)vn;
  (void)dirty_len;
  // The ZIL persists the bytes written since the last commit synchronously,
  // without committing the whole transaction group — but building the log
  // records walks the dirty COW tree ("complex changes to file system
  // state", paper 9.1).
  sim_->clock.Advance(35 * kMicrosecond);
  sim_->clock.Advance(sim_->cost.NvmeWrite(zil_pending_ + 4 * kKiB));
  zil_pending_ = 0;
  return Status::Ok();
}

Result<SimTime> ZfsLikeFs::PersistBlock(Vnode* vn, uint64_t block_idx, const CacheBlock& cb) {
  if (checksums_) {
    // Verify-on-write: the block pointer embeds the checksum.
    volatile uint64_t sink = Fletcher64(cb.data.data(), cb.data.size());
    (void)sink;
    sim_->clock.Advance(static_cast<SimDuration>(static_cast<double>(cb.data.size()) / 3.0));
  }
  // COW: every flush goes to a fresh location; the old block becomes dead
  // space reclaimed by the spacemap (not modeled).
  uint64_t lba = AllocDeviceRun();
  placement_[{vn->ino(), block_idx}] = lba;
  sim_->clock.Advance(1200);  // block-pointer rewrite up the merkle path
  return device_->WriteAsync(0, sim_->clock.now(), lba, cb.data.data(), DevBlocksPerFsBlock());
}

}  // namespace aurora
