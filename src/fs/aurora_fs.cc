#include "src/fs/aurora_fs.h"

#include <cstdio>

#include "src/base/serializer.h"

namespace aurora {

uint64_t AuroraFs::AllocateIno(const std::string& path) {
  (void)path;
  auto oid = store_->CreateObject(ObjType::kFile);
  return oid.ok() ? oid->value : 0;
}

void AuroraFs::ChargeCreate() {
  // File creation is unoptimized and serializes on a global store lock
  // (paper section 9.1 calls this out on the createfiles benchmark).
  sim_->clock.Advance(25 * kMicrosecond);
}

void AuroraFs::ChargeWrite(uint64_t len, bool sub_block, bool first_dirty) {
  (void)len;
  // Extent-map bookkeeping on first dirty; sub-block writes pay COW
  // read-modify-write preparation at flush time.
  if (first_dirty) {
    sim_->clock.Advance(200);
  }
  if (sub_block) {
    sim_->clock.Advance(800);
  }
}

Status AuroraFs::FsyncImpl(Vnode* vn, uint64_t dirty_len) {
  (void)vn;
  (void)dirty_len;
  // Checkpoint consistency: durability is provided by the next store
  // checkpoint, so fsync only pays the syscall-side bookkeeping.
  sim_->clock.Advance(sim_->cost.lock_acquire);
  return Status::Ok();
}

Result<SimTime> AuroraFs::PersistBlock(Vnode* vn, uint64_t block_idx, const CacheBlock& cb) {
  return store_->WriteAt(OidOf(vn), block_idx * fs_block_size(), cb.data.data(),
                         cb.data.size());
}

Status AuroraFs::LoadBlock(Vnode* vn, uint64_t block_idx, uint8_t* out) {
  return store_->ReadAt(OidOf(vn), block_idx * fs_block_size(), out, fs_block_size());
}

void AuroraFs::ReleaseBacking(Vnode* vn) {
  Status deleted = store_->DeleteObject(OidOf(vn));
  if (!deleted.ok() && deleted.code() != Errc::kNotFound) {
    // Unlink already removed the vnode; a failed backing delete only leaks
    // store blocks until the next prune. Count it, log the first one.
    sim_->metrics.counter("fs.release_failures").Add();
    if (!release_failure_logged_) {
      release_failure_logged_ = true;
      std::fprintf(stderr, "aurorafs: backing object delete failed (%s); blocks leak until prune\n",
                   deleted.message().c_str());
    }
  }
}

Result<Oid> AuroraFs::PersistNamespace(Oid replaces) {
  BinaryWriter w;
  auto paths = List();
  w.PutU64(paths.size());
  for (const auto& path : paths) {
    auto vn = Lookup(path);
    if (!vn.ok()) {
      continue;
    }
    w.PutString(path);
    w.PutU64((*vn)->ino());
    w.PutU64((*vn)->size());
  }
  AURORA_ASSIGN_OR_RETURN(Oid ns, store_->CreateObject(ObjType::kManifest));
  // The durability time folds into the covering checkpoint's commit; the
  // namespace blob rides the same epoch as the commit record that names it.
  Result<SimTime> wrote = store_->WriteAt(ns, 0, w.data().data(), w.size());
  if (!wrote.ok()) {
    AURORA_IGNORE_STATUS(store_->DeleteObject(ns),
                         "cleanup after a failed write; a stranded blob costs the manifest scan a read");
    return wrote.status();
  }
  if (replaces.valid()) {
    // Deleted before the commit so the removal lands in the same epoch. A
    // retry after an aborted epoch finds it already gone (kNotFound): benign.
    Status deleted = store_->DeleteObject(replaces);
    if (!deleted.ok() && deleted.code() != Errc::kNotFound) {
      sim_->metrics.counter("fs.namespace_delete_failures").Add();
    }
  }
  return ns;
}

Status AuroraFs::RestoreNamespace(uint64_t epoch, Oid ns_oid) {
  AURORA_ASSIGN_OR_RETURN(const ObjectTable* table, store_->TableAt(epoch));
  auto info = table->find(ns_oid);
  if (info == table->end()) {
    return Status::Error(Errc::kNotFound, "name table absent from checkpoint");
  }
  std::vector<uint8_t> blob(info->second.size);
  AURORA_RETURN_IF_ERROR(store_->ReadAtEpoch(epoch, ns_oid, 0, blob.data(), blob.size()));
  BinaryReader r(blob);
  AURORA_ASSIGN_OR_RETURN(uint64_t count, r.U64());
  for (uint64_t i = 0; i < count; i++) {
    AURORA_ASSIGN_OR_RETURN(std::string path, r.String());
    AURORA_ASSIGN_OR_RETURN(uint64_t ino, r.U64());
    AURORA_ASSIGN_OR_RETURN(uint64_t size, r.U64());
    if (Lookup(path).ok()) {
      continue;  // already present
    }
    AURORA_ASSIGN_OR_RETURN(std::shared_ptr<Vnode> vn, CreateWithIno(path, ino));
    vn->set_size(size);
  }
  return Status::Ok();
}

}  // namespace aurora
