#include "src/fs/buffered_fs.h"

#include <algorithm>
#include <cstring>

namespace aurora {

Result<std::shared_ptr<Vnode>> BufferedFs::Create(const std::string& path) {
  if (names_.count(path) > 0) {
    return Status::Error(Errc::kExists, "file exists: " + path);
  }
  ChargeCreate();
  uint64_t ino = AllocateIno(path);
  auto vn = std::make_shared<Vnode>(this, ino);
  names_[path] = ino;
  paths_[ino] = path;
  FileState state;
  state.vnode = vn;
  files_[ino] = std::move(state);
  return vn;
}

Result<std::shared_ptr<Vnode>> BufferedFs::CreateWithIno(const std::string& path, uint64_t ino) {
  if (names_.count(path) > 0 || files_.count(ino) > 0) {
    return Status::Error(Errc::kExists, "path or inode already present");
  }
  auto vn = std::make_shared<Vnode>(this, ino);
  names_[path] = ino;
  paths_[ino] = path;
  FileState state;
  state.vnode = vn;
  files_[ino] = std::move(state);
  return vn;
}

Result<std::shared_ptr<Vnode>> BufferedFs::RegisterAnonymousIno(uint64_t ino) {
  if (files_.count(ino) > 0) {
    return Status::Error(Errc::kExists, "inode already present");
  }
  auto vn = std::make_shared<Vnode>(this, ino);
  vn->set_nlink(0);
  vn->AddHiddenRef();  // the restoring checkpoint holds a reference
  FileState state;
  state.vnode = vn;
  state.linked = false;
  files_[ino] = std::move(state);
  return vn;
}

void BufferedFs::ForgetAnonymousIno(uint64_t ino) {
  auto it = files_.find(ino);
  if (it != files_.end() && !it->second.linked) {
    files_.erase(it);
  }
}

Result<std::shared_ptr<Vnode>> BufferedFs::Lookup(const std::string& path) {
  auto it = names_.find(path);
  if (it == names_.end()) {
    return Status::Error(Errc::kNotFound, "no such file: " + path);
  }
  sim_->clock.Advance(sim_->cost.cacheline_miss + sim_->cost.lock_acquire);
  return files_.at(it->second).vnode;
}

Result<std::shared_ptr<Vnode>> BufferedFs::LookupByIno(uint64_t ino) {
  auto it = files_.find(ino);
  if (it == files_.end()) {
    return Status::Error(Errc::kNotFound, "no such inode");
  }
  // Direct inode reference: one hash probe, no name-cache walk. This is the
  // vnode-checkpoint optimization of paper section 5.2.
  sim_->clock.Advance(sim_->cost.cacheline_miss);
  return it->second.vnode;
}

Result<std::string> BufferedFs::PathOfIno(uint64_t ino) const {
  // Reverse lookups model namei(): walk the name table, paying a miss per
  // entry inspected (bench_ablations contrasts this with LookupByIno).
  for (const auto& [path, candidate] : names_) {
    sim_->clock.Advance(sim_->cost.cacheline_miss);
    if (candidate == ino) {
      return path;
    }
  }
  return Status::Error(Errc::kNotFound, "inode has no path (anonymous file)");
}

Status BufferedFs::Unlink(const std::string& path) {
  auto it = names_.find(path);
  if (it == names_.end()) {
    return Status::Error(Errc::kNotFound, "no such file: " + path);
  }
  uint64_t ino = it->second;
  names_.erase(it);
  paths_.erase(ino);
  auto& state = files_.at(ino);
  state.linked = false;
  state.vnode->set_nlink(0);
  MaybeReclaim(ino);
  return Status::Ok();
}

Status BufferedFs::Rename(const std::string& from, const std::string& to) {
  auto it = names_.find(from);
  if (it == names_.end()) {
    return Status::Error(Errc::kNotFound, "no such file: " + from);
  }
  // rename(2) semantics: an existing target is replaced.
  if (names_.count(to) > 0) {
    AURORA_RETURN_IF_ERROR(Unlink(to));
  }
  uint64_t ino = it->second;
  names_.erase(it);
  names_[to] = ino;
  paths_[ino] = to;
  sim_->clock.Advance(sim_->cost.lock_acquire * 2 + sim_->cost.cacheline_miss * 4);
  return Status::Ok();
}

void BufferedFs::MaybeReclaim(uint64_t ino) {
  auto it = files_.find(ino);
  if (it == files_.end() || it->second.linked) {
    return;
  }
  // Conventional file systems reclaim unlinked files once no descriptor
  // holds them (and unconditionally after a crash). AuroraFS keeps them
  // alive while hidden references — open fds or checkpoint objects — exist.
  if (RetainAnonymousFiles() && it->second.vnode->hidden_refs() > 0) {
    return;
  }
  for (auto& [idx, cb] : it->second.cache) {
    if (cb.dirty) {
      dirty_bytes_ -= fs_block_size_;
    }
  }
  ReleaseBacking(it->second.vnode.get());
  files_.erase(it);
}

std::vector<std::string> BufferedFs::List() const {
  std::vector<std::string> out;
  out.reserve(names_.size());
  for (const auto& [path, ino] : names_) {
    out.push_back(path);
  }
  return out;
}

BufferedFs::FileState* BufferedFs::StateOf(Vnode* vn) {
  auto it = files_.find(vn->ino());
  return it == files_.end() ? nullptr : &it->second;
}

Result<BufferedFs::CacheBlock*> BufferedFs::GetBlock(FileState& fs, Vnode* vn,
                                                     uint64_t block_idx, bool for_write,
                                                     bool whole_block) {
  auto [it, inserted] = fs.cache.try_emplace(block_idx);
  CacheBlock& cb = it->second;
  if (inserted) {
    cb.data.assign(fs_block_size_, 0);
  }
  bool in_backing = block_idx * fs_block_size_ < vn->size();
  if (!cb.loaded && in_backing && !(for_write && whole_block)) {
    AURORA_RETURN_IF_ERROR(LoadBlock(vn, block_idx, cb.data.data()));
  }
  cb.loaded = true;
  return &cb;
}

Result<uint64_t> BufferedFs::ReadAt(Vnode* vn, uint64_t off, void* out, uint64_t len) {
  FileState* fs = StateOf(vn);
  if (fs == nullptr) {
    return Status::Error(Errc::kBadState, "stale vnode");
  }
  if (off >= vn->size()) {
    return uint64_t{0};
  }
  len = std::min(len, vn->size() - off);
  auto* dst = static_cast<uint8_t*>(out);
  uint64_t pos = off;
  uint64_t remaining = len;
  while (remaining > 0) {
    uint64_t block_idx = pos / fs_block_size_;
    uint64_t in_block = pos % fs_block_size_;
    uint64_t chunk = std::min<uint64_t>(remaining, fs_block_size_ - in_block);
    AURORA_ASSIGN_OR_RETURN(CacheBlock * cb,
                            GetBlock(*fs, vn, block_idx, /*for_write=*/false, false));
    std::memcpy(dst, cb->data.data() + in_block, chunk);
    sim_->clock.Advance(sim_->cost.MemCopy(chunk));
    pos += chunk;
    dst += chunk;
    remaining -= chunk;
  }
  return len;
}

Result<uint64_t> BufferedFs::WriteAt(Vnode* vn, uint64_t off, const void* data, uint64_t len) {
  FileState* fs = StateOf(vn);
  if (fs == nullptr) {
    return Status::Error(Errc::kBadState, "stale vnode");
  }
  const auto* src = static_cast<const uint8_t*>(data);
  uint64_t pos = off;
  uint64_t remaining = len;
  while (remaining > 0) {
    uint64_t block_idx = pos / fs_block_size_;
    uint64_t in_block = pos % fs_block_size_;
    uint64_t chunk = std::min<uint64_t>(remaining, fs_block_size_ - in_block);
    bool whole = in_block == 0 && chunk == fs_block_size_;
    AURORA_ASSIGN_OR_RETURN(CacheBlock * cb, GetBlock(*fs, vn, block_idx, /*for_write=*/true,
                                                      whole));
    std::memcpy(cb->data.data() + in_block, src, chunk);
    sim_->clock.Advance(sim_->cost.MemCopy(chunk));
    ChargeWrite(chunk, !whole, !cb->dirty);
    if (!cb->dirty) {
      cb->dirty = true;
      dirty_bytes_ += fs_block_size_;
    }
    pos += chunk;
    src += chunk;
    remaining -= chunk;
  }
  vn->set_size(std::max(vn->size(), off + len));
  return len;
}

Status BufferedFs::Truncate(Vnode* vn, uint64_t new_size) {
  FileState* fs = StateOf(vn);
  if (fs == nullptr) {
    return Status::Error(Errc::kBadState, "stale vnode");
  }
  uint64_t first_dead = (new_size + fs_block_size_ - 1) / fs_block_size_;
  for (auto it = fs->cache.lower_bound(first_dead); it != fs->cache.end();) {
    if (it->second.dirty) {
      dirty_bytes_ -= fs_block_size_;
    }
    it = fs->cache.erase(it);
  }
  vn->set_size(new_size);
  return Status::Ok();
}

Status BufferedFs::Fsync(Vnode* vn) {
  FileState* fs = StateOf(vn);
  if (fs == nullptr) {
    return Status::Error(Errc::kBadState, "stale vnode");
  }
  uint64_t dirty_len = 0;
  for (const auto& [idx, cb] : fs->cache) {
    if (cb.dirty) {
      dirty_len += fs_block_size_;
    }
  }
  return FsyncImpl(vn, dirty_len);
}

void BufferedFs::DropCleanCache() {
  for (auto& [ino, state] : files_) {
    for (auto it = state.cache.begin(); it != state.cache.end();) {
      if (!it->second.dirty) {
        it = state.cache.erase(it);
      } else {
        ++it;
      }
    }
  }
}

Result<SimTime> BufferedFs::FlushAll() {
  SimTime done = sim_->clock.now();
  for (auto& [ino, state] : files_) {
    for (auto& [idx, cb] : state.cache) {
      if (!cb.dirty) {
        continue;
      }
      AURORA_ASSIGN_OR_RETURN(SimTime t, PersistBlock(state.vnode.get(), idx, cb));
      done = std::max(done, t);
      cb.dirty = false;
      dirty_bytes_ -= fs_block_size_;
    }
  }
  return done;
}

}  // namespace aurora
