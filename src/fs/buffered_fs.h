// Shared buffer-cache file system base for AuroraFS and the Fig. 3
// baselines (FFS-like, ZFS-like).
//
// All three file systems buffer writes in a page cache and differ in their
// per-operation costs and their durability paths — which is exactly what
// FileBench measures. Subclasses implement the cost/durability hooks; the
// base class implements the namespace, the cache, and flushing.
#ifndef SRC_FS_BUFFERED_FS_H_
#define SRC_FS_BUFFERED_FS_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/base/sim_context.h"
#include "src/posix/vnode.h"

namespace aurora {

class BufferedFs : public Filesystem {
 public:
  BufferedFs(SimContext* sim, uint32_t fs_block_size)
      : sim_(sim), fs_block_size_(fs_block_size) {}

  // --- Filesystem interface -------------------------------------------------
  [[nodiscard]] Result<std::shared_ptr<Vnode>> Create(const std::string& path) override;
  [[nodiscard]] Result<std::shared_ptr<Vnode>> Lookup(const std::string& path) override;
  [[nodiscard]] Status Unlink(const std::string& path) override;
  [[nodiscard]] Status Rename(const std::string& from, const std::string& to) override;
  std::vector<std::string> List() const override;
  [[nodiscard]] Result<std::shared_ptr<Vnode>> LookupByIno(uint64_t ino) override;
  [[nodiscard]] Result<std::string> PathOfIno(uint64_t ino) const override;

  [[nodiscard]] Result<uint64_t> ReadAt(Vnode* vn, uint64_t off, void* out, uint64_t len) override;
  [[nodiscard]] Result<uint64_t> WriteAt(Vnode* vn, uint64_t off, const void* data,
                                         uint64_t len) override;
  [[nodiscard]] Status Truncate(Vnode* vn, uint64_t new_size) override;
  [[nodiscard]] Status Fsync(Vnode* vn) override;

  // Flushes every dirty cache block to backing storage (periodic sync /
  // transaction group / Aurora checkpoint). Returns the completion time of
  // the last write issued.
  [[nodiscard]] Result<SimTime> FlushAll();

  // Restore paths: registers a file under a preexisting inode number, either
  // linked at `path` or anonymous (unlinked but referenced by a checkpoint).
  [[nodiscard]] Result<std::shared_ptr<Vnode>> CreateWithIno(const std::string& path, uint64_t ino);
  [[nodiscard]] Result<std::shared_ptr<Vnode>> RegisterAnonymousIno(uint64_t ino);
  // Undoes RegisterAnonymousIno for a restore that failed: the inode leaves
  // the table, and its backing store object stays for a retry to find.
  void ForgetAnonymousIno(uint64_t ino);

  uint64_t DirtyBytes() const { return dirty_bytes_; }

  // Evicts clean cache blocks (memory pressure; benchmarks call this after
  // flushing to bound host memory).
  void DropCleanCache();
  uint32_t fs_block_size() const { return fs_block_size_; }
  SimContext* sim() { return sim_; }

 protected:
  struct CacheBlock {
    std::vector<uint8_t> data;
    bool dirty = false;
    bool loaded = false;  // backing contents already read in
  };

  // --- Subclass hooks --------------------------------------------------------
  // Returns a fresh inode number for a created file.
  virtual uint64_t AllocateIno(const std::string& path) = 0;
  // Per-operation CPU costs (charged on the foreground path).
  virtual void ChargeCreate() = 0;
  virtual void ChargeWrite(uint64_t len, bool sub_block, bool first_dirty) = 0;
  // Durability point for one file: FFS flushes + journals, ZFS writes the
  // intent log, Aurora is a no-op under checkpoint consistency.
  [[nodiscard]] virtual Status FsyncImpl(Vnode* vn, uint64_t dirty_len) = 0;
  // Persist one cache block; returns device completion time.
  [[nodiscard]] virtual Result<SimTime> PersistBlock(Vnode* vn, uint64_t block_idx,
                                                     const CacheBlock& cb) = 0;
  // Fill `out` (fs_block_size bytes) from backing storage.
  [[nodiscard]] virtual Status LoadBlock(Vnode* vn, uint64_t block_idx, uint8_t* out) = 0;
  // Namespace removal of backing storage (when the last reference dies).
  virtual void ReleaseBacking(Vnode* /*vn*/) {}

  // Whether an unlinked-but-open file keeps its data (AuroraFS hidden link
  // counts) or is reclaimed like a conventional file system.
  virtual bool RetainAnonymousFiles() const { return false; }

  SimContext* sim_;

 private:
  struct FileState {
    std::shared_ptr<Vnode> vnode;
    std::map<uint64_t, CacheBlock> cache;
    bool linked = true;
  };

  FileState* StateOf(Vnode* vn);
  [[nodiscard]] Result<CacheBlock*> GetBlock(FileState& fs, Vnode* vn, uint64_t block_idx,
                                             bool for_write,
                                             bool whole_block);
  void MaybeReclaim(uint64_t ino);

  uint32_t fs_block_size_;
  std::map<std::string, uint64_t> names_;        // path -> ino
  std::unordered_map<uint64_t, FileState> files_;  // ino -> state
  std::unordered_map<uint64_t, std::string> paths_;  // ino -> path (name cache)
  uint64_t dirty_bytes_ = 0;

  friend class FsTestPeer;
};

}  // namespace aurora

#endif  // SRC_FS_BUFFERED_FS_H_
