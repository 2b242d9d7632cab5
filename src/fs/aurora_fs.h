// AuroraFS: the namespace into the single level store (paper sections 4.1,
// 5.2 and 9.1).
//
// Files are store objects; vnodes are checkpointed by inode number (== store
// OID); fsync is a no-op because durability comes from checkpoint
// consistency; unlinked-but-open ("anonymous") files are retained through
// hidden reference counts so restores can reproduce them.
#ifndef SRC_FS_AURORA_FS_H_
#define SRC_FS_AURORA_FS_H_

#include <memory>
#include <string>

#include "src/fs/buffered_fs.h"
#include "src/objstore/object_store.h"

namespace aurora {

class AuroraFs : public BufferedFs {
 public:
  AuroraFs(SimContext* sim, ObjectStore* store)
      : BufferedFs(sim, store->block_size()), store_(store) {}

  std::string name() const override { return "aurorafs"; }

  ObjectStore* store() { return store_; }
  static Oid OidOf(const Vnode* vn) { return Oid{vn->ino()}; }

  // Serializes the name table into a new store object so restores recover
  // the namespace; called by the orchestrator during checkpoint flush. Once
  // it is written, `replaces` (the previous one, or kInvalidOid) leaves the
  // live table; it stays readable at the epochs that hold it.
  [[nodiscard]] Result<Oid> PersistNamespace(Oid replaces);
  [[nodiscard]] Status RestoreNamespace(uint64_t epoch, Oid ns_oid);

 protected:
  uint64_t AllocateIno(const std::string& path) override;
  void ChargeCreate() override;
  void ChargeWrite(uint64_t len, bool sub_block, bool first_dirty) override;
  [[nodiscard]] Status FsyncImpl(Vnode* vn, uint64_t dirty_len) override;
  [[nodiscard]] Result<SimTime> PersistBlock(Vnode* vn, uint64_t block_idx,
                                             const CacheBlock& cb) override;
  [[nodiscard]] Status LoadBlock(Vnode* vn, uint64_t block_idx, uint8_t* out) override;
  void ReleaseBacking(Vnode* vn) override;
  bool RetainAnonymousFiles() const override { return true; }

 private:
  ObjectStore* store_;
  // One stderr line for the first failed backing delete; fs.release_failures
  // counts them all.
  bool release_failure_logged_ = false;
};

}  // namespace aurora

#endif  // SRC_FS_AURORA_FS_H_
