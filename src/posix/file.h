// Kernel file objects: the entities file descriptors reference.
//
// POSIX hides an object hierarchy behind the integer fd: descriptors in
// different processes may share one open-file entry (fork/dup/SCM_RIGHTS)
// whose offset is shared, while separate opens of the same file share only
// the vnode. Aurora's POSIX object model persists each node of this graph
// exactly once, so the graph is represented explicitly here.
#ifndef SRC_POSIX_FILE_H_
#define SRC_POSIX_FILE_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "src/base/result.h"

namespace aurora {

enum class FileType : uint8_t {
  kVnode,
  kPipe,
  kSocket,
  kKqueue,
  kPty,
  kShm,
  kDevice,
};

// Base class for every kernel object a descriptor can reference. The
// kernel_id is the analog of the object's kernel address: the SLS keys its
// serialized-exactly-once table with it.
class FileObject {
 public:
  FileObject();
  virtual ~FileObject() = default;

  FileObject(const FileObject&) = delete;
  FileObject& operator=(const FileObject&) = delete;

  virtual FileType type() const = 0;
  uint64_t kernel_id() const { return kernel_id_; }

  // Serialization-cache generation: bumped by every mutating operation on
  // the object (buffered bytes, offsets via the owning description, state
  // machines). The checkpoint serializer reuses an object's cached blob only
  // while its generation is unchanged.
  uint64_t generation() const { return generation_; }
  void Touch() { generation_++; }

 private:
  static uint64_t next_kernel_id_;
  uint64_t kernel_id_;
  uint64_t generation_ = 1;
};

// Open-file table entry (FreeBSD `struct file`): shared by all descriptors
// that were created from one open() and propagated via fork/dup/fd-passing.
// The offset lives here, which is why a child's read moves the parent's
// file position.
struct FileDescription {
  FileDescription();

  std::shared_ptr<FileObject> object;
  uint64_t offset = 0;
  int open_flags = 0;  // O_RDONLY/O_WRONLY/O_RDWR | O_APPEND | ...
  uint64_t kernel_id;  // identity of this open-file entry for checkpointing
  // Serialization-cache generation; bumped when the shared offset moves.
  uint64_t generation = 1;

 private:
  static uint64_t next_kernel_id_;
};

inline constexpr int kOpenRead = 1;
inline constexpr int kOpenWrite = 2;
inline constexpr int kOpenAppend = 4;

// Per-process descriptor table.
class FdTable {
 public:
  struct Slot {
    std::shared_ptr<FileDescription> desc;
    bool close_on_exec = false;
  };

  // The per-process descriptor limit (RLIMIT_NOFILE): every install keeps
  // descriptors below it, so a descriptor number taken from a checkpoint
  // image cannot size the table.
  static constexpr int kMaxFds = 1 << 16;

  // Installs `desc` at the lowest free fd; returns the fd, or kNoSpace when
  // every descriptor below kMaxFds is taken.
  [[nodiscard]] Result<int> Install(std::shared_ptr<FileDescription> desc, bool cloexec = false);
  // dup2 semantics: closes `fd` if open, then installs there. kInvalidArgument
  // outside [0, kMaxFds).
  [[nodiscard]] Status InstallAt(int fd, std::shared_ptr<FileDescription> desc,
                                 bool cloexec = false);

  [[nodiscard]] Result<std::shared_ptr<FileDescription>> Get(int fd) const;
  [[nodiscard]] Status Close(int fd);

  [[nodiscard]] Result<int> Dup(int fd);
  // Closes every descriptor (process exit).
  void CloseAll();

  // fork(): the table is copied, the descriptions are shared.
  FdTable Clone() const;

  const std::vector<Slot>& slots() const { return slots_; }

  // Serialization-cache generation: bumped whenever the table's shape
  // changes (install/close/dup), so the descriptor sub-record of a process's
  // cached record invalidates on descriptor churn.
  uint64_t generation() const { return generation_; }

 private:
  std::vector<Slot> slots_;
  uint64_t generation_ = 1;
};

}  // namespace aurora

#endif  // SRC_POSIX_FILE_H_
