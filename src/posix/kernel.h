// The simulated kernel: process table, global namespaces, syscall-level
// helpers and the quiescing machinery used by checkpointing.
#ifndef SRC_POSIX_KERNEL_H_
#define SRC_POSIX_KERNEL_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "src/base/id_allocator.h"
#include "src/base/result.h"
#include "src/base/sim_context.h"
#include "src/posix/ipc.h"
#include "src/posix/process.h"
#include "src/posix/socket.h"
#include "src/posix/vnode.h"

namespace aurora {

struct QuiesceStats {
  uint64_t ipis = 0;
  uint64_t threads_in_user = 0;
  uint64_t threads_in_syscall = 0;
  uint64_t syscalls_restarted = 0;
  uint64_t fpu_flushes = 0;
};

class Kernel {
 public:
  explicit Kernel(SimContext* sim);
  ~Kernel();

  SimContext* sim() { return sim_; }

  // --- Processes ----------------------------------------------------------
  [[nodiscard]] Result<Process*> CreateProcess(const std::string& name);
  [[nodiscard]] Result<Process*> Fork(Process& parent);
  // Creates a process with reserved (checkpoint-time) IDs: the restore path.
  [[nodiscard]] Result<Process*> CreateProcessForRestore(const std::string& name,
                                                         uint64_t local_pid);
  void DestroyProcess(Process* proc);
  Process* FindPid(uint64_t pid);
  Process* FindLocalPid(uint64_t local_pid);
  std::vector<Process*> AllProcesses();

  [[nodiscard]] Result<uint64_t> AllocateTid() { return tid_alloc_.Allocate(); }

  // Routes a signal by the pid the *application* knows (the local pid),
  // which is why the paper virtualizes ID allocation.
  [[nodiscard]] Status Kill(uint64_t local_pid, int signo);

  // exit(2): the process becomes a zombie (or is reaped immediately if it
  // has no parent); the parent receives SIGCHLD.
  void Exit(Process* proc, int status);
  // waitpid(2)-lite: reaps one zombie child of `parent`, returning
  // (local_pid, exit_status); kWouldBlock if none has exited.
  [[nodiscard]] Result<std::pair<uint64_t, int>> WaitAny(Process& parent);
  // Called with every process the kernel reaps on its own (a waited-for
  // zombie, an orphan's exit) just before destroying it. The SLS installs
  // it to take the process out of its consistency group.
  void set_on_reap(std::function<void(Process*)> on_reap) { on_reap_ = std::move(on_reap); }

  // --- Quiescing (paper section 5.1) --------------------------------------
  // Forces every thread of `procs` to the kernel boundary: IPIs to running
  // cores, waiting out non-sleeping syscalls, interrupting and transparently
  // restarting sleeping ones. Also flushes lazily-saved FPU state.
  QuiesceStats Quiesce(const std::vector<Process*>& procs);
  void Resume(const std::vector<Process*>& procs);

  // --- File-ish syscalls ---------------------------------------------------
  void set_rootfs(Filesystem* fs) { rootfs_ = fs; }
  Filesystem* rootfs() { return rootfs_; }

  [[nodiscard]] Result<int> Open(Process& proc, const std::string& path, int flags, bool create);
  [[nodiscard]] Status Close(Process& proc, int fd);
  // read(2)/write(2)/lseek(2): move data through the descriptor, advancing
  // the open-file entry's offset — which fork/dup'd descriptors share.
  [[nodiscard]] Result<uint64_t> ReadFd(Process& proc, int fd, void* out, uint64_t len);
  [[nodiscard]] Result<uint64_t> WriteFd(Process& proc, int fd, const void* data, uint64_t len);
  [[nodiscard]] Result<uint64_t> SeekFd(Process& proc, int fd, int64_t offset,
                                        int whence);  // 0=SET 1=CUR 2=END
  [[nodiscard]] Result<std::pair<int, int>> MakePipe(Process& proc);
  [[nodiscard]] Result<int> MakeSocket(Process& proc, SocketDomain domain, SocketProto proto);
  [[nodiscard]] Result<int> MakeKqueue(Process& proc);
  // Returns {master_fd, slave_fd}.
  [[nodiscard]] Result<std::pair<int, int>> MakePty(Process& proc);

  // --- Shared memory namespaces -------------------------------------------
  [[nodiscard]] Result<int> ShmOpen(Process& proc, const std::string& name, uint64_t size);
  [[nodiscard]] Result<int> ShmGet(Process& proc, int32_t key, uint64_t size);
  // Maps a shm descriptor into the process, always through the descriptor's
  // backmap so post-shadow mappings see the latest object.
  [[nodiscard]] Result<uint64_t> ShmMap(Process& proc, int fd);
  // System shadowing's backmap hook: replaces `old_top` in every shm
  // descriptor (scanning the SysV namespace is what makes its checkpoint
  // slower than POSIX shm in Table 4).
  void RebindShmObjects(VmObject* old_top, const std::shared_ptr<VmObject>& new_top);

  // Restore path: inserts a deserialized shm object into the proper global
  // namespace so later shadows and shmat calls find it.
  void AdoptShm(const std::shared_ptr<SharedMemory>& shm);
  // Rolls back an AdoptShm when a restore fails mid-flight. Only removes the
  // namespace entry if it still points at `shm`.
  void RemoveShm(const SharedMemory* shm);

  const std::map<std::string, std::shared_ptr<SharedMemory>>& posix_shm() const {
    return posix_shm_;
  }
  const std::map<int32_t, std::shared_ptr<SharedMemory>>& sysv_shm() const { return sysv_shm_; }
  [[nodiscard]] Result<std::shared_ptr<SharedMemory>> FindSysVById(int32_t shmid);

  // --- Devices -------------------------------------------------------------
  // Whitelisted memory-mappable devices (HPET et al.) and the vDSO.
  bool DeviceWhitelisted(const std::string& devname) const {
    return device_whitelist_.count(devname) > 0;
  }
  [[nodiscard]] Result<int> OpenDevice(Process& proc, const std::string& devname);
  const std::shared_ptr<VmObject>& vdso() const { return vdso_; }
  // Swaps in a "new platform" vDSO: restores inject the current one.
  void RegenerateVdso();

  // --- AIO ------------------------------------------------------------------
  uint64_t SubmitAio(Process& proc, int fd, AioRequest::Op op, uint64_t offset, uint64_t length);
  // Drains in-flight AIOs to completion (quiesce step). Returns how many
  // writes had to be waited out.
  uint64_t QuiesceAio(Process& proc);

  // The pid space: no process has more children than it holds.
  static constexpr uint64_t kMaxPid = 99999;

 private:
  // Observability: bumps "kernel.syscalls" plus "kernel.syscall.<name>".
  void CountSyscall(const char* name);
  void Reap(Process* proc);

  SimContext* sim_;
  Filesystem* rootfs_ = nullptr;
  std::function<void(Process*)> on_reap_;

  IdAllocator pid_alloc_{2, kMaxPid};
  IdAllocator tid_alloc_{100000, 999999};
  std::vector<std::unique_ptr<Process>> processes_;

  std::map<std::string, std::shared_ptr<SharedMemory>> posix_shm_;
  std::map<int32_t, std::shared_ptr<SharedMemory>> sysv_shm_;
  int32_t next_shmid_ = 1;

  int next_pty_index_ = 0;
  std::set<std::string> device_whitelist_{"hpet0", "null", "zero", "urandom"};
  std::shared_ptr<VmObject> vdso_;
  uint64_t vdso_generation_ = 1;
};

}  // namespace aurora

#endif  // SRC_POSIX_KERNEL_H_
