// Processes and threads of the simulated kernel.
//
// The five categories of state the paper persists (section 5.1) all live
// here or hang off this: process state (tree/groups/sessions/signals),
// thread state (masks, priorities), CPU state (registers, FPU), memory
// (the VmMap) and file descriptors (the FdTable).
#ifndef SRC_POSIX_PROCESS_H_
#define SRC_POSIX_PROCESS_H_

#include <array>
#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "src/posix/file.h"
#include "src/posix/ipc.h"
#include "src/vm/vm_map.h"

namespace aurora {

class Kernel;

// Architectural register context, captured verbatim off the kernel stack as
// the paper describes. The layout is opaque to Aurora: it is copied, stored
// and reinstalled, never interpreted.
struct CpuState {
  std::array<uint64_t, 16> gpr{};  // rax..r15
  uint64_t rip = 0;
  uint64_t rsp = 0;
  uint64_t rflags = 0x202;
  std::array<uint8_t, 512> fpu{};  // XSAVE area analog
  bool fpu_dirty = false;          // lazily-saved FPU needs an IPI flush
};

enum class ThreadState : uint8_t {
  kUser,            // executing userspace code
  kKernelRunning,   // in a non-sleeping syscall
  kKernelSleeping,  // blocked in a sleeping syscall (read, poll, ...)
  kStopped,         // quiesced at the kernel boundary
  kExited,
};

struct SigAction {
  uint64_t handler = 0;  // 0 = SIG_DFL, 1 = SIG_IGN, else handler address
  uint64_t mask = 0;
  uint32_t flags = 0;
};

inline constexpr int kNumSignals = 32;
inline constexpr int kSigChld = 20;  // FreeBSD numbering

class Thread {
 public:
  Thread(uint64_t tid, uint64_t local_tid) : tid_(tid), local_tid_(local_tid) {}

  uint64_t tid() const { return tid_; }
  uint64_t local_tid() const { return local_tid_; }
  void set_local_tid(uint64_t t) { local_tid_ = t; }

  CpuState cpu;
  uint64_t sigmask = 0;
  uint64_t pending_signals = 0;
  int priority = 0;
  ThreadState state = ThreadState::kUser;
  ThreadState resume_state = ThreadState::kUser;  // where quiesce found us
  // Set when quiescing interrupted a sleeping syscall: the PC was rewound to
  // the syscall instruction so the call transparently reissues (no EINTR
  // surfaces to the application).
  bool restart_syscall = false;

 private:
  uint64_t tid_;
  uint64_t local_tid_;
};

class Process {
 public:
  Process(Kernel* kernel, uint64_t pid, uint64_t local_pid, std::string name);

  Kernel* kernel() const { return kernel_; }
  uint64_t pid() const { return pid_; }
  uint64_t local_pid() const { return local_pid_; }
  void set_local_pid(uint64_t p) {
    local_pid_ = p;
    mutation_gen++;  // local_pid is serialized in the process blob
  }
  const std::string& name() const { return name_; }

  uint64_t pgid = 0;  // process group (job control)
  uint64_t sid = 0;   // session

  Process* parent = nullptr;
  std::vector<Process*> children;

  VmMap& vm() { return *vm_; }
  const VmMap& vm() const { return *vm_; }
  void ReplaceVm(std::unique_ptr<VmMap> vm) {
    vm_ = std::move(vm);
    // The new map's generation is a stamp no other map carries, so the
    // serializer re-gathers the map; the process's own state changed too
    // (exit, or a fork child taking its address space).
    mutation_gen++;
  }

  FdTable& fds() { return fds_; }
  const FdTable& fds() const { return fds_; }

  Thread& AddThread();
  std::vector<std::unique_ptr<Thread>>& threads() { return threads_; }
  const std::vector<std::unique_ptr<Thread>>& threads() const { return threads_; }

  std::array<SigAction, kNumSignals> sigactions{};
  uint64_t pending_signals = 0;
  std::deque<int> signal_queue;

  void PostSignal(int signo) {
    pending_signals |= (1ull << signo);
    signal_queue.push_back(signo);
    mutation_gen++;
  }

  // Serialization-cache generation for process-level state that is not
  // covered by the VM map's or fd table's own counters (signals, zombie
  // transitions, AIO queue, thread resume states). The serializer keys the
  // cached process record's core and AIO sub-records on it, its descriptor
  // sub-record on the fd table's counter and its map on the map's.
  uint64_t mutation_gen = 1;

  // Ephemeral processes belong to the consistency group but are not
  // persisted; after a restore the parent receives SIGCHLD as if the child
  // had exited (paper section 3).
  bool ephemeral = false;

  bool zombie = false;
  int exit_status = 0;

  std::vector<AioRequest> aios;
  uint64_t next_aio_id = 1;

 private:
  Kernel* kernel_;
  uint64_t pid_;
  uint64_t local_pid_;
  std::string name_;
  std::unique_ptr<VmMap> vm_;
  FdTable fds_;
  std::vector<std::unique_ptr<Thread>> threads_;
};

}  // namespace aurora

#endif  // SRC_POSIX_PROCESS_H_
