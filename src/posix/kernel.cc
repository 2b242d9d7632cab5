#include "src/posix/kernel.h"

#include <algorithm>

namespace aurora {

namespace {

// Fills the vDSO page with a generation-tagged pattern so tests can observe
// that restores inject the *current* platform's vDSO, not the saved one.
std::shared_ptr<VmObject> MakeVdso(uint64_t generation) {
  auto vdso = VmObject::CreateDevice(kPageSize);
  std::array<uint8_t, kPageSize> contents{};
  for (size_t i = 0; i < contents.size(); i++) {
    contents[i] = static_cast<uint8_t>((i + generation) & 0xff);
  }
  vdso->InstallPage(0, contents.data());
  return vdso;
}

// Installs both ends of a pipe or pty: both land, or neither stays.
Result<std::pair<int, int>> InstallPair(Process& proc, std::shared_ptr<FileDescription> first,
                                        std::shared_ptr<FileDescription> second) {
  AURORA_ASSIGN_OR_RETURN(int a, proc.fds().Install(std::move(first)));
  auto b = proc.fds().Install(std::move(second));
  if (!b.ok()) {
    AURORA_RETURN_IF_ERROR(proc.fds().Close(a));
    return b.status();
  }
  return std::make_pair(a, *b);
}

}  // namespace

Kernel::Kernel(SimContext* sim) : sim_(sim) { vdso_ = MakeVdso(vdso_generation_); }

Kernel::~Kernel() = default;

void Kernel::RegenerateVdso() { vdso_ = MakeVdso(++vdso_generation_); }

Result<Process*> Kernel::CreateProcess(const std::string& name) {
  AURORA_ASSIGN_OR_RETURN(uint64_t pid, pid_alloc_.Allocate());
  auto proc = std::make_unique<Process>(this, pid, pid, name);
  proc->AddThread();
  Process* raw = proc.get();
  processes_.push_back(std::move(proc));
  return raw;
}

Result<Process*> Kernel::CreateProcessForRestore(const std::string& name, uint64_t local_pid) {
  // Virtualized IDs: the restored process gets a fresh global pid visible to
  // the system while keeping its checkpoint-time local pid (paper 5.3).
  AURORA_ASSIGN_OR_RETURN(uint64_t pid, pid_alloc_.Allocate());
  auto proc = std::make_unique<Process>(this, pid, local_pid, name);
  Process* raw = proc.get();
  processes_.push_back(std::move(proc));
  return raw;
}

Result<Process*> Kernel::Fork(Process& parent) {
  CountSyscall("fork");
  AURORA_ASSIGN_OR_RETURN(uint64_t pid, pid_alloc_.Allocate());
  auto child = std::make_unique<Process>(this, pid, pid, parent.name());
  child->parent = &parent;
  child->pgid = parent.pgid;
  child->sid = parent.sid;
  child->sigactions = parent.sigactions;
  // Address space: COW fork through the VM subsystem.
  AURORA_ASSIGN_OR_RETURN(std::unique_ptr<VmMap> vm, parent.vm().Fork());
  child->ReplaceVm(std::move(vm));
  // Descriptors: slots copied, open-file entries shared (offset sharing).
  child->fds() = parent.fds().Clone();
  // The calling thread is duplicated into the child.
  Thread& t = child->AddThread();
  if (!parent.threads().empty()) {
    t.cpu = parent.threads()[0]->cpu;
    t.sigmask = parent.threads()[0]->sigmask;
  }
  Process* raw = child.get();
  parent.children.push_back(raw);
  parent.mutation_gen++;  // child list changed: serialized tree grows
  processes_.push_back(std::move(child));
  return raw;
}

void Kernel::DestroyProcess(Process* proc) {
  if (proc->parent != nullptr) {
    auto& siblings = proc->parent->children;
    siblings.erase(std::remove(siblings.begin(), siblings.end(), proc), siblings.end());
  }
  for (Process* child : proc->children) {
    child->parent = nullptr;
    child->mutation_gen++;  // the parent's local pid is serialized
  }
  pid_alloc_.Release(proc->pid());
  for (auto& t : proc->threads()) {
    tid_alloc_.Release(t->tid());
  }
  processes_.erase(std::remove_if(processes_.begin(), processes_.end(),
                                  [&](const auto& p) { return p.get() == proc; }),
                   processes_.end());
}

Process* Kernel::FindPid(uint64_t pid) {
  for (auto& p : processes_) {
    if (p->pid() == pid) {
      return p.get();
    }
  }
  return nullptr;
}

Process* Kernel::FindLocalPid(uint64_t local_pid) {
  for (auto& p : processes_) {
    if (p->local_pid() == local_pid) {
      return p.get();
    }
  }
  return nullptr;
}

std::vector<Process*> Kernel::AllProcesses() {
  std::vector<Process*> out;
  out.reserve(processes_.size());
  for (auto& p : processes_) {
    out.push_back(p.get());
  }
  return out;
}

Status Kernel::Kill(uint64_t local_pid, int signo) {
  CountSyscall("kill");
  Process* proc = FindLocalPid(local_pid);
  if (proc == nullptr) {
    return Status::Error(Errc::kNotFound, "no such process");
  }
  if (signo < 0 || signo >= kNumSignals) {
    return Status::Error(Errc::kInvalidArgument, "bad signal number");
  }
  proc->PostSignal(signo);
  return Status::Ok();
}

void Kernel::Exit(Process* proc, int status) {
  proc->exit_status = status;
  proc->zombie = true;
  proc->mutation_gen++;
  // Quiesce skips exited threads, so resume_state, which the manifest
  // records, is set here too: a restored zombie's threads stay exited.
  for (auto& t : proc->threads()) {
    t->state = ThreadState::kExited;
    t->resume_state = ThreadState::kExited;
  }
  // Release the address space and descriptors now; the zombie keeps only
  // its identity and exit status for the parent to collect.
  proc->ReplaceVm(std::make_unique<VmMap>(sim_));
  proc->fds().CloseAll();
  if (proc->parent != nullptr) {
    proc->parent->PostSignal(kSigChld);
  } else {
    Reap(proc);
  }
}

Result<std::pair<uint64_t, int>> Kernel::WaitAny(Process& parent) {
  for (Process* child : parent.children) {
    if (child->zombie) {
      auto result = std::make_pair(child->local_pid(), child->exit_status);
      Reap(child);
      parent.mutation_gen++;  // child list changed: serialized tree shrinks
      return result;
    }
  }
  return Status::Error(Errc::kWouldBlock, "no exited children");
}

void Kernel::Reap(Process* proc) {
  if (on_reap_) {
    on_reap_(proc);
  }
  DestroyProcess(proc);
}

void Kernel::CountSyscall(const char* name) {
  sim_->metrics.counter("kernel.syscalls").Add();
  sim_->metrics.counter(std::string("kernel.syscall.") + name).Add();
}

QuiesceStats Kernel::Quiesce(const std::vector<Process*>& procs) {
  QuiesceStats stats;
  const CostModel& cost = sim_->cost;
  // One IPI round per core the group is running on (bounded by the machine).
  uint64_t running = 0;
  for (Process* p : procs) {
    for (auto& t : p->threads()) {
      if (t->state == ThreadState::kUser || t->state == ThreadState::kKernelRunning) {
        running++;
      }
    }
  }
  uint64_t cores = std::min<uint64_t>(running, static_cast<uint64_t>(sim_->ncpus));
  sim_->clock.Advance(cost.quiesce_ipi * std::max<uint64_t>(cores, 1));
  stats.ipis = std::max<uint64_t>(cores, 1);

  sim_->metrics.counter("kernel.quiesces").Add();
  sim_->metrics.counter("kernel.quiesce_ipis").Add(stats.ipis);
  for (Process* p : procs) {
    QuiesceAio(*p);
    for (auto& t : p->threads()) {
      switch (t->state) {
        case ThreadState::kUser:
          stats.threads_in_user++;
          break;
        case ThreadState::kKernelRunning:
          // Non-sleeping syscalls finish quickly; wait them out.
          sim_->clock.Advance(cost.syscall_drain);
          stats.threads_in_syscall++;
          break;
        case ThreadState::kKernelSleeping:
          // Interrupt the sleep and rewind the PC so the call transparently
          // reissues after resume (no EINTR reaches the application).
          sim_->clock.Advance(cost.syscall_restart);
          t->restart_syscall = true;
          stats.syscalls_restarted++;
          break;
        case ThreadState::kStopped:
        case ThreadState::kExited:
          continue;
      }
      if (t->cpu.fpu_dirty) {
        sim_->clock.Advance(cost.fpu_flush_ipi);
        t->cpu.fpu_dirty = false;
        stats.fpu_flushes++;
      }
      ThreadState resume =
          t->state == ThreadState::kKernelRunning ? ThreadState::kUser : t->state;
      if (t->resume_state != resume) {
        // Quiesce itself mutates checkpoint-visible state only through
        // resume_state; bumping solely on a real change keeps idle epochs'
        // process blobs warm in the serialization cache.
        p->mutation_gen++;
      }
      t->resume_state = resume;
      t->state = ThreadState::kStopped;
    }
  }
  sim_->metrics.counter("kernel.syscalls_restarted").Add(stats.syscalls_restarted);
  return stats;
}

void Kernel::Resume(const std::vector<Process*>& procs) {
  for (Process* p : procs) {
    for (auto& t : p->threads()) {
      if (t->state == ThreadState::kStopped) {
        t->state = t->resume_state;
        if (t->restart_syscall) {
          // The rewound PC makes the thread reissue the syscall immediately.
          t->restart_syscall = false;
          t->state = ThreadState::kKernelSleeping;
        }
      }
    }
  }
}

Result<int> Kernel::Open(Process& proc, const std::string& path, int flags, bool create) {
  CountSyscall("open");
  if (rootfs_ == nullptr) {
    return Status::Error(Errc::kBadState, "no root filesystem");
  }
  std::shared_ptr<Vnode> vn;
  auto found = rootfs_->Lookup(path);
  if (found.ok()) {
    vn = *found;
  } else if (create) {
    AURORA_ASSIGN_OR_RETURN(vn, rootfs_->Create(path));
  } else {
    return found.status();
  }
  vn->AddHiddenRef();
  auto desc = std::make_shared<FileDescription>();
  desc->object = vn;
  desc->open_flags = flags;
  return proc.fds().Install(std::move(desc));
}

Status Kernel::Close(Process& proc, int fd) {
  CountSyscall("close");
  AURORA_ASSIGN_OR_RETURN(std::shared_ptr<FileDescription> desc, proc.fds().Get(fd));
  if (desc->object != nullptr && desc->object->type() == FileType::kVnode && desc.use_count() <= 2) {
    // Last descriptor reference: drop the hidden ref taken at open so
    // unlinked files become reclaimable (except on AuroraFS under
    // checkpoint references).
    static_cast<Vnode*>(desc->object.get())->DropHiddenRef();
  }
  return proc.fds().Close(fd);
}

Result<uint64_t> Kernel::ReadFd(Process& proc, int fd, void* out, uint64_t len) {
  CountSyscall("read");
  AURORA_ASSIGN_OR_RETURN(std::shared_ptr<FileDescription> desc, proc.fds().Get(fd));
  if ((desc->open_flags & kOpenRead) == 0) {
    return Status::Error(Errc::kInvalidArgument, "fd not open for reading");
  }
  switch (desc->object->type()) {
    case FileType::kVnode: {
      auto* vn = static_cast<Vnode*>(desc->object.get());
      AURORA_ASSIGN_OR_RETURN(uint64_t n, vn->Read(desc->offset, out, len));
      desc->offset += n;  // shared by every descriptor dup'd from this one
      desc->generation++;
      return n;
    }
    case FileType::kPipe: {
      // Pipe::Read bumps the pipe's own generation when bytes drain.
      return static_cast<Pipe*>(desc->object.get())->Read(out, len);
    }
    default:
      return Status::Error(Errc::kNotSupported, "read on this object type");
  }
}

Result<uint64_t> Kernel::WriteFd(Process& proc, int fd, const void* data, uint64_t len) {
  CountSyscall("write");
  AURORA_ASSIGN_OR_RETURN(std::shared_ptr<FileDescription> desc, proc.fds().Get(fd));
  if ((desc->open_flags & kOpenWrite) == 0) {
    return Status::Error(Errc::kInvalidArgument, "fd not open for writing");
  }
  switch (desc->object->type()) {
    case FileType::kVnode: {
      auto* vn = static_cast<Vnode*>(desc->object.get());
      uint64_t at = (desc->open_flags & kOpenAppend) ? vn->size() : desc->offset;
      AURORA_ASSIGN_OR_RETURN(uint64_t n, vn->Write(at, data, len));
      desc->offset = at + n;
      desc->generation++;
      // Vnode::set_size bumps the vnode generation when the size changes;
      // same-size overwrites leave the serialized record genuinely unchanged.
      return n;
    }
    case FileType::kPipe: {
      // Pipe::Write bumps the pipe's own generation when bytes land.
      return static_cast<Pipe*>(desc->object.get())->Write(data, len);
    }
    default:
      return Status::Error(Errc::kNotSupported, "write on this object type");
  }
}

Result<uint64_t> Kernel::SeekFd(Process& proc, int fd, int64_t offset, int whence) {
  CountSyscall("lseek");
  AURORA_ASSIGN_OR_RETURN(std::shared_ptr<FileDescription> desc, proc.fds().Get(fd));
  if (desc->object->type() != FileType::kVnode) {
    return Status::Error(Errc::kNotSupported, "seek on non-file");
  }
  auto* vn = static_cast<Vnode*>(desc->object.get());
  int64_t base = 0;
  switch (whence) {
    case 0:
      base = 0;
      break;
    case 1:
      base = static_cast<int64_t>(desc->offset);
      break;
    case 2:
      base = static_cast<int64_t>(vn->size());
      break;
    default:
      return Status::Error(Errc::kInvalidArgument, "bad whence");
  }
  int64_t target = base + offset;
  if (target < 0) {
    return Status::Error(Errc::kInvalidArgument, "negative offset");
  }
  desc->offset = static_cast<uint64_t>(target);
  desc->generation++;
  return desc->offset;
}

Result<std::pair<int, int>> Kernel::MakePipe(Process& proc) {
  CountSyscall("pipe");
  auto pipe = std::make_shared<Pipe>();
  auto rd = std::make_shared<FileDescription>();
  rd->object = pipe;
  rd->open_flags = kOpenRead;
  auto wr = std::make_shared<FileDescription>();
  wr->object = pipe;
  wr->open_flags = kOpenWrite;
  return InstallPair(proc, std::move(rd), std::move(wr));
}

Result<int> Kernel::MakeSocket(Process& proc, SocketDomain domain, SocketProto proto) {
  CountSyscall("socket");
  auto sock = std::make_shared<Socket>(domain, proto);
  auto desc = std::make_shared<FileDescription>();
  desc->object = std::move(sock);
  desc->open_flags = kOpenRead | kOpenWrite;
  return proc.fds().Install(std::move(desc));
}

Result<int> Kernel::MakeKqueue(Process& proc) {
  CountSyscall("kqueue");
  auto kq = std::make_shared<Kqueue>();
  auto desc = std::make_shared<FileDescription>();
  desc->object = std::move(kq);
  desc->open_flags = kOpenRead | kOpenWrite;
  return proc.fds().Install(std::move(desc));
}

Result<std::pair<int, int>> Kernel::MakePty(Process& proc) {
  CountSyscall("posix_openpt");
  auto pty = std::make_shared<Pseudoterminal>();
  pty->index = next_pty_index_++;
  pty->SetSession(proc.sid);
  auto master = std::make_shared<FileDescription>();
  master->object = pty;
  master->open_flags = kOpenRead | kOpenWrite;
  auto slave = std::make_shared<FileDescription>();
  slave->object = pty;
  slave->open_flags = kOpenRead | kOpenWrite | kOpenAppend;  // append bit marks the slave side
  return InstallPair(proc, std::move(master), std::move(slave));
}

Result<int> Kernel::ShmOpen(Process& proc, const std::string& name, uint64_t size) {
  CountSyscall("shm_open");
  std::shared_ptr<SharedMemory> shm;
  auto it = posix_shm_.find(name);
  if (it != posix_shm_.end()) {
    shm = it->second;
  } else {
    shm = std::make_shared<SharedMemory>(SharedMemory::Kind::kPosix);
    shm->name = name;
    shm->size = PageRound(size);
    shm->object = VmObject::CreateAnonymous(shm->size);
    posix_shm_[name] = shm;
  }
  auto desc = std::make_shared<FileDescription>();
  desc->object = shm;
  desc->open_flags = kOpenRead | kOpenWrite;
  return proc.fds().Install(std::move(desc));
}

Result<int> Kernel::ShmGet(Process& proc, int32_t key, uint64_t size) {
  CountSyscall("shmget");
  std::shared_ptr<SharedMemory> shm;
  for (auto& [id, candidate] : sysv_shm_) {
    if (candidate->key == key) {
      shm = candidate;
      break;
    }
  }
  if (shm == nullptr) {
    shm = std::make_shared<SharedMemory>(SharedMemory::Kind::kSysV);
    shm->key = key;
    shm->shmid = next_shmid_++;
    shm->size = PageRound(size);
    shm->object = VmObject::CreateAnonymous(shm->size);
    sysv_shm_[shm->shmid] = shm;
  }
  auto desc = std::make_shared<FileDescription>();
  desc->object = shm;
  desc->open_flags = kOpenRead | kOpenWrite;
  return proc.fds().Install(std::move(desc));
}

Result<uint64_t> Kernel::ShmMap(Process& proc, int fd) {
  CountSyscall("shmat");
  AURORA_ASSIGN_OR_RETURN(std::shared_ptr<FileDescription> desc, proc.fds().Get(fd));
  if (desc->object->type() != FileType::kShm) {
    return Status::Error(Errc::kInvalidArgument, "fd is not shared memory");
  }
  auto* shm = static_cast<SharedMemory*>(desc->object.get());
  // Map through the backmap: shm->object always names the latest shadow.
  return proc.vm().Map(0, shm->size, kProtRead | kProtWrite, shm->object, 0,
                       /*copy_on_write=*/false);
}

void Kernel::AdoptShm(const std::shared_ptr<SharedMemory>& shm) {
  if (shm->kind() == SharedMemory::Kind::kPosix) {
    posix_shm_[shm->name] = shm;
  } else {
    sysv_shm_[shm->shmid] = shm;
    next_shmid_ = std::max(next_shmid_, shm->shmid + 1);
  }
}

void Kernel::RemoveShm(const SharedMemory* shm) {
  if (shm->kind() == SharedMemory::Kind::kPosix) {
    auto it = posix_shm_.find(shm->name);
    if (it != posix_shm_.end() && it->second.get() == shm) {
      posix_shm_.erase(it);
    }
  } else {
    auto it = sysv_shm_.find(shm->shmid);
    if (it != sysv_shm_.end() && it->second.get() == shm) {
      sysv_shm_.erase(it);
    }
  }
}

void Kernel::RebindShmObjects(VmObject* old_top, const std::shared_ptr<VmObject>& new_top) {
  // The serialized shm record references the backing object, so swapping it
  // must bump the generation — a cached blob from before the rebind may not
  // be reused without re-validating against the new object.
  for (auto& [name, shm] : posix_shm_) {
    if (shm->object.get() == old_top) {
      shm->object = new_top;
      shm->Touch();
    }
  }
  for (auto& [id, shm] : sysv_shm_) {
    if (shm->object.get() == old_top) {
      shm->object = new_top;
      shm->Touch();
    }
  }
}

Result<std::shared_ptr<SharedMemory>> Kernel::FindSysVById(int32_t shmid) {
  auto it = sysv_shm_.find(shmid);
  if (it == sysv_shm_.end()) {
    return Status::Error(Errc::kNotFound, "no such SysV segment");
  }
  return it->second;
}

Result<int> Kernel::OpenDevice(Process& proc, const std::string& devname) {
  auto dev = std::make_shared<DeviceFile>();
  dev->devname = devname;
  dev->whitelisted = DeviceWhitelisted(devname);
  if (devname == "hpet0") {
    dev->device_memory = VmObject::CreateDevice(kPageSize);
  }
  auto desc = std::make_shared<FileDescription>();
  desc->object = std::move(dev);
  desc->open_flags = kOpenRead;
  return proc.fds().Install(std::move(desc));
}

uint64_t Kernel::SubmitAio(Process& proc, int fd, AioRequest::Op op, uint64_t offset,
                           uint64_t length) {
  AioRequest req;
  req.id = proc.next_aio_id++;
  req.fd = fd;
  req.op = op;
  req.offset = offset;
  req.length = length;
  proc.aios.push_back(req);
  proc.mutation_gen++;
  return req.id;
}

uint64_t Kernel::QuiesceAio(Process& proc) {
  uint64_t waited = 0;
  for (auto& aio : proc.aios) {
    if (aio.state == AioRequest::State::kInFlight && aio.op == AioRequest::Op::kWrite) {
      // Writes must land before the checkpoint is marked complete; charge
      // the drain and mark them done.
      sim_->clock.Advance(sim_->cost.nvme_write_latency / 2);
      aio.state = AioRequest::State::kDone;
      waited++;
    }
    // In-flight reads stay recorded; the restore path reissues them.
  }
  if (waited > 0) {
    proc.mutation_gen++;  // AIO states flipped to done
  }
  return waited;
}

}  // namespace aurora
