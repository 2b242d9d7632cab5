// A machine whose one consistency group holds every kind of manifest record
// and every branch of its encoding, shared by the manifest golden
// (manifest_golden_test) and the manifest mutation harness
// (manifest_harness_test).
//
// The group: a server process with two threads (one parked in a sleeping
// syscall), a set sigaction and two queued signals; a forked child, a zombie
// child and an ephemeral child; a close-on-exec file, a pipe with buffered
// bytes, a connected UNIX socket pair with bytes both ways and an in-flight
// SCM_RIGHTS descriptor, a listening socket, an inet socket with options, a
// kqueue with two events, a pty with termios and I/O bytes, POSIX and SysV
// shm, hpet0, descriptor 1234 (leaving null slots below it), an in-flight
// AIO read and an AIO write the manifest leaves out; a shadowed private
// mapping, a shared mapping, a file-backed copy-on-write mapping and the
// vDSO.
//
// Kernel ids come from process-global counters, so the bytes repeat only in
// a binary that builds the fixture before any other kernel object.
#ifndef TESTS_MANIFEST_FIXTURE_H_
#define TESTS_MANIFEST_FIXTURE_H_

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/base/sim_context.h"
#include "src/core/serialize.h"
#include "src/core/sls.h"
#include "src/fs/aurora_fs.h"
#include "src/objstore/object_store.h"
#include "src/storage/block_device.h"

namespace aurora::manifest_fixture {

// One simulated machine: a small device, its store, AuroraFS, a kernel and
// the SLS over them.
struct Machine {
  Machine() {
    device = std::make_unique<MemBlockDevice>(&sim.clock, 64 * kMiB / kPageSize);
    store = *ObjectStore::Format(device.get(), &sim);
    fs = std::make_unique<AuroraFs>(&sim, store.get());
    kernel = std::make_unique<Kernel>(&sim);
    sls = std::make_unique<Sls>(&sim, kernel.get(), store.get(), fs.get());
  }
  SimContext sim;
  std::unique_ptr<MemBlockDevice> device;
  std::unique_ptr<ObjectStore> store;
  std::unique_ptr<AuroraFs> fs;
  std::unique_ptr<Kernel> kernel;
  std::unique_ptr<Sls> sls;
};

// Distinctive values the tests find in the manifest bytes.
inline constexpr uint64_t kChainMapping = 0x5eed000000;
inline constexpr int kMarkedFd = 1234;
inline constexpr int kMarkedExit = 0x5eed5eed;

// A deterministic OID assigner: objects are numbered from 1000 in the order
// the serializer first names them.
struct FakeOids {
  std::map<VmObject*, Oid> assigned;
  uint64_t next = 1000;

  EnsureOidFn Fn() {
    return [this](VmObject* obj) {
      auto it = assigned.find(obj);
      if (it == assigned.end()) {
        it = assigned.emplace(obj, Oid{next++}).first;
      }
      return it->second;
    };
  }
};

struct Fixture {
  ConsistencyGroup* group = nullptr;
  uint64_t marked_desc_kid = 0;  // the description installed at kMarkedFd
  std::vector<uint64_t> inos;    // every inode the manifest names
};

inline Fixture BuildFixture(Machine& m) {
  Fixture f;
  Kernel& k = *m.kernel;
  Process* a = *k.CreateProcess("server");
  a->pgid = a->local_pid();
  a->sid = a->local_pid();

  // Threads, a handler and queued signals.
  a->threads()[0]->cpu.gpr[15] = 0xabcdef;
  Thread& sleeper = a->AddThread();
  sleeper.cpu.gpr[0] = 0x1111;
  sleeper.cpu.rip = 0x401234;
  sleeper.cpu.rsp = 0x7ffe0000;
  sleeper.cpu.fpu[0] = 0x7f;
  sleeper.sigmask = 0x4;
  sleeper.priority = -5;
  sleeper.resume_state = ThreadState::kKernelSleeping;
  a->sigactions[30] = {0x401000, 0x3, 0x1};
  EXPECT_TRUE(k.Kill(a->local_pid(), 30).ok());
  EXPECT_TRUE(k.Kill(a->local_pid(), 2).ok());

  // Memory: a private region (shadowed by the forks below), a shared one, a
  // private file mapping and the vDSO.
  auto priv = VmObject::CreateAnonymous(64 * kKiB);
  EXPECT_TRUE(a->vm().Map(kChainMapping, 64 * kKiB, kProtRead | kProtWrite, priv, 0, true).ok());
  std::vector<uint8_t> bytes(64 * kKiB, 0x42);
  EXPECT_TRUE(a->vm().Write(kChainMapping, bytes.data(), bytes.size()).ok());
  auto shared = VmObject::CreateAnonymous(16 * kKiB);
  EXPECT_TRUE(a->vm().Map(0x800000, 16 * kKiB, kProtRead | kProtWrite, shared, 0, false).ok());
  auto lib = *m.fs->Create("lib.so");
  EXPECT_TRUE(lib->Write(0, bytes.data(), 2 * kPageSize).ok());
  auto lib_shadow = VmObject::CreateShadow(lib->MakeVmObject());
  EXPECT_TRUE(
      a->vm().Map(0x900000, 2 * kPageSize, kProtRead | kProtWrite, lib_shadow, 0, true).ok());
  EXPECT_TRUE(a->vm().Map(0x7fff0000, kPageSize, kProtRead, k.vdso(), 0, false).ok());

  // A close-on-exec file with bytes and a moved offset.
  int file_fd = *k.Open(*a, "data.txt", kOpenRead | kOpenWrite, true);
  EXPECT_TRUE(k.WriteFd(*a, file_fd, "row0|row1", 9).ok());
  EXPECT_TRUE(a->fds().InstallAt(file_fd, *a->fds().Get(file_fd), true).ok());
  f.inos = {static_cast<Vnode*>((*a->fds().Get(file_fd))->object.get())->ino(), lib->ino()};

  // A pipe with buffered bytes.
  auto [rfd, wfd] = *k.MakePipe(*a);
  EXPECT_TRUE(k.WriteFd(*a, wfd, "inflight", 8).ok());

  // A listening UNIX socket, a connected pair with bytes both ways, and a
  // pipe end in flight over it.
  int lfd = *k.MakeSocket(*a, SocketDomain::kUnix, SocketProto::kTcp);
  auto listener = std::static_pointer_cast<Socket>((*a->fds().Get(lfd))->object);
  EXPECT_TRUE(listener->Bind({0, 0, "/run/app.sock"}).ok());
  EXPECT_TRUE(listener->Listen(8).ok());
  int cfd = *k.MakeSocket(*a, SocketDomain::kUnix, SocketProto::kTcp);
  auto client = std::static_pointer_cast<Socket>((*a->fds().Get(cfd))->object);
  EXPECT_TRUE(client->Bind({0, 0, "/run/cli.sock"}).ok());
  EXPECT_TRUE(client->ConnectTo(listener).ok());
  auto server_end = *listener->Accept();
  auto server_desc = std::make_shared<FileDescription>();
  server_desc->object = server_end;
  server_desc->open_flags = kOpenRead | kOpenWrite;
  EXPECT_TRUE(a->fds().Install(server_desc).ok());
  auto passed_pipe = std::make_shared<Pipe>();
  EXPECT_TRUE(passed_pipe->Write("passed", 6).ok());
  auto passed = std::make_shared<FileDescription>();
  passed->object = passed_pipe;
  passed->open_flags = kOpenWrite;
  ControlMessage cm;
  cm.fds.push_back(passed);
  cm.cred_pid = a->local_pid();
  EXPECT_TRUE(client->Send("take this fd", 12, cm).ok());
  EXPECT_TRUE(server_end->Send("ack", 3).ok());

  // An inet socket with options.
  int ifd = *k.MakeSocket(*a, SocketDomain::kInet, SocketProto::kUdp);
  auto inet = std::static_pointer_cast<Socket>((*a->fds().Get(ifd))->object);
  EXPECT_TRUE(inet->Bind({0x7f000001, 8125, ""}).ok());
  inet->options[4] = 1;
  inet->options[4098] = 65536;
  inet->external_sync_disabled = true;

  // A kqueue with two events, and a pty with termios and I/O bytes.
  int kfd = *k.MakeKqueue(*a);
  auto* kq = static_cast<Kqueue*>((*a->fds().Get(kfd))->object.get());
  kq->Register(KEvent{static_cast<uint64_t>(rfd), -1, 0x11, 0, 0, 0xfeed});
  kq->Register(KEvent{static_cast<uint64_t>(cfd), -2, 0x8001, 0x20, -7, 0});
  int master = k.MakePty(*a)->first;
  auto* pty = static_cast<Pseudoterminal*>((*a->fds().Get(master))->object.get());
  pty->SetTermios(0x2b02, 0x3, 0x4f00, 0x5cb);
  pty->SetWinsize(50, 132);
  pty->WriteInput("ls\n", 3);
  pty->WriteOutput("$ ", 2);

  // POSIX and SysV shm, and hpet0.
  int shm_fd = *k.ShmOpen(*a, "/seg", 16 * kKiB);
  EXPECT_TRUE(k.ShmMap(*a, shm_fd).ok());
  EXPECT_TRUE(k.ShmGet(*a, 0x5eed, 8 * kKiB).ok());
  EXPECT_TRUE(k.OpenDevice(*a, "hpet0").ok());

  // Descriptor 1234, and AIO: an in-flight read, and a write that the
  // manifest leaves out (quiesce drains writes into the checkpoint).
  auto marked = *a->fds().Get(rfd);
  EXPECT_TRUE(a->fds().InstallAt(kMarkedFd, marked).ok());
  f.marked_desc_kid = marked->kernel_id;
  k.SubmitAio(*a, file_fd, AioRequest::Op::kRead, 4096, 512);
  k.SubmitAio(*a, file_fd, AioRequest::Op::kWrite, 0, 512);
  a->exit_status = kMarkedExit;

  // Children: forked, exited (a zombie) and ephemeral.
  Process* child = *k.Fork(*a);
  child->threads()[0]->cpu.gpr[1] = 0xc41d;
  Process* zombie = *k.Fork(*a);
  k.Exit(zombie, 7);
  Process* worker = *k.Fork(*a);
  worker->ephemeral = true;

  f.group = *m.sls->CreateGroup("app");
  for (Process* p : {a, child, zombie, worker}) {
    EXPECT_TRUE(m.sls->Attach(f.group, p).ok());
  }
  return f;
}

// The fixture's manifest at epoch 3, serialized without a cache.
inline std::vector<uint8_t> SerializeFixture(Machine& m, const Fixture& f, FakeOids& oids) {
  SerializeStats stats;
  auto manifest = SerializeOsState(&m.sim, *f.group, 3, Oid{0x77}, oids.Fn(), &stats);
  EXPECT_TRUE(manifest.ok());
  return manifest.ok() ? *manifest : std::vector<uint8_t>{};
}

// A resolver that materializes every memory oid as a fresh anonymous object
// and charges nothing.
[[nodiscard]] inline Result<ResolvedMemory> FreshMemory(Oid /*oid*/, uint64_t size) {
  return ResolvedMemory{VmObject::CreateAnonymous(size != 0 ? size : kPageSize), false};
}

}  // namespace aurora::manifest_fixture

#endif  // TESTS_MANIFEST_FIXTURE_H_
