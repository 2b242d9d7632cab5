// Tests for the delay-free checkpoint critical path: dirty-driven
// write-protection, TLB shootdown elision for clean address spaces, and the
// out-of-window serialization cache (DESIGN.md section 15).
#include <gtest/gtest.h>

#include <cstring>
#include <map>
#include <vector>

#include "src/base/rng.h"
#include "src/base/sim_context.h"
#include "src/core/serialize.h"
#include "src/core/sls.h"
#include "src/fs/aurora_fs.h"
#include "src/objstore/object_store.h"
#include "src/storage/block_device.h"

namespace aurora {
namespace {

// One simulated machine: devices, store, file system, kernel and SLS.
struct Machine {
  explicit Machine(uint64_t store_bytes = 1 * kGiB) {
    device = MakePaperTestbedStore(&sim.clock, store_bytes);
    store = *ObjectStore::Format(device.get(), &sim);
    fs = std::make_unique<AuroraFs>(&sim, store.get());
    kernel = std::make_unique<Kernel>(&sim);
    sls = std::make_unique<Sls>(&sim, kernel.get(), store.get(), fs.get());
  }

  // Reboot: keep the device contents, rebuild everything else.
  void Reboot() {
    store = *ObjectStore::Open(device.get(), &sim);
    fs = std::make_unique<AuroraFs>(&sim, store.get());
    kernel = std::make_unique<Kernel>(&sim);
    sls = std::make_unique<Sls>(&sim, kernel.get(), store.get(), fs.get());
  }

  uint64_t Counter(const std::string& name) { return sim.metrics.counter(name).value(); }

  SimContext sim;
  std::unique_ptr<BlockDevice> device;
  std::unique_ptr<ObjectStore> store;
  std::unique_ptr<AuroraFs> fs;
  std::unique_ptr<Kernel> kernel;
  std::unique_ptr<Sls> sls;
};

// Builds a process with a data region and returns (proc, addr).
std::pair<Process*, uint64_t> MakeAppProcess(Machine& m, uint64_t mem_bytes) {
  Process* proc = *m.kernel->CreateProcess("app");
  auto obj = VmObject::CreateAnonymous(mem_bytes);
  uint64_t addr = *proc->vm().Map(0x400000, mem_bytes, kProtRead | kProtWrite, obj, 0, false);
  return {proc, addr};
}

// A deterministic OID assigner for driving SerializeOsState directly.
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

// (a) A no-dirty-pages epoch performs zero write-protects and zero
// shootdowns; shootdowns must not scale with epoch count for clean epochs.
TEST(StopPath, CleanEpochElidesProtectionAndShootdowns) {
  Machine m;
  auto [proc, addr] = MakeAppProcess(m, 4 * kMiB);
  ConsistencyGroup* group = *m.sls->CreateGroup("app");
  ASSERT_TRUE(m.sls->Attach(group, proc).ok());

  ASSERT_TRUE(proc->vm().DirtyRange(addr, 64 * kPageSize).ok());
  auto cold = m.sls->Checkpoint(group);
  ASSERT_TRUE(cold.ok());
  m.sim.clock.AdvanceTo(cold->durable_at);
  EXPECT_GT(m.Counter("ckpt.ptes_reprotected"), 0u) << "the dirty epoch must re-protect";

  uint64_t shootdowns0 = m.Counter("vm.tlb_shootdowns");
  uint64_t reprotected0 = m.Counter("ckpt.ptes_reprotected");
  uint64_t elided0 = m.Counter("vm.shootdowns_elided");

  const int kCleanEpochs = 5;
  for (int i = 0; i < kCleanEpochs; i++) {
    auto clean = m.sls->Checkpoint(group);
    ASSERT_TRUE(clean.ok());
    EXPECT_LT(clean->stop_time, cold->stop_time);
    m.sim.clock.AdvanceTo(clean->durable_at);
  }

  EXPECT_EQ(m.Counter("vm.tlb_shootdowns"), shootdowns0)
      << "clean epochs must not send shootdown IPIs";
  EXPECT_EQ(m.Counter("ckpt.ptes_reprotected"), reprotected0)
      << "clean epochs must not downgrade any PTE";
  EXPECT_GE(m.Counter("vm.shootdowns_elided"), elided0 + kCleanEpochs)
      << "every clean address space should count one elision per epoch";
}

// A sparse dirty set re-protects exactly the dirty pages. The page-granular
// bitmap replaced the [lo, hi] dirty-range summary, under which two dirty
// pages at opposite ends of a large object re-protected the whole span.
TEST(StopPath, SparseDirtySetReprotectsExactlyTheDirtyPages) {
  Machine m;
  constexpr uint64_t kMem = 32 * kMiB;
  constexpr uint64_t kPages = kMem / kPageSize;
  auto [proc, addr] = MakeAppProcess(m, kMem);
  ConsistencyGroup* group = *m.sls->CreateGroup("app");
  ASSERT_TRUE(m.sls->Attach(group, proc).ok());

  // Dirty a page at each end of the region plus two in the middle.
  const std::vector<uint64_t> first_dirty = {0, kPages / 3, kPages / 2, kPages - 1};
  for (uint64_t pg : first_dirty) {
    ASSERT_TRUE(proc->vm().Write(addr + pg * kPageSize, &pg, sizeof(pg)).ok());
  }
  uint64_t before = m.Counter("ckpt.ptes_reprotected");
  auto first = m.sls->Checkpoint(group);
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(m.Counter("ckpt.ptes_reprotected") - before, first_dirty.size())
      << "re-protection must cover the dirty pages only, not the span between";
  EXPECT_EQ(first->pages_flushed, first_dirty.size());
  m.sim.clock.AdvanceTo(first->durable_at);

  // Steady state: two pages 8K pages apart cost exactly two downgrades.
  const std::vector<uint64_t> sparse = {5, kPages - 2};
  for (uint64_t pg : sparse) {
    ASSERT_TRUE(proc->vm().Write(addr + pg * kPageSize, &pg, sizeof(pg)).ok());
  }
  before = m.Counter("ckpt.ptes_reprotected");
  auto second = m.sls->Checkpoint(group);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(m.Counter("ckpt.ptes_reprotected") - before, sparse.size());
  EXPECT_EQ(second->pages_flushed, sparse.size());
}

// Populates one machine with a table6-flavored workload: an app process with
// a sizeable heap plus a rich descriptor table.
struct RichApp {
  Process* proc = nullptr;
  uint64_t addr = 0;
  uint64_t mem_bytes = 0;
  int file_fd = -1;
  int pipe_rfd = -1;
  int pipe_wfd = -1;
};

RichApp BuildRichApp(Machine& m, uint64_t mem_bytes) {
  RichApp app;
  app.mem_bytes = mem_bytes;
  auto [proc, addr] = MakeAppProcess(m, mem_bytes);
  app.proc = proc;
  app.addr = addr;
  app.file_fd = *m.kernel->Open(*proc, "state.db", kOpenRead | kOpenWrite, true);
  auto [rfd, wfd] = *m.kernel->MakePipe(*proc);
  app.pipe_rfd = rfd;
  app.pipe_wfd = wfd;
  const char blob[] = "row0|row1|row2";
  EXPECT_TRUE(m.kernel->WriteFd(*proc, app.file_fd, blob, sizeof(blob)).ok());
  EXPECT_TRUE(m.kernel->WriteFd(*proc, app.pipe_wfd, "inflight", 8).ok());
  return app;
}

std::vector<uint8_t> ReadBackMemory(Process* proc, uint64_t addr, uint64_t bytes) {
  std::vector<uint8_t> out(bytes);
  for (uint64_t off = 0; off < bytes; off += kPageSize) {
    EXPECT_TRUE(proc->vm().Read(addr + off, out.data() + off, kPageSize).ok());
  }
  return out;
}

// (b) Incremental protection never loses a write: after several sparse
// dirty epochs, a reboot + restore brings back exactly the bytes the
// workload wrote (a content model kept beside the run), even though each
// epoch re-protected and flushed only its dirty pages.
TEST(StopPath, IncrementalImageMatchesWrittenBytes) {
  Machine m;
  RichApp app = BuildRichApp(m, 2 * kMiB);
  ConsistencyGroup* group = *m.sls->CreateGroup("app");
  ASSERT_TRUE(m.sls->Attach(group, app.proc).ok());

  std::vector<uint8_t> model(app.mem_bytes, 0);
  Rng rng(0xA77);
  for (int epoch = 0; epoch < 4; epoch++) {
    for (int w = 0; w < 200; w++) {
      uint64_t v = rng.Next();
      uint64_t off = rng.Below(app.mem_bytes - 8);
      ASSERT_TRUE(app.proc->vm().Write(app.addr + off, &v, sizeof(v)).ok());
      std::memcpy(model.data() + off, &v, sizeof(v));
    }
    auto ckpt = m.sls->Checkpoint(group);
    ASSERT_TRUE(ckpt.ok());
    m.sim.clock.AdvanceTo(ckpt->durable_at);
  }

  m.Reboot();
  auto restored = m.sls->Restore("app");
  ASSERT_TRUE(restored.ok());
  ASSERT_EQ(restored->group->processes.size(), 1u);
  std::vector<uint8_t> image =
      ReadBackMemory(restored->group->processes[0], app.addr, app.mem_bytes);
  EXPECT_TRUE(image == model) << "the restored heap is not what the workload wrote";
}

// The manifest bytes are identical in every serialization mode and to the
// cacheless pass; only the charged time differs.
TEST(StopPath, SerializerModesProduceIdenticalBytes) {
  Machine m;
  RichApp app = BuildRichApp(m, 1 * kMiB);
  ConsistencyGroup* group = *m.sls->CreateGroup("app");
  ASSERT_TRUE(m.sls->Attach(group, app.proc).ok());

  FakeOids oids;
  auto cold = SerializeOsState(&m.sim, *group, 7, kInvalidOid, oids.Fn(), nullptr);
  ASSERT_TRUE(cold.ok());

  SerializeCache cache;
  cache.pass++;
  auto warm = SerializeOsState(&m.sim, *group, 7, kInvalidOid, oids.Fn(), nullptr, &cache,
                               SerializeMode::kWarmCache);
  ASSERT_TRUE(warm.ok());
  cache.pass++;
  auto assembled = SerializeOsState(&m.sim, *group, 7, kInvalidOid, oids.Fn(), nullptr, &cache,
                                    SerializeMode::kAssemble);
  ASSERT_TRUE(assembled.ok());

  EXPECT_TRUE(*cold == *warm);
  EXPECT_TRUE(*cold == *assembled);
}

// (c) Each mutating kernel op invalidates exactly the cached blobs it
// touches; untracked mutations are caught by the byte-compare stale path.
TEST(StopPath, CacheInvalidationPerMutatingOp) {
  Machine m;
  RichApp app = BuildRichApp(m, 1 * kMiB);
  Process* proc = app.proc;
  int kq_fd = *m.kernel->MakeKqueue(*proc);
  int sock_fd = *m.kernel->MakeSocket(*proc, SocketDomain::kInet, SocketProto::kTcp);
  auto [master_fd, slave_fd] = *m.kernel->MakePty(*proc);
  (void)slave_fd;
  ConsistencyGroup* group = *m.sls->CreateGroup("app");
  ASSERT_TRUE(m.sls->Attach(group, proc).ok());

  FakeOids oids;
  SerializeCache cache;
  auto run_pass = [&]() {
    cache.pass++;
    auto r = SerializeOsState(&m.sim, *group, 3, kInvalidOid, oids.Fn(), nullptr, &cache,
                              SerializeMode::kAssemble);
    EXPECT_TRUE(r.ok());
  };
  struct Deltas {
    uint64_t hits, misses, stale;
  };
  uint64_t hits0 = 0, misses0 = 0, stale0 = 0;
  auto take_deltas = [&]() {
    Deltas d{m.Counter("ckpt.serialize_cache_hits") - hits0,
             m.Counter("ckpt.serialize_cache_misses") - misses0,
             m.Counter("ckpt.serialize_cache_stale") - stale0};
    hits0 += d.hits;
    misses0 += d.misses;
    stale0 += d.stale;
    return d;
  };

  // Cold pass: everything misses.
  run_pass();
  Deltas cold = take_deltas();
  EXPECT_GT(cold.misses, 0u);
  EXPECT_EQ(cold.hits, 0u);
  EXPECT_EQ(cold.stale, 0u);
  const uint64_t entities = cold.misses;

  // Idle pass: everything hits.
  run_pass();
  Deltas idle = take_deltas();
  EXPECT_EQ(idle.hits, entities);
  EXPECT_EQ(idle.misses, 0u);
  EXPECT_EQ(idle.stale, 0u);

  // A vnode write dirties exactly the description and the vnode blobs.
  ASSERT_TRUE(m.kernel->WriteFd(*proc, app.file_fd, "x", 1).ok());
  run_pass();
  Deltas write = take_deltas();
  EXPECT_EQ(write.misses, 2u) << "WriteFd must invalidate the fd description and the vnode";
  EXPECT_EQ(write.hits, entities - 2);
  EXPECT_EQ(write.stale, 0u);

  // A seek dirties only the description.
  ASSERT_TRUE(m.kernel->SeekFd(*proc, app.file_fd, 0, 0).ok());
  run_pass();
  Deltas seek = take_deltas();
  EXPECT_EQ(seek.misses, 1u) << "SeekFd must invalidate only the fd description";
  EXPECT_EQ(seek.stale, 0u);

  // A signal dirties only the process blob.
  proc->PostSignal(10);
  run_pass();
  Deltas sig = take_deltas();
  EXPECT_EQ(sig.misses, 1u) << "PostSignal must invalidate only the process blob";
  EXPECT_EQ(sig.stale, 0u);

  // A layout mutation (new mapping) also lands on the process blob.
  auto obj = VmObject::CreateAnonymous(64 * kKiB);
  ASSERT_TRUE(proc->vm().Map(0x7000000, 64 * kKiB, kProtRead | kProtWrite, obj, 0, false).ok());
  run_pass();
  Deltas map = take_deltas();
  EXPECT_EQ(map.misses, 1u) << "Map must invalidate the process blob via the vm generation";
  EXPECT_EQ(map.stale, 0u);

  // Kqueue registration is generation-tracked: a clean miss on the kqueue
  // blob, never a byte-compare stale.
  auto* kq = static_cast<Kqueue*>((*proc->fds().Get(kq_fd))->object.get());
  kq->Register(KEvent{1, -1, 1, 0, 0, 42});
  run_pass();
  Deltas kqd = take_deltas();
  EXPECT_EQ(kqd.misses, 1u) << "Register must invalidate the kqueue blob via its generation";
  EXPECT_EQ(kqd.stale, 0u) << "a tracked mutation must never reach the byte-compare net";

  // Socket state-machine ops bump the socket generation.
  auto* sock = static_cast<Socket*>((*proc->fds().Get(sock_fd))->object.get());
  ASSERT_TRUE(sock->Bind({0x0a000001, 8080, ""}).ok());
  run_pass();
  Deltas bind = take_deltas();
  EXPECT_EQ(bind.misses, 1u) << "Bind must invalidate only the socket blob";
  EXPECT_EQ(bind.stale, 0u);
  ASSERT_TRUE(sock->Listen(16).ok());
  run_pass();
  Deltas listen = take_deltas();
  EXPECT_EQ(listen.misses, 1u) << "Listen must invalidate only the socket blob";
  EXPECT_EQ(listen.stale, 0u);

  // Pseudoterminal ioctl analogues bump the pty generation.
  auto* pty = static_cast<Pseudoterminal*>((*proc->fds().Get(master_fd))->object.get());
  pty->SetWinsize(50, 120);
  run_pass();
  Deltas winsz = take_deltas();
  EXPECT_EQ(winsz.misses, 1u) << "SetWinsize must invalidate only the pty blob";
  EXPECT_EQ(winsz.stale, 0u);
  pty->WriteInput("ls\n", 3);
  run_pass();
  Deltas ptyin = take_deltas();
  EXPECT_EQ(ptyin.misses, 1u) << "WriteInput must invalidate only the pty blob";
  EXPECT_EQ(ptyin.stale, 0u);

  // Steady state after every tracked kind has mutated: all hits, and the
  // byte-compare stale counter never fired across the whole test.
  run_pass();
  Deltas steady = take_deltas();
  EXPECT_EQ(steady.hits, entities);
  EXPECT_EQ(steady.misses, 0u);
  EXPECT_EQ(steady.stale, 0u);
  EXPECT_EQ(m.Counter("ckpt.serialize_cache_stale"), 0u)
      << "socket/kqueue/pty mutators are generation-tracked; nothing should go stale";
}

// Satellite sweep: the table6-flavored app mix — vnode write/seek/read,
// pipe traffic, shm stores through the backmap, pty io, socket setup —
// driven through real checkpoints. Every posix mutator must bump its
// serialization-cache generation itself (Pipe::Read/Write self-touch,
// Vnode::set_size/set_nlink, RebindShmObjects), so the byte-compare stale
// net never fires and steady-state epochs still take cache hits.
TEST(StopPath, AppMixSyscallsKeepSerializationCacheSound) {
  Machine m;
  RichApp app = BuildRichApp(m, 1 * kMiB);
  Process* proc = app.proc;
  int sock_fd = *m.kernel->MakeSocket(*proc, SocketDomain::kInet, SocketProto::kTcp);
  auto* sock = static_cast<Socket*>((*proc->fds().Get(sock_fd))->object.get());
  ASSERT_TRUE(sock->Bind({0x0a000001, 9090, ""}).ok());
  ASSERT_TRUE(sock->Listen(8).ok());
  auto [master_fd, slave_fd] = *m.kernel->MakePty(*proc);
  (void)slave_fd;
  int shm_fd = *m.kernel->ShmOpen(*proc, "/mix", 256 * kKiB);
  uint64_t shm_addr = *m.kernel->ShmMap(*proc, shm_fd);
  ConsistencyGroup* group = *m.sls->CreateGroup("app");
  ASSERT_TRUE(m.sls->Attach(group, proc).ok());

  char buf[64] = {};
  for (int epoch = 0; epoch < 6; epoch++) {
    // File: append (grows → tracked via set_size), overwrite, seek, read.
    ASSERT_TRUE(m.kernel->WriteFd(*proc, app.file_fd, "append-row", 10).ok());
    ASSERT_TRUE(m.kernel->SeekFd(*proc, app.file_fd, 0, 0).ok());
    ASSERT_TRUE(m.kernel->WriteFd(*proc, app.file_fd, "OVERWRITE", 9).ok());
    ASSERT_TRUE(m.kernel->ReadFd(*proc, app.file_fd, buf, sizeof(buf)).ok());
    // Pipe: producer/consumer round per epoch.
    ASSERT_TRUE(m.kernel->WriteFd(*proc, app.pipe_wfd, "tick", 4).ok());
    ASSERT_TRUE(m.kernel->ReadFd(*proc, app.pipe_rfd, buf, 4).ok());
    // Shm: dirty a page through the mapping the backmap rebinds every epoch.
    uint64_t v = static_cast<uint64_t>(epoch);
    ASSERT_TRUE(proc->vm().Write(shm_addr + kPageSize * static_cast<uint64_t>(epoch), &v,
                                 sizeof(v)).ok());
    // Pty: keystroke in, echo out.
    auto* pty = static_cast<Pseudoterminal*>((*proc->fds().Get(master_fd))->object.get());
    pty->WriteInput("k", 1);
    pty->WriteOutput("k", 1);
    // Heap churn so the epoch is never fully clean.
    ASSERT_TRUE(proc->vm().Write(app.addr + kPageSize * static_cast<uint64_t>(epoch), &v,
                                 sizeof(v)).ok());

    auto ckpt = m.sls->Checkpoint(group);
    ASSERT_TRUE(ckpt.ok());
    m.sim.clock.AdvanceTo(ckpt->durable_at);
  }

  EXPECT_EQ(m.Counter("ckpt.serialize_cache_stale"), 0u)
      << "a posix mutator changed serialized state without bumping its generation";
  EXPECT_GT(m.Counter("ckpt.serialize_cache_hits"), 0u)
      << "steady-state epochs should reuse cached blobs for untouched objects";
}

}  // namespace
}  // namespace aurora
