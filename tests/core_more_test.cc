// Second wave of SLS tests: API edges, quiescing behavior under checkpoints,
// group lifecycle, UDP/SysV coverage, CLI surface.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <memory>
#include <vector>

#include "src/base/sim_context.h"
#include "src/core/cli.h"
#include "src/core/sls.h"
#include "src/fs/aurora_fs.h"
#include "src/objstore/object_store.h"
#include "src/storage/block_device.h"

namespace aurora {
namespace {

struct Machine {
  explicit Machine(uint64_t store_bytes = 1 * kGiB) {
    device = MakePaperTestbedStore(&sim.clock, store_bytes);
    store = *ObjectStore::Format(device.get(), &sim);
    fs = std::make_unique<AuroraFs>(&sim, store.get());
    kernel = std::make_unique<Kernel>(&sim);
    sls = std::make_unique<Sls>(&sim, kernel.get(), store.get(), fs.get());
  }
  void Reboot() {
    store = *ObjectStore::Open(device.get(), &sim);
    fs = std::make_unique<AuroraFs>(&sim, store.get());
    kernel = std::make_unique<Kernel>(&sim);
    sls = std::make_unique<Sls>(&sim, kernel.get(), store.get(), fs.get());
  }
  SimContext sim;
  std::unique_ptr<BlockDevice> device;
  std::unique_ptr<ObjectStore> store;
  std::unique_ptr<AuroraFs> fs;
  std::unique_ptr<Kernel> kernel;
  std::unique_ptr<Sls> sls;
};

TEST(SlsGroups, DuplicateNamesAndAttachesRejected) {
  Machine m;
  ASSERT_TRUE(m.sls->CreateGroup("g").ok());
  EXPECT_FALSE(m.sls->CreateGroup("g").ok());
  Process* p = *m.kernel->CreateProcess("p");
  ConsistencyGroup* g = m.sls->FindGroup("g");
  ASSERT_TRUE(m.sls->Attach(g, p).ok());
  EXPECT_FALSE(m.sls->Attach(g, p).ok());
  EXPECT_TRUE(m.sls->Detach(p).ok());
  EXPECT_FALSE(m.sls->Detach(p).ok());
}

TEST(SlsGroups, DetachedProcessNotCheckpointed) {
  Machine m;
  Process* keeper = *m.kernel->CreateProcess("keeper");
  Process* worker = *m.kernel->CreateProcess("worker");
  ConsistencyGroup* g = *m.sls->CreateGroup("g");
  ASSERT_TRUE(m.sls->Attach(g, keeper).ok());
  ASSERT_TRUE(m.sls->Attach(g, worker).ok());
  ASSERT_TRUE(m.sls->Detach(worker).ok());  // sls detach: now ephemeral
  ASSERT_TRUE(m.sls->Checkpoint(g).ok());
  auto restored = *m.sls->Restore("g");
  EXPECT_EQ(restored.group->processes.size(), 1u);
  EXPECT_EQ(restored.group->processes[0]->name(), "keeper");
}

TEST(SlsQuiesce, SleepingSyscallsRestartTransparently) {
  Machine m;
  Process* proc = *m.kernel->CreateProcess("sleeper");
  proc->threads()[0]->state = ThreadState::kKernelSleeping;
  ConsistencyGroup* g = *m.sls->CreateGroup("sleeper");
  ASSERT_TRUE(m.sls->Attach(g, proc).ok());
  ASSERT_TRUE(m.sls->Checkpoint(g).ok());
  // After resume the thread is back in its (reissued) sleeping syscall and
  // the restart flag has been consumed — no EINTR surfaces.
  EXPECT_EQ(proc->threads()[0]->state, ThreadState::kKernelSleeping);
  EXPECT_FALSE(proc->threads()[0]->restart_syscall);
}

TEST(SlsQuiesce, ThreadStateSurvivesRestore) {
  Machine m;
  Process* proc = *m.kernel->CreateProcess("threads");
  Thread& t2 = proc->AddThread();
  t2.cpu.rip = 0xdeadbeef;
  t2.cpu.rsp = 0x7fffffff0000;
  t2.cpu.gpr[0] = 42;
  t2.cpu.fpu[0] = 0x99;
  t2.sigmask = 0xf0f0;
  t2.priority = 7;
  uint64_t t2_local = t2.local_tid();
  ConsistencyGroup* g = *m.sls->CreateGroup("threads");
  ASSERT_TRUE(m.sls->Attach(g, proc).ok());
  ASSERT_TRUE(m.sls->Checkpoint(g).ok());
  m.Reboot();
  auto restored = *m.sls->Restore("threads");
  auto& threads = restored.group->processes[0]->threads();
  ASSERT_EQ(threads.size(), 2u);
  EXPECT_EQ(threads[1]->local_tid(), t2_local);
  EXPECT_EQ(threads[1]->cpu.rip, 0xdeadbeefu);
  EXPECT_EQ(threads[1]->cpu.rsp, 0x7fffffff0000u);
  EXPECT_EQ(threads[1]->cpu.gpr[0], 42u);
  EXPECT_EQ(threads[1]->cpu.fpu[0], 0x99);
  EXPECT_EQ(threads[1]->sigmask, 0xf0f0u);
  EXPECT_EQ(threads[1]->priority, 7);
}

TEST(SlsSignals, PendingSignalsAndHandlersSurvive) {
  Machine m;
  Process* proc = *m.kernel->CreateProcess("sig");
  proc->sigactions[10].handler = 0x401000;
  proc->sigactions[10].mask = 0x400;
  ASSERT_TRUE(m.kernel->Kill(proc->local_pid(), 10).ok());
  ConsistencyGroup* g = *m.sls->CreateGroup("sig");
  ASSERT_TRUE(m.sls->Attach(g, proc).ok());
  ASSERT_TRUE(m.sls->Checkpoint(g).ok());
  m.Reboot();
  auto restored = *m.sls->Restore("sig");
  Process* rp = restored.group->processes[0];
  EXPECT_TRUE(rp->pending_signals & (1ull << 10));
  EXPECT_EQ(rp->sigactions[10].handler, 0x401000u);
  EXPECT_EQ(rp->signal_queue.size(), 1u);
}

TEST(SlsSockets, UdpSocketStateSurvives) {
  Machine m;
  Process* proc = *m.kernel->CreateProcess("udp");
  int fd = *m.kernel->MakeSocket(*proc, SocketDomain::kInet, SocketProto::kUdp);
  auto sock = std::static_pointer_cast<Socket>((*proc->fds().Get(fd))->object);
  ASSERT_TRUE(sock->Bind({0x0a000002, 5353, ""}).ok());
  sock->options[1] = 64 * 1024;  // SO_RCVBUF
  SockSegment datagram;
  datagram.data = {'p', 'k', 't'};
  datagram.from = {0x0a000003, 9999, ""};
  sock->recv_bytes += datagram.data.size();
  sock->recv_buf.push_back(datagram);

  ConsistencyGroup* g = *m.sls->CreateGroup("udp");
  ASSERT_TRUE(m.sls->Attach(g, proc).ok());
  ASSERT_TRUE(m.sls->Checkpoint(g).ok());
  m.Reboot();
  auto restored = *m.sls->Restore("udp");
  auto* rs = static_cast<Socket*>(
      (*restored.group->processes[0]->fds().Get(fd))->object.get());
  EXPECT_EQ(rs->proto(), SocketProto::kUdp);
  EXPECT_EQ(rs->local.port, 5353);
  EXPECT_EQ(rs->options[1], 64 * 1024);
  ASSERT_EQ(rs->recv_buf.size(), 1u);
  EXPECT_EQ(rs->recv_buf[0].from.port, 9999);
}

TEST(SlsSockets, ConnectedPairRelinkedWithinGroup) {
  Machine m;
  Process* a = *m.kernel->CreateProcess("a");
  Process* b = *m.kernel->CreateProcess("b");
  int lfd = *m.kernel->MakeSocket(*b, SocketDomain::kInet, SocketProto::kTcp);
  auto listener = std::static_pointer_cast<Socket>((*b->fds().Get(lfd))->object);
  ASSERT_TRUE(listener->Bind({1, 80, ""}).ok());
  ASSERT_TRUE(listener->Listen(4).ok());
  int cfd = *m.kernel->MakeSocket(*a, SocketDomain::kInet, SocketProto::kTcp);
  auto client = std::static_pointer_cast<Socket>((*a->fds().Get(cfd))->object);
  ASSERT_TRUE(client->Bind({2, 3333, ""}).ok());
  auto server_end = *client->ConnectTo(listener);
  auto sdesc = std::make_shared<FileDescription>();
  sdesc->object = server_end;
  int sfd = *b->fds().Install(sdesc);
  ASSERT_TRUE(client->Send("hello", 5).ok());
  uint32_t saved_snd_seq = client->snd_seq;

  ConsistencyGroup* g = *m.sls->CreateGroup("pair");
  ASSERT_TRUE(m.sls->Attach(g, a).ok());
  ASSERT_TRUE(m.sls->Attach(g, b).ok());
  ASSERT_TRUE(m.sls->Checkpoint(g).ok());
  m.Reboot();
  auto restored = *m.sls->Restore("pair");
  auto rclient = std::static_pointer_cast<Socket>(
      (*restored.group->processes[0]->fds().Get(cfd))->object);
  auto rserver = std::static_pointer_cast<Socket>(
      (*restored.group->processes[1]->fds().Get(sfd))->object);
  EXPECT_EQ(rclient->snd_seq, saved_snd_seq) << "TCP sequence numbers restored";
  // The pair is relinked: a fresh send flows end to end.
  ASSERT_TRUE(rclient->Send("again", 5).ok());
  bool found = false;
  for (const auto& seg : rserver->recv_buf) {
    found |= std::string(seg.data.begin(), seg.data.end()) == "again";
  }
  EXPECT_TRUE(found);
}

TEST(SlsDevices, NonWhitelistedDeviceBlocksCheckpointRestore) {
  Machine m;
  Process* proc = *m.kernel->CreateProcess("gpu-app");
  int fd = *m.kernel->OpenDevice(*proc, "gpu0");  // not on the whitelist
  (void)fd;
  ConsistencyGroup* g = *m.sls->CreateGroup("gpu-app");
  ASSERT_TRUE(m.sls->Attach(g, proc).ok());
  ASSERT_TRUE(m.sls->Checkpoint(g).ok());
  // The checkpoint records the device, but restore refuses to fabricate it.
  auto restored = m.sls->Restore("gpu-app");
  EXPECT_FALSE(restored.ok());
  EXPECT_EQ(restored.status().code(), Errc::kNotSupported);
}

TEST(SlsAio, PendingReadsReissuedAfterRestore) {
  Machine m;
  Process* proc = *m.kernel->CreateProcess("aio");
  int fd = *m.kernel->Open(*proc, "data", kOpenRead, true);
  m.kernel->SubmitAio(*proc, fd, AioRequest::Op::kRead, 4096, 8192);
  m.kernel->SubmitAio(*proc, fd, AioRequest::Op::kWrite, 0, 4096);
  ConsistencyGroup* g = *m.sls->CreateGroup("aio");
  ASSERT_TRUE(m.sls->Attach(g, proc).ok());
  ASSERT_TRUE(m.sls->Checkpoint(g).ok());
  m.Reboot();
  auto restored = *m.sls->Restore("aio");
  Process* rp = restored.group->processes[0];
  // Only the read survives (writes were drained into the checkpoint) and it
  // is in-flight again, ready to be reissued.
  ASSERT_EQ(rp->aios.size(), 1u);
  EXPECT_EQ(rp->aios[0].op, AioRequest::Op::kRead);
  EXPECT_EQ(rp->aios[0].state, AioRequest::State::kInFlight);
  EXPECT_EQ(rp->aios[0].offset, 4096u);
}

TEST(SlsBarrier, AdvancesToDurability) {
  Machine m;
  Process* proc = *m.kernel->CreateProcess("b");
  auto obj = VmObject::CreateAnonymous(4 * kMiB);
  uint64_t addr = *proc->vm().Map(0x400000, 4 * kMiB, kProtRead | kProtWrite, obj, 0, false);
  ASSERT_TRUE(proc->vm().DirtyRange(addr, 4 * kMiB).ok());
  ConsistencyGroup* g = *m.sls->CreateGroup("b");
  ASSERT_TRUE(m.sls->Attach(g, proc).ok());
  auto ckpt = *m.sls->Checkpoint(g);
  EXPECT_GT(ckpt.durable_at, m.sim.clock.now()) << "flush must be asynchronous";
  ASSERT_TRUE(m.sls->Barrier(g).ok());
  EXPECT_GE(m.sim.clock.now(), ckpt.durable_at);
}

TEST(SlsCliSurface, PsListsGroupsAndHistory) {
  Machine m;
  SlsCli cli(m.sls.get());
  Process* proc = *m.kernel->CreateProcess("app");
  ASSERT_TRUE(cli.Attach("app", proc).ok());
  ASSERT_TRUE(cli.Checkpoint("app", "named-one").ok());
  auto lines = cli.Ps();
  bool saw_group = false;
  bool saw_ckpt = false;
  for (const auto& line : lines) {
    saw_group |= line.find("app") != std::string::npos && line.find("procs=1") != std::string::npos;
    saw_ckpt |= line.find("named-one") != std::string::npos;
  }
  EXPECT_TRUE(saw_group);
  EXPECT_TRUE(saw_ckpt);
  EXPECT_FALSE(cli.Checkpoint("missing", "x").ok());
  EXPECT_FALSE(cli.Suspend("missing").ok());
  EXPECT_FALSE(cli.Dump("app", 424242).ok());
}

TEST(SlsRestoreModes, LazyRestoredAppCheckpointsIncrementally) {
  Machine m;
  Process* proc = *m.kernel->CreateProcess("lazy2");
  auto obj = VmObject::CreateAnonymous(4 * kMiB);
  uint64_t addr = *proc->vm().Map(0x400000, 4 * kMiB, kProtRead | kProtWrite, obj, 0, false);
  ASSERT_TRUE(proc->vm().DirtyRange(addr, 4 * kMiB).ok());
  ConsistencyGroup* g = *m.sls->CreateGroup("lazy2");
  ASSERT_TRUE(m.sls->Attach(g, proc).ok());
  ASSERT_TRUE(m.sls->Checkpoint(g).ok());

  auto restored = *m.sls->Restore("lazy2", 0, RestoreMode::kLazy);
  Process* rp = restored.group->processes[0];
  // Touch a few pages, then checkpoint: only those pages flush.
  uint64_t v = 123;
  ASSERT_TRUE(rp->vm().Write(addr + 64 * kPageSize, &v, sizeof(v)).ok());
  auto second = *m.sls->Checkpoint(restored.group);
  EXPECT_LE(second.pages_flushed, 8u)
      << "a lazily restored app must not re-flush its whole image";
  // And the data is still complete at the new epoch after a reboot.
  m.Reboot();
  auto again = *m.sls->Restore("lazy2");
  uint64_t got = 0;
  ASSERT_TRUE(again.group->processes[0]->vm().Read(addr + 64 * kPageSize, &got, sizeof(got)).ok());
  EXPECT_EQ(got, 123u);
}

TEST(SlsManifest, PeekAndMemoryListing) {
  Machine m;
  Process* proc = *m.kernel->CreateProcess("peek");
  auto obj = VmObject::CreateAnonymous(128 * kKiB);
  AURORA_IGNORE_STATUS(proc->vm().Map(0x400000, 128 * kKiB, kProtRead | kProtWrite, obj, 0, false), "mapping exists only to add payload; the address is unused");
  ConsistencyGroup* g = *m.sls->CreateGroup("peek");
  ASSERT_TRUE(m.sls->Attach(g, proc).ok());
  auto ckpt = *m.sls->Checkpoint(g);
  auto found = *LoadManifestFromStore(m.store.get(), "peek", ckpt.epoch);
  EXPECT_EQ(found.epoch, ckpt.epoch);
  const std::vector<uint8_t>& manifest = found.blob;
  auto head = *PeekManifest(manifest);
  EXPECT_EQ(head.name, "peek");
  EXPECT_EQ(head.epoch, ckpt.epoch);
  auto memory = *ManifestMemoryObjects(manifest);
  ASSERT_FALSE(memory.empty());
  EXPECT_EQ(memory[0].second % kPageSize, 0u);
  EXPECT_FALSE(LoadManifestFromStore(m.store.get(), "nope", 0).ok());
}

TEST(SlsManifest, HugeMemoryObjectCountIsCorrupt) {
  // The memory-object count must not size an allocation before the entries
  // it counts are known to be there: reserving 2^40 entries throws
  // std::bad_alloc.
  Machine m;
  Process* proc = *m.kernel->CreateProcess("huge");
  auto obj = VmObject::CreateAnonymous(64 * kKiB);
  ASSERT_TRUE(proc->vm().Map(0x400000, 64 * kKiB, kProtRead | kProtWrite, obj, 0, false).ok());
  ConsistencyGroup* g = *m.sls->CreateGroup("huge");
  ASSERT_TRUE(m.sls->Attach(g, proc).ok());
  auto ckpt = *m.sls->Checkpoint(g);
  std::vector<uint8_t> manifest = LoadManifestFromStore(m.store.get(), "huge", ckpt.epoch)->blob;
  // magic, version, u64-prefixed name, epoch, namespace oid, then the count.
  const size_t count_off = 4 + 4 + 8 + std::string("huge").size() + 8 + 8;
  ASSERT_EQ(manifest[count_off], ManifestMemoryObjects(manifest)->size());
  for (uint64_t count : {uint64_t{1} << 40, uint64_t{1} << 63}) {
    std::vector<uint8_t> bad = manifest;
    for (size_t i = 0; i < 8; i++) {
      bad[count_off + i] = static_cast<uint8_t>(count >> (8 * i));
    }
    EXPECT_EQ(ManifestMemoryObjects(bad).status().code(), Errc::kCorrupt) << count;
  }
}

TEST(SlsSysV, SegmentsSurviveRestoreWithIdsAndSharing) {
  Machine m;
  Process* a = *m.kernel->CreateProcess("a");
  Process* b = *m.kernel->CreateProcess("b");
  int fd_a = *m.kernel->ShmGet(*a, 0xbeef, 128 * kKiB);
  int fd_b = *m.kernel->ShmGet(*b, 0xbeef, 128 * kKiB);
  uint64_t addr_a = *m.kernel->ShmMap(*a, fd_a);
  uint64_t addr_b = *m.kernel->ShmMap(*b, fd_b);
  uint64_t v = 0x1234;
  ASSERT_TRUE(a->vm().Write(addr_a, &v, sizeof(v)).ok());
  auto shm = m.kernel->sysv_shm().begin()->second;
  int32_t saved_id = shm->shmid;

  ConsistencyGroup* g = *m.sls->CreateGroup("sysv");
  ASSERT_TRUE(m.sls->Attach(g, a).ok());
  ASSERT_TRUE(m.sls->Attach(g, b).ok());
  ASSERT_TRUE(m.sls->Checkpoint(g).ok());
  m.Reboot();
  auto restored = *m.sls->Restore("sysv");
  // The segment is back in the global namespace with its id and key.
  auto found = m.kernel->FindSysVById(saved_id);
  ASSERT_TRUE(found.ok());
  EXPECT_EQ((*found)->key, 0xbeef);
  // And both processes still share it.
  uint64_t got = 0;
  ASSERT_TRUE(restored.group->processes[1]->vm().Read(addr_b, &got, sizeof(got)).ok());
  EXPECT_EQ(got, 0x1234u);
  uint64_t nv = 0x5678;
  ASSERT_TRUE(restored.group->processes[0]->vm().Write(addr_a, &nv, sizeof(nv)).ok());
  ASSERT_TRUE(restored.group->processes[1]->vm().Read(addr_b, &got, sizeof(got)).ok());
  EXPECT_EQ(got, 0x5678u);
}

TEST(SlsCliSurface, PruneReclaimsHistory) {
  Machine m;
  SlsCli cli(m.sls.get());
  Process* proc = *m.kernel->CreateProcess("hist");
  auto obj = VmObject::CreateAnonymous(2 * kMiB);
  uint64_t addr = *proc->vm().Map(0x400000, 2 * kMiB, kProtRead | kProtWrite, obj, 0, false);
  ASSERT_TRUE(cli.Attach("hist", proc).ok());
  std::vector<uint64_t> epochs;
  for (int i = 0; i < 6; i++) {
    ASSERT_TRUE(proc->vm().DirtyRange(addr, 2 * kMiB).ok());
    epochs.push_back((*cli.Checkpoint("hist", "v" + std::to_string(i))).epoch);
  }
  uint64_t free_before = m.store->FreeBlocks();
  ASSERT_TRUE(cli.Prune(epochs[4]).ok());
  EXPECT_GT(m.store->FreeBlocks(), free_before);
  // Pruned epochs are gone; retained ones still restore.
  EXPECT_FALSE(m.sls->Restore("hist", epochs[1]).ok());
  EXPECT_TRUE(m.sls->Restore("hist", epochs[5]).ok());
}

TEST(SlsSockets, ShutdownStateSurvivesRestore) {
  Machine m;
  Process* a = *m.kernel->CreateProcess("a");
  int lfd = *m.kernel->MakeSocket(*a, SocketDomain::kInet, SocketProto::kTcp);
  auto listener = std::static_pointer_cast<Socket>((*a->fds().Get(lfd))->object);
  ASSERT_TRUE(listener->Bind({1, 80, ""}).ok());
  ASSERT_TRUE(listener->Listen(4).ok());
  int cfd = *m.kernel->MakeSocket(*a, SocketDomain::kInet, SocketProto::kTcp);
  auto client = std::static_pointer_cast<Socket>((*a->fds().Get(cfd))->object);
  ASSERT_TRUE(client->Bind({2, 999, ""}).ok());
  auto server_end = *client->ConnectTo(listener);
  auto sdesc = std::make_shared<FileDescription>();
  sdesc->object = server_end;
  int sfd = *a->fds().Install(sdesc);
  client->Shutdown();

  ConsistencyGroup* g = *m.sls->CreateGroup("a");
  ASSERT_TRUE(m.sls->Attach(g, a).ok());
  ASSERT_TRUE(m.sls->Checkpoint(g).ok());
  m.Reboot();
  auto restored = *m.sls->Restore("a");
  auto* rs = static_cast<Socket*>(
      (*restored.group->processes[0]->fds().Get(sfd))->object.get());
  EXPECT_TRUE(rs->peer_shutdown) << "half-closed state must survive";
  auto eof = *rs->Recv(16);
  EXPECT_TRUE(eof.data.empty());
}

TEST(SlsRestoreModes, MemoryRestoreOfForkedAppAfterMemOnlyCheckpoint) {
  // Regression: a from-memory restore must resolve *whole* chains —
  // including fork parents that were never flushed by a full checkpoint.
  Machine m;
  Process* parent = *m.kernel->CreateProcess("p");
  auto obj = VmObject::CreateAnonymous(256 * kKiB);
  uint64_t addr = *parent->vm().Map(0x400000, 256 * kKiB, kProtRead | kProtWrite, obj, 0,
                                    /*cow=*/true);
  uint64_t inherited = 0xface;
  ASSERT_TRUE(parent->vm().Write(addr, &inherited, sizeof(inherited)).ok());
  Process* child = *m.kernel->Fork(*parent);
  uint64_t child_own = 0xbead;
  ASSERT_TRUE(child->vm().Write(addr + 8, &child_own, sizeof(child_own)).ok());

  ConsistencyGroup* g = *m.sls->CreateGroup("p");
  ASSERT_TRUE(m.sls->Attach(g, parent).ok());
  ASSERT_TRUE(m.sls->Attach(g, child).ok());
  // Only a memory checkpoint: nothing reaches the store.
  ASSERT_TRUE(m.sls->Checkpoint(g, "", CheckpointMode::kMemoryOnly).ok());

  uint64_t junk = 1;
  ASSERT_TRUE(child->vm().Write(addr, &junk, sizeof(junk)).ok());
  auto restored = *m.sls->RestoreFromMemory("p");
  ASSERT_EQ(restored.group->processes.size(), 2u);
  Process* rc = restored.group->processes[1];
  uint64_t got = 0;
  ASSERT_TRUE(rc->vm().Read(addr, &got, sizeof(got)).ok());
  EXPECT_EQ(got, 0xfaceu) << "fork-parent data must survive a memory restore";
  ASSERT_TRUE(rc->vm().Read(addr + 8, &got, sizeof(got)).ok());
  EXPECT_EQ(got, 0xbeadu);
}

// Fills page `page` of the mapping at `base` with `byte`.
void FillPage(Process* proc, uint64_t base, uint64_t page, uint8_t byte) {
  std::vector<uint8_t> bytes(kPageSize, byte);
  ASSERT_TRUE(proc->vm().Write(base + page * kPageSize, bytes.data(), bytes.size()).ok());
}

// The byte at the start of page `page` of the mapping at `base`.
uint8_t PageByte(Process* proc, uint64_t base, uint64_t page) {
  uint8_t byte = 0xEE;
  EXPECT_TRUE(proc->vm().Read(base + page * kPageSize, &byte, 1).ok());
  return byte;
}

TEST(SlsRestoreModes, MemoryRollbackStillFlushesMemoryOnlyEpochs) {
  // A restore from memory rolls back over memory-only epochs whose pages the
  // store has never seen; the next full checkpoint must still flush them.
  // Variant 0: one memory-only epoch; 1: two stacked ones; 2: a region first
  // mapped after the last full checkpoint.
  constexpr uint64_t kData = 0x400000;
  constexpr uint64_t kLate = 0x800000;
  for (int variant = 0; variant < 3; variant++) {
    SCOPED_TRACE("variant " + std::to_string(variant));
    Machine m;
    Process* proc = *m.kernel->CreateProcess("owed");
    auto obj = VmObject::CreateAnonymous(64 * kKiB);
    ASSERT_TRUE(proc->vm().Map(kData, 64 * kKiB, kProtRead | kProtWrite, obj, 0, false).ok());
    ConsistencyGroup* g = *m.sls->CreateGroup("owed");
    ASSERT_TRUE(m.sls->Attach(g, proc).ok());
    FillPage(proc, kData, 0, 'A');
    ASSERT_TRUE(m.sls->Checkpoint(g).ok());

    FillPage(proc, kData, 0, 'B');
    FillPage(proc, kData, 1, 'B');
    if (variant == 2) {
      auto late = VmObject::CreateAnonymous(64 * kKiB);
      ASSERT_TRUE(proc->vm().Map(kLate, 64 * kKiB, kProtRead | kProtWrite, late, 0, false).ok());
      FillPage(proc, kLate, 0, 'N');
    }
    ASSERT_TRUE(m.sls->Checkpoint(g, "", CheckpointMode::kMemoryOnly).ok());
    if (variant == 1) {
      FillPage(proc, kData, 1, 'C');
      ASSERT_TRUE(m.sls->Checkpoint(g, "", CheckpointMode::kMemoryOnly).ok());
    }

    auto rolled = *m.sls->RestoreFromMemory("owed");
    ASSERT_TRUE(m.sls->Checkpoint(rolled.group).ok());
    m.Reboot();
    auto again = *m.sls->Restore("owed");
    Process* rp = again.group->processes[0];
    EXPECT_EQ(PageByte(rp, kData, 0), 'B');
    EXPECT_EQ(PageByte(rp, kData, 1), variant == 1 ? 'C' : 'B');
    if (variant == 2) {
      EXPECT_EQ(PageByte(rp, kLate, 0), 'N');
    }
  }
}

TEST(SlsRestoreModes, MemoryRollbackKeepsFrozenObjectsNoWritableEntryMaps) {
  // A rollback maps a snapshot object that no writable entry maps — a region
  // made read-only (variant 0), or a shm segment unmapped (variant 1), after
  // the memory-only checkpoint that froze it. Later collapses must neither
  // empty it under the running image nor skip flushing its pages.
  constexpr uint64_t kData = 0x400000;
  for (int variant = 0; variant < 2; variant++) {
    SCOPED_TRACE("variant " + std::to_string(variant));
    Machine m;
    Process* proc = *m.kernel->CreateProcess("frozen");
    int shm_fd = *m.kernel->ShmOpen(*proc, "/seg", 64 * kKiB);
    uint64_t shm_addr = *m.kernel->ShmMap(*proc, shm_fd);
    auto obj = VmObject::CreateAnonymous(64 * kKiB);
    ASSERT_TRUE(proc->vm().Map(kData, 64 * kKiB, kProtRead | kProtWrite, obj, 0, false).ok());
    uint64_t base = variant == 0 ? kData : shm_addr;
    ConsistencyGroup* g = *m.sls->CreateGroup("frozen");
    ASSERT_TRUE(m.sls->Attach(g, proc).ok());
    FillPage(proc, base, 0, 'A');
    ASSERT_TRUE(m.sls->Checkpoint(g).ok());
    FillPage(proc, base, 0, 'B');
    ASSERT_TRUE(m.sls->Checkpoint(g, "", CheckpointMode::kMemoryOnly).ok());
    if (variant == 0) {
      ASSERT_TRUE(proc->vm().Protect(kData, 64 * kKiB, kProtRead).ok());
    } else {
      ASSERT_TRUE(proc->vm().Unmap(shm_addr, 64 * kKiB).ok());
    }
    ASSERT_TRUE(m.sls->Checkpoint(g, "", CheckpointMode::kMemoryOnly).ok());

    auto rolled = *m.sls->RestoreFromMemory("frozen");
    for (int i = 0; i < 3; i++) {
      ASSERT_TRUE(m.sls->Checkpoint(rolled.group).ok());
    }
    Process* rp = rolled.group->processes[0];
    if (variant == 1) {
      base = *m.kernel->ShmMap(*rp, shm_fd);
    }
    EXPECT_EQ(PageByte(rp, base, 0), 'B') << "the running image";
    m.Reboot();
    auto again = *m.sls->Restore("frozen");
    rp = again.group->processes[0];
    if (variant == 1) {
      base = *m.kernel->ShmMap(*rp, shm_fd);
    }
    EXPECT_EQ(PageByte(rp, base, 0), 'B') << "the durable image";
  }
}

TEST(SlsRestoreModes, RepeatedMemoryRollbackStaysAtTheNewestCheckpoint) {
  Machine m;
  Process* proc = *m.kernel->CreateProcess("twice");
  constexpr uint64_t kData = 0x400000;
  auto obj = VmObject::CreateAnonymous(64 * kKiB);
  ASSERT_TRUE(proc->vm().Map(kData, 64 * kKiB, kProtRead | kProtWrite, obj, 0, false).ok());
  ConsistencyGroup* g = *m.sls->CreateGroup("twice");
  ASSERT_TRUE(m.sls->Attach(g, proc).ok());
  FillPage(proc, kData, 0, 'A');
  ASSERT_TRUE(m.sls->Checkpoint(g).ok());
  FillPage(proc, kData, 0, 'B');
  ASSERT_TRUE(m.sls->Checkpoint(g).ok());

  for (int round = 0; round < 2; round++) {
    auto rolled = *m.sls->RestoreFromMemory("twice");
    Process* rp = rolled.group->processes[0];
    EXPECT_EQ(PageByte(rp, kData, 0), 'B') << "round " << round;
    FillPage(rp, kData, 0, 'X');
  }
}

TEST(SlsFilesystem, CheckpointConsistencyForFiles) {
  // AuroraFS semantics (paper 5.2): fsync is a no-op and file durability
  // comes from checkpoints — data written after the last checkpoint is
  // rolled back by a crash, together with the process state that wrote it.
  Machine m;
  Process* proc = *m.kernel->CreateProcess("editor");
  int fd = *m.kernel->Open(*proc, "doc.txt", kOpenRead | kOpenWrite, true);
  ConsistencyGroup* g = *m.sls->CreateGroup("editor");
  ASSERT_TRUE(m.sls->Attach(g, proc).ok());

  ASSERT_TRUE(m.kernel->WriteFd(*proc, fd, "checkpointed", 12).ok());
  ASSERT_TRUE(m.sls->Checkpoint(g).ok());
  ASSERT_TRUE(m.sls->Barrier(g).ok());

  // Post-checkpoint write + fsync: the fsync is free and NOT durable.
  ASSERT_TRUE(m.kernel->WriteFd(*proc, fd, "-volatile", 9).ok());
  auto vn = *m.fs->Lookup("doc.txt");
  ASSERT_TRUE(vn->Fsync().ok());

  m.Reboot();
  auto restored = *m.sls->Restore("editor");
  Process* rp = restored.group->processes[0];
  // The file AND the fd offset are back at the checkpoint: consistent.
  EXPECT_EQ(*m.kernel->SeekFd(*rp, fd, 0, 1), 12u);
  char buf[32] = {};
  ASSERT_TRUE(m.kernel->SeekFd(*rp, fd, 0, 0).ok());
  auto n = *m.kernel->ReadFd(*rp, fd, buf, sizeof(buf));
  EXPECT_EQ(std::string(buf, n), "checkpointed")
      << "post-checkpoint file data must roll back with the process";
}

TEST(SlsFilesystem, AnonymousFileSurvivesCrashViaHiddenRefs) {
  // The paper's anonymous-file case: open + unlink + checkpoint + crash.
  Machine m;
  Process* proc = *m.kernel->CreateProcess("tmpuser");
  int fd = *m.kernel->Open(*proc, "scratch", kOpenRead | kOpenWrite, true);
  ASSERT_TRUE(m.kernel->WriteFd(*proc, fd, "secret-temp-state", 17).ok());
  ASSERT_TRUE(m.fs->Unlink("scratch").ok());  // anonymous now
  EXPECT_FALSE(m.fs->Lookup("scratch").ok());

  ConsistencyGroup* g = *m.sls->CreateGroup("tmpuser");
  ASSERT_TRUE(m.sls->Attach(g, proc).ok());
  ASSERT_TRUE(m.sls->Checkpoint(g).ok());
  m.Reboot();
  auto restored = *m.sls->Restore("tmpuser");
  Process* rp = restored.group->processes[0];
  char buf[32] = {};
  ASSERT_TRUE(m.kernel->SeekFd(*rp, fd, 0, 0).ok());
  auto n = *m.kernel->ReadFd(*rp, fd, buf, sizeof(buf));
  EXPECT_EQ(std::string(buf, n), "secret-temp-state")
      << "unlinked-but-open files must survive through hidden references";
  // Still anonymous: no namespace entry reappears.
  EXPECT_FALSE(m.fs->Lookup("scratch").ok());
}

TEST(SlsStopTimes, HistogramAccumulates) {
  Machine m;
  Process* proc = *m.kernel->CreateProcess("stats");
  auto obj = VmObject::CreateAnonymous(1 * kMiB);
  uint64_t addr = *proc->vm().Map(0x400000, 1 * kMiB, kProtRead | kProtWrite, obj, 0, false);
  ConsistencyGroup* g = *m.sls->CreateGroup("stats");
  ASSERT_TRUE(m.sls->Attach(g, proc).ok());
  for (int i = 0; i < 10; i++) {
    ASSERT_TRUE(proc->vm().DirtyRange(addr, 32 * kPageSize).ok());
    ASSERT_TRUE(m.sls->Checkpoint(g).ok());
  }
  EXPECT_EQ(g->checkpoints_taken, 10u);
  EXPECT_EQ(g->stop_times.count(), 10u);
  EXPECT_GT(g->stop_times.Percentile(50), 0u);
  // bytes_flushed_total counts physical device bytes: after round one the
  // re-dirtied stamp pages dedup against the epoch-one extents, so the total
  // stays far below the 10 x 32-page logical footprint.
  EXPECT_GT(g->bytes_flushed_total, 0u);
  EXPECT_LT(g->bytes_flushed_total, 10u * 32 * kPageSize / 2);
}

// Every full checkpoint persists the file system's name table as a store
// object, and a restore searches the live table for the group's manifest.
// The previous name table leaves the live table once the next is written, so
// neither the live table nor a lazy restore grows with history — across a
// restore and a reboot — while an older retained epoch still restores the
// file names it had.
TEST(SlsNamespace, LiveTableAndRestoreStayFlatOverCheckpoints) {
  Machine m;
  constexpr uint64_t kAddr = 0x400000;
  constexpr uint64_t kBytes = 256 * kKiB;
  Process* proc = *m.kernel->CreateProcess("ns");
  auto obj = VmObject::CreateAnonymous(kBytes);
  ASSERT_TRUE(proc->vm().Map(kAddr, kBytes, kProtRead | kProtWrite, obj, 0, false).ok());
  ASSERT_TRUE(proc->vm().DirtyRange(kAddr, kBytes).ok());
  ASSERT_TRUE(m.kernel->Open(*proc, "first.txt", kOpenRead | kOpenWrite, true).ok());
  ConsistencyGroup* g = *m.sls->CreateGroup("ns");
  ASSERT_TRUE(m.sls->Attach(g, proc).ok());
  const uint64_t first_epoch = m.sls->Checkpoint(g)->epoch;
  ASSERT_TRUE(m.kernel->Open(*proc, "later.txt", kOpenRead | kOpenWrite, true).ok());

  auto lazy_restore = [&]() {
    RestoreResult r = *m.sls->Restore("ns", 0, RestoreMode::kLazy);
    g = r.group;
    proc = g->processes[0];
    return r.restore_time;
  };
  size_t live_early = 0;
  SimDuration lazy_early = 0;
  int reboot_fd = -1;
  for (uint64_t k = 1; k <= 200; k++) {
    ASSERT_TRUE(proc->vm().Write(kAddr + (k % 64) * kPageSize, &k, sizeof(k)).ok());
    ASSERT_TRUE(m.sls->Checkpoint(g).ok()) << "checkpoint " << k;
    if (k == 10) {
      live_early = m.store->ListObjects().size();
      lazy_early = lazy_restore();
    }
    if (k == 100) {
      m.Reboot();
      g = m.sls->Restore("ns")->group;
      proc = g->processes[0];
      reboot_fd = *m.kernel->Open(*proc, "later.txt", kOpenRead, false);
    }
  }
  EXPECT_EQ(m.store->ListObjects().size(), live_early);
  // The restored state itself differs a little (one more descriptor), so
  // flat means within 10 %; at 200 checkpoints the history scan was 6x.
  EXPECT_NEAR(static_cast<double>(lazy_restore()), static_cast<double>(lazy_early),
              0.1 * static_cast<double>(lazy_early));
  EXPECT_TRUE(proc->fds().Get(reboot_fd).ok())
      << "the restore must read the newest manifest, not the one from before the reboot";

  m.Reboot();
  ASSERT_TRUE(m.sls->Restore("ns", first_epoch).ok());
  EXPECT_TRUE(m.fs->Lookup("first.txt").ok());
  EXPECT_FALSE(m.fs->Lookup("later.txt").ok());
}

// Each group replaces only its own namespace object: a group whose newest
// manifest predates another group's checkpoints still restores its names.
TEST(SlsNamespace, GroupRestoresAfterAnotherGroupCheckpoints) {
  Machine m;
  Process* a = *m.kernel->CreateProcess("a");
  ASSERT_TRUE(m.kernel->Open(*a, "a.txt", kOpenRead | kOpenWrite, true).ok());
  ConsistencyGroup* ga = *m.sls->CreateGroup("a");
  ASSERT_TRUE(m.sls->Attach(ga, a).ok());
  ASSERT_TRUE(m.sls->Checkpoint(ga).ok());
  Process* b = *m.kernel->CreateProcess("b");
  ConsistencyGroup* gb = *m.sls->CreateGroup("b");
  ASSERT_TRUE(m.sls->Attach(gb, b).ok());
  ASSERT_TRUE(m.sls->Checkpoint(gb).ok());
  ASSERT_TRUE(m.sls->Checkpoint(gb).ok());

  m.Reboot();
  ASSERT_TRUE(m.sls->Restore("a").ok());
  EXPECT_TRUE(m.fs->Lookup("a.txt").ok());
}

// After restoring an older epoch, the group's next checkpoint must replace
// the manifest and names live at the newest epoch. Otherwise they stay live
// beside its own, and a later restore of the newest epoch loads them: the
// names and descriptors of an epoch the application had rolled back past.
void OlderEpochRestoreThenCheckpoint(bool reboot_before_restore) {
  Machine m;
  Process* proc = *m.kernel->CreateProcess("ns");
  ConsistencyGroup* g = *m.sls->CreateGroup("ns");
  ASSERT_TRUE(m.sls->Attach(g, proc).ok());
  ASSERT_TRUE(m.kernel->Open(*proc, "a.txt", kOpenRead | kOpenWrite, true).ok());
  const uint64_t first = m.sls->Checkpoint(g)->epoch;
  ASSERT_TRUE(m.kernel->Open(*proc, "b.txt", kOpenRead | kOpenWrite, true).ok());
  ASSERT_TRUE(m.sls->Checkpoint(g).ok());
  if (reboot_before_restore) {
    m.Reboot();
  }
  auto rolled_back = m.sls->Restore("ns", first);
  ASSERT_TRUE(rolled_back.ok()) << rolled_back.status().message();
  proc = rolled_back->group->processes[0];
  ASSERT_TRUE(m.kernel->Open(*proc, "c.txt", kOpenRead | kOpenWrite, true).ok());
  ASSERT_TRUE(m.sls->Checkpoint(rolled_back->group).ok());
  // A namespace restore adds the checkpoint's names and removes none, so
  // only a file system rebuilt by the reboot has lost b.txt.
  ASSERT_TRUE(m.fs->Lookup("c.txt").ok());
  ASSERT_EQ(m.fs->Lookup("b.txt").ok(), !reboot_before_restore);

  m.Reboot();
  auto restored = m.sls->Restore("ns");
  ASSERT_TRUE(restored.ok()) << restored.status().message();
  EXPECT_TRUE(m.fs->Lookup("c.txt").ok());
  EXPECT_EQ(m.fs->Lookup("b.txt").ok(), !reboot_before_restore);
  // The process holds e3's descriptors: one of them is c.txt.
  auto c = m.fs->Lookup("c.txt");
  ASSERT_TRUE(c.ok());
  const auto& slots = restored->group->processes[0]->fds().slots();
  EXPECT_TRUE(std::any_of(slots.begin(), slots.end(), [&](const FdTable::Slot& slot) {
    return slot.desc != nullptr && slot.desc->object == *c;
  }));
}

TEST(SlsNamespace, OlderEpochRestoreAfterRebootThenCheckpointRestoresItsNames) {
  OlderEpochRestoreThenCheckpoint(/*reboot_before_restore=*/true);
}

TEST(SlsNamespace, OlderEpochRestoreThenCheckpointRestoresItsNames) {
  OlderEpochRestoreThenCheckpoint(/*reboot_before_restore=*/false);
}

// Suspend frees the group's in-memory checkpoint with its processes: nothing
// pins the region's memory any more, and there is no rollback in RAM left.
// The backend still holds the image, so the group resumes from it.
TEST(SlsLifecycle, SuspendFreesTheInMemoryCheckpoint) {
  Machine m;
  constexpr uint64_t kMem = 256 * kKiB;
  Process* proc = *m.kernel->CreateProcess("suspended");
  std::weak_ptr<VmObject> region;
  uint64_t addr = 0;
  {
    auto obj = VmObject::CreateAnonymous(kMem);
    region = obj;
    addr = *proc->vm().Map(0x400000, kMem, kProtRead | kProtWrite, obj, 0, false);
  }
  std::vector<uint8_t> data(kMem, 0x5c);
  ASSERT_TRUE(proc->vm().Write(addr, data.data(), data.size()).ok());
  ConsistencyGroup* group = *m.sls->CreateGroup("suspended");
  ASSERT_TRUE(m.sls->Attach(group, proc).ok());
  ASSERT_TRUE(m.sls->Checkpoint(group).ok());

  ASSERT_TRUE(m.sls->Suspend(group).ok());
  EXPECT_TRUE(region.expired()) << "the suspended group's region is still pinned";
  auto rolled = m.sls->RestoreFromMemory("suspended");
  ASSERT_FALSE(rolled.ok());
  EXPECT_EQ(rolled.status().code(), Errc::kNotFound);

  auto resumed = m.sls->ResumeSuspended("suspended");
  ASSERT_TRUE(resumed.ok()) << resumed.status().message();
  std::vector<uint8_t> got(kMem);
  ASSERT_TRUE(resumed->group->processes[0]->vm().Read(addr, got.data(), got.size()).ok());
  EXPECT_EQ(got, data);
}

// A periodic timer that finds its group suspended ends its chain and clears
// the group's token, so arming the timer again after resume starts a new
// chain instead of doing nothing.
TEST(SlsLifecycle, PeriodicCheckpointsRearmAfterSuspend) {
  Machine m;
  Process* proc = *m.kernel->CreateProcess("periodic");
  auto obj = VmObject::CreateAnonymous(256 * kKiB);
  uint64_t addr = *proc->vm().Map(0x400000, 256 * kKiB, kProtRead | kProtWrite, obj, 0, false);
  ConsistencyGroup* group = *m.sls->CreateGroup("periodic");
  ASSERT_TRUE(m.sls->Attach(group, proc).ok());
  group->period = 10 * kMillisecond;
  m.sls->StartPeriodicCheckpoints(group);
  m.sim.events.RunUntil(m.sim.clock.now() + 35 * kMillisecond);
  ASSERT_GE(group->checkpoints_taken, 2u);

  ASSERT_TRUE(m.sls->Suspend(group).ok());
  // The next tick finds the group suspended and stops the chain.
  m.sim.events.RunUntil(m.sim.clock.now() + 20 * kMillisecond);
  auto resumed = m.sls->ResumeSuspended("periodic");
  ASSERT_TRUE(resumed.ok()) << resumed.status().message();
  ASSERT_EQ(resumed->group, group);

  m.sls->StartPeriodicCheckpoints(group);
  uint64_t armed_at = group->checkpoints_taken;
  uint64_t value = 0;
  SimTime deadline = m.sim.clock.now() + 100 * kMillisecond;
  while (m.sim.clock.now() < deadline) {
    value++;
    ASSERT_TRUE(group->processes[0]->vm().Write(addr, &value, sizeof(value)).ok());
    m.sim.clock.Advance(500 * kMicrosecond);
    m.sim.events.RunUntil(m.sim.clock.now());
  }
  m.sls->StopPeriodicCheckpoints(group);
  EXPECT_GE(group->checkpoints_taken, armed_at + 8) << "the re-armed timer never fired";
}

}  // namespace
}  // namespace aurora
