#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <map>
#include <vector>

#include "src/base/rng.h"
#include "src/base/sim_context.h"
#include "src/core/cli.h"
#include "src/core/coredump.h"
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

TEST(SlsCheckpoint, RestoreRevertsMemory) {
  Machine m;
  auto [proc, addr] = MakeAppProcess(m, 1 * kMiB);
  ConsistencyGroup* group = *m.sls->CreateGroup("app");
  ASSERT_TRUE(m.sls->Attach(group, proc).ok());

  const char before[] = "checkpointed state";
  ASSERT_TRUE(proc->vm().Write(addr, before, sizeof(before)).ok());
  uint64_t saved_pid = proc->local_pid();
  auto ckpt = m.sls->Checkpoint(group, "first");
  ASSERT_TRUE(ckpt.ok());
  EXPECT_GT(ckpt->stop_time, 0u);
  EXPECT_GT(ckpt->bytes_flushed, 0u);

  // Diverge, then roll back.
  const char after[] = "post-checkpoint junk";
  ASSERT_TRUE(proc->vm().Write(addr, after, sizeof(after)).ok());

  auto restored = m.sls->Restore("app");
  ASSERT_TRUE(restored.ok());
  ASSERT_EQ(restored->group->processes.size(), 1u);
  Process* rp = restored->group->processes[0];
  EXPECT_EQ(rp->local_pid(), saved_pid) << "application-visible pid must survive";
  char buf[sizeof(before)] = {};
  ASSERT_TRUE(rp->vm().Read(addr, buf, sizeof(buf)).ok());
  EXPECT_STREQ(buf, before);
}

TEST(SlsCheckpoint, SurvivesRebootWithFullOsState) {
  Machine m;
  Process* proc = *m.kernel->CreateProcess("server");
  auto obj = VmObject::CreateAnonymous(256 * kKiB);
  uint64_t addr = *proc->vm().Map(0x400000, 256 * kKiB, kProtRead | kProtWrite, obj, 0, false);
  uint64_t magic = 0xfeedfacecafebeefull;
  ASSERT_TRUE(proc->vm().Write(addr + 4096, &magic, sizeof(magic)).ok());

  // A rich fd table: file, pipe pair, listening socket, kqueue, pty, shm.
  int file_fd = *m.kernel->Open(*proc, "config.txt", kOpenRead | kOpenWrite, true);
  auto file_desc = *proc->fds().Get(file_fd);
  auto* vn = static_cast<Vnode*>(file_desc->object.get());
  ASSERT_TRUE(vn->Write(0, "option=42\n", 10).ok());
  file_desc->offset = 10;

  auto [rfd, wfd] = *m.kernel->MakePipe(*proc);
  auto pipe_desc = *proc->fds().Get(wfd);
  ASSERT_TRUE(static_cast<Pipe*>(pipe_desc->object.get())->Write("inflight", 8).ok());

  int sock_fd = *m.kernel->MakeSocket(*proc, SocketDomain::kInet, SocketProto::kTcp);
  auto sock_desc = *proc->fds().Get(sock_fd);
  auto* listener = static_cast<Socket*>(sock_desc->object.get());
  ASSERT_TRUE(listener->Bind({0x0a000001, 6379, ""}).ok());
  ASSERT_TRUE(listener->Listen(128).ok());

  int kq_fd = *m.kernel->MakeKqueue(*proc);
  auto* kq = static_cast<Kqueue*>((*proc->fds().Get(kq_fd))->object.get());
  for (uint64_t i = 0; i < 100; i++) {
    kq->Register(KEvent{i, -1, 1, 0, 0, i * 10});
  }

  auto [master_fd, slave_fd] = *m.kernel->MakePty(*proc);
  auto* pty = static_cast<Pseudoterminal*>((*proc->fds().Get(master_fd))->object.get());
  pty->SetWinsize(24, 132);

  int shm_fd = *m.kernel->ShmOpen(*proc, "/cache", 128 * kKiB);
  uint64_t shm_addr = *m.kernel->ShmMap(*proc, shm_fd);
  uint32_t shm_val = 0x5151;
  ASSERT_TRUE(proc->vm().Write(shm_addr, &shm_val, sizeof(shm_val)).ok());

  ConsistencyGroup* group = *m.sls->CreateGroup("server");
  ASSERT_TRUE(m.sls->Attach(group, proc).ok());
  auto ckpt = m.sls->Checkpoint(group, "boot");
  ASSERT_TRUE(ckpt.ok());
  ASSERT_TRUE(m.sls->Barrier(group).ok());

  // Power loss. Reboot the machine from the same device.
  m.Reboot();
  auto restored = m.sls->Restore("server");
  ASSERT_TRUE(restored.ok());
  Process* rp = restored->group->processes[0];

  // Memory.
  uint64_t got = 0;
  ASSERT_TRUE(rp->vm().Read(addr + 4096, &got, sizeof(got)).ok());
  EXPECT_EQ(got, magic);

  // File descriptor: same fd number, same offset, same contents.
  auto rdesc = *rp->fds().Get(file_fd);
  EXPECT_EQ(rdesc->offset, 10u);
  auto* rvn = static_cast<Vnode*>(rdesc->object.get());
  char fbuf[10];
  ASSERT_TRUE(rvn->Read(0, fbuf, 10).ok());
  EXPECT_EQ(0, std::memcmp(fbuf, "option=42\n", 10));

  // Pipe with its in-flight bytes.
  auto* rpipe = static_cast<Pipe*>((*rp->fds().Get(rfd))->object.get());
  char pbuf[8];
  ASSERT_TRUE(rpipe->Read(pbuf, 8).ok());
  EXPECT_EQ(0, std::memcmp(pbuf, "inflight", 8));

  // Listening socket: bound + listening, accept queue empty by design.
  auto* rsock = static_cast<Socket*>((*rp->fds().Get(sock_fd))->object.get());
  EXPECT_EQ(rsock->state, SocketState::kListening);
  EXPECT_EQ(rsock->local.port, 6379);
  EXPECT_TRUE(rsock->accept_queue.empty());

  // Kqueue events.
  auto* rkq = static_cast<Kqueue*>((*rp->fds().Get(kq_fd))->object.get());
  ASSERT_EQ(rkq->events().size(), 100u);
  EXPECT_EQ(rkq->events()[7].udata, 70u);

  // Pty.
  auto* rpty = static_cast<Pseudoterminal*>((*rp->fds().Get(master_fd))->object.get());
  EXPECT_EQ(rpty->ws_cols, 132);

  // Shared memory contents and namespace registration.
  uint32_t shm_got = 0;
  ASSERT_TRUE(rp->vm().Read(shm_addr, &shm_got, sizeof(shm_got)).ok());
  EXPECT_EQ(shm_got, 0x5151u);
  EXPECT_EQ(m.kernel->posix_shm().count("/cache"), 1u);
  (void)slave_fd;
}

TEST(SlsCheckpoint, IncrementalFlushesOnlyDirtyPages) {
  Machine m;
  auto [proc, addr] = MakeAppProcess(m, 16 * kMiB);
  ConsistencyGroup* group = *m.sls->CreateGroup("app");
  ASSERT_TRUE(m.sls->Attach(group, proc).ok());

  ASSERT_TRUE(proc->vm().DirtyRange(addr, 16 * kMiB).ok());
  auto first = m.sls->Checkpoint(group);
  ASSERT_TRUE(first.ok());
  // All 4096 dirty pages are flushed, but bytes_flushed counts physical
  // device bytes: the stamp pattern repeats every 256 pages, so dedup and
  // compression land it far below the 16 MiB logical footprint.
  EXPECT_EQ(first->pages_flushed, 16 * kMiB / kPageSize);
  EXPECT_GT(first->bytes_flushed, 0u);
  EXPECT_LT(first->bytes_flushed, 16 * kMiB);

  // Touch only 8 pages; the next checkpoint must flush roughly that.
  ASSERT_TRUE(proc->vm().DirtyRange(addr, 8 * kPageSize).ok());
  auto second = m.sls->Checkpoint(group);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second->pages_flushed, 8u);
  EXPECT_LT(second->stop_time, first->stop_time);
}

TEST(SlsCheckpoint, FdSharingSurvivesRestore) {
  Machine m;
  Process* parent = *m.kernel->CreateProcess("parent");
  int fd = *m.kernel->Open(*parent, "shared.log", kOpenRead | kOpenWrite, true);
  Process* child = *m.kernel->Fork(*parent);

  ConsistencyGroup* group = *m.sls->CreateGroup("family");
  ASSERT_TRUE(m.sls->Attach(group, parent).ok());
  ASSERT_TRUE(m.sls->Attach(group, child).ok());
  ASSERT_TRUE(m.sls->Checkpoint(group).ok());

  auto restored = m.sls->Restore("family");
  ASSERT_TRUE(restored.ok());
  ASSERT_EQ(restored->group->processes.size(), 2u);
  Process* rp = restored->group->processes[0];
  Process* rc = restored->group->processes[1];
  // fork-shared description: one open-file entry, shared offset.
  auto pd = *rp->fds().Get(fd);
  auto cd = *rc->fds().Get(fd);
  EXPECT_EQ(pd.get(), cd.get()) << "offset sharing must be recreated, not duplicated";
  // Parent/child relationship relinked by local pid.
  EXPECT_EQ(rc->parent, rp);
}

TEST(SlsCheckpoint, SeparateOpensStaySeparate) {
  Machine m;
  Process* a = *m.kernel->CreateProcess("a");
  Process* b = *m.kernel->CreateProcess("b");
  int fd_a = *m.kernel->Open(*a, "data", kOpenRead, true);
  int fd_b = *m.kernel->Open(*b, "data", kOpenRead, false);
  (*a->fds().Get(fd_a))->offset = 100;
  (*b->fds().Get(fd_b))->offset = 200;

  ConsistencyGroup* group = *m.sls->CreateGroup("two");
  ASSERT_TRUE(m.sls->Attach(group, a).ok());
  ASSERT_TRUE(m.sls->Attach(group, b).ok());
  ASSERT_TRUE(m.sls->Checkpoint(group).ok());
  auto restored = m.sls->Restore("two");
  ASSERT_TRUE(restored.ok());
  Process* ra = restored->group->processes[0];
  Process* rb = restored->group->processes[1];
  auto da = *ra->fds().Get(fd_a);
  auto db = *rb->fds().Get(fd_b);
  EXPECT_NE(da.get(), db.get());
  EXPECT_EQ(da->offset, 100u);
  EXPECT_EQ(db->offset, 200u);
  // But the same vnode backs both.
  EXPECT_EQ(da->object->kernel_id(), db->object->kernel_id());
}

TEST(SlsCheckpoint, ForkCowPrivacySurvivesRestore) {
  Machine m;
  Process* parent = *m.kernel->CreateProcess("p");
  auto obj = VmObject::CreateAnonymous(1 * kMiB);
  uint64_t addr =
      *parent->vm().Map(0x400000, 1 * kMiB, kProtRead | kProtWrite, obj, 0, /*cow=*/true);
  uint64_t shared_val = 111;
  ASSERT_TRUE(parent->vm().Write(addr, &shared_val, sizeof(shared_val)).ok());
  Process* child = *m.kernel->Fork(*parent);
  uint64_t child_val = 222;
  ASSERT_TRUE(child->vm().Write(addr, &child_val, sizeof(child_val)).ok());

  ConsistencyGroup* group = *m.sls->CreateGroup("cow");
  ASSERT_TRUE(m.sls->Attach(group, parent).ok());
  ASSERT_TRUE(m.sls->Attach(group, child).ok());
  ASSERT_TRUE(m.sls->Checkpoint(group).ok());
  auto restored = m.sls->Restore("cow");
  ASSERT_TRUE(restored.ok());
  Process* rp = restored->group->processes[0];
  Process* rc = restored->group->processes[1];
  uint64_t got = 0;
  ASSERT_TRUE(rp->vm().Read(addr, &got, sizeof(got)).ok());
  EXPECT_EQ(got, 111u);
  ASSERT_TRUE(rc->vm().Read(addr, &got, sizeof(got)).ok());
  EXPECT_EQ(got, 222u);
  // Isolation still holds after restore.
  uint64_t nv = 333;
  ASSERT_TRUE(rp->vm().Write(addr, &nv, sizeof(nv)).ok());
  ASSERT_TRUE(rc->vm().Read(addr, &got, sizeof(got)).ok());
  EXPECT_EQ(got, 222u);
}

TEST(SlsCheckpoint, SharedMemoryAcrossProcessesSurvives) {
  Machine m;
  Process* a = *m.kernel->CreateProcess("a");
  Process* b = *m.kernel->CreateProcess("b");
  int fd_a = *m.kernel->ShmOpen(*a, "/seg", 64 * kKiB);
  int fd_b = *m.kernel->ShmOpen(*b, "/seg", 64 * kKiB);
  uint64_t addr_a = *m.kernel->ShmMap(*a, fd_a);
  uint64_t addr_b = *m.kernel->ShmMap(*b, fd_b);
  uint64_t v = 42;
  ASSERT_TRUE(a->vm().Write(addr_a, &v, sizeof(v)).ok());

  ConsistencyGroup* group = *m.sls->CreateGroup("shm");
  ASSERT_TRUE(m.sls->Attach(group, a).ok());
  ASSERT_TRUE(m.sls->Attach(group, b).ok());
  ASSERT_TRUE(m.sls->Checkpoint(group).ok());
  auto restored = m.sls->Restore("shm");
  ASSERT_TRUE(restored.ok());
  Process* ra = restored->group->processes[0];
  Process* rb = restored->group->processes[1];
  uint64_t got = 0;
  ASSERT_TRUE(rb->vm().Read(addr_b, &got, sizeof(got)).ok());
  EXPECT_EQ(got, 42u);
  // Writes remain shared after restore.
  uint64_t nv = 77;
  ASSERT_TRUE(ra->vm().Write(addr_a + 8, &nv, sizeof(nv)).ok());
  ASSERT_TRUE(rb->vm().Read(addr_b + 8, &got, sizeof(got)).ok());
  EXPECT_EQ(got, 77u);
}

TEST(SlsCheckpoint, LazyRestoreFaultsPagesOnDemand) {
  Machine m;
  auto [proc, addr] = MakeAppProcess(m, 8 * kMiB);
  ConsistencyGroup* group = *m.sls->CreateGroup("lazy");
  ASSERT_TRUE(m.sls->Attach(group, proc).ok());
  ASSERT_TRUE(proc->vm().DirtyRange(addr, 8 * kMiB).ok());
  uint64_t v = 0x77;
  ASSERT_TRUE(proc->vm().Write(addr + 5 * kMiB, &v, sizeof(v)).ok());
  ASSERT_TRUE(m.sls->Checkpoint(group).ok());

  auto full = m.sls->Restore("lazy", 0, RestoreMode::kFull);
  ASSERT_TRUE(full.ok());
  SimDuration full_time = full->restore_time;

  ASSERT_TRUE(m.sls->Checkpoint(full->group).ok());
  auto lazy = m.sls->Restore("lazy", 0, RestoreMode::kLazy);
  ASSERT_TRUE(lazy.ok());
  EXPECT_LT(lazy->restore_time * 5, full_time)
      << "lazy restore must defer nearly all page loading";
  // Demand paging returns the right data.
  uint64_t got = 0;
  ASSERT_TRUE(lazy->group->processes[0]->vm().Read(addr + 5 * kMiB, &got, sizeof(got)).ok());
  EXPECT_EQ(got, 0x77u);
}

TEST(SlsCheckpoint, MemoryOnlyCheckpointRollsBackWithoutIo) {
  Machine m;
  auto [proc, addr] = MakeAppProcess(m, 1 * kMiB);
  ConsistencyGroup* group = *m.sls->CreateGroup("mem");
  ASSERT_TRUE(m.sls->Attach(group, proc).ok());
  uint64_t v1 = 1111;
  ASSERT_TRUE(proc->vm().Write(addr, &v1, sizeof(v1)).ok());
  uint64_t writes_before = m.device->stats().writes;
  auto ckpt = m.sls->Checkpoint(group, "", CheckpointMode::kMemoryOnly);
  ASSERT_TRUE(ckpt.ok());
  EXPECT_EQ(m.device->stats().writes, writes_before) << "memory checkpoint must not do IO";

  uint64_t v2 = 2222;
  ASSERT_TRUE(proc->vm().Write(addr, &v2, sizeof(v2)).ok());
  auto restored = m.sls->RestoreFromMemory("mem");
  ASSERT_TRUE(restored.ok());
  uint64_t got = 0;
  ASSERT_TRUE(restored->group->processes[0]->vm().Read(addr, &got, sizeof(got)).ok());
  EXPECT_EQ(got, 1111u);
}

TEST(SlsCheckpoint, TimeTravelToNamedEpoch) {
  Machine m;
  auto [proc, addr] = MakeAppProcess(m, 256 * kKiB);
  ConsistencyGroup* group = *m.sls->CreateGroup("history");
  ASSERT_TRUE(m.sls->Attach(group, proc).ok());

  std::vector<uint64_t> epochs;
  for (uint64_t i = 1; i <= 3; i++) {
    ASSERT_TRUE(proc->vm().Write(addr, &i, sizeof(i)).ok());
    auto c = m.sls->Checkpoint(group, "v" + std::to_string(i));
    ASSERT_TRUE(c.ok());
    epochs.push_back(c->epoch);
    proc = group->processes[0];
  }
  // Rewind to the middle of history.
  auto restored = m.sls->Restore("history", epochs[1]);
  ASSERT_TRUE(restored.ok());
  uint64_t got = 0;
  ASSERT_TRUE(restored->group->processes[0]->vm().Read(addr, &got, sizeof(got)).ok());
  EXPECT_EQ(got, 2u);
}

TEST(SlsCheckpoint, EphemeralChildDroppedWithSigchld) {
  Machine m;
  Process* parent = *m.kernel->CreateProcess("master");
  Process* worker = *m.kernel->Fork(*parent);
  worker->ephemeral = true;
  ConsistencyGroup* group = *m.sls->CreateGroup("pool");
  ASSERT_TRUE(m.sls->Attach(group, parent).ok());
  ASSERT_TRUE(m.sls->Attach(group, worker).ok());
  ASSERT_TRUE(m.sls->Checkpoint(group).ok());

  auto restored = m.sls->Restore("pool");
  ASSERT_TRUE(restored.ok());
  ASSERT_EQ(restored->group->processes.size(), 1u) << "ephemeral worker must not be restored";
  Process* rp = restored->group->processes[0];
  EXPECT_TRUE(rp->pending_signals & (1ull << kSigChld))
      << "parent must see SIGCHLD for the dropped worker";
}

TEST(SlsCheckpoint, ExternalSynchronyHoldsUntilDurable) {
  Machine m;
  auto [proc, addr] = MakeAppProcess(m, 64 * kKiB);
  (void)addr;
  ConsistencyGroup* group = *m.sls->CreateGroup("es");
  ASSERT_TRUE(m.sls->Attach(group, proc).ok());

  auto server = std::make_shared<Socket>(SocketDomain::kInet, SocketProto::kTcp);
  ASSERT_TRUE(server->Bind({1, 80, ""}).ok());
  ASSERT_TRUE(server->Listen(8).ok());
  auto client = std::make_shared<Socket>(SocketDomain::kInet, SocketProto::kTcp);
  ASSERT_TRUE(client->Bind({2, 9999, ""}).ok());
  auto server_end = *client->ConnectTo(server);

  // The app "responds" before the covering checkpoint: held.
  ASSERT_TRUE(m.sls->SendExternal(group, client, "reply", 5).ok());
  EXPECT_FALSE(server_end->HasData());

  auto ckpt = m.sls->Checkpoint(group);
  ASSERT_TRUE(ckpt.ok());
  m.sim.events.RunUntil(ckpt->durable_at + 1);
  EXPECT_TRUE(server_end->HasData()) << "commit must release held messages";

  // With external synchrony disabled on the socket, sends bypass the buffer.
  client->external_sync_disabled = true;
  ASSERT_TRUE(m.sls->SendExternal(group, client, "fast", 4).ok());
  EXPECT_EQ(server_end->recv_buf.size(), 2u);
}

TEST(SlsCheckpoint, MemCtlExcludesRegion) {
  Machine m;
  Process* proc = *m.kernel->CreateProcess("app");
  auto keep = VmObject::CreateAnonymous(256 * kKiB);
  auto scratch = VmObject::CreateAnonymous(256 * kKiB);
  uint64_t keep_addr =
      *proc->vm().Map(0x400000, 256 * kKiB, kProtRead | kProtWrite, keep, 0, false);
  uint64_t scratch_addr =
      *proc->vm().Map(0x800000, 256 * kKiB, kProtRead | kProtWrite, scratch, 0, false);
  ASSERT_TRUE(m.sls->MemCtl(proc, scratch_addr, /*exclude=*/true).ok());

  ConsistencyGroup* group = *m.sls->CreateGroup("app");
  ASSERT_TRUE(m.sls->Attach(group, proc).ok());
  ASSERT_TRUE(proc->vm().DirtyRange(keep_addr, 256 * kKiB).ok());
  ASSERT_TRUE(proc->vm().DirtyRange(scratch_addr, 256 * kKiB).ok());
  auto ckpt = m.sls->Checkpoint(group);
  ASSERT_TRUE(ckpt.ok());
  EXPECT_LE(ckpt->bytes_flushed, 300 * kKiB) << "excluded region must not be flushed";
}

TEST(SlsApi, MemCheckpointAtomicRegion) {
  Machine m;
  auto [proc, addr] = MakeAppProcess(m, 4 * kMiB);
  ConsistencyGroup* group = *m.sls->CreateGroup("db");
  ASSERT_TRUE(m.sls->Attach(group, proc).ok());
  // Full checkpoint first (the paper's pattern), then atomic region updates.
  ASSERT_TRUE(proc->vm().DirtyRange(addr, 4 * kMiB).ok());
  ASSERT_TRUE(m.sls->Checkpoint(group).ok());
  proc = group->processes[0];

  uint64_t v = 0xabcdef;
  ASSERT_TRUE(proc->vm().Write(addr + 2 * kMiB, &v, sizeof(v)).ok());
  auto atomic = m.sls->MemCheckpoint(proc, addr);
  ASSERT_TRUE(atomic.ok());
  EXPECT_LT(atomic->stop_time, 200 * kMicrosecond);
  EXPECT_GE(atomic->pages_flushed, 1u);

  // Restore at the atomic checkpoint's epoch composes region + full state.
  auto restored = m.sls->Restore("db", atomic->epoch);
  ASSERT_TRUE(restored.ok());
  uint64_t got = 0;
  ASSERT_TRUE(restored->group->processes[0]->vm().Read(addr + 2 * kMiB, &got, sizeof(got)).ok());
  EXPECT_EQ(got, 0xabcdefu);
}

TEST(SlsApi, JournalRoundTrip) {
  Machine m;
  auto journal = m.sls->JournalCreate(1 * kMiB);
  ASSERT_TRUE(journal.ok());
  ASSERT_TRUE(m.sls->JournalAppend(*journal, "put k1 v1", 9).ok());
  ASSERT_TRUE(m.sls->JournalAppend(*journal, "put k2 v2", 9).ok());
  auto records = m.sls->JournalReplay(*journal);
  ASSERT_TRUE(records.ok());
  EXPECT_EQ(records->size(), 2u);
}

TEST(SlsCli, DumpProducesValidElfCore) {
  Machine m;
  auto [proc, addr] = MakeAppProcess(m, 512 * kKiB);
  ASSERT_TRUE(proc->vm().DirtyRange(addr, 64 * kKiB).ok());
  proc->AddThread();
  SlsCli cli(m.sls.get());
  ASSERT_TRUE(cli.Attach("app", proc).ok());
  auto core = cli.Dump("app", proc->local_pid());
  ASSERT_TRUE(core.ok());
  auto summary = InspectElfCore(*core);
  ASSERT_TRUE(summary.ok());
  EXPECT_EQ(summary->load_segments, 1u);
  EXPECT_EQ(summary->note_threads, 2u);
  EXPECT_EQ(summary->memory_bytes, 512 * kKiB);
}

TEST(SlsCli, SendRecvMigratesAcrossMachines) {
  Machine src;
  Machine dst;
  auto [proc, addr] = MakeAppProcess(src, 1 * kMiB);
  const char payload[] = "migrate me";
  ASSERT_TRUE(proc->vm().Write(addr + 100, payload, sizeof(payload)).ok());

  SlsCli src_cli(src.sls.get());
  ASSERT_TRUE(src_cli.Attach("webapp", proc).ok());
  ASSERT_TRUE(src_cli.Checkpoint("webapp", "pre-migration").ok());
  auto stream = src_cli.Send("webapp");
  ASSERT_TRUE(stream.ok());

  SlsCli dst_cli(dst.sls.get());
  auto arrived = dst_cli.Recv(*stream);
  ASSERT_TRUE(arrived.ok());
  Process* rp = arrived->group->processes[0];
  char buf[sizeof(payload)] = {};
  ASSERT_TRUE(rp->vm().Read(addr + 100, buf, sizeof(buf)).ok());
  EXPECT_STREQ(buf, payload);

  // The migrated app checkpoints natively on the destination.
  auto ckpt = dst.sls->Checkpoint(arrived->group);
  ASSERT_TRUE(ckpt.ok());
  EXPECT_GT(ckpt->bytes_flushed, 0u);
  auto roundtrip = dst.sls->Restore("webapp");
  ASSERT_TRUE(roundtrip.ok());
  ASSERT_TRUE(roundtrip->group->processes[0]->vm().Read(addr + 100, buf, sizeof(buf)).ok());
  EXPECT_STREQ(buf, payload);
}

// Fills page `pgidx` of the region at `addr` with `byte`.
void FillPage(Process* proc, uint64_t addr, uint64_t pgidx, uint8_t byte) {
  std::vector<uint8_t> page(kPageSize, byte);
  ASSERT_TRUE(proc->vm().Write(addr + pgidx * kPageSize, page.data(), page.size()).ok());
}

// The resident pages of the object chain mapped at `addr`, the topmost copy
// of each.
std::map<uint64_t, std::vector<uint8_t>> ResidentImage(Process* proc, uint64_t addr) {
  std::map<uint64_t, std::vector<uint8_t>> pages;
  VmMapEntry* entry = proc->vm().FindEntry(addr);
  for (VmObject* obj = entry->object.get(); obj != nullptr; obj = obj->parent()) {
    obj->ForEachPage([&pages](uint64_t pgidx, const VmPage& page) {
      pages.emplace(pgidx, std::vector<uint8_t>(page.data(), page.data() + kPageSize));
    });
  }
  return pages;
}

// A region that ends inside a 64 KiB store block: the store flushes whole
// blocks, and the page walk hands out only the pages below the object's end.
constexpr uint64_t kTailPages = 5;

TEST(SlsStoredEpochs, StoreRestoreInstallsNoPagePastTheObjectsEnd) {
  Machine m;
  auto [proc, addr] = MakeAppProcess(m, kTailPages * kPageSize);
  for (uint64_t p = 0; p < kTailPages; p++) {
    FillPage(proc, addr, p, static_cast<uint8_t>(0xA0 + p));
  }
  ConsistencyGroup* group = *m.sls->CreateGroup("tail");
  ASSERT_TRUE(m.sls->Attach(group, proc).ok());
  ASSERT_TRUE(m.sls->Checkpoint(group).ok());

  auto restored = m.sls->Restore("tail");
  ASSERT_TRUE(restored.ok()) << restored.status().message();
  auto image = ResidentImage(restored->group->processes[0], addr);
  EXPECT_LE(image.size(), kTailPages) << "a page past the object's end was installed";
  for (uint64_t p = 0; p < kTailPages; p++) {
    ASSERT_EQ(image.count(p), 1u) << "page " << p;
    EXPECT_EQ(image[p], std::vector<uint8_t>(kPageSize, static_cast<uint8_t>(0xA0 + p)))
        << "page " << p;
  }
}

TEST(SlsStoredEpochs, SendRecvOfARegionEndingMidBlockIsByteExact) {
  Machine src;
  Machine dst;
  auto [proc, addr] = MakeAppProcess(src, kTailPages * kPageSize);
  std::vector<uint8_t> want(kTailPages * kPageSize);
  for (uint64_t p = 0; p < kTailPages; p++) {
    FillPage(proc, addr, p, static_cast<uint8_t>(0xB0 + p));
    std::fill_n(want.begin() + p * kPageSize, kPageSize, static_cast<uint8_t>(0xB0 + p));
  }
  SlsCli src_cli(src.sls.get());
  ASSERT_TRUE(src_cli.Attach("tail", proc).ok());
  ASSERT_TRUE(src_cli.Checkpoint("tail", "sent").ok());
  auto stream = src_cli.Send("tail");
  ASSERT_TRUE(stream.ok()) << stream.status().message();

  auto arrived = SlsCli(dst.sls.get()).Recv(*stream);
  ASSERT_TRUE(arrived.ok()) << arrived.status().message();
  Process* rp = arrived->group->processes[0];
  std::vector<uint8_t> got(want.size());
  ASSERT_TRUE(rp->vm().Read(addr, got.data(), got.size()).ok());
  EXPECT_EQ(got, want);
  EXPECT_EQ(ResidentImage(rp, addr).size(), kTailPages);
}

// A lazily restored image pages from the epoch it restored, so retention
// keeps that epoch while the image runs: a page first touched after later
// checkpoints still reads its checkpointed bytes.
TEST(SlsStoredEpochs, LazyImageKeepsItsEpochUnderRetention) {
  Machine m;
  auto [proc, addr] = MakeAppProcess(m, 256 * kKiB);
  FillPage(proc, addr, 16, 0xA);
  ConsistencyGroup* group = *m.sls->CreateGroup("lazy");
  ASSERT_TRUE(m.sls->Attach(group, proc).ok());
  auto first = m.sls->Checkpoint(group);
  ASSERT_TRUE(first.ok());

  auto lazy = m.sls->Restore("lazy", 0, RestoreMode::kLazy);
  ASSERT_TRUE(lazy.ok()) << lazy.status().message();
  m.sls->SetRetentionPolicy(lazy->group, RetentionPolicy{.keep_epochs = 1});
  Process* rp = lazy->group->processes[0];
  for (uint8_t round = 1; round <= 3; round++) {
    FillPage(rp, addr, 0, round);
    ASSERT_TRUE(m.sls->Checkpoint(lazy->group).ok());
  }
  auto kept = m.store->TableAt(first->epoch);
  EXPECT_TRUE(kept.ok()) << "retention pruned the epoch the lazy image pages from";
  std::vector<uint8_t> got(kPageSize);
  ASSERT_TRUE(rp->vm().Read(addr + 16 * kPageSize, got.data(), got.size()).ok());
  EXPECT_EQ(got, std::vector<uint8_t>(kPageSize, 0xA));
}

TEST(SlsCli, SuspendResume) {
  Machine m;
  auto [proc, addr] = MakeAppProcess(m, 256 * kKiB);
  uint64_t v = 909;
  ASSERT_TRUE(proc->vm().Write(addr, &v, sizeof(v)).ok());
  SlsCli cli(m.sls.get());
  ASSERT_TRUE(cli.Attach("editor", proc).ok());
  ASSERT_TRUE(cli.Suspend("editor").ok());
  EXPECT_EQ(m.kernel->AllProcesses().size(), 0u);
  EXPECT_TRUE(m.sls->FindGroup("editor")->suspended);

  auto resumed = cli.Resume("editor");
  ASSERT_TRUE(resumed.ok());
  uint64_t got = 0;
  ASSERT_TRUE(resumed->group->processes[0]->vm().Read(addr, &got, sizeof(got)).ok());
  EXPECT_EQ(got, 909u);
  EXPECT_FALSE(m.sls->FindGroup("editor")->suspended);
}

TEST(SlsCheckpoint, VdsoReinjectedOnRestore) {
  Machine m;
  Process* proc = *m.kernel->CreateProcess("app");
  // Map the vDSO like the kernel would at exec.
  uint64_t vdso_addr =
      *proc->vm().Map(0x7fff0000, kPageSize, kProtRead, m.kernel->vdso(), 0, false);
  ConsistencyGroup* group = *m.sls->CreateGroup("app");
  ASSERT_TRUE(m.sls->Attach(group, proc).ok());
  ASSERT_TRUE(m.sls->Checkpoint(group).ok());

  // "Software update" changes the platform vDSO before the restore.
  m.kernel->RegenerateVdso();
  uint8_t current = m.kernel->vdso()->LookupLocal(0)->data()[0];
  auto restored = m.sls->Restore("app");
  ASSERT_TRUE(restored.ok());
  uint8_t got = 0;
  ASSERT_TRUE(restored->group->processes[0]->vm().Read(vdso_addr, &got, sizeof(got)).ok());
  EXPECT_EQ(got, current) << "restore must inject the current platform vDSO";
}

TEST(SlsCheckpoint, ManyCheckpointCyclesStayBounded) {
  Machine m;
  auto [proc, addr] = MakeAppProcess(m, 2 * kMiB);
  ConsistencyGroup* group = *m.sls->CreateGroup("loop");
  ASSERT_TRUE(m.sls->Attach(group, proc).ok());
  Rng rng(5);
  std::vector<uint8_t> model(2 * kMiB, 0);
  for (int i = 0; i < 20; i++) {
    for (int w = 0; w < 50; w++) {
      uint64_t off = rng.Below(2 * kMiB - 8);
      uint64_t val = rng.Next();
      ASSERT_TRUE(proc->vm().Write(addr + off, &val, sizeof(val)).ok());
      std::memcpy(model.data() + off, &val, sizeof(val));
    }
    ASSERT_TRUE(m.sls->Checkpoint(group).ok());
    // Shadow chains must stay capped by the eager collapse.
    const VmObject* top = proc->vm().entries().begin()->second.object.get();
    int depth = 0;
    for (const VmObject* o = top; o != nullptr; o = o->parent()) {
      depth++;
    }
    EXPECT_LE(depth, 3) << "chain must not grow with checkpoint count";
  }
  auto restored = m.sls->Restore("loop");
  ASSERT_TRUE(restored.ok());
  std::vector<uint8_t> got(model.size());
  ASSERT_TRUE(restored->group->processes[0]->vm().Read(addr, got.data(), got.size()).ok());
  EXPECT_EQ(got, model);
}

}  // namespace
}  // namespace aurora
