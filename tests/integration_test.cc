// End-to-end integration and fault-injection tests for the whole SLS stack:
// kernel + VM + object store + file system + orchestrator.
#include <gtest/gtest.h>

#include <cstring>

#include "src/base/rng.h"
#include "src/base/sim_context.h"
#include "src/core/cli.h"
#include "src/core/serialize.h"
#include "src/core/sls.h"
#include "src/fs/aurora_fs.h"
#include "src/objstore/object_store.h"
#include "src/storage/block_device.h"

namespace aurora {
namespace {

// A machine whose storage is a single raw MemBlockDevice so crash injection
// can be armed precisely.
struct CrashMachine {
  explicit CrashMachine(uint64_t bytes = 512 * kMiB) {
    device = std::make_unique<MemBlockDevice>(&sim.clock, bytes / kPageSize);
    store = *ObjectStore::Format(device.get(), &sim);
    fs = std::make_unique<AuroraFs>(&sim, store.get());
    kernel = std::make_unique<Kernel>(&sim);
    sls = std::make_unique<Sls>(&sim, kernel.get(), store.get(), fs.get());
  }
  void Reboot() {
    device->DisarmCrash();
    store = *ObjectStore::Open(device.get(), &sim);
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

// Crash-at-every-point property: arm the device fuse at write N during the
// SECOND checkpoint; after "reboot", restore must produce either checkpoint
// 1's or checkpoint 2's memory image — never a mix, never a failure.
class CheckpointCrashTest : public ::testing::TestWithParam<int> {};

TEST_P(CheckpointCrashTest, RestoreIsAlwaysAtomic) {
  CrashMachine m;
  Process* proc = *m.kernel->CreateProcess("app");
  auto obj = VmObject::CreateAnonymous(1 * kMiB);
  uint64_t addr = *proc->vm().Map(0x400000, 1 * kMiB, kProtRead | kProtWrite, obj, 0, false);
  ConsistencyGroup* group = *m.sls->CreateGroup("app");
  ASSERT_TRUE(m.sls->Attach(group, proc).ok());

  std::vector<uint8_t> v1(1 * kMiB, 0x11);
  ASSERT_TRUE(proc->vm().Write(addr, v1.data(), v1.size()).ok());
  ASSERT_TRUE(m.sls->Checkpoint(group, "one").ok());
  ASSERT_TRUE(m.sls->Barrier(group).ok());

  std::vector<uint8_t> v2(1 * kMiB, 0x22);
  ASSERT_TRUE(proc->vm().Write(addr, v2.data(), v2.size()).ok());
  m.device->CrashAfterWrites(static_cast<uint64_t>(GetParam()) * 7);
  AURORA_IGNORE_STATUS(m.sls->Checkpoint(group, "two"), "crash fuse may fire mid-checkpoint; both outcomes are exercised");  // may tear anywhere

  m.Reboot();
  auto restored = m.sls->Restore("app");
  ASSERT_TRUE(restored.ok()) << "crash point " << GetParam();
  std::vector<uint8_t> got(1 * kMiB);
  ASSERT_TRUE(restored->group->processes[0]->vm().Read(addr, got.data(), got.size()).ok());
  bool is_v1 = got == v1;
  bool is_v2 = got == v2;
  EXPECT_TRUE(is_v1 || is_v2) << "mixed/torn restore at crash point " << GetParam();
}

INSTANTIATE_TEST_SUITE_P(CrashPoints, CheckpointCrashTest, ::testing::Range(0, 30));

// Manifest corruption fuzz: flipping any byte of a manifest must never crash
// the restorer — it either fails cleanly or (for don't-care bytes) restores.
class ManifestFuzzTest : public ::testing::TestWithParam<int> {};

TEST_P(ManifestFuzzTest, CorruptManifestFailsCleanly) {
  CrashMachine m;
  Process* proc = *m.kernel->CreateProcess("fuzz");
  auto obj = VmObject::CreateAnonymous(64 * kKiB);
  AURORA_IGNORE_STATUS(proc->vm().Map(0x400000, 64 * kKiB, kProtRead | kProtWrite, obj, 0, false), "mapping exists only to add payload; the address is unused");
  AURORA_IGNORE_STATUS(m.kernel->MakePipe(*proc), "descriptor churn to populate the table; the fd is unused");
  int kq = *m.kernel->MakeKqueue(*proc);
  (void)kq;
  ConsistencyGroup* group = *m.sls->CreateGroup("fuzz");
  ASSERT_TRUE(m.sls->Attach(group, proc).ok());

  auto ensure = [&m](VmObject* o) {
    if (o->sls_oid() == 0) {
      o->set_sls_oid((*m.store->CreateObject(ObjType::kMemory, o->size())).value);
    }
    return Oid{o->sls_oid()};
  };
  SerializeStats stats;
  auto manifest = *SerializeOsState(&m.sim, *group, 1, kInvalidOid, ensure, &stats);

  Rng rng(static_cast<uint64_t>(GetParam()) * 2654435761u + 1);
  std::vector<uint8_t> corrupt = manifest;
  for (int flips = 0; flips <= GetParam() % 4; flips++) {
    corrupt[rng.Below(corrupt.size())] ^= static_cast<uint8_t>(1 + rng.Below(255));
  }
  CrashMachine target;
  auto resolve = [](Oid, uint64_t size) -> Result<ResolvedMemory> {
    return ResolvedMemory{VmObject::CreateAnonymous(size ? size : kPageSize), false};
  };
  // Must not crash; outcome may be error or success.
  auto result = RestoreOsState(&target.sim, target.kernel.get(), target.fs.get(), corrupt,
                               resolve);
  (void)result;
  SUCCEED();
}

INSTANTIATE_TEST_SUITE_P(ByteFlips, ManifestFuzzTest, ::testing::Range(0, 40));

// Truncation fuzz: every prefix of a manifest must fail cleanly.
TEST(ManifestFuzz, AllTruncationsFailCleanly) {
  CrashMachine m;
  Process* proc = *m.kernel->CreateProcess("trunc");
  AURORA_IGNORE_STATUS(m.kernel->MakePipe(*proc), "descriptor churn to populate the table; the fd is unused");
  ConsistencyGroup* group = *m.sls->CreateGroup("trunc");
  ASSERT_TRUE(m.sls->Attach(group, proc).ok());
  auto ensure = [&m](VmObject* o) {
    if (o->sls_oid() == 0) {
      o->set_sls_oid((*m.store->CreateObject(ObjType::kMemory, o->size())).value);
    }
    return Oid{o->sls_oid()};
  };
  auto manifest = *SerializeOsState(&m.sim, *group, 1, kInvalidOid, ensure, nullptr);
  auto resolve = [](Oid, uint64_t size) -> Result<ResolvedMemory> {
    return ResolvedMemory{VmObject::CreateAnonymous(size ? size : kPageSize), false};
  };
  for (size_t cut = 0; cut < manifest.size(); cut += 7) {
    CrashMachine target;
    std::vector<uint8_t> prefix(manifest.begin(), manifest.begin() + static_cast<long>(cut));
    auto result =
        RestoreOsState(&target.sim, target.kernel.get(), target.fs.get(), prefix, resolve);
    EXPECT_FALSE(result.ok()) << "truncation at " << cut << " restored successfully?!";
  }
}

// --- Multi-group isolation --------------------------------------------------------

TEST(MultiGroup, GroupsCheckpointAndRestoreIndependently) {
  CrashMachine m;
  auto make_app = [&](const std::string& name, uint64_t fill) {
    Process* proc = *m.kernel->CreateProcess(name);
    auto obj = VmObject::CreateAnonymous(256 * kKiB);
    uint64_t addr =
        *proc->vm().Map(0x400000, 256 * kKiB, kProtRead | kProtWrite, obj, 0, false);
    AURORA_IGNORE_STATUS(proc->vm().Write(addr, &fill, sizeof(fill)), "workload I/O into a mapping created above");
    ConsistencyGroup* group = *m.sls->CreateGroup(name);
    AURORA_IGNORE_STATUS(m.sls->Attach(group, proc), "attaching a freshly created process to its group cannot fail here");
    return std::make_pair(group, addr);
  };
  auto [ga, addr_a] = make_app("app-a", 0xaaaa);
  auto [gb, addr_b] = make_app("app-b", 0xbbbb);
  ASSERT_TRUE(m.sls->Checkpoint(ga).ok());
  ASSERT_TRUE(m.sls->Checkpoint(gb).ok());

  // Mutate both; restore only A. B must keep running untouched.
  uint64_t junk = 0xdead;
  AURORA_IGNORE_STATUS(ga->processes[0]->vm().Write(addr_a, &junk, sizeof(junk)), "workload I/O into a mapping created above");
  AURORA_IGNORE_STATUS(gb->processes[0]->vm().Write(addr_b, &junk, sizeof(junk)), "workload I/O into a mapping created above");
  auto restored = *m.sls->Restore("app-a");
  uint64_t got = 0;
  ASSERT_TRUE(restored.group->processes[0]->vm().Read(addr_a, &got, sizeof(got)).ok());
  EXPECT_EQ(got, 0xaaaau);
  ASSERT_TRUE(gb->processes[0]->vm().Read(addr_b, &got, sizeof(got)).ok());
  EXPECT_EQ(got, 0xdeadu) << "restoring A must not touch B";
}

// --- Memory overcommitment (swap integration) --------------------------------------

TEST(SwapIntegration, EvictedPagesStreamBackFromStore) {
  CrashMachine m;
  Process* proc = *m.kernel->CreateProcess("bigapp");
  auto obj = VmObject::CreateAnonymous(8 * kMiB);
  uint64_t addr = *proc->vm().Map(0x400000, 8 * kMiB, kProtRead | kProtWrite, obj, 0, false);
  ConsistencyGroup* group = *m.sls->CreateGroup("bigapp");
  ASSERT_TRUE(m.sls->Attach(group, proc).ok());

  Rng rng(77);
  std::vector<uint8_t> model(8 * kMiB, 0);
  for (int i = 0; i < 4000; i++) {
    uint64_t off = rng.Below(8 * kMiB - 8);
    uint64_t v = rng.Next();
    ASSERT_TRUE(proc->vm().Write(addr + off, &v, sizeof(v)).ok());
    std::memcpy(model.data() + off, &v, sizeof(v));
  }
  // Two checkpoints so the data collapses into the persisted base.
  ASSERT_TRUE(m.sls->Checkpoint(group).ok());
  ASSERT_TRUE(m.sls->Checkpoint(group).ok());
  ASSERT_TRUE(m.sls->Checkpoint(group).ok());

  uint64_t resident_before = proc->vm().ResidentPages();
  auto evicted = m.sls->EvictPages(group, 100000);
  ASSERT_TRUE(evicted.ok());
  EXPECT_GT(evicted->clean_evicted, resident_before / 2)
      << "most pages are clean and evictable after a quiet checkpoint";
  EXPECT_LT(proc->vm().ResidentPages(), resident_before);

  // Demand paging must reproduce every byte.
  std::vector<uint8_t> got(8 * kMiB);
  ASSERT_TRUE(proc->vm().Read(addr, got.data(), got.size()).ok());
  EXPECT_EQ(got, model);
}

TEST(SwapIntegration, EvictAfterFlushBoundsResidency) {
  CrashMachine m;
  Process* proc = *m.kernel->CreateProcess("bounded");
  auto obj = VmObject::CreateAnonymous(4 * kMiB);
  uint64_t addr = *proc->vm().Map(0x400000, 4 * kMiB, kProtRead | kProtWrite, obj, 0, false);
  ConsistencyGroup* group = *m.sls->CreateGroup("bounded");
  ASSERT_TRUE(m.sls->Attach(group, proc).ok());
  m.sls->SetMemoryPressure(group, true);

  Rng rng(3);
  std::vector<uint8_t> model(4 * kMiB, 0);
  for (int round = 0; round < 6; round++) {
    for (int w = 0; w < 200; w++) {
      uint64_t off = rng.Below(4 * kMiB - 8);
      uint64_t v = rng.Next();
      ASSERT_TRUE(proc->vm().Write(addr + off, &v, sizeof(v)).ok());
      std::memcpy(model.data() + off, &v, sizeof(v));
    }
    ASSERT_TRUE(m.sls->Checkpoint(group).ok());
  }
  // Residency stays near the working set (the base keeps getting dropped).
  EXPECT_LT(proc->vm().ResidentPages(), 900u);
  std::vector<uint8_t> got(4 * kMiB);
  ASSERT_TRUE(proc->vm().Read(addr, got.data(), got.size()).ok());
  EXPECT_EQ(got, model);
  // And a crash-restore still reproduces the last checkpoint faithfully.
  m.Reboot();
  auto restored = *m.sls->Restore("bounded");
  ASSERT_TRUE(restored.group->processes[0]->vm().Read(addr, got.data(), got.size()).ok());
  EXPECT_EQ(got, model);
}

// --- Migration chains ------------------------------------------------------------------

TEST(MigrationChain, TwoHopMigrationPreservesState) {
  CrashMachine a;
  CrashMachine b;
  CrashMachine c;
  Process* proc = *a.kernel->CreateProcess("hopper");
  auto obj = VmObject::CreateAnonymous(512 * kKiB);
  uint64_t addr = *proc->vm().Map(0x400000, 512 * kKiB, kProtRead | kProtWrite, obj, 0, false);
  const char payload[] = "three machines, one process";
  ASSERT_TRUE(proc->vm().Write(addr + 64, payload, sizeof(payload)).ok());

  SlsCli cli_a(a.sls.get());
  ASSERT_TRUE(cli_a.Attach("hopper", proc).ok());
  ASSERT_TRUE(cli_a.Checkpoint("hopper", "origin").ok());
  auto stream_ab = *cli_a.Send("hopper");

  SlsCli cli_b(b.sls.get());
  auto on_b = *cli_b.Recv(stream_ab);
  // Work on B, checkpoint natively, hop again.
  uint64_t extra = 0x5e5e;
  ASSERT_TRUE(on_b.group->processes[0]->vm().Write(addr + 4096, &extra, sizeof(extra)).ok());
  ASSERT_TRUE(cli_b.Checkpoint("hopper", "on-b").ok());
  auto stream_bc = *cli_b.Send("hopper");

  SlsCli cli_c(c.sls.get());
  auto on_c = *cli_c.Recv(stream_bc);
  char buf[sizeof(payload)] = {};
  ASSERT_TRUE(on_c.group->processes[0]->vm().Read(addr + 64, buf, sizeof(buf)).ok());
  EXPECT_STREQ(buf, payload);
  uint64_t got = 0;
  ASSERT_TRUE(on_c.group->processes[0]->vm().Read(addr + 4096, &got, sizeof(got)).ok());
  EXPECT_EQ(got, 0x5e5eu) << "work done on B must survive the second hop";
}

// --- Long-running lifecycle -----------------------------------------------------------

TEST(Lifecycle, RepeatedSuspendResumeCycles) {
  CrashMachine m;
  Process* proc = *m.kernel->CreateProcess("cycler");
  auto obj = VmObject::CreateAnonymous(256 * kKiB);
  uint64_t addr = *proc->vm().Map(0x400000, 256 * kKiB, kProtRead | kProtWrite, obj, 0, false);
  SlsCli cli(m.sls.get());
  ASSERT_TRUE(cli.Attach("cycler", proc).ok());

  uint64_t counter = 0;
  for (int cycle = 0; cycle < 5; cycle++) {
    ConsistencyGroup* group = m.sls->FindGroup("cycler");
    Process* p = group->processes[0];
    counter++;
    ASSERT_TRUE(p->vm().Write(addr, &counter, sizeof(counter)).ok());
    ASSERT_TRUE(cli.Suspend("cycler").ok());
    EXPECT_TRUE(m.kernel->AllProcesses().empty());
    auto resumed = cli.Resume("cycler");
    ASSERT_TRUE(resumed.ok()) << "cycle " << cycle;
    uint64_t got = 0;
    ASSERT_TRUE(resumed->group->processes[0]->vm().Read(addr, &got, sizeof(got)).ok());
    EXPECT_EQ(got, counter) << "cycle " << cycle;
  }
}

TEST(Lifecycle, HistoryRetainedAcrossManyCheckpointsAndPruned) {
  CrashMachine m;
  Process* proc = *m.kernel->CreateProcess("hist");
  auto obj = VmObject::CreateAnonymous(64 * kKiB);
  uint64_t addr = *proc->vm().Map(0x400000, 64 * kKiB, kProtRead | kProtWrite, obj, 0, false);
  ConsistencyGroup* group = *m.sls->CreateGroup("hist");
  ASSERT_TRUE(m.sls->Attach(group, proc).ok());

  std::vector<uint64_t> epochs;
  for (uint64_t i = 1; i <= 12; i++) {
    ASSERT_TRUE(proc->vm().Write(addr, &i, sizeof(i)).ok());
    auto ckpt = *m.sls->Checkpoint(group, "h" + std::to_string(i));
    epochs.push_back(ckpt.epoch);
  }
  // Any point in history is restorable.
  for (size_t pick : {size_t{2}, size_t{6}, size_t{11}}) {
    auto restored = *m.sls->Restore("hist", epochs[pick]);
    uint64_t got = 0;
    ASSERT_TRUE(restored.group->processes[0]->vm().Read(addr, &got, sizeof(got)).ok());
    EXPECT_EQ(got, pick + 1);
    // Re-checkpoint so the group has a fresh latest state for the next loop.
    ASSERT_TRUE(m.sls->Checkpoint(restored.group).ok());
  }
  // Prune old history; space comes back, newest stays restorable.
  uint64_t free_before = m.store->FreeBlocks();
  ASSERT_TRUE(m.store->DeleteCheckpointsBefore(epochs[9]).ok());
  EXPECT_GE(m.store->FreeBlocks(), free_before);
  auto latest = m.sls->Restore("hist");
  EXPECT_TRUE(latest.ok());
}

// --- Sockets with fd passing across checkpoint/restore ----------------------------------

TEST(SocketIntegration, InFlightFdPassingSurvivesRestore) {
  CrashMachine m;
  Process* sender = *m.kernel->CreateProcess("sender");
  Process* receiver = *m.kernel->CreateProcess("receiver");

  // A pipe whose write end is in flight over a UNIX socket at checkpoint.
  auto [rfd, wfd] = *m.kernel->MakePipe(*sender);
  auto wdesc = *sender->fds().Get(wfd);
  ASSERT_TRUE(static_cast<Pipe*>(wdesc->object.get())->Write("in-pipe", 7).ok());

  int lsock_fd = *m.kernel->MakeSocket(*receiver, SocketDomain::kUnix, SocketProto::kTcp);
  auto* listener = static_cast<Socket*>((*receiver->fds().Get(lsock_fd))->object.get());
  ASSERT_TRUE(listener->Bind({0, 0, "/tmp/ctl"}).ok());
  ASSERT_TRUE(listener->Listen(4).ok());
  int csock_fd = *m.kernel->MakeSocket(*sender, SocketDomain::kUnix, SocketProto::kTcp);
  auto client =
      std::static_pointer_cast<Socket>((*sender->fds().Get(csock_fd))->object);
  ASSERT_TRUE(client->Bind({0, 0, "/tmp/cli"}).ok());
  auto server_end_sock = *client->ConnectTo(listener->shared_from_this());
  // Install the accepted end into the receiver's fd table.
  auto accepted_desc = std::make_shared<FileDescription>();
  accepted_desc->object = server_end_sock;
  int accepted_fd = *receiver->fds().Install(accepted_desc);

  ControlMessage cm;
  cm.fds.push_back(wdesc);
  ASSERT_TRUE(client->Send("take this fd", 12, cm).ok());

  ConsistencyGroup* group = *m.sls->CreateGroup("ipc");
  ASSERT_TRUE(m.sls->Attach(group, sender).ok());
  ASSERT_TRUE(m.sls->Attach(group, receiver).ok());
  ASSERT_TRUE(m.sls->Checkpoint(group).ok());

  m.Reboot();
  auto restored = *m.sls->Restore("ipc");
  Process* r_receiver = restored.group->processes[1];
  auto* r_sock = static_cast<Socket*>((*r_receiver->fds().Get(accepted_fd))->object.get());
  ASSERT_FALSE(r_sock->recv_buf.empty()) << "buffered segment must survive";
  auto seg = *r_sock->Recv(64);
  EXPECT_EQ(std::string(seg.data.begin(), seg.data.end()), "take this fd");
  ASSERT_TRUE(seg.control.has_value());
  ASSERT_EQ(seg.control->fds.size(), 1u);
  // The passed descriptor still references the pipe, with its bytes intact.
  auto* r_pipe = static_cast<Pipe*>(seg.control->fds[0]->object.get());
  char buf[8] = {};
  ASSERT_TRUE(r_pipe->Read(buf, 7).ok());
  EXPECT_STREQ(buf, "in-pipe");
  (void)rfd;
}

// --- Checkpoint modes under randomized interleavings -------------------------------------

class RandomWorkloadTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(RandomWorkloadTest, RandomOpsThenCrashAlwaysRecoverLastCheckpoint) {
  CrashMachine m;
  Process* proc = *m.kernel->CreateProcess("rand");
  auto obj = VmObject::CreateAnonymous(1 * kMiB);
  uint64_t addr = *proc->vm().Map(0x400000, 1 * kMiB, kProtRead | kProtWrite, obj, 0, false);
  ConsistencyGroup* group = *m.sls->CreateGroup("rand");
  ASSERT_TRUE(m.sls->Attach(group, proc).ok());

  Rng rng(GetParam());
  std::vector<uint8_t> live(1 * kMiB, 0);
  std::vector<uint8_t> committed;  // the image at the newest full checkpoint
  std::vector<uint8_t> newest;     // at the newest checkpoint of either kind
  for (int step = 0; step < 300; step++) {
    proc = group->processes[0];  // a restore replaces the process
    double dice = rng.NextDouble();
    if (dice < 0.82) {
      uint64_t off = rng.Below(1 * kMiB - 8);
      uint64_t v = rng.Next();
      ASSERT_TRUE(proc->vm().Write(addr + off, &v, sizeof(v)).ok());
      std::memcpy(live.data() + off, &v, sizeof(v));
    } else if (dice < 0.94) {
      ASSERT_TRUE(m.sls->Checkpoint(group).ok());
      committed = live;
      newest = live;
    } else if (dice < 0.97) {
      ASSERT_TRUE(m.sls->Checkpoint(group, "", CheckpointMode::kMemoryOnly).ok());
      // memory-only checkpoints are not durable: committed stays.
      newest = live;
    } else if (!newest.empty()) {
      // Rollback in memory: the durable image stays, the live one rewinds.
      auto rolled = m.sls->RestoreFromMemory("rand");
      ASSERT_TRUE(rolled.ok()) << rolled.status().message();
      live = newest;
      std::vector<uint8_t> got(1 * kMiB);
      ASSERT_TRUE(group->processes[0]->vm().Read(addr, got.data(), got.size()).ok());
      ASSERT_EQ(got, live) << "step " << step << ": rollback must land on the newest checkpoint";
    }
  }
  if (committed.empty()) {
    ASSERT_TRUE(m.sls->Checkpoint(group).ok());
    committed = live;
  }
  m.Reboot();
  auto restored = *m.sls->Restore("rand");
  std::vector<uint8_t> got(1 * kMiB);
  ASSERT_TRUE(restored.group->processes[0]->vm().Read(addr, got.data(), got.size()).ok());
  EXPECT_EQ(got, committed);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomWorkloadTest,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34));

// --- Incremental migration (pre-copy / high availability) ----------------------

TEST(MigrationChain, IncrementalStreamsShipOnlyDeltas) {
  CrashMachine src;
  CrashMachine dst;
  Process* proc = *src.kernel->CreateProcess("ha");
  auto obj = VmObject::CreateAnonymous(8 * kMiB);
  uint64_t addr = *proc->vm().Map(0x400000, 8 * kMiB, kProtRead | kProtWrite, obj, 0, false);
  ASSERT_TRUE(proc->vm().DirtyRange(addr, 8 * kMiB).ok());

  SlsCli src_cli(src.sls.get());
  SlsCli dst_cli(dst.sls.get());
  ASSERT_TRUE(src_cli.Attach("ha", proc).ok());
  auto base_ckpt = *src.sls->Checkpoint(src.sls->FindGroup("ha"), "base");

  // Round 0: full image to the standby.
  ReplicaStandby session(&dst.sim, nullptr);
  auto full = *src_cli.Send("ha");
  auto standby = dst_cli.Recv(full, &session);
  ASSERT_TRUE(standby.ok());
  size_t full_bytes = full.bytes.size();
  // The wire stream dedups repeated blocks: the DirtyRange stamp pattern
  // repeats every 256 pages, so the 8 MiB image ships ~1 MiB of unique
  // payload plus back-references for the other 1792 pages.
  EXPECT_GT(full_bytes, 1 * kMiB);
  EXPECT_LT(full_bytes, 2 * kMiB);

  // Round 1: touch a few pages, checkpoint, ship the delta.
  const char update[] = "delta-round-1";
  ASSERT_TRUE(proc->vm().Write(addr + 3 * kMiB, update, sizeof(update)).ok());
  auto ckpt2 = *src.sls->Checkpoint(src.sls->FindGroup("ha"), "round1");
  auto delta = *src_cli.Send("ha", ckpt2.epoch, base_ckpt.epoch);
  EXPECT_LT(delta.bytes.size(), full_bytes / 8)
      << "incremental stream must be much smaller than the full image";
  auto standby2 = dst_cli.Recv(delta, &session);
  ASSERT_TRUE(standby2.ok()) << standby2.status().message();

  // The standby has the base image plus the delta.
  char buf[sizeof(update)] = {};
  Process* rp = standby2->group->processes[0];
  ASSERT_TRUE(rp->vm().Read(addr + 3 * kMiB, buf, sizeof(buf)).ok());
  EXPECT_STREQ(buf, update);
  uint8_t base_byte = 0;
  ASSERT_TRUE(rp->vm().Read(addr + 6 * kMiB + 3 * kPageSize, &base_byte, 1).ok());
  // DirtyRange stamped (page >> 12) & 0xff at each page start.
  EXPECT_EQ(base_byte, static_cast<uint8_t>(((addr + 6 * kMiB + 3 * kPageSize) >> 12) & 0xff))
      << "pages from the full round must still be there";
}

TEST(MigrationChain, IncrementalWithoutBaseRejected) {
  CrashMachine src;
  CrashMachine dst;
  Process* proc = *src.kernel->CreateProcess("ha2");
  auto obj = VmObject::CreateAnonymous(256 * kKiB);
  AURORA_IGNORE_STATUS(proc->vm().Map(0x400000, 256 * kKiB, kProtRead | kProtWrite, obj, 0, false), "mapping exists only to add payload; the address is unused");
  SlsCli src_cli(src.sls.get());
  SlsCli dst_cli(dst.sls.get());
  ASSERT_TRUE(src_cli.Attach("ha2", proc).ok());
  auto c1 = *src.sls->Checkpoint(src.sls->FindGroup("ha2"));
  auto c2 = *src.sls->Checkpoint(src.sls->FindGroup("ha2"));
  auto delta = *src_cli.Send("ha2", c2.epoch, c1.epoch);
  ReplicaStandby empty_session(&dst.sim, nullptr);
  EXPECT_FALSE(dst_cli.Recv(delta, &empty_session).ok());
  EXPECT_FALSE(dst_cli.Recv(delta, nullptr).ok());
}

}  // namespace
}  // namespace aurora
