// Backend conformance: every checkpoint destination must round-trip a group
// through checkpoint -> crash/teardown -> restore with identical process,
// fd and memory state, and export the per-backend shipping metrics; so must
// a restore straight from the standby's image table.
#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "src/base/sim_context.h"
#include "src/core/backend.h"
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

  SimContext sim;
  std::unique_ptr<BlockDevice> device;
  std::unique_ptr<ObjectStore> store;
  std::unique_ptr<AuroraFs> fs;
  std::unique_ptr<Kernel> kernel;
  std::unique_ptr<Sls> sls;
};

constexpr uint64_t kRegionAddr = 0x400000;
constexpr uint64_t kRegionBytes = 1 * kMiB;

// Checkpoints a patterned one-process group twice into `destination`,
// crashes it, restores it from `source` in `mode` and checks that the
// process, fd and memory state match the second checkpoint.
void RoundTrip(Machine& m, CheckpointDestination* destination, CheckpointBackend* source,
               RestoreMode mode) {
  constexpr uint64_t kMem = kRegionBytes;
  Process* proc = *m.kernel->CreateProcess("app");
  auto obj = VmObject::CreateAnonymous(kMem);
  uint64_t addr = *proc->vm().Map(kRegionAddr, kMem, kProtRead | kProtWrite, obj, 0, false);

  // Patterned memory so a wrong page is detectable, plus an fd with state.
  std::vector<uint8_t> pattern(kMem);
  for (uint64_t i = 0; i < kMem; i++) {
    pattern[i] = static_cast<uint8_t>(i * 31 + (i >> 12));
  }
  ASSERT_TRUE(proc->vm().Write(addr, pattern.data(), pattern.size()).ok());
  auto [rfd, wfd] = *m.kernel->MakePipe(*proc);
  const char msg[] = "in flight";
  ASSERT_TRUE(m.kernel->WriteFd(*proc, wfd, msg, sizeof(msg)).ok());

  ConsistencyGroup* group = *m.sls->CreateGroup("app");
  ASSERT_TRUE(m.sls->Attach(group, proc).ok());
  ASSERT_TRUE(m.sls->SetBackend(group, destination->name()).ok());

  auto c1 = m.sls->Checkpoint(group, "first");
  ASSERT_TRUE(c1.ok());
  EXPECT_GT(c1->durable_at, 0u);

  // Mutate half the region so the second checkpoint is incremental.
  for (uint64_t i = kMem / 2; i < kMem; i++) {
    pattern[i] = static_cast<uint8_t>(pattern[i] ^ 0x5a);
  }
  ASSERT_TRUE(proc->vm()
                  .Write(addr + kMem / 2, pattern.data() + kMem / 2, kMem / 2)
                  .ok());
  auto c2 = m.sls->Checkpoint(group, "second");
  ASSERT_TRUE(c2.ok());
  uint64_t saved_pid = proc->local_pid();

  // Crash: scribble, then tear the whole incarnation down.
  std::vector<uint8_t> junk(kMem, 0xee);
  ASSERT_TRUE(proc->vm().Write(addr, junk.data(), junk.size()).ok());
  for (Process* p : group->processes) {
    m.kernel->DestroyProcess(p);
  }
  group->processes.clear();
  ASSERT_TRUE(m.kernel->AllProcesses().empty());

  auto restored = m.sls->Restore("app", 0, mode, source);
  ASSERT_TRUE(restored.ok()) << restored.status().message();
  ASSERT_EQ(restored->group->processes.size(), 1u);
  Process* rp = restored->group->processes[0];
  EXPECT_EQ(rp->local_pid(), saved_pid);

  std::vector<uint8_t> got(kMem);
  ASSERT_TRUE(rp->vm().Read(addr, got.data(), got.size()).ok());
  EXPECT_EQ(got, pattern) << "memory must match the second checkpoint";

  char pipe_buf[sizeof(msg)] = {};
  ASSERT_TRUE(m.kernel->ReadFd(*rp, rfd, pipe_buf, sizeof(pipe_buf)).ok());
  EXPECT_STREQ(pipe_buf, msg) << "buffered pipe data must survive";

  // Per-backend shipping metrics (satellite: sls stat / BENCH json rows).
  std::string prefix = "backend." + destination->name() + ".";
  EXPECT_GT(m.sim.metrics.counter(prefix + "bytes_shipped").value(), 0u);
  EXPECT_GE(m.sim.metrics.counter(prefix + "epochs_committed").value(), 2u);
}

// The replication pair on `m`: a continuous-ingest standby behind a link,
// and the primary-side destination that streams to it.
struct ReplicaPair {
  explicit ReplicaPair(Machine& m) {
    standby = static_cast<ReplicaStandby*>(
        m.sls->RegisterBackend(std::make_unique<ReplicaStandby>(&m.sim, &link)));
    replica = static_cast<ReplicaBackend*>(
        m.sls->RegisterBackend(std::make_unique<ReplicaBackend>(&m.sim, standby, &link)));
  }

  ReplicaLink link;
  ReplicaStandby* standby = nullptr;
  ReplicaBackend* replica = nullptr;
};

class BackendConformance : public ::testing::TestWithParam<const char*> {};

TEST_P(BackendConformance, CheckpointTeardownRestoreRoundTrip) {
  Machine m;
  if (std::string(GetParam()) == "store") {
    RoundTrip(m, m.sls->store_backend(), m.sls->store_backend(), RestoreMode::kFull);
    return;
  }
  ReplicaPair pair(m);
  RoundTrip(m, pair.replica, pair.replica, RestoreMode::kFull);
}

INSTANTIATE_TEST_SUITE_P(AllBackends, BackendConformance,
                         ::testing::Values("store", "replica"));

// Reads the one-process group's region as RoundTrip mapped it.
std::vector<uint8_t> ReadRegion(ConsistencyGroup* group) {
  std::vector<uint8_t> got(kRegionBytes);
  EXPECT_EQ(group->processes.size(), 1u);
  EXPECT_TRUE(group->processes[0]->vm().Read(kRegionAddr, got.data(), got.size()).ok());
  return got;
}

// The standby is a restore source only: a group cannot checkpoint into it,
// and a restore straight from it (not promoted, so through the cold image
// table) rebuilds the image in both modes and leaves the group's
// destination as it was. The replica names its objects in the standby, so
// the group keeps the image's names: its next checkpoint ships only what
// changed, even over a lazily paged image whose pages never faulted in, and
// the image restores whole.
TEST(StandbySource, ColdRestoreInFullAndLazyModeKeepsTheDestination) {
  for (RestoreMode mode : {RestoreMode::kFull, RestoreMode::kLazy}) {
    SCOPED_TRACE(mode == RestoreMode::kFull ? "full" : "lazy");
    Machine m;
    ReplicaPair pair(m);
    RoundTrip(m, pair.replica, pair.standby, mode);
    ASSERT_FALSE(pair.standby->promoted());
    ConsistencyGroup* group = m.sls->FindGroup("app");
    ASSERT_NE(group, nullptr);
    EXPECT_EQ(group->backend, pair.replica);
    EXPECT_EQ(m.sls->SetBackend(group, pair.standby->name()).code(), Errc::kNotSupported);
    EXPECT_EQ(m.sim.metrics.CounterValue("repl.warm_restores"), 0u);

    std::vector<uint8_t> want = ReadRegion(group);
    auto again = m.sls->Restore("app", 0, mode, pair.standby);
    ASSERT_TRUE(again.ok()) << again.status().message();
    uint64_t page = 0x7e57;
    ASSERT_TRUE(group->processes[0]->vm().Write(kRegionAddr, &page, sizeof(page)).ok());
    std::memcpy(want.data(), &page, sizeof(page));
    auto after = m.sls->Checkpoint(group, "after");
    ASSERT_TRUE(after.ok());
    ASSERT_FALSE(after->aborted);
    for (Process* p : group->processes) {
      m.kernel->DestroyProcess(p);
    }
    group->processes.clear();
    auto back = m.sls->Restore("app", 0, RestoreMode::kFull, pair.replica);
    ASSERT_TRUE(back.ok()) << back.status().message();
    EXPECT_EQ(ReadRegion(back->group), want);
  }
}

// A promotion on the standby's own machine makes a new group there, whose
// destination is that machine's store: the standby's object names mean
// nothing to it, so its first checkpoint writes the whole image under fresh
// names, and the store restores it. A lazy restore from the standby, whose
// image would keep paging from it, is refused before the running
// incarnation is touched.
TEST(StandbySource, PromotionIntoANewGroupCheckpointsIntoTheLocalStore) {
  Machine primary;
  Machine standby_host;
  ReplicaLink link;
  auto* standby = static_cast<ReplicaStandby*>(
      standby_host.sls->RegisterBackend(std::make_unique<ReplicaStandby>(&standby_host.sim, &link)));
  auto* replica = static_cast<ReplicaBackend*>(primary.sls->RegisterBackend(
      std::make_unique<ReplicaBackend>(&primary.sim, standby, &link)));

  Process* proc = *primary.kernel->CreateProcess("app");
  auto obj = VmObject::CreateAnonymous(kRegionBytes);
  ASSERT_TRUE(proc->vm().Map(kRegionAddr, kRegionBytes, kProtRead | kProtWrite, obj, 0, false).ok());
  std::vector<uint8_t> image(kRegionBytes);
  for (uint64_t i = 0; i < kRegionBytes; i++) {
    image[i] = static_cast<uint8_t>(i * 7 + (i >> 12));
  }
  ASSERT_TRUE(proc->vm().Write(kRegionAddr, image.data(), image.size()).ok());
  ConsistencyGroup* group = *primary.sls->CreateGroup("app");
  ASSERT_TRUE(primary.sls->Attach(group, proc).ok());
  ASSERT_TRUE(primary.sls->SetBackend(group, replica->name()).ok());
  ASSERT_TRUE(primary.sls->Checkpoint(group, "shipped").ok());

  auto promoted = standby_host.sls->Restore("app", 0, RestoreMode::kFull, standby);
  ASSERT_TRUE(promoted.ok()) << promoted.status().message();
  ConsistencyGroup* local = promoted->group;
  EXPECT_EQ(local->backend, nullptr) << "a new group checkpoints into its machine's store";
  auto ckpt = standby_host.sls->Checkpoint(local, "local");
  ASSERT_TRUE(ckpt.ok()) << ckpt.status().message();
  ASSERT_FALSE(ckpt->aborted);
  for (Process* p : local->processes) {
    standby_host.kernel->DestroyProcess(p);
  }
  local->processes.clear();
  auto back = standby_host.sls->Restore("app");
  ASSERT_TRUE(back.ok()) << back.status().message();
  EXPECT_EQ(ReadRegion(back->group), image);

  Process* running = back->group->processes[0];
  auto lazy = standby_host.sls->Restore("app", 0, RestoreMode::kLazy, standby);
  ASSERT_FALSE(lazy.ok());
  EXPECT_EQ(lazy.status().code(), Errc::kNotSupported);
  ASSERT_EQ(back->group->processes.size(), 1u);
  EXPECT_EQ(back->group->processes[0], running);
}

// A promoted image that is written before its first local checkpoint: the
// store must hold the write and every page below it, so the image takes one
// fresh name and the write lands in the same store object.
TEST(StandbySource, WriteBeforeTheFirstLocalCheckpointKeepsThePromotedImage) {
  Machine primary;
  Machine standby_host;
  ReplicaLink link;
  auto* standby = static_cast<ReplicaStandby*>(
      standby_host.sls->RegisterBackend(std::make_unique<ReplicaStandby>(&standby_host.sim, &link)));
  auto* replica = static_cast<ReplicaBackend*>(primary.sls->RegisterBackend(
      std::make_unique<ReplicaBackend>(&primary.sim, standby, &link)));

  Process* proc = *primary.kernel->CreateProcess("app");
  auto obj = VmObject::CreateAnonymous(kRegionBytes);
  ASSERT_TRUE(proc->vm().Map(kRegionAddr, kRegionBytes, kProtRead | kProtWrite, obj, 0, false).ok());
  std::vector<uint8_t> image(kRegionBytes);
  for (uint64_t i = 0; i < kRegionBytes; i++) {
    image[i] = static_cast<uint8_t>(i * 5 + (i >> 12));
  }
  ASSERT_TRUE(proc->vm().Write(kRegionAddr, image.data(), image.size()).ok());
  ConsistencyGroup* group = *primary.sls->CreateGroup("app");
  ASSERT_TRUE(primary.sls->Attach(group, proc).ok());
  ASSERT_TRUE(primary.sls->SetBackend(group, replica->name()).ok());
  ASSERT_TRUE(primary.sls->Checkpoint(group, "shipped").ok());

  auto promoted = standby_host.sls->Restore("app", 0, RestoreMode::kFull, standby);
  ASSERT_TRUE(promoted.ok()) << promoted.status().message();
  const uint64_t word = 0x5e5e5e5e;
  ASSERT_TRUE(
      promoted->group->processes[0]->vm().Write(kRegionAddr + kPageSize, &word, sizeof(word)).ok());
  std::memcpy(image.data() + kPageSize, &word, sizeof(word));
  auto ckpt = standby_host.sls->Checkpoint(promoted->group, "local");
  ASSERT_TRUE(ckpt.ok()) << ckpt.status().message();
  ASSERT_FALSE(ckpt->aborted);
  for (Process* p : promoted->group->processes) {
    standby_host.kernel->DestroyProcess(p);
  }
  promoted->group->processes.clear();
  auto back = standby_host.sls->Restore("app");
  ASSERT_TRUE(back.ok()) << back.status().message();
  EXPECT_EQ(ReadRegion(back->group), image);
}

}  // namespace
}  // namespace aurora
