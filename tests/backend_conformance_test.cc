// Backend conformance: every CheckpointBackend must round-trip a group
// through checkpoint -> crash/teardown -> restore with identical process,
// fd and memory state, and export the per-backend shipping metrics.
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

class BackendConformance : public ::testing::TestWithParam<const char*> {
 protected:
  // Registers (if needed) and returns the backend under test.
  CheckpointBackend* PrepareBackend(Machine& m) {
    std::string which = GetParam();
    if (which == "store") {
      return m.sls->store_backend();
    }
    if (which == "memory") {
      return m.sls->RegisterBackend(std::make_unique<MemoryBackend>(&m.sim));
    }
    // replica: continuous ingest standby behind a fault-injectable link.
    link_ = std::make_unique<ReplicaLink>();
    auto* standby = static_cast<ReplicaStandby*>(
        m.sls->RegisterBackend(std::make_unique<ReplicaStandby>(&m.sim, link_.get())));
    return m.sls->RegisterBackend(
        std::make_unique<ReplicaBackend>(&m.sim, standby, link_.get()));
  }

  std::unique_ptr<ReplicaLink> link_;
};

TEST_P(BackendConformance, CheckpointTeardownRestoreRoundTrip) {
  Machine m;
  CheckpointBackend* backend = PrepareBackend(m);

  constexpr uint64_t kMem = 1 * kMiB;
  Process* proc = *m.kernel->CreateProcess("app");
  auto obj = VmObject::CreateAnonymous(kMem);
  uint64_t addr = *proc->vm().Map(0x400000, kMem, kProtRead | kProtWrite, obj, 0, false);

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
  ASSERT_TRUE(m.sls->SetBackend(group, backend->name()).ok());

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

  auto restored = m.sls->Restore("app", 0, RestoreMode::kFull, backend);
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
  std::string prefix = "backend." + backend->name() + ".";
  EXPECT_GT(m.sim.metrics.counter(prefix + "bytes_shipped").value(), 0u);
  EXPECT_GE(m.sim.metrics.counter(prefix + "epochs_committed").value(), 2u);
}

INSTANTIATE_TEST_SUITE_P(AllBackends, BackendConformance,
                         ::testing::Values("store", "memory", "replica"));

}  // namespace
}  // namespace aurora
