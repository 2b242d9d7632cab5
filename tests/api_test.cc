// libsls (Table 3 API), process lifecycle (exit/wait), and the madvise
// paging policy.
#include <gtest/gtest.h>

#include "src/base/sim_context.h"
#include "src/core/api.h"
#include "src/fs/aurora_fs.h"
#include "src/objstore/object_store.h"
#include "src/storage/block_device.h"

namespace aurora {
namespace {

class ApiTest : public ::testing::Test {
 protected:
  ApiTest() {
    device_ = MakePaperTestbedStore(&sim_.clock, 1 * kGiB);
    store_ = *ObjectStore::Format(device_.get(), &sim_);
    fs_ = std::make_unique<AuroraFs>(&sim_, store_.get());
    kernel_ = std::make_unique<Kernel>(&sim_);
    sls_ = std::make_unique<Sls>(&sim_, kernel_.get(), store_.get(), fs_.get());
    proc_ = *kernel_->CreateProcess("app");
    auto obj = VmObject::CreateAnonymous(4 * kMiB);
    addr_ = *proc_->vm().Map(0x400000, 4 * kMiB, kProtRead | kProtWrite, obj, 0, false);
    group_ = *sls_->CreateGroup("app");
    AURORA_IGNORE_STATUS(sls_->Attach(group_, proc_), "attaching a freshly created process to its group cannot fail here");
  }
  SimContext sim_;
  std::unique_ptr<BlockDevice> device_;
  std::unique_ptr<ObjectStore> store_;
  std::unique_ptr<AuroraFs> fs_;
  std::unique_ptr<Kernel> kernel_;
  std::unique_ptr<Sls> sls_;
  Process* proc_ = nullptr;
  uint64_t addr_ = 0;
  ConsistencyGroup* group_ = nullptr;
};

TEST_F(ApiTest, CheckpointRestoreRoundTrip) {
  SlsApi api(sls_.get(), group_, proc_);
  uint64_t v = 0xc0ffee;
  ASSERT_TRUE(proc_->vm().Write(addr_, &v, sizeof(v)).ok());
  auto epoch = api.sls_checkpoint();
  ASSERT_TRUE(epoch.ok());
  uint64_t junk = 0;
  ASSERT_TRUE(proc_->vm().Write(addr_, &junk, sizeof(junk)).ok());
  ASSERT_TRUE(api.sls_restore(*epoch).ok());
  uint64_t got = 0;
  ASSERT_TRUE(api.process()->vm().Read(addr_, &got, sizeof(got)).ok());
  EXPECT_EQ(got, 0xc0ffeeu);
}

TEST_F(ApiTest, JournalAndBarrier) {
  SlsApi api(sls_.get(), group_, proc_);
  auto journal = api.sls_journal_create(1 * kMiB);
  ASSERT_TRUE(journal.ok());
  ASSERT_TRUE(api.sls_journal(*journal, "op1", 3).ok());
  ASSERT_TRUE(api.sls_checkpoint().ok());
  ASSERT_TRUE(api.sls_barrier().ok());
  ASSERT_TRUE(api.sls_journal_truncate(*journal).ok());
  ASSERT_TRUE(api.sls_journal(*journal, "op2", 3).ok());
  auto records = sls_->JournalReplay(*journal);
  ASSERT_TRUE(records.ok());
  ASSERT_EQ(records->size(), 1u);
  EXPECT_EQ(std::string((*records)[0].begin(), (*records)[0].end()), "op2");
}

TEST_F(ApiTest, MemckptAndMctl) {
  SlsApi api(sls_.get(), group_, proc_);
  ASSERT_TRUE(api.sls_checkpoint().ok());
  uint64_t v = 77;
  ASSERT_TRUE(api.process()->vm().Write(addr_ + kPageSize, &v, sizeof(v)).ok());
  ASSERT_TRUE(api.sls_memckpt(addr_).ok());
  ASSERT_TRUE(api.sls_mctl(addr_, /*exclude=*/true).ok());
  EXPECT_TRUE(api.process()->vm().FindEntry(addr_)->exclude_from_checkpoint);
  ASSERT_TRUE(api.sls_mctl(addr_, /*exclude=*/false).ok());
  EXPECT_FALSE(api.process()->vm().FindEntry(addr_)->exclude_from_checkpoint);
  EXPECT_FALSE(api.sls_mctl(0xdead0000, true).ok());
}

TEST_F(ApiTest, FdctlTogglesExternalSync) {
  SlsApi api(sls_.get(), group_, proc_);
  int fd = *kernel_->MakeSocket(*proc_, SocketDomain::kInet, SocketProto::kTcp);
  ASSERT_TRUE(api.sls_fdctl(fd, true).ok());
  auto* sock = static_cast<Socket*>((*proc_->fds().Get(fd))->object.get());
  EXPECT_TRUE(sock->external_sync_disabled);
  ASSERT_TRUE(api.sls_fdctl(fd, false).ok());
  EXPECT_FALSE(sock->external_sync_disabled);
  int pipe_fd = (*kernel_->MakePipe(*proc_)).first;
  EXPECT_FALSE(api.sls_fdctl(pipe_fd, true).ok()) << "fdctl targets sockets";
}

// --- exit/wait ---------------------------------------------------------------

TEST_F(ApiTest, ExitMakesZombieAndSignalsParent) {
  Process* child = *kernel_->Fork(*proc_);
  uint64_t child_pid = child->local_pid();
  kernel_->Exit(child, 3);
  EXPECT_TRUE(child->zombie);
  EXPECT_TRUE(proc_->pending_signals & (1ull << kSigChld));
  auto reaped = kernel_->WaitAny(*proc_);
  ASSERT_TRUE(reaped.ok());
  EXPECT_EQ(reaped->first, child_pid);
  EXPECT_EQ(reaped->second, 3);
  EXPECT_EQ(kernel_->WaitAny(*proc_).status().code(), Errc::kWouldBlock);
  EXPECT_EQ(kernel_->FindLocalPid(child_pid), nullptr);
}

TEST_F(ApiTest, OrphanExitReapsImmediately) {
  Process* orphan = *kernel_->CreateProcess("orphan");
  uint64_t pid = orphan->local_pid();
  kernel_->Exit(orphan, 0);
  EXPECT_EQ(kernel_->FindLocalPid(pid), nullptr);
}

TEST_F(ApiTest, ZombieSurvivesCheckpointRestore) {
  Process* child = *kernel_->Fork(*proc_);
  AURORA_IGNORE_STATUS(sls_->Attach(group_, child), "attaching a freshly created process to its group cannot fail here");
  kernel_->Exit(child, 9);
  ASSERT_TRUE(sls_->Checkpoint(group_).ok());
  auto restored = *sls_->Restore("app");
  ASSERT_EQ(restored.group->processes.size(), 2u);
  Process* rparent = restored.group->processes[0];
  auto reaped = kernel_->WaitAny(*rparent);
  ASSERT_TRUE(reaped.ok()) << "the zombie's exit status must survive restore";
  EXPECT_EQ(reaped->second, 9);
}

TEST_F(ApiTest, ReapedChildLeavesItsGroup) {
  Process* child = *kernel_->Fork(*proc_);
  ASSERT_TRUE(sls_->Attach(group_, child).ok());
  auto first = sls_->Checkpoint(group_);
  ASSERT_TRUE(first.ok());
  kernel_->Exit(child, 0);
  ASSERT_TRUE(kernel_->WaitAny(*proc_).ok());
  EXPECT_EQ(group_->processes, std::vector<Process*>{proc_});
  auto second = sls_->Checkpoint(group_);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second->os_state.processes, first->os_state.processes - 1);
}

TEST_F(ApiTest, OrphanExitLeavesItsGroup) {
  Process* orphan = *kernel_->CreateProcess("orphan");
  ASSERT_TRUE(sls_->Attach(group_, orphan).ok());
  auto first = sls_->Checkpoint(group_);
  ASSERT_TRUE(first.ok());
  kernel_->Exit(orphan, 0);
  EXPECT_EQ(group_->processes, std::vector<Process*>{proc_});
  auto second = sls_->Checkpoint(group_);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second->os_state.processes, first->os_state.processes - 1);
}

// --- madvise policy -------------------------------------------------------------

TEST_F(ApiTest, MadviseOrdersEviction) {
  // Two more regions with hints; all persisted by two checkpoints.
  auto keep_obj = VmObject::CreateAnonymous(1 * kMiB);
  uint64_t keep_addr =
      *proc_->vm().Map(0x800000, 1 * kMiB, kProtRead | kProtWrite, keep_obj, 0, false);
  auto drop_obj = VmObject::CreateAnonymous(1 * kMiB);
  uint64_t drop_addr =
      *proc_->vm().Map(0xC00000, 1 * kMiB, kProtRead | kProtWrite, drop_obj, 0, false);
  ASSERT_TRUE(proc_->vm().DirtyRange(keep_addr, 1 * kMiB).ok());
  ASSERT_TRUE(proc_->vm().DirtyRange(drop_addr, 1 * kMiB).ok());
  ASSERT_TRUE(proc_->vm().Advise(keep_addr, kMadvWillneed).ok());
  ASSERT_TRUE(proc_->vm().Advise(drop_addr, kMadvDontneed).ok());
  ASSERT_TRUE(sls_->Checkpoint(group_).ok());
  ASSERT_TRUE(sls_->Checkpoint(group_).ok());
  ASSERT_TRUE(sls_->Checkpoint(group_).ok());

  // Ask for exactly one region's worth of pages: the DONTNEED one goes.
  auto evicted = sls_->EvictPages(group_, 256);
  ASSERT_TRUE(evicted.ok());
  EXPECT_GE(evicted->clean_evicted, 200u);
  auto resident_of = [&](uint64_t addr) {
    std::shared_ptr<VmObject> base = proc_->vm().FindEntry(addr)->object;
    while (base->parent_ref() != nullptr) {
      base = base->parent_ref();
    }
    return base->ResidentPages();
  };
  EXPECT_EQ(resident_of(drop_addr), 0u) << "DONTNEED region evicted first";
  EXPECT_GT(resident_of(keep_addr), 200u) << "WILLNEED region retained";
  // Contents still correct through the pager.
  uint8_t byte = 0;
  ASSERT_TRUE(proc_->vm().Read(drop_addr + 5 * kPageSize, &byte, 1).ok());
  EXPECT_EQ(byte, static_cast<uint8_t>(((drop_addr + 5 * kPageSize) >> 12) & 0xff));
}

}  // namespace
}  // namespace aurora
