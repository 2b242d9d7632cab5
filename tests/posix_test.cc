#include <gtest/gtest.h>

#include <cstring>

#include "src/base/sim_context.h"
#include "src/posix/kernel.h"

namespace aurora {
namespace {

class PosixTest : public ::testing::Test {
 protected:
  PosixTest() : kernel_(&sim_) {}
  SimContext sim_;
  Kernel kernel_;
};

TEST_F(PosixTest, ProcessTreeAndGroups) {
  auto parent = kernel_.CreateProcess("init");
  ASSERT_TRUE(parent.ok());
  auto child = kernel_.Fork(**parent);
  ASSERT_TRUE(child.ok());
  EXPECT_EQ((*child)->parent, *parent);
  EXPECT_EQ((*parent)->children.size(), 1u);
  EXPECT_EQ((*child)->pgid, (*parent)->pgid);
  EXPECT_EQ((*child)->sid, (*parent)->sid);
  EXPECT_NE((*child)->pid(), (*parent)->pid());
  EXPECT_EQ(kernel_.FindPid((*child)->pid()), *child);
}

TEST_F(PosixTest, FdSharingAcrossFork) {
  auto proc = *kernel_.CreateProcess("app");
  auto pipe_fds = kernel_.MakePipe(*proc);
  ASSERT_TRUE(pipe_fds.ok());
  auto [rfd, wfd] = *pipe_fds;

  auto child = *kernel_.Fork(*proc);
  // Same FileDescription object: offsets and flags are shared.
  auto parent_desc = *proc->fds().Get(rfd);
  auto child_desc = *child->fds().Get(rfd);
  EXPECT_EQ(parent_desc.get(), child_desc.get());

  // dup shares too; a fresh open would not (no open here, pipes are unique).
  auto dupfd = proc->fds().Dup(wfd);
  ASSERT_TRUE(dupfd.ok());
  EXPECT_EQ((*proc->fds().Get(*dupfd)).get(), (*proc->fds().Get(wfd)).get());
}

TEST_F(PosixTest, PipeDataFlow) {
  auto proc = *kernel_.CreateProcess("app");
  auto [rfd, wfd] = *kernel_.MakePipe(*proc);
  auto wdesc = *proc->fds().Get(wfd);
  auto* pipe = static_cast<Pipe*>(wdesc->object.get());
  ASSERT_TRUE(pipe->Write("hello", 5).ok());
  char buf[8] = {};
  auto n = pipe->Read(buf, sizeof(buf));
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(*n, 5u);
  EXPECT_STREQ(buf, "hello");
  // Empty pipe with writer open: would block.
  EXPECT_EQ(pipe->Read(buf, 1).status().code(), Errc::kWouldBlock);
  pipe->write_open = false;
  EXPECT_EQ(*pipe->Read(buf, 1), 0u);  // EOF
  (void)rfd;
}

TEST_F(PosixTest, PipeBackpressure) {
  Pipe pipe;
  std::vector<uint8_t> big(Pipe::kCapacity + 100, 0x7);
  auto n = pipe.Write(big.data(), big.size());
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(*n, Pipe::kCapacity);
  EXPECT_EQ(pipe.Write(big.data(), 1).status().code(), Errc::kWouldBlock);
}

TEST_F(PosixTest, SocketConnectAcceptSend) {
  auto server = std::make_shared<Socket>(SocketDomain::kInet, SocketProto::kTcp);
  ASSERT_TRUE(server->Bind({0x7f000001, 8080, ""}).ok());
  ASSERT_TRUE(server->Listen(16).ok());

  auto client = std::make_shared<Socket>(SocketDomain::kInet, SocketProto::kTcp);
  ASSERT_TRUE(client->Bind({0x7f000001, 40000, ""}).ok());
  auto server_end = client->ConnectTo(server);
  ASSERT_TRUE(server_end.ok());
  auto accepted = server->Accept();
  ASSERT_TRUE(accepted.ok());
  EXPECT_EQ(accepted->get(), server_end->get());

  ASSERT_TRUE(client->Send("ping", 4).ok());
  auto seg = (*accepted)->Recv(64);
  ASSERT_TRUE(seg.ok());
  EXPECT_EQ(std::string(seg->data.begin(), seg->data.end()), "ping");
  EXPECT_EQ(client->snd_seq, 5u);  // ISN 1 + 4 bytes
}

TEST_F(PosixTest, SocketAcceptQueueBackpressure) {
  auto server = std::make_shared<Socket>(SocketDomain::kInet, SocketProto::kTcp);
  ASSERT_TRUE(server->Bind({1, 80, ""}).ok());
  ASSERT_TRUE(server->Listen(1).ok());
  auto c1 = std::make_shared<Socket>(SocketDomain::kInet, SocketProto::kTcp);
  ASSERT_TRUE(c1->Bind({2, 1000, ""}).ok());
  ASSERT_TRUE(c1->ConnectTo(server).ok());
  auto c2 = std::make_shared<Socket>(SocketDomain::kInet, SocketProto::kTcp);
  ASSERT_TRUE(c2->Bind({2, 1001, ""}).ok());
  // Queue full: SYN dropped, client must retry — same as post-restore.
  EXPECT_EQ(c2->ConnectTo(server).status().code(), Errc::kWouldBlock);
}

TEST_F(PosixTest, UnixSocketPassesDescriptors) {
  auto proc = *kernel_.CreateProcess("app");
  auto [rfd, wfd] = *kernel_.MakePipe(*proc);
  auto pipe_desc = *proc->fds().Get(rfd);

  auto listener = std::make_shared<Socket>(SocketDomain::kUnix, SocketProto::kTcp);
  ASSERT_TRUE(listener->Bind({0, 0, "/tmp/sock"}).ok());
  ASSERT_TRUE(listener->Listen(8).ok());
  auto client = std::make_shared<Socket>(SocketDomain::kUnix, SocketProto::kTcp);
  ASSERT_TRUE(client->Bind({0, 0, "/tmp/client"}).ok());
  auto server_end = client->ConnectTo(listener);
  ASSERT_TRUE(server_end.ok());

  ControlMessage cm;
  cm.fds.push_back(pipe_desc);
  cm.cred_pid = proc->local_pid();
  ASSERT_TRUE(client->Send("fd!", 3, cm).ok());

  auto seg = (*server_end)->Recv(64);
  ASSERT_TRUE(seg.ok());
  ASSERT_TRUE(seg->control.has_value());
  ASSERT_EQ(seg->control->fds.size(), 1u);
  EXPECT_EQ(seg->control->fds[0]->object->type(), FileType::kPipe);
  EXPECT_EQ(seg->control->cred_pid, proc->local_pid());
  (void)wfd;
}

TEST_F(PosixTest, SocketShutdownDeliversEofAfterDrain) {
  auto server = std::make_shared<Socket>(SocketDomain::kInet, SocketProto::kTcp);
  ASSERT_TRUE(server->Bind({1, 80, ""}).ok());
  ASSERT_TRUE(server->Listen(4).ok());
  auto client = std::make_shared<Socket>(SocketDomain::kInet, SocketProto::kTcp);
  ASSERT_TRUE(client->Bind({2, 999, ""}).ok());
  auto server_end = *client->ConnectTo(server);

  ASSERT_TRUE(client->Send("last", 4).ok());
  client->Shutdown();
  // Buffered data first, then EOF, and sends toward the closed end fail.
  auto seg = *server_end->Recv(64);
  EXPECT_EQ(std::string(seg.data.begin(), seg.data.end()), "last");
  auto eof = *server_end->Recv(64);
  EXPECT_TRUE(eof.data.empty());
  EXPECT_FALSE(server_end->Send("too late", 8).ok());
}

TEST_F(PosixTest, QuiesceForcesKernelBoundary) {
  auto proc = *kernel_.CreateProcess("srv");
  proc->AddThread();
  proc->AddThread();
  auto& threads = proc->threads();
  threads[0]->state = ThreadState::kUser;
  threads[1]->state = ThreadState::kKernelRunning;
  threads[2]->state = ThreadState::kKernelSleeping;
  threads[2]->cpu.fpu_dirty = true;

  QuiesceStats stats = kernel_.Quiesce({proc});
  EXPECT_EQ(stats.threads_in_user, 1u);
  EXPECT_EQ(stats.threads_in_syscall, 1u);
  EXPECT_EQ(stats.syscalls_restarted, 1u);
  EXPECT_EQ(stats.fpu_flushes, 1u);
  for (auto& t : threads) {
    EXPECT_EQ(t->state, ThreadState::kStopped);
  }
  EXPECT_TRUE(threads[2]->restart_syscall) << "sleeping call must transparently restart";
  EXPECT_FALSE(threads[2]->cpu.fpu_dirty);

  kernel_.Resume({proc});
  EXPECT_EQ(threads[0]->state, ThreadState::kUser);
  EXPECT_EQ(threads[1]->state, ThreadState::kUser);  // finished its syscall
  EXPECT_EQ(threads[2]->state, ThreadState::kKernelSleeping);  // reissued
  EXPECT_FALSE(threads[2]->restart_syscall);
}

TEST_F(PosixTest, SysVNamespaceSharedByKey) {
  auto a = *kernel_.CreateProcess("a");
  auto b = *kernel_.CreateProcess("b");
  auto fd_a = kernel_.ShmGet(*a, 0x1234, 64 * kKiB);
  ASSERT_TRUE(fd_a.ok());
  auto fd_b = kernel_.ShmGet(*b, 0x1234, 64 * kKiB);
  ASSERT_TRUE(fd_b.ok());
  auto desc_a = *a->fds().Get(*fd_a);
  auto desc_b = *b->fds().Get(*fd_b);
  // Same segment object through the global namespace.
  EXPECT_EQ(desc_a->object.get(), desc_b->object.get());
  EXPECT_EQ(kernel_.sysv_shm().size(), 1u);
}

TEST_F(PosixTest, ShmMapSharesThroughBackmap) {
  auto a = *kernel_.CreateProcess("a");
  auto b = *kernel_.CreateProcess("b");
  int fd_a = *kernel_.ShmOpen(*a, "/seg", 16 * kPageSize);
  int fd_b = *kernel_.ShmOpen(*b, "/seg", 16 * kPageSize);
  auto addr_a = kernel_.ShmMap(*a, fd_a);
  auto addr_b = kernel_.ShmMap(*b, fd_b);
  ASSERT_TRUE(addr_a.ok());
  ASSERT_TRUE(addr_b.ok());
  uint64_t v = 0xfeed;
  ASSERT_TRUE(a->vm().Write(*addr_a, &v, sizeof(v)).ok());
  uint64_t got = 0;
  ASSERT_TRUE(b->vm().Read(*addr_b, &got, sizeof(got)).ok());
  EXPECT_EQ(got, 0xfeedu);

  // Rebind (as system shadowing does) and verify new mappings use the shadow.
  auto shm = kernel_.posix_shm().at("/seg");
  auto shadow = VmObject::CreateShadow(shm->object);
  kernel_.RebindShmObjects(shm->object.get(), shadow);
  EXPECT_EQ(kernel_.posix_shm().at("/seg")->object.get(), shadow.get());
}

TEST_F(PosixTest, SignalRoutingByLocalPid) {
  auto proc = *kernel_.CreateProcess("daemon");
  ASSERT_TRUE(kernel_.Kill(proc->local_pid(), 15).ok());
  EXPECT_TRUE(proc->pending_signals & (1ull << 15));
  EXPECT_FALSE(kernel_.Kill(99999, 15).ok());
}

TEST_F(PosixTest, VdsoChangesAcrossRegeneration) {
  auto before = kernel_.vdso();
  kernel_.RegenerateVdso();
  auto after = kernel_.vdso();
  EXPECT_NE(before.get(), after.get());
  EXPECT_NE(before->LookupLocal(0)->data()[0], after->LookupLocal(0)->data()[0]);
}

TEST_F(PosixTest, AioQuiesceDrainsWrites) {
  auto proc = *kernel_.CreateProcess("db");
  kernel_.SubmitAio(*proc, 3, AioRequest::Op::kWrite, 0, 4096);
  kernel_.SubmitAio(*proc, 3, AioRequest::Op::kRead, 4096, 4096);
  uint64_t waited = kernel_.QuiesceAio(*proc);
  EXPECT_EQ(waited, 1u);
  EXPECT_EQ(proc->aios[0].state, AioRequest::State::kDone);
  EXPECT_EQ(proc->aios[1].state, AioRequest::State::kInFlight) << "reads stay recorded";
}

TEST_F(PosixTest, DeviceWhitelist) {
  EXPECT_TRUE(kernel_.DeviceWhitelisted("hpet0"));
  EXPECT_FALSE(kernel_.DeviceWhitelisted("gpu0"));
}

TEST_F(PosixTest, PidVirtualizationOnRestore) {
  auto original = *kernel_.CreateProcess("app");
  uint64_t saved_pid = original->local_pid();
  kernel_.DestroyProcess(original);
  // Another process may have taken arbitrary pids meanwhile.
  auto squatter = *kernel_.CreateProcess("other");
  auto restored = kernel_.CreateProcessForRestore("app", saved_pid);
  ASSERT_TRUE(restored.ok());
  EXPECT_EQ((*restored)->local_pid(), saved_pid);
  EXPECT_NE((*restored)->pid(), squatter->pid());
  // Signals still route by the application-visible pid.
  ASSERT_TRUE(kernel_.Kill(saved_pid, 10).ok());
  EXPECT_TRUE((*restored)->pending_signals & (1ull << 10));
}

}  // namespace
}  // namespace aurora
