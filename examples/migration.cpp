// Live migration: `sls send` / `sls recv` move a running application (all
// of it: memory, descriptors, sockets, process tree) to another machine.
//
// Build & run:  ./build/examples/migration
#include <cstdio>
#include <memory>

#include "src/base/sim_context.h"
#include "src/core/cli.h"
#include "src/core/sls.h"
#include "src/fs/aurora_fs.h"
#include "src/storage/block_device.h"

using namespace aurora;

namespace {

struct Machine {
  explicit Machine(const char* label) : name(label) {
    device = MakePaperTestbedStore(&sim.clock, 2 * kGiB);
    store = *ObjectStore::Format(device.get(), &sim);
    fs = std::make_unique<AuroraFs>(&sim, store.get());
    kernel = std::make_unique<Kernel>(&sim);
    sls = std::make_unique<Sls>(&sim, kernel.get(), store.get(), fs.get());
    cli = std::make_unique<SlsCli>(sls.get());
  }
  const char* name;
  SimContext sim;
  std::unique_ptr<BlockDevice> device;
  std::unique_ptr<ObjectStore> store;
  std::unique_ptr<AuroraFs> fs;
  std::unique_ptr<Kernel> kernel;
  std::unique_ptr<Sls> sls;
  std::unique_ptr<SlsCli> cli;
};

}  // namespace

int main() {
  Machine source("machine-a");
  Machine target("machine-b");

  // A web application with memory state and a listening socket.
  Process* app = *source.kernel->CreateProcess("webapp");
  auto memory = VmObject::CreateAnonymous(32 * kMiB);
  uint64_t addr = *app->vm().Map(0x400000, 32 * kMiB, kProtRead | kProtWrite, memory, 0, false);
  (void)app->vm().DirtyRange(addr, 8 * kMiB);  // session state
  const char session[] = "user-session-token-12345";
  (void)app->vm().Write(addr + 4096, session, sizeof(session));

  int sock_fd = *source.kernel->MakeSocket(*app, SocketDomain::kInet, SocketProto::kTcp);
  auto* listener =
      static_cast<Socket*>((*app->fds().Get(sock_fd))->object.get());
  (void)listener->Bind({0x0a000001, 443, ""});
  (void)listener->Listen(128);

  (void)source.cli->Attach("webapp", app);
  auto base = *source.cli->Checkpoint("webapp", "pre-migration");

  // Pre-copy: ship the full image once, then stream incremental deltas while
  // the application keeps running (sls send's continuous mode). The session
  // is a standby on the target: each round applies to its image table.
  ReplicaStandby precopy(&target.sim, nullptr);
  auto full = *source.cli->Send("webapp");
  std::printf("pre-copy round 0: %.1f MiB (full image)\n",
              static_cast<double>(full.bytes.size()) / (1 << 20));
  bool received = target.cli->Recv(full, &precopy).ok();
  uint64_t prev_epoch = base.epoch;
  for (int round = 1; round <= 3; round++) {
    (void)app->vm().DirtyRange(addr + 16 * kMiB, 64 * kPageSize);  // app still working
    auto ckpt = *source.cli->Checkpoint("webapp", "precopy-" + std::to_string(round));
    auto delta = *source.cli->Send("webapp", ckpt.epoch, prev_epoch);
    std::printf("pre-copy round %d: %.2f MiB (delta only)\n", round,
                static_cast<double>(delta.bytes.size()) / (1 << 20));
    received = target.cli->Recv(delta, &precopy).ok() && received;
    prev_epoch = ckpt.epoch;
  }

  // Final round: suspend, ship the last delta, resume on the target.
  SimTime downtime_start = source.sim.clock.now();
  (void)source.cli->Suspend("webapp");
  auto stream = *source.cli->Send("webapp", 0, prev_epoch);
  std::printf("final delta: %.2f MiB over the 10 GbE link\n",
              static_cast<double>(stream.bytes.size()) / (1 << 20));

  auto final_round = target.cli->Recv(stream, &precopy);
  if (!received || !final_round.ok()) {
    std::printf("receive failed\n");
    return 1;
  }
  RestoreResult& arrived = *final_round;
  double downtime_ms = ToMillis(source.sim.clock.now() - downtime_start);

  Process* rapp = arrived.group->processes[0];
  char buf[sizeof(session)] = {};
  (void)rapp->vm().Read(addr + 4096, buf, sizeof(buf));
  auto* rsock = static_cast<Socket*>((*rapp->fds().Get(sock_fd))->object.get());

  std::printf("migrated to %s: session token = \"%s\"\n", target.name, buf);
  std::printf("listening socket restored on port %u (accept queue empty: clients re-SYN)\n",
              rsock->local.port);
  std::printf("downtime (suspend -> resume): %.1f ms\n", downtime_ms);

  // The app is now a first-class citizen of machine B: checkpoint it there.
  auto ckpt = *target.sls->Checkpoint(arrived.group, "post-migration");
  std::printf("first native checkpoint on %s flushed %.1f MiB\n", target.name,
              static_cast<double>(ckpt.bytes_flushed) / (1 << 20));
  return std::string(buf) == session ? 0 : 1;
}
