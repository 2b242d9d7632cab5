// Serverless warm starts: checkpoint a function after its expensive
// initialization, then restore instances on demand — lazily, so start-up
// cost is OS state only and pages stream in as the function touches them.
//
// Build & run:  ./build/examples/serverless_warmstart
#include <cstdio>
#include <cstring>

#include "src/base/sim_context.h"
#include "src/core/sls.h"
#include "src/fs/aurora_fs.h"
#include "src/storage/block_device.h"

using namespace aurora;

namespace {

// "Initializes" a function runtime: loading libraries, JIT warmup, building
// caches — tens of MiB of memory traffic and a lot of simulated time.
uint64_t ColdInit(SimContext& sim, Process* proc) {
  auto runtime = VmObject::CreateAnonymous(64 * kMiB);
  uint64_t addr =
      *proc->vm().Map(0x400000, 64 * kMiB, kProtRead | kProtWrite, runtime, 0, false);
  (void)proc->vm().DirtyRange(addr, 48 * kMiB);  // populate the runtime
  sim.clock.Advance(850 * kMillisecond);         // interpreter/JIT startup
  const char ready[] = "runtime-ready";
  (void)proc->vm().Write(addr + 1024, ready, sizeof(ready));
  return addr;
}

}  // namespace

int main() {
  SimContext sim;
  auto device = MakePaperTestbedStore(&sim.clock, 4 * kGiB);
  auto store = *ObjectStore::Format(device.get(), &sim);
  AuroraFs fs(&sim, store.get());
  Kernel kernel(&sim);
  Sls sls(&sim, &kernel, store.get(), &fs);

  // --- Cold start: initialize once, snapshot post-init ------------------------
  SimStopwatch cold(sim.clock);
  Process* prototype = *kernel.CreateProcess("lambda");
  uint64_t addr = ColdInit(sim, prototype);
  double cold_ms = ToMillis(cold.Elapsed());

  ConsistencyGroup* group = *sls.CreateGroup("lambda");
  (void)sls.Attach(group, prototype);
  auto snapshot = *sls.Suspend(group);  // checkpoint + tear down the instance
  sim.clock.AdvanceTo(snapshot.durable_at);
  std::printf("cold start: %.0f ms (one-time); snapshot flushed %.1f MiB\n", cold_ms,
              static_cast<double>(snapshot.bytes_flushed) / (1 << 20));

  // --- Warm starts: restore on each invocation --------------------------------
  bool ok = true;
  for (int invocation = 0; invocation < 3; invocation++) {
    SimStopwatch warm(sim.clock);
    auto instance = *sls.Restore("lambda", 0, RestoreMode::kLazy);
    double restore_ms = ToMillis(warm.Elapsed());

    // The function handles a request: touches a slice of the runtime; lazy
    // restore pages it in from the store on demand.
    Process* proc = instance.group->processes[0];
    char ready[16] = {};
    (void)proc->vm().Read(addr + 1024, ready, sizeof(ready));
    uint64_t work = 0;
    for (uint64_t off = 0; off < 2 * kMiB; off += kPageSize) {
      uint8_t byte = 0;
      (void)proc->vm().Read(addr + off, &byte, 1);
      work += byte;
    }
    double total_ms = ToMillis(warm.Elapsed());
    std::printf("invocation %d: restore %.2f ms, first request served by %.2f ms "
                "(runtime says \"%s\")\n",
                invocation, restore_ms, total_ms, ready);
    ok = ok && std::strcmp(ready, "runtime-ready") == 0;
    // The instance exits after serving; the snapshot stays for the next one.
    for (Process* p : instance.group->processes) {
      kernel.DestroyProcess(p);
    }
    instance.group->processes.clear();
  }
  std::printf("warm starts skip the %.0f ms initialization entirely\n", cold_ms);
  return ok ? 0 : 1;
}
