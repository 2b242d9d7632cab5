// Tests for the delay-free checkpoint critical path: dirty-driven
// write-protection, TLB shootdown elision for clean address spaces, and the
// out-of-window serialization cache (DESIGN.md section 15).
#include <gtest/gtest.h>

#include <cstring>
#include <map>
#include <set>
#include <string>
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
// cacheless pass; only the charged time differs. That holds again after map
// and descriptor churn between the passes, when the process record is
// assembled from reused sub-records and map entries and fresh ones.
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

  // Churn between the passes: new mappings, a protect, an unmap, a new and a
  // closed descriptor, and a signal.
  Process* proc = app.proc;
  std::vector<uint64_t> arenas;
  for (int i = 0; i < 4; i++) {
    auto obj = VmObject::CreateAnonymous(2 * kPageSize);
    arenas.push_back(*proc->vm().Map(0, 2 * kPageSize, kProtRead | kProtWrite, obj, 0, true));
  }
  for (int round = 0; round < 3; round++) {
    ASSERT_TRUE(proc->vm().Protect(arenas[0], 2 * kPageSize, kProtRead).ok());
    ASSERT_TRUE(proc->vm().Unmap(arenas[1 + round], 2 * kPageSize).ok());
    int fd = *m.kernel->Open(*proc, "churn-" + std::to_string(round), kOpenRead, true);
    cache.pass++;
    warm = SerializeOsState(&m.sim, *group, 7, kInvalidOid, oids.Fn(), nullptr, &cache,
                            SerializeMode::kWarmCache);
    ASSERT_TRUE(warm.ok());
    auto obj = VmObject::CreateAnonymous(kPageSize);
    ASSERT_TRUE(proc->vm().Map(0, kPageSize, kProtRead | kProtWrite, obj, 0, true).ok());
    ASSERT_TRUE(m.kernel->Close(*proc, fd).ok());
    proc->PostSignal(10 + round);
    cold = SerializeOsState(&m.sim, *group, 7, kInvalidOid, oids.Fn(), nullptr);
    ASSERT_TRUE(cold.ok());
    cache.pass++;
    assembled = SerializeOsState(&m.sim, *group, 7, kInvalidOid, oids.Fn(), nullptr, &cache,
                                 SerializeMode::kAssemble);
    ASSERT_TRUE(assembled.ok());
    EXPECT_TRUE(*cold == *assembled) << "round " << round;
    cache.pass++;
    warm = SerializeOsState(&m.sim, *group, 7, kInvalidOid, oids.Fn(), nullptr, &cache,
                            SerializeMode::kWarmCache);
    ASSERT_TRUE(warm.ok());
    EXPECT_TRUE(*cold == *warm) << "round " << round;
  }
  EXPECT_GT(m.Counter("ckpt.serialize_subrecord_hits"), 0u) << "churn must reuse sub-records";
  EXPECT_EQ(m.Counter("ckpt.serialize_cache_stale"), 0u);
  EXPECT_EQ(m.Counter("ckpt.serialize_warm_stale"), 0u);
}

// Serialize-pass counters of one machine, as deltas between two takes.
struct PassCounters {
  explicit PassCounters(Machine* m) : machine(m) { Take(); }

  // Returns the counters' growth since the previous Take.
  std::map<std::string, uint64_t> Take() {
    std::map<std::string, uint64_t> delta;
    for (const char* name :
         {"ckpt.serialize_warm_hits", "ckpt.serialize_warm_misses", "ckpt.serialize_warm_stale",
          "ckpt.serialize_cache_hits", "ckpt.serialize_cache_misses",
          "ckpt.serialize_cache_stale", "ckpt.serialize_subrecord_hits",
          "ckpt.serialize_subrecord_misses"}) {
      uint64_t now = machine->Counter(name);
      delta[name] = now - last[name];
      last[name] = now;
    }
    return delta;
  }

  Machine* machine;
  std::map<std::string, uint64_t> last;
};

// Runs one serialize pass over `group` and returns its simulated duration.
SimDuration TimedPass(Machine& m, const ConsistencyGroup& group, FakeOids& oids,
                      SerializeCache& cache, SerializeMode mode) {
  cache.pass++;
  SimTime before = m.sim.clock.now();
  EXPECT_TRUE(SerializeOsState(&m.sim, group, 3, kInvalidOid, oids.Fn(), nullptr, &cache, mode)
                  .ok());
  return m.sim.clock.now() - before;
}

// An unchanged process is still one lookup: over an unchanged RichApp the
// cold, warm and in-window passes charge exactly what the whole-process
// cache charged before the split (values measured with this sequence at
// commit a4a53c8, the last one with that cache).
TEST(StopPath, UnchangedAppChargesWhatTheWholeProcessCacheCharged) {
  Machine m;
  RichApp app = BuildRichApp(m, 1 * kMiB);
  ConsistencyGroup* group = *m.sls->CreateGroup("app");
  ASSERT_TRUE(m.sls->Attach(group, app.proc).ok());
  FakeOids oids;
  SerializeCache cache;

  PassCounters counters(&m);
  EXPECT_EQ(TimedPass(m, *group, oids, cache, SerializeMode::kWarmCache), 7912);  // cold
  EXPECT_EQ(TimedPass(m, *group, oids, cache, SerializeMode::kWarmCache), 478);
  EXPECT_EQ(TimedPass(m, *group, oids, cache, SerializeMode::kAssemble), 755);
  EXPECT_EQ(TimedPass(m, *group, oids, cache, SerializeMode::kAssemble), 755);
  auto d = counters.Take();
  EXPECT_EQ(d["ckpt.serialize_warm_misses"], 6u) << "vnode, pipe, three descriptions, process";
  EXPECT_EQ(d["ckpt.serialize_warm_hits"], 6u);
  EXPECT_EQ(d["ckpt.serialize_cache_hits"], 12u);
  EXPECT_EQ(d["ckpt.serialize_subrecord_hits"], 0u) << "an unchanged process is one lookup";
}

// A process with no descriptors and a 225-entry map (Table 6's firefox
// count): a data region plus 224 small arenas.
Process* MakeWideMapProcess(Machine& m) {
  auto [proc, addr] = MakeAppProcess(m, 1 * kMiB);
  for (int e = 1; e < 225; e++) {
    uint64_t size = kPageSize * static_cast<uint64_t>(1 + e % 4);
    auto obj = VmObject::CreateAnonymous(size);
    EXPECT_TRUE(proc->vm().Map(0, size, kProtRead | kProtWrite, obj, 0, true).ok());
  }
  EXPECT_EQ(proc->vm().entries().size(), 225u);
  return proc;
}

// On a 225-entry map one Map re-gathers that entry alone: the core, the
// descriptor and AIO sub-records and the 225 untouched entries are reused
// at hit cost. An Unmap leaves nothing to gather: the 225 remaining
// entries are hits and only the entry count is marshaled again.
TEST(StopPath, MapAndUnmapRegatherOnlyTheirEntry) {
  Machine m;
  Process* proc = MakeWideMapProcess(m);
  ConsistencyGroup* group = *m.sls->CreateGroup("app");
  ASSERT_TRUE(m.sls->Attach(group, proc).ok());
  FakeOids oids;
  SerializeCache cache;
  PassCounters counters(&m);

  const SimDuration cold = TimedPass(m, *group, oids, cache, SerializeMode::kWarmCache);
  EXPECT_EQ(cold, 115668) << "one full gather of the process";
  EXPECT_EQ(counters.Take()["ckpt.serialize_subrecord_misses"], 228u)
      << "a new process is gathered fresh: core, descriptors, AIO and 225 entries";
  EXPECT_EQ(TimedPass(m, *group, oids, cache, SerializeMode::kWarmCache), 2109);
  EXPECT_EQ(counters.Take()["ckpt.serialize_warm_hits"], 1u);

  auto obj = VmObject::CreateAnonymous(kPageSize);
  uint64_t at = *proc->vm().Map(0, kPageSize, kProtRead | kProtWrite, obj, 0, true);
  // 228 hits at one cache-line touch each (16 416 ns), one entry's gather
  // (a lock and six chases, 450 ns), the marshal of that entry and the count
  // (75 B, 41 ns) and of the manifest's glue (3 683 B, 2 046 ns).
  const SimDuration mapped = TimedPass(m, *group, oids, cache, SerializeMode::kWarmCache);
  EXPECT_EQ(mapped, 18953);
  EXPECT_LT(mapped, cold / 6);
  auto d = counters.Take();
  EXPECT_EQ(d["ckpt.serialize_warm_misses"], 1u);
  EXPECT_EQ(d["ckpt.serialize_subrecord_misses"], 1u) << "only the new entry is gathered";
  EXPECT_EQ(d["ckpt.serialize_subrecord_hits"], 228u) << "core, fds, AIO and 225 entries";
  EXPECT_EQ(d["ckpt.serialize_warm_stale"], 0u);

  ASSERT_TRUE(proc->vm().Unmap(at, kPageSize).ok());
  EXPECT_EQ(TimedPass(m, *group, oids, cache, SerializeMode::kWarmCache), 18457);
  d = counters.Take();
  EXPECT_EQ(d["ckpt.serialize_subrecord_misses"], 0u) << "an unmap gathers no entry";
  EXPECT_EQ(d["ckpt.serialize_subrecord_hits"], 228u);

  // The in-window pass reuses the same way, at a lookup plus a block copy
  // per reused sub-record or entry.
  obj = VmObject::CreateAnonymous(kPageSize);
  ASSERT_TRUE(proc->vm().Map(0, kPageSize, kProtRead | kProtWrite, obj, 0, true).ok());
  EXPECT_EQ(TimedPass(m, *group, oids, cache, SerializeMode::kAssemble), 24549);
  d = counters.Take();
  EXPECT_EQ(d["ckpt.serialize_cache_misses"], 1u) << "entities are counted whole in-window";
  EXPECT_EQ(d["ckpt.serialize_subrecord_misses"], 1u);
  EXPECT_EQ(d["ckpt.serialize_subrecord_hits"], 228u);
  EXPECT_EQ(d["ckpt.serialize_cache_stale"], 0u);
}

// Opening or closing a descriptor re-gathers only the process's descriptor
// sub-record (plus the new file object and description themselves).
TEST(StopPath, DescriptorChurnRegathersOnlyTheDescriptorSubrecord) {
  Machine m;
  RichApp app = BuildRichApp(m, 1 * kMiB);
  ConsistencyGroup* group = *m.sls->CreateGroup("app");
  ASSERT_TRUE(m.sls->Attach(group, app.proc).ok());
  FakeOids oids;
  SerializeCache cache;
  TimedPass(m, *group, oids, cache, SerializeMode::kWarmCache);
  PassCounters counters(&m);

  int fd = *m.kernel->Open(*app.proc, "extra.log", kOpenRead | kOpenWrite, true);
  TimedPass(m, *group, oids, cache, SerializeMode::kWarmCache);
  auto d = counters.Take();
  EXPECT_EQ(d["ckpt.serialize_warm_misses"], 3u) << "the vnode, its description, the process";
  EXPECT_EQ(d["ckpt.serialize_subrecord_misses"], 1u) << "only the descriptor slots";
  EXPECT_EQ(d["ckpt.serialize_subrecord_hits"], 3u) << "core, AIO and the unchanged map";

  ASSERT_TRUE(m.kernel->Close(*app.proc, fd).ok());
  TimedPass(m, *group, oids, cache, SerializeMode::kAssemble);
  d = counters.Take();
  EXPECT_EQ(d["ckpt.serialize_cache_misses"], 1u) << "the process";
  EXPECT_EQ(d["ckpt.serialize_subrecord_misses"], 1u);
  EXPECT_EQ(d["ckpt.serialize_subrecord_hits"], 3u);
  EXPECT_EQ(d["ckpt.serialize_warm_stale"] + d["ckpt.serialize_cache_stale"], 0u);
}

std::map<uint64_t, uint64_t> EntryStamps(const VmMap& map) {
  std::map<uint64_t, uint64_t> out;
  for (const auto& [start, entry] : map.entries()) {
    out[start] = entry.generation;
  }
  return out;
}

// Every VmMap mutator stamps exactly the entry it changes (and restamps the
// map); fork restamps the parent's shadowed entries and gives every child
// entry a stamp of its own.
TEST(StopPath, MapMutatorsStampExactlyTheEntryTheyChange) {
  Machine m;
  auto [proc, addr] = MakeAppProcess(m, 64 * kKiB);
  ConsistencyGroup* group = *m.sls->CreateGroup("app");
  ASSERT_TRUE(m.sls->Attach(group, proc).ok());
  VmMap& map = proc->vm();
  auto shared = VmObject::CreateAnonymous(2 * kPageSize);
  uint64_t b = *map.Map(0, 2 * kPageSize, kProtRead | kProtWrite, shared, 0, false);
  auto priv = VmObject::CreateAnonymous(2 * kPageSize);
  uint64_t c = *map.Map(0, 2 * kPageSize, kProtRead | kProtWrite, priv, 0, true);

  // Checks that exactly the entries in `changed` got new stamps since
  // `before`, all distinct from every earlier stamp, and that the map's
  // generation moved.
  auto expect_restamped = [&](const std::map<uint64_t, uint64_t>& before, uint64_t map_gen,
                              const std::set<uint64_t>& changed, const char* what) {
    auto after = EntryStamps(map);
    for (const auto& [start, stamp] : after) {
      auto old = before.find(start);
      if (changed.count(start) > 0) {
        EXPECT_TRUE(old == before.end() || stamp > old->second) << what << " @" << start;
      } else {
        ASSERT_NE(old, before.end()) << what;
        EXPECT_EQ(stamp, old->second) << what << " restamped an entry it did not change";
      }
    }
    EXPECT_NE(map.generation(), map_gen) << what;
  };

  auto stamps = EntryStamps(map);
  uint64_t gen = map.generation();
  auto obj = VmObject::CreateAnonymous(kPageSize);
  uint64_t d = *map.Map(0, kPageSize, kProtRead | kProtWrite, obj, 0, false);
  expect_restamped(stamps, gen, {d}, "Map");

  stamps = EntryStamps(map);
  gen = map.generation();
  ASSERT_TRUE(map.Protect(b, 2 * kPageSize, kProtRead).ok());
  expect_restamped(stamps, gen, {b}, "Protect");

  stamps = EntryStamps(map);
  gen = map.generation();
  ASSERT_TRUE(map.Advise(c, kMadvDontneed).ok());
  expect_restamped(stamps, gen, {c}, "Advise");

  stamps = EntryStamps(map);
  gen = map.generation();
  ASSERT_TRUE(m.sls->MemCtl(proc, addr, true).ok());
  expect_restamped(stamps, gen, {addr}, "sls_mctl");

  stamps = EntryStamps(map);
  gen = map.generation();
  ASSERT_TRUE(map.Unmap(d, kPageSize).ok());
  stamps.erase(d);
  expect_restamped(stamps, gen, {}, "Unmap");

  // Fork: only the private writable entry is shadowed on the parent side.
  stamps = EntryStamps(map);
  gen = map.generation();
  Process* child = *m.kernel->Fork(*proc);
  expect_restamped(stamps, gen, {c}, "Fork");
  std::set<uint64_t> parent_stamps;
  for (const auto& [start, stamp] : EntryStamps(map)) {
    parent_stamps.insert(stamp);
  }
  for (const auto& [start, stamp] : EntryStamps(child->vm())) {
    EXPECT_EQ(parent_stamps.count(stamp), 0u) << "a child entry kept a parent stamp";
  }
  EXPECT_NE(child->vm().generation(), map.generation());
}

// ReplaceVm, fork and restore never revive a cached entry: a new map's
// entries carry stamps no cached record holds, so they are gathered fresh
// (misses), never confirmed against stale bytes.
TEST(StopPath, ReplacedForkedAndRestoredMapsNeverReviveCachedEntries) {
  Machine m;
  auto [proc, addr] = MakeAppProcess(m, 64 * kKiB);
  auto priv = VmObject::CreateAnonymous(4 * kPageSize);
  ASSERT_TRUE(proc->vm().Map(0x800000, 4 * kPageSize, kProtRead | kProtWrite, priv, 0, true).ok());
  ConsistencyGroup* group = *m.sls->CreateGroup("app");
  ASSERT_TRUE(m.sls->Attach(group, proc).ok());
  FakeOids oids;
  SerializeCache cache;
  TimedPass(m, *group, oids, cache, SerializeMode::kWarmCache);
  PassCounters counters(&m);

  // ReplaceVm: a fresh map with the same layout over different objects. A
  // per-map counter would give these entries the stamps the cached ones
  // carry.
  auto fresh = std::make_unique<VmMap>(&m.sim);
  ASSERT_TRUE(fresh->Map(addr, 64 * kKiB, kProtRead | kProtWrite,
                         VmObject::CreateAnonymous(64 * kKiB), 0, false).ok());
  ASSERT_TRUE(fresh->Map(0x800000, 4 * kPageSize, kProtRead | kProtWrite,
                         VmObject::CreateAnonymous(4 * kPageSize), 0, true).ok());
  proc->ReplaceVm(std::move(fresh));
  TimedPass(m, *group, oids, cache, SerializeMode::kWarmCache);
  auto d = counters.Take();
  EXPECT_EQ(d["ckpt.serialize_subrecord_misses"], 4u)
      << "the core and AIO sub-records (ReplaceVm bumps mutation_gen) and both new entries";
  EXPECT_EQ(d["ckpt.serialize_warm_stale"], 0u);

  // Fork: the parent's private entry is shadowed under a new object, and
  // the child inherits the parent's descriptor table.
  ASSERT_TRUE(m.kernel->Open(*proc, "shared.log", kOpenRead | kOpenWrite, true).ok());
  Process* child = *m.kernel->Fork(*proc);
  ASSERT_TRUE(m.sls->Attach(group, child).ok());
  TimedPass(m, *group, oids, cache, SerializeMode::kAssemble);
  d = counters.Take();
  EXPECT_EQ(d["ckpt.serialize_cache_stale"], 0u);
  EXPECT_EQ(d["ckpt.serialize_cache_misses"], 4u)
      << "the parent, the new child, and the new vnode and its description";

  // The child exits: its zombie gets an empty map and no descriptors, in a
  // table whose counter moves on from the inherited one.
  m.kernel->Exit(child, 0);
  TimedPass(m, *group, oids, cache, SerializeMode::kWarmCache);
  d = counters.Take();
  EXPECT_EQ(d["ckpt.serialize_warm_stale"], 0u);

  // Restore: checkpoints through the Sls pipeline (warm and in-window
  // passes) before and after restoring the group over itself.
  auto ckpt = m.sls->Checkpoint(group);
  ASSERT_TRUE(ckpt.ok());
  m.sim.clock.AdvanceTo(ckpt->durable_at);
  ASSERT_TRUE(m.sls->Restore("app").ok());
  for (int i = 0; i < 3; i++) {
    ckpt = m.sls->Checkpoint(group);
    ASSERT_TRUE(ckpt.ok());
    m.sim.clock.AdvanceTo(ckpt->durable_at);
  }
  d = counters.Take();
  EXPECT_EQ(d["ckpt.serialize_warm_stale"] + d["ckpt.serialize_cache_stale"], 0u);
  EXPECT_GT(d["ckpt.serialize_cache_hits"], 0u);
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
