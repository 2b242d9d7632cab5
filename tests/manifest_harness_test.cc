// The manifest decoders (src/core/serialize.h) under the shared mutation
// harness.
//
// A restore trusts three counts that no byte of the manifest bounds: a
// mapping's shadow-chain length (it sized a vector), a descriptor number
// (it sized the descriptor table) and a process's ephemeral-child count
// (it drove a SIGCHLD loop). Three regression tests forge each one. The
// harness then damages a two-process manifest with byte flips, every
// truncation, appends and forged u64 values at every offset. PeekManifest,
// ManifestMemoryObjects and RestoreOsState must each give a typed error or
// succeed, with no exception, no half-built process left behind and no
// single allocation above kAllocBound.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "src/base/sim_context.h"
#include "src/core/backend.h"
#include "src/core/serialize.h"
#include "src/core/sls.h"
#include "src/fs/aurora_fs.h"
#include "src/objstore/object_store.h"
#include "src/storage/block_device.h"
#include "tests/mutation_harness.h"

namespace aurora {
namespace {

using mutation::Tally;

// The largest single allocation a restore may make: a descriptor table
// grown to the per-process descriptor limit (65 536 slots of 24 bytes),
// with the vector's growth slack on top. Nothing else a restore builds is
// sized by a count the manifest does not back with bytes.
constexpr size_t kAllocBound = 4 * kMiB;

struct Machine {
  Machine() {
    device = std::make_unique<MemBlockDevice>(&sim.clock, 64 * kMiB / kPageSize);
    store = *ObjectStore::Format(device.get(), &sim);
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

// Distinctive values the regression tests find in the manifest bytes.
constexpr uint64_t kChainMapping = 0x5eed000000;
constexpr int kMarkedFd = 1234;
constexpr int kMarkedExit = 0x5eed5eed;

struct App {
  std::vector<uint8_t> manifest;
  uint64_t marked_desc_kid = 0;  // the description installed at kMarkedFd
};

// Two processes (a parent and its forked child) with private, shared and
// shadowed memory, a file, a pipe, sockets, a kqueue, POSIX shm and an
// ephemeral sibling, checkpointed twice so the private region has a shadow
// chain; returns the second checkpoint's manifest.
App BuildApp() {
  Machine m;
  Process* a = *m.kernel->CreateProcess("server");
  auto priv = VmObject::CreateAnonymous(64 * kKiB);
  EXPECT_TRUE(a->vm().Map(kChainMapping, 64 * kKiB, kProtRead | kProtWrite, priv, 0, true).ok());
  auto shared = VmObject::CreateAnonymous(16 * kKiB);
  EXPECT_TRUE(a->vm().Map(0x800000, 16 * kKiB, kProtRead | kProtWrite, shared, 0, false).ok());
  std::vector<uint8_t> bytes(64 * kKiB, 0x42);
  EXPECT_TRUE(a->vm().Write(kChainMapping, bytes.data(), bytes.size()).ok());
  EXPECT_TRUE(m.kernel->Open(*a, "data.txt", kOpenRead | kOpenWrite, true).ok());
  auto pipe = *m.kernel->MakePipe(*a);
  EXPECT_TRUE(m.kernel->MakeSocket(*a, SocketDomain::kInet, SocketProto::kTcp).ok());
  EXPECT_TRUE(m.kernel->MakeSocket(*a, SocketDomain::kUnix, SocketProto::kUdp).ok());
  EXPECT_TRUE(m.kernel->MakeKqueue(*a).ok());
  EXPECT_TRUE(m.kernel->ShmOpen(*a, "/seg", 16 * kKiB).ok());
  auto marked = *a->fds().Get(pipe.first);
  EXPECT_TRUE(a->fds().InstallAt(kMarkedFd, marked).ok());
  a->exit_status = kMarkedExit;
  Process* b = *m.kernel->Fork(*a);
  Process* worker = *m.kernel->Fork(*a);
  worker->ephemeral = true;

  ConsistencyGroup* g = *m.sls->CreateGroup("app");
  for (Process* p : {a, b, worker}) {
    EXPECT_TRUE(m.sls->Attach(g, p).ok());
  }
  EXPECT_TRUE(m.sls->Checkpoint(g).ok());
  EXPECT_TRUE(a->vm().Write(kChainMapping, bytes.data(), 4 * kKiB).ok());
  EXPECT_TRUE(m.sls->Checkpoint(g).ok());
  EXPECT_TRUE(m.sls->Barrier(g).ok());
  auto loaded = LoadManifestFromStore(m.store.get(), "app", 0);
  EXPECT_TRUE(loaded.ok());
  return App{std::move(loaded->blob), marked->kernel_id};
}

// The offset just past the first occurrence of `pattern` (u64 words,
// little-endian) in `bytes`.
size_t After(const std::vector<uint8_t>& bytes, const std::vector<uint64_t>& pattern) {
  std::vector<uint8_t> needle;
  for (uint64_t v : pattern) {
    for (size_t i = 0; i < 8; i++) {
      needle.push_back(static_cast<uint8_t>(v >> (8 * i)));
    }
  }
  auto it = std::search(bytes.begin(), bytes.end(), needle.begin(), needle.end());
  EXPECT_NE(it, bytes.end());
  return static_cast<size_t>(it - bytes.begin()) + needle.size();
}

struct Outcome {
  Status peek;
  Status memory;
  Status restore;
  bool left_processes = false;
  size_t largest_alloc = 0;
};

Outcome Decode(const std::vector<uint8_t>& manifest) {
  Machine target;
  auto resolve = [](Oid, uint64_t size) -> Result<ResolvedMemory> {
    return ResolvedMemory{VmObject::CreateAnonymous(size != 0 ? size : kPageSize), false};
  };
  Outcome out;
  mutation::g_largest_alloc = 0;
  out.peek = PeekManifest(manifest).status();
  out.memory = ManifestMemoryObjects(manifest).status();
  out.restore = RestoreOsState(&target.sim, target.kernel.get(), target.fs.get(), manifest,
                               resolve).status();
  out.largest_alloc = mutation::g_largest_alloc;
  out.left_processes = !out.restore.ok() && !target.kernel->AllProcesses().empty();
  return out;
}

// --- Regression tests: three counts that sized work --------------------------------

TEST(ManifestSites, ForgedShadowChainLengthIsCorrupt) {
  App app = BuildApp();
  // A mapping record: start, end, prot, offset, cow, exclude, hint, kind,
  // then the chain length.
  size_t at = After(app.manifest, {kChainMapping, kChainMapping + 64 * kKiB}) + 8 + 8 + 1 + 1 +
              8 + 1;
  ASSERT_GE(mutation::GetLe64(app.manifest, at), 1u) << "the mapping carries a shadow chain";
  Outcome out = Decode(mutation::WithU64(app.manifest, at, uint64_t{1} << 40));
  EXPECT_EQ(out.restore.code(), Errc::kCorrupt) << out.restore.message();
  EXPECT_LE(out.largest_alloc, kAllocBound);
}

TEST(ManifestSites, ForgedDescriptorNumberIsRejected) {
  App app = BuildApp();
  // A descriptor record: slot (i64), description kid, close-on-exec.
  size_t at = After(app.manifest, {static_cast<uint64_t>(kMarkedFd), app.marked_desc_kid}) - 16;
  Outcome out = Decode(mutation::WithU64(app.manifest, at, 1'500'000'000));
  EXPECT_FALSE(out.restore.ok());
  EXPECT_FALSE(out.left_processes);
  EXPECT_LE(out.largest_alloc, kAllocBound);
}

TEST(ManifestSites, ForgedEphemeralChildCountIsCorrupt) {
  App app = BuildApp();
  // A process record: ..., zombie, exit status (i64), ephemeral children.
  size_t at = After(app.manifest, {static_cast<uint64_t>(kMarkedExit)});
  ASSERT_EQ(mutation::GetLe64(app.manifest, at), 1u) << "one ephemeral sibling";
  Outcome out = Decode(mutation::WithU64(app.manifest, at, uint64_t{1} << 40));
  EXPECT_EQ(out.restore.code(), Errc::kCorrupt) << out.restore.message();
  EXPECT_FALSE(out.left_processes);
}

// --- Mutation harness ---------------------------------------------------------------

TEST(ManifestMutation, EveryMutantIsTypedOrRestores) {
  App app = BuildApp();
  const std::vector<uint8_t>& base = app.manifest;
  {
    Outcome clean = Decode(base);
    ASSERT_TRUE(clean.restore.ok()) << clean.restore.message();
  }
  std::vector<std::vector<uint8_t>> mutants;
  Rng rng(0x6d616e69);
  for (int i = 0; i < 3000; i++) {
    std::vector<uint8_t> m = base;
    mutation::FlipBytes(rng, &m);
    mutants.push_back(std::move(m));
  }
  for (size_t len = 0; len < base.size(); len++) {
    mutants.push_back(mutation::Truncated(base, len));
  }
  for (int i = 0; i < 64; i++) {
    mutants.push_back(mutation::Appended(rng, base));
  }
  for (size_t off = 0; off + 8 <= base.size(); off++) {
    for (uint64_t v : mutation::kForgedCounts) {
      mutants.push_back(mutation::WithU64(base, off, v));
    }
  }

  Tally tally;
  for (const auto& m : mutants) {
    try {
      Outcome out = Decode(m);
      tally.Add(out.restore.ok() ? "restored" : "rejected");
      if (out.largest_alloc > kAllocBound) {
        tally.Add("over_allocated");
      }
      if (out.left_processes) {
        tally.Add("left_processes");
      }
    } catch (const std::exception&) {
      tally.Add("crashed");
    }
  }
  std::fprintf(stderr, "manifest: %zu mutants of a %zu-byte manifest:%s\n", mutants.size(),
               base.size(), tally.Summary().c_str());
  EXPECT_EQ(tally["rejected"] + tally["restored"], mutants.size()) << tally.Summary();
  EXPECT_EQ(tally["over_allocated"], 0u) << tally.Summary();
  EXPECT_EQ(tally["left_processes"], 0u) << tally.Summary();
}

}  // namespace
}  // namespace aurora
