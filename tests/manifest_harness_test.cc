// The manifest decoders (src/core/serialize.h) under the shared mutation
// harness.
//
// A restore trusts three counts that no byte of the manifest bounds: a
// mapping's shadow-chain length (it sized a vector), a descriptor number
// (it sized the descriptor table) and a process's ephemeral-child count
// (it drove a SIGCHLD loop). Three regression tests forge each one, and a
// fourth cuts a manifest short after its inodes are bound. The harness then
// damages the manifest of a group that holds every record kind
// (tests/manifest_fixture.h) with byte flips, every truncation, appends and
// forged u64 values at every offset. PeekManifest, ManifestMemoryObjects and
// RestoreOsState must each give a typed error or succeed, with no
// exception, no half-built process or registered inode left behind and no
// single allocation above kAllocBound.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "tests/manifest_fixture.h"
#include "tests/mutation_harness.h"

namespace aurora {
namespace {

using manifest_fixture::kChainMapping;
using manifest_fixture::kMarkedExit;
using manifest_fixture::kMarkedFd;
using manifest_fixture::Machine;
using mutation::Tally;

// The largest single allocation a restore may make: a descriptor table
// grown to the per-process descriptor limit (65 536 slots of 24 bytes),
// with the vector's growth slack on top. Nothing else a restore builds is
// sized by a count the manifest does not back with bytes.
constexpr size_t kAllocBound = 4 * kMiB;

struct App {
  std::vector<uint8_t> manifest;
  uint64_t marked_desc_kid = 0;  // the description installed at kMarkedFd
  std::vector<uint64_t> inos;    // the inodes the manifest names
};

App BuildApp() {
  Machine m;
  manifest_fixture::Fixture f = manifest_fixture::BuildFixture(m);
  manifest_fixture::FakeOids oids;
  return App{manifest_fixture::SerializeFixture(m, f, oids), f.marked_desc_kid, f.inos};
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
  bool left_inodes = false;
  size_t largest_alloc = 0;
};

// Decodes `manifest` on a fresh machine. `inos` are the inodes a rejected
// restore must not leave registered.
Outcome Decode(const std::vector<uint8_t>& manifest, const std::vector<uint64_t>& inos) {
  Machine target;
  Outcome out;
  mutation::g_largest_alloc = 0;
  out.peek = PeekManifest(manifest).status();
  out.memory = ManifestMemoryObjects(manifest).status();
  out.restore = RestoreOsState(&target.sim, target.kernel.get(), target.fs.get(), manifest,
                               manifest_fixture::FreshMemory).status();
  out.largest_alloc = mutation::g_largest_alloc;
  out.left_processes = !out.restore.ok() && !target.kernel->AllProcesses().empty();
  out.left_inodes = !out.restore.ok() && std::any_of(inos.begin(), inos.end(), [&](uint64_t ino) {
    return target.fs->LookupByIno(ino).ok();
  });
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
  Outcome out = Decode(mutation::WithU64(app.manifest, at, uint64_t{1} << 40), app.inos);
  EXPECT_EQ(out.restore.code(), Errc::kCorrupt) << out.restore.message();
  EXPECT_LE(out.largest_alloc, kAllocBound);
}

TEST(ManifestSites, ForgedDescriptorNumberIsRejected) {
  App app = BuildApp();
  // A descriptor record: slot (i64), description kid, close-on-exec.
  size_t at = After(app.manifest, {static_cast<uint64_t>(kMarkedFd), app.marked_desc_kid}) - 16;
  Outcome out = Decode(mutation::WithU64(app.manifest, at, 1'500'000'000), app.inos);
  EXPECT_FALSE(out.restore.ok());
  EXPECT_FALSE(out.left_processes);
  EXPECT_LE(out.largest_alloc, kAllocBound);
}

TEST(ManifestSites, ForgedEphemeralChildCountIsCorrupt) {
  App app = BuildApp();
  // A process record: ..., zombie, exit status (i64), ephemeral children.
  size_t at = After(app.manifest, {static_cast<uint64_t>(kMarkedExit)});
  ASSERT_EQ(mutation::GetLe64(app.manifest, at), 1u) << "one ephemeral child";
  Outcome out = Decode(mutation::WithU64(app.manifest, at, uint64_t{1} << 40), app.inos);
  EXPECT_EQ(out.restore.code(), Errc::kCorrupt) << out.restore.message();
  EXPECT_FALSE(out.left_processes);
}

// A restore that fails after binding its inodes forgets them: a retry after a
// reboot must find the store object of an anonymous file, not a registered
// inode with a leaked hidden reference.
TEST(ManifestSites, FailedRestoreLeavesNoInode) {
  App app = BuildApp();
  Outcome out = Decode(mutation::Truncated(app.manifest, app.manifest.size() - 1), app.inos);
  EXPECT_EQ(out.restore.code(), Errc::kCorrupt) << out.restore.message();
  EXPECT_FALSE(out.left_processes);
  EXPECT_FALSE(out.left_inodes);
}

// --- Mutation harness ---------------------------------------------------------------

TEST(ManifestMutation, EveryMutantIsTypedOrRestores) {
  App app = BuildApp();
  const std::vector<uint8_t>& base = app.manifest;
  {
    Outcome clean = Decode(base, app.inos);
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
      Outcome out = Decode(m, app.inos);
      tally.Add(out.restore.ok() ? "restored" : "rejected");
      if (out.largest_alloc > kAllocBound) {
        tally.Add("over_allocated");
      }
      if (out.left_processes) {
        tally.Add("left_processes");
      }
      if (out.left_inodes) {
        tally.Add("left_inodes");
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
  EXPECT_EQ(tally["left_inodes"], 0u) << tally.Summary();
}

// A zombie's threads have exited: a restore brings them back exited, and the
// restored group's next quiesce finds none of them running. It runs after the
// harness, whose manifest's kernel ids depend on the objects built before it.
TEST(ManifestZombie, RestoredThreadsStayExited) {
  App app = BuildApp();
  Machine target;
  auto restored = RestoreOsState(&target.sim, target.kernel.get(), target.fs.get(), app.manifest,
                                 manifest_fixture::FreshMemory);
  ASSERT_TRUE(restored.ok()) << restored.status().message();
  std::vector<Process*> zombies;
  for (Process* p : restored->processes) {
    if (p->zombie) {
      zombies.push_back(p);
    }
  }
  ASSERT_EQ(zombies.size(), 1u);
  ASSERT_FALSE(zombies[0]->threads().empty());
  for (const auto& t : zombies[0]->threads()) {
    EXPECT_EQ(t->state, ThreadState::kExited);
  }
  QuiesceStats stats = target.kernel->Quiesce(zombies);
  EXPECT_EQ(stats.threads_in_user + stats.threads_in_syscall, 0u);
}

}  // namespace
}  // namespace aurora
