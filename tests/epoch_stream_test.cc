// The epoch wire format (src/core/epoch_stream.h) that `sls send` / `sls
// recv` and the warm-standby replica stream share: pinned frame goldens,
// typed rejection of malformed frames, migration dedup across objects and
// for a shared object, and a seeded mutation harness. Every mutant of a
// valid stream must come back from SlsCli::Recv as a typed error or as a
// byte-exact image — never a crash, a wrong image, or one allocation larger
// than the stream — and no mutant of a replica epoch may ever apply on the
// standby.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "src/base/checksum.h"
#include "src/base/rng.h"
#include "src/base/serializer.h"
#include "src/base/sim_context.h"
#include "src/core/backend.h"
#include "src/core/cli.h"
#include "src/core/epoch_stream.h"
#include "src/core/sls.h"
#include "src/fs/aurora_fs.h"
#include "src/objstore/object_store.h"
#include "src/storage/block_device.h"
#include "tests/mutation_harness.h"

namespace aurora {
namespace {

using mutation::g_largest_alloc;
using mutation::GetLe64;
using mutation::PutLe64;
using mutation::Tally;

// What a decode may allocate beyond its input's size: the text of an error
// (a stream cut to a few bytes still earns a message).
constexpr size_t kErrorTextAllowance = 64;

// One simulated machine: devices, store, file system, kernel and SLS.
struct Machine {
  explicit Machine(uint64_t store_bytes = 64 * kMiB) {
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

// The migrated application: two processes whose private regions hold the
// same pages except their first, plus one object mapped shared by both.
constexpr uint64_t kPrivateBase = 0x400000;
constexpr uint64_t kPrivateBytes = 128 * kKiB;
constexpr uint64_t kSharedBase = 0x800000;
constexpr uint64_t kSharedBytes = 32 * kKiB;

struct AppModel {
  std::map<uint64_t, std::vector<uint8_t>> private_by_pid;  // local pid -> region bytes
  std::vector<uint8_t> shared;
};

std::vector<uint8_t> PrivatePattern(uint8_t who) {
  std::vector<uint8_t> p(kPrivateBytes);
  for (uint64_t i = 0; i < p.size(); i++) {
    // Eight distinct pages repeated, so pages recur within and across objects.
    p[i] = static_cast<uint8_t>((i / kPageSize) % 8 * 29 + i % kPageSize % 251);
  }
  p[0] = who;  // the first page tells the two processes apart
  return p;
}

AppModel BuildApp(Machine& m, const std::string& group_name) {
  AppModel model;
  auto shared = VmObject::CreateAnonymous(kSharedBytes);
  model.shared.resize(kSharedBytes);
  for (uint64_t i = 0; i < kSharedBytes; i++) {
    model.shared[i] = static_cast<uint8_t>(i * 131 + (i >> 9));
  }
  SlsCli cli(m.sls.get());
  for (uint8_t who : {uint8_t{'a'}, uint8_t{'b'}}) {
    Process* proc = *m.kernel->CreateProcess(std::string(1, static_cast<char>(who)));
    auto priv = VmObject::CreateAnonymous(kPrivateBytes);
    EXPECT_TRUE(proc->vm().Map(kPrivateBase, kPrivateBytes, kProtRead | kProtWrite, priv, 0,
                               /*copy_on_write=*/true).ok());
    EXPECT_TRUE(proc->vm().Map(kSharedBase, kSharedBytes, kProtRead | kProtWrite, shared, 0,
                               /*copy_on_write=*/false).ok());
    std::vector<uint8_t> bytes = PrivatePattern(who);
    EXPECT_TRUE(proc->vm().Write(kPrivateBase, bytes.data(), bytes.size()).ok());
    model.private_by_pid[proc->local_pid()] = std::move(bytes);
    EXPECT_TRUE(cli.Attach(group_name, proc).ok());
  }
  Process* first = m.sls->FindGroup(group_name)->processes[0];
  EXPECT_TRUE(first->vm().Write(kSharedBase, model.shared.data(), model.shared.size()).ok());
  return model;
}

// True when the restored group holds exactly the model's processes and bytes.
bool MatchesModel(const RestoreResult& restored, const AppModel& model) {
  const auto& procs = restored.group->processes;
  if (procs.size() != model.private_by_pid.size()) {
    return false;
  }
  for (Process* proc : procs) {
    auto want = model.private_by_pid.find(proc->local_pid());
    if (want == model.private_by_pid.end()) {
      return false;
    }
    std::vector<uint8_t> got(kPrivateBytes);
    if (!proc->vm().Read(kPrivateBase, got.data(), got.size()).ok() || got != want->second) {
      return false;
    }
    got.resize(kSharedBytes);
    if (!proc->vm().Read(kSharedBase, got.data(), got.size()).ok() || got != model.shared) {
      return false;
    }
  }
  return true;
}

// A checkpointed copy of the app and the `sls send` stream of it.
struct SentApp {
  Machine source;
  AppModel model;
  CheckpointStream stream;
};

std::unique_ptr<SentApp> SendApp() {
  auto app = std::make_unique<SentApp>();
  app->model = BuildApp(app->source, "app");
  SlsCli cli(app->source.sls.get());
  EXPECT_TRUE(cli.Checkpoint("app", "migrate").ok());
  auto stream = cli.Send("app");
  EXPECT_TRUE(stream.ok());
  app->stream = std::move(*stream);
  return app;
}

// Frame boundaries of a stream, walked through the documented header
// layout (magic "AEPF" at +0, u64 length at +6): each frame's [start, end).
std::vector<std::pair<size_t, size_t>> FrameSpans(const std::vector<uint8_t>& s) {
  std::vector<std::pair<size_t, size_t>> out;
  size_t pos = 0;
  while (pos + 14 <= s.size() && std::memcmp(s.data() + pos, "AEPF", 4) == 0) {
    uint64_t len = GetLe64(s, pos + 6);
    if (len < 14 || len > s.size() - pos) {
      break;
    }
    out.emplace_back(pos, pos + len);
    pos += len;
  }
  return out;
}

// Offsets of every count and length field of a frame stream: each frame's
// length; a data frame's entry count; a commit frame's frame count and its
// group, checkpoint-name and manifest lengths; and the manifest's own
// memory-object count.
std::vector<size_t> CountFieldOffsets(const std::vector<uint8_t>& s) {
  std::vector<size_t> out;
  for (const auto& [start, end] : FrameSpans(s)) {
    out.push_back(start + 6);
    if (s[start + 5] == 0) {
      out.push_back(start + 38 + 16);
      continue;
    }
    size_t at = start + 38;
    out.push_back(at);  // frame count
    at += 16;           // frame count, since_epoch
    for (int field = 0; field < 3 && at + 8 <= end; field++) {
      out.push_back(at);
      uint64_t len = GetLe64(s, at);
      if (field == 2 && at + 8 + 16 <= end) {
        // Manifest: u32 magic, u32 version, u64-prefixed group name, u64
        // epoch, u64 namespace oid, then the memory-object count.
        size_t m = at + 8 + 8;
        uint64_t name_len = GetLe64(s, m);
        if (name_len < end - m) {
          out.push_back(m + 8 + name_len + 16);
        }
      }
      if (len > end - at) {
        break;
      }
      at += 8 + len;
    }
  }
  return out;
}

enum class MutantKind { kBytes, kTruncate, kCountField, kDrop, kDuplicate, kSwap };

struct Mutant {
  MutantKind kind;
  std::vector<uint8_t> bytes;
};

// The harness's mutants of `s`: ≥3 000 seeded runs of 1–4 random byte
// changes, truncation at and around every frame boundary, every count and
// length field set to 2^40 and 2^63, and each frame dropped, duplicated and
// swapped with its successor.
std::vector<Mutant> MakeMutants(const std::vector<uint8_t>& s, uint64_t seed) {
  std::vector<Mutant> out;
  Rng rng(seed);
  for (int i = 0; i < 3000; i++) {
    Mutant m{MutantKind::kBytes, s};
    mutation::FlipBytes(rng, &m.bytes);
    out.push_back(std::move(m));
  }
  std::vector<std::pair<size_t, size_t>> frames = FrameSpans(s);
  std::set<size_t> cuts;
  for (const auto& [start, end] : frames) {
    for (size_t b : {start, end}) {
      for (size_t d = 0; d <= 4; d++) {
        if (b + d >= 2 && b + d - 2 < s.size()) {
          cuts.insert(b + d - 2);
        }
      }
    }
  }
  for (size_t cut : cuts) {
    out.push_back(Mutant{MutantKind::kTruncate, mutation::Truncated(s, cut)});
  }
  for (size_t off : CountFieldOffsets(s)) {
    for (uint64_t v : mutation::kForgedCounts) {
      if (off + 8 <= s.size()) {
        out.push_back(Mutant{MutantKind::kCountField, mutation::WithU64(s, off, v)});
      }
    }
  }
  auto frame = [&s, &frames](size_t i) {
    return std::vector<uint8_t>(s.begin() + frames[i].first, s.begin() + frames[i].second);
  };
  for (size_t i = 0; i < frames.size(); i++) {
    std::vector<uint8_t> drop;
    std::vector<uint8_t> dup;
    std::vector<uint8_t> swap;
    for (size_t j = 0; j < frames.size(); j++) {
      std::vector<uint8_t> f = frame(j);
      if (j != i) {
        drop.insert(drop.end(), f.begin(), f.end());
      }
      dup.insert(dup.end(), f.begin(), f.end());
      if (j == i) {
        dup.insert(dup.end(), f.begin(), f.end());
      }
      if (i + 1 < frames.size() && (j == i || j == i + 1)) {
        std::vector<uint8_t> other = frame(j == i ? i + 1 : i);
        swap.insert(swap.end(), other.begin(), other.end());
      } else {
        swap.insert(swap.end(), f.begin(), f.end());
      }
    }
    out.push_back(Mutant{MutantKind::kDrop, std::move(drop)});
    out.push_back(Mutant{MutantKind::kDuplicate, std::move(dup)});
    if (i + 1 < frames.size()) {
      out.push_back(Mutant{MutantKind::kSwap, std::move(swap)});
    }
  }
  return out;
}

// Rewrites the length and CRC32C of the frame at [start, end) of `s`.
void Reseal(std::vector<uint8_t>* s, size_t start, size_t end) {
  PutLe64(s, start + 6, end - start);
  uint32_t crc = Crc32c(s->data() + start, end - start - kFrameCrcBytes);
  for (size_t i = 0; i < kFrameCrcBytes; i++) {
    (*s)[end - kFrameCrcBytes + i] = static_cast<uint8_t>(crc >> (8 * i));
  }
}

std::vector<uint8_t> PagePattern(uint8_t salt) {
  std::vector<uint8_t> page(kPageSize);
  for (uint64_t i = 0; i < kPageSize; i++) {
    page[i] = static_cast<uint8_t>(i * 7 + salt);
  }
  return page;
}

// --- Frame format ------------------------------------------------------------

uint32_t TrailerCrc(const std::vector<uint8_t>& frame) {
  BinaryReader r(frame.data() + frame.size() - kFrameCrcBytes, kFrameCrcBytes);
  return *r.U32();
}

TEST(EpochStream, FrameGoldensPinTheLayout) {
  std::vector<uint8_t> page = PagePattern(1);
  PageRefTable refs;
  std::vector<uint8_t> data;
  AppendDataFrame(FrameId{7, 1, 0}, 42, 2 * kPageSize,
                  {PageView{0, page.data()}, PageView{1, page.data()}}, &refs, &data);
  // Header, oid/size/count, one raw entry, one reference entry, CRC.
  ASSERT_EQ(data.size(), 38u + 24u + (9u + kPageSize) + (9u + 8u) + 4u);
  EXPECT_EQ(data[38 + 24 + 8], 0) << "first page ships raw";
  EXPECT_EQ(data[38 + 24 + 9 + kPageSize + 8], 1) << "second page is a reference";
  EXPECT_EQ(TrailerCrc(data), 0x8b0710f4u);

  EpochCommit record;
  record.group = "app";
  record.ckpt_name = "ckpt";
  record.manifest = {1, 2, 3};
  record.since_epoch = 6;
  record.nframes = 2;
  std::vector<uint8_t> commit;
  AppendCommitFrame(FrameId{7, 1, 1}, record, &commit);
  ASSERT_EQ(commit.size(), 38u + 16u + (8u + 3u) + (8u + 4u) + (8u + 3u) + 4u);
  EXPECT_EQ(TrailerCrc(commit), 0xd7b0b21cu);

  auto decoded = DecodeEpoch({data, commit});
  ASSERT_TRUE(decoded.ok()) << decoded.status().message();
  EXPECT_EQ(decoded->epoch, 7u);
  ASSERT_EQ(decoded->objects.size(), 1u);
  const DecodedObject& obj = decoded->objects[0];
  EXPECT_EQ(obj.oid, 42u);
  EXPECT_EQ(obj.size, 2 * kPageSize);
  ASSERT_EQ(obj.pages.size(), 2u);
  // Decoded pages are views into the frame; the reference resolves to the
  // raw page it names.
  EXPECT_EQ(obj.pages[0].data, data.data() + 38 + 24 + 9);
  EXPECT_EQ(obj.pages[1].data, obj.pages[0].data);
  EXPECT_EQ(decoded->commit.group, "app");
  EXPECT_EQ(decoded->commit.ckpt_name, "ckpt");
  EXPECT_EQ(decoded->commit.manifest, record.manifest);
  EXPECT_EQ(decoded->commit.since_epoch, 6u);
}

// A data frame of epoch 1 built byte by byte from the documented layout:
// per entry, `target` < 0 means a raw page, otherwise a reference to it.
struct ForgedEntry {
  uint64_t pgidx;
  int64_t target;
};

std::vector<uint8_t> ForgeDataFrame(uint64_t object_size, const std::vector<ForgedEntry>& entries) {
  std::vector<uint8_t> page = PagePattern(3);
  BinaryWriter w;
  w.PutU32(0x46504541);  // "AEPF"
  w.PutU8(kEpochStreamVersion);
  w.PutU8(0);   // data
  w.PutU64(0);  // length, sealed below
  w.PutU64(1);  // epoch
  w.PutU64(0);  // attempt
  w.PutU64(0);  // seq
  w.PutU64(42);
  w.PutU64(object_size);
  w.PutU64(entries.size());
  for (const ForgedEntry& e : entries) {
    w.PutU64(e.pgidx);
    w.PutU8(e.target < 0 ? 0 : 1);
    if (e.target < 0) {
      w.PutRaw(page.data(), page.size());
    } else {
      w.PutU64(static_cast<uint64_t>(e.target));
    }
  }
  w.PutU32(0);  // CRC, sealed below
  std::vector<uint8_t> frame = w.Take();
  Reseal(&frame, 0, frame.size());
  return frame;
}

std::vector<uint8_t> CommitFrameOfTwo() {
  EpochCommit record;
  record.nframes = 2;
  std::vector<uint8_t> commit;
  AppendCommitFrame(FrameId{1, 0, 1}, record, &commit);
  return commit;
}

Errc DecodeCode(const std::vector<uint8_t>& data) {
  auto decoded = DecodeEpoch({data, CommitFrameOfTwo()});
  return decoded.ok() ? Errc::kOk : decoded.status().code();
}

TEST(EpochStream, ForgedFramesMatchTheEncoder) {
  std::vector<uint8_t> page = PagePattern(3);
  std::vector<uint8_t> encoded;
  AppendDataFrame(FrameId{1, 0, 0}, 42, 3 * kPageSize,
                  {PageView{0, page.data()}, PageView{2, page.data()}}, nullptr, &encoded);
  EXPECT_EQ(ForgeDataFrame(3 * kPageSize, {{0, -1}, {2, -1}}), encoded);
  EXPECT_EQ(DecodeCode(encoded), Errc::kOk);
}

TEST(EpochStream, MalformedFramesAreTypedErrors) {
  std::vector<uint8_t> data = ForgeDataFrame(2 * kPageSize, {{0, -1}, {1, 0}});
  std::vector<uint8_t> commit = CommitFrameOfTwo();
  ASSERT_EQ(DecodeCode(data), Errc::kOk) << "control";

  std::vector<uint8_t> version = data;
  version[4] = kEpochStreamVersion + 1;
  EXPECT_EQ(DecodeCode(version), Errc::kNotSupported);
  EXPECT_EQ(SplitFrames(version).status().code(), Errc::kNotSupported);

  std::vector<uint8_t> magic = data;
  magic[0] ^= 0x20;
  EXPECT_EQ(DecodeCode(magic), Errc::kCorrupt);

  // A stream ending in part of a frame: inside the header, and past it.
  std::vector<uint8_t> stream = data;
  stream.insert(stream.end(), commit.begin(), commit.end());
  for (size_t partial : {size_t{10}, size_t{50}, commit.size() - 1}) {
    std::vector<uint8_t> cut = stream;
    cut.insert(cut.end(), commit.begin(), commit.begin() + static_cast<ptrdiff_t>(partial));
    EXPECT_EQ(SplitFrames(cut).status().code(), Errc::kCorrupt) << partial;
  }
  ASSERT_TRUE(SplitFrames(stream).ok());

  // References must name an earlier raw entry of the epoch.
  EXPECT_EQ(DecodeCode(ForgeDataFrame(2 * kPageSize, {{0, 1}, {1, -1}})), Errc::kCorrupt)
      << "reference to a later page";
  EXPECT_EQ(DecodeCode(ForgeDataFrame(3 * kPageSize, {{0, -1}, {1, 0}, {2, 1}})), Errc::kCorrupt)
      << "reference to a reference";
  EXPECT_EQ(DecodeCode(ForgeDataFrame(2 * kPageSize, {{0, 0}, {1, -1}})), Errc::kCorrupt)
      << "reference to itself";

  // Page indices stay below ceil(object_size / 4 KiB) and rise.
  EXPECT_EQ(DecodeCode(ForgeDataFrame(kPageSize + 1, {{1, -1}})), Errc::kOk);
  EXPECT_EQ(DecodeCode(ForgeDataFrame(kPageSize + 1, {{2, -1}})), Errc::kCorrupt);
  EXPECT_EQ(DecodeCode(ForgeDataFrame(kPageSize, {{uint64_t{1} << 54, -1}})), Errc::kCorrupt);
  EXPECT_EQ(DecodeCode(ForgeDataFrame(4 * kPageSize, {{2, -1}, {1, -1}})), Errc::kCorrupt);
  EXPECT_EQ(DecodeCode(ForgeDataFrame(4 * kPageSize, {{2, -1}, {2, 0}})), Errc::kCorrupt);

  // The stream's shape: commit last, seqs contiguous, one epoch.
  EXPECT_EQ(DecodeEpoch({commit, data}).status().code(), Errc::kCorrupt);
  EXPECT_EQ(DecodeEpoch({data}).status().code(), Errc::kCorrupt);
  EXPECT_EQ(DecodeEpoch({}).status().code(), Errc::kCorrupt);
}

TEST(EpochStream, CorruptPageIndexInASendStreamIsRejected) {
  // A page index far beyond its object, which would resize the receiver's
  // dirty bitmap to ~10^17 bytes, with the frame CRC made valid again so
  // only the page-index checks stand in the way.
  auto app = SendApp();
  std::vector<uint8_t> bytes = app->stream.bytes;
  auto frames = FrameSpans(bytes);
  ASSERT_GE(frames.size(), 2u);
  ASSERT_EQ(bytes[frames[0].first + 5], 0) << "first frame carries pages";
  // The frame's last entry, so the indices still rise: walk the entries
  // (u64 page index, u8 tag, then a raw page or a u64 reference).
  size_t last_entry = 0;
  for (size_t at = frames[0].first + 38 + 24; at + kFrameCrcBytes < frames[0].second;
       at += 9 + (bytes[at + 8] == 0 ? kPageSize : 8)) {
    last_entry = at;
  }
  PutLe64(&bytes, last_entry, uint64_t{1} << 54);
  Reseal(&bytes, frames[0].first, frames[0].second);
  Machine dst;
  g_largest_alloc = 0;
  auto restored = SlsCli(dst.sls.get()).Recv(CheckpointStream{bytes});
  EXPECT_EQ(restored.status().code(), Errc::kCorrupt);
  EXPECT_LE(g_largest_alloc, bytes.size());
  EXPECT_TRUE(dst.kernel->AllProcesses().empty());
}

// --- Migration dedup -----------------------------------------------------------

TEST(EpochStream, MigrationDedupsAcrossObjectsAndShipsASharedObjectOnce) {
  auto app = SendApp();
  const std::vector<uint8_t>& bytes = app->stream.bytes;
  auto frames = SplitFrames(bytes);
  ASSERT_TRUE(frames.ok());
  auto decoded = DecodeEpoch(*frames);
  ASSERT_TRUE(decoded.ok()) << decoded.status().message();

  std::map<uint64_t, int> frames_per_oid;
  uint64_t pages = 0;
  for (const DecodedObject& obj : decoded->objects) {
    frames_per_oid[obj.oid]++;
    pages += obj.pages.size();
  }
  for (const auto& [oid, n] : frames_per_oid) {
    EXPECT_EQ(n, 1) << "oid " << oid << " shipped " << n << " times";
  }
  // Two private regions and the shared one, each page shipped exactly once.
  EXPECT_EQ(pages, (2 * kPrivateBytes + kSharedBytes) / kPageSize);
  EXPECT_LT(bytes.size(), pages * kPageSize) << "equal pages ship as references";

  Machine dst;
  auto restored = SlsCli(dst.sls.get()).Recv(app->stream);
  ASSERT_TRUE(restored.ok()) << restored.status().message();
  EXPECT_TRUE(MatchesModel(*restored, app->model));

  // The shared object is still one object on the destination.
  ASSERT_EQ(restored->group->processes.size(), 2u);
  Process* a = restored->group->processes[0];
  Process* b = restored->group->processes[1];
  const char note[] = "written through a";
  ASSERT_TRUE(a->vm().Write(kSharedBase + 100, note, sizeof(note)).ok());
  char got[sizeof(note)] = {};
  ASSERT_TRUE(b->vm().Read(kSharedBase + 100, got, sizeof(got)).ok());
  EXPECT_STREQ(got, note);
}

// The apply releases a replica stream's frames one by one, but an `sls send`
// stream's pages may reference an earlier frame, so those frames stay until
// the apply ends: a session fed a stream with references holds exactly the
// bytes the stream decodes to.
TEST(EpochStream, ReferencedPagesApplyExactlyIntoASession) {
  auto app = SendApp();
  auto frames = SplitFrames(app->stream.bytes);
  ASSERT_TRUE(frames.ok());
  auto decoded = DecodeEpoch(*frames);
  ASSERT_TRUE(decoded.ok()) << decoded.status().message();
  uint64_t pages = 0;
  for (const DecodedObject& obj : decoded->objects) {
    pages += obj.pages.size();
  }
  ASSERT_LT(app->stream.bytes.size(), pages * kPageSize) << "the stream carries references";

  Machine dst;
  ReplicaStandby session(&dst.sim, nullptr);
  auto restored = SlsCli(dst.sls.get()).Recv(app->stream, &session);
  ASSERT_TRUE(restored.ok()) << restored.status().message();
  EXPECT_TRUE(MatchesModel(*restored, app->model));
  uint64_t checked = 0;
  for (const DecodedObject& obj : decoded->objects) {
    auto image = session.object_table().find(obj.oid);
    ASSERT_NE(image, session.object_table().end());
    for (const PageView& page : obj.pages) {
      const PageFrame* frame = image->second.pages.Find(page.pgidx);
      ASSERT_NE(frame, nullptr);
      EXPECT_EQ(std::memcmp(frame->data(), page.data, kPageSize), 0) << "page " << page.pgidx;
      checked++;
    }
  }
  EXPECT_EQ(checked, pages);
}

// --- Mutation harness: sls send / sls recv ----------------------------------------

TEST(EpochStreamMutation, RecvRejectsOrRestoresExactlyEveryMutant) {
  auto app = SendApp();
  {
    Machine dst;
    auto clean = SlsCli(dst.sls.get()).Recv(app->stream);
    ASSERT_TRUE(clean.ok()) << clean.status().message();
    ASSERT_TRUE(MatchesModel(*clean, app->model)) << "control stream restores exactly";
  }
  std::vector<Mutant> mutants = MakeMutants(app->stream.bytes, 0x6d757461);
  ASSERT_GE(mutants.size(), 3000u);

  // Outcome counts by name; only "rejected" and "exact" may occur.
  Tally tally;
  for (const Mutant& mutant : mutants) {
    Machine dst;
    CheckpointStream stream{mutant.bytes};
    g_largest_alloc = 0;
    try {
      auto restored = SlsCli(dst.sls.get()).Recv(stream);
      if (g_largest_alloc > std::max(stream.bytes.size(), kErrorTextAllowance)) {
        tally.Add("over_allocated");
      }
      if (!restored.ok()) {
        Errc code = restored.status().code();
        tally.Add(code == Errc::kCorrupt || code == Errc::kNotSupported ? "rejected" : "untyped");
        if (!dst.kernel->AllProcesses().empty()) {
          tally.Add("left_processes");  // a failed receive left a half-built group
        }
      } else {
        tally.Add(MatchesModel(*restored, app->model) ? "exact" : "wrong_image");
      }
    } catch (const std::exception&) {
      tally.Add("crashed");
    }
  }
  std::string summary = tally.Summary();
  std::fprintf(stderr, "recv: %zu mutants of a %zu-byte stream:%s\n", mutants.size(),
               app->stream.bytes.size(), summary.c_str());
  EXPECT_EQ(tally["rejected"] + tally["exact"], mutants.size()) << summary;
  EXPECT_EQ(tally["over_allocated"], 0u) << summary;
  EXPECT_EQ(tally["left_processes"], 0u) << summary;
}

// --- Mutation harness: replica epochs ----------------------------------------------

// The frames a ReplicaBackend ships for the app's first two epochs, taken off
// a link no standby drains.
struct CapturedEpochs {
  std::vector<WireFrame> first;
  std::vector<WireFrame> second;
};

CapturedEpochs CaptureReplicaEpochs() {
  Machine m;
  ReplicaLink capture;
  ReplicaLink undrained;
  ReplicaStandby sink(&m.sim, &undrained);
  m.sls->RegisterBackend(std::make_unique<ReplicaBackend>(&m.sim, &sink, &capture));
  BuildApp(m, "app");
  ConsistencyGroup* group = m.sls->FindGroup("app");
  EXPECT_TRUE(m.sls->SetBackend(group, "replica").ok());
  CapturedEpochs out;
  EXPECT_TRUE(m.sls->Checkpoint(group, "first").ok());
  out.first = capture.TakeDeliverable();
  Process* proc = group->processes[1];
  std::vector<uint8_t> update = PagePattern(9);
  EXPECT_TRUE(proc->vm().Write(kPrivateBase + 2 * kPageSize, update.data(), update.size()).ok());
  EXPECT_TRUE(proc->vm().Write(kSharedBase + kPageSize, update.data(), 100).ok());
  EXPECT_TRUE(m.sls->Checkpoint(group, "second").ok());
  out.second = capture.TakeDeliverable();
  return out;
}

// A standby's image table as plain bytes: oid -> (size, pgidx -> page).
using ImageTable =
    std::map<uint64_t, std::pair<uint64_t, std::map<uint64_t, std::vector<uint8_t>>>>;

ImageTable Snapshot(const ReplicaStandby& standby) {
  ImageTable out;
  for (const auto& [oid, image] : standby.object_table()) {
    auto& [size, pages] = out[oid];
    size = image.size;
    image.pages.ForEach([&pages](uint64_t pgidx, const PageFrame& frame) {
      pages[pgidx].assign(frame.data(), frame.data() + kPageSize);
    });
  }
  return out;
}

bool SameImages(const ReplicaStandby& standby, const ImageTable& expected) {
  return Snapshot(standby) == expected;
}

TEST(EpochStreamMutation, StandbyNeverAppliesAMutatedEpoch) {
  CapturedEpochs epochs = CaptureReplicaEpochs();
  ASSERT_GE(epochs.first.size(), 2u);
  ASSERT_GE(epochs.second.size(), 2u);

  // Reference images: epoch 1 applied alone, then epoch 2 on top.
  ImageTable after_first;
  ImageTable after_second;
  {
    SimContext sim;
    ReplicaLink link;
    ReplicaStandby standby(&sim, &link);
    for (const WireFrame& f : epochs.first) {
      ASSERT_TRUE(link.Push(f));
    }
    standby.Pump();
    ASSERT_EQ(standby.last_applied_epoch(), 1u);
    after_first = Snapshot(standby);
    for (const WireFrame& f : epochs.second) {
      ASSERT_TRUE(link.Push(f));
    }
    standby.Pump();
    ASSERT_EQ(standby.last_applied_epoch(), 2u);
    after_second = Snapshot(standby);
  }

  // Mutate the second epoch as one stream, then cut it back into frames at
  // the original boundaries, so a damaged frame stays one wire frame.
  std::vector<uint8_t> stream;
  std::vector<size_t> ends;
  for (const WireFrame& f : epochs.second) {
    stream.insert(stream.end(), f.bytes.begin(), f.bytes.end());
    ends.push_back(stream.size());
  }
  std::vector<Mutant> mutants = MakeMutants(stream, 0x72706c6d);
  ASSERT_GE(mutants.size(), 3000u);

  // Outcome counts by name; only "never_applied" and, for the duplicates
  // and swaps the link itself may produce, "applied_exactly" may occur.
  Tally tally;
  for (const Mutant& mutant : mutants) {
    // Byte-level mutants keep the frame cuts; whole-frame mutants reorder
    // whole frames, so they are re-cut at their own headers.
    bool whole_frames = mutant.kind == MutantKind::kDrop ||
                        mutant.kind == MutantKind::kDuplicate || mutant.kind == MutantKind::kSwap;
    std::vector<WireFrame> wire;
    if (whole_frames) {
      for (const auto& [start, end] : FrameSpans(mutant.bytes)) {
        wire.push_back(WireFrame{
            std::vector<uint8_t>(mutant.bytes.begin() + start, mutant.bytes.begin() + end), 0});
      }
    } else {
      size_t start = 0;
      for (size_t end : ends) {
        size_t stop = std::min(end, mutant.bytes.size());
        if (stop > start) {
          wire.push_back(WireFrame{
              std::vector<uint8_t>(mutant.bytes.begin() + start, mutant.bytes.begin() + stop), 0});
        }
        start = end;
      }
    }
    bool benign = mutant.kind == MutantKind::kDuplicate || mutant.kind == MutantKind::kSwap;
    try {
      SimContext sim;
      ReplicaLink link;
      ReplicaStandby standby(&sim, &link);
      for (const WireFrame& f : epochs.first) {
        EXPECT_TRUE(link.Push(f));
      }
      standby.Pump();
      uint64_t ingested_first = sim.metrics.CounterValue("repl.frames_ingested");
      for (WireFrame& f : wire) {
        EXPECT_TRUE(link.Push(std::move(f)));
      }
      standby.Pump();
      bool applied = standby.last_applied_epoch() == 2;
      if (benign) {
        bool exact = applied && SameImages(standby, after_second);
        tally.Add(exact ? "applied_exactly" : "benign_not_applied");
        continue;
      }
      if (applied || !SameImages(standby, after_first)) {
        tally.Add("applied");
        continue;
      }
      // Failover rolls back whatever of the epoch was placed.
      auto plan = standby.PrepareFailover(/*force=*/true);
      bool placed = sim.metrics.CounterValue("repl.frames_ingested") > ingested_first;
      bool rolled_back = plan.ok() && plan->epoch == 1 && (plan->rolled_back || !placed);
      tally.Add(rolled_back ? "never_applied" : "not_rolled_back");
    } catch (const std::exception&) {
      tally.Add("crashed");
    }
  }
  std::string summary = tally.Summary();
  std::fprintf(stderr, "replica: %zu mutants of a %zu-byte epoch:%s\n", mutants.size(),
               stream.size(), summary.c_str());
  EXPECT_EQ(tally["never_applied"] + tally["applied_exactly"], mutants.size()) << summary;
}

// --- One receiver: a migration session is a standby -----------------------------------

// Six checkpoints of the app, each after one more page of the second
// process's private region changed; `models[i]` is the app at `epochs[i]`.
struct CheckpointedRounds {
  Machine source;
  std::vector<uint64_t> epochs;
  std::vector<AppModel> models;
};

std::unique_ptr<CheckpointedRounds> CheckpointSixRounds() {
  auto rounds = std::make_unique<CheckpointedRounds>();
  AppModel model = BuildApp(rounds->source, "app");
  SlsCli cli(rounds->source.sls.get());
  Process* writer = rounds->source.sls->FindGroup("app")->processes[1];
  for (uint8_t round = 0; round < 6; round++) {
    if (round > 0) {
      std::vector<uint8_t> page = PagePattern(round);
      EXPECT_TRUE(writer->vm().Write(kPrivateBase + round * kPageSize, page.data(), kPageSize).ok());
      std::copy(page.begin(), page.end(),
                model.private_by_pid[writer->local_pid()].begin() + round * kPageSize);
    }
    auto ckpt = cli.Checkpoint("app", "round" + std::to_string(round));
    EXPECT_TRUE(ckpt.ok());
    rounds->epochs.push_back(ckpt.ok() ? ckpt->epoch : 0);
    rounds->models.push_back(model);
  }
  return rounds;
}

TEST(OneReceiver, SessionComposesDeltasWhoseEpochsSkipNumbers) {
  auto rounds = CheckpointSixRounds();
  const std::vector<uint64_t>& e = rounds->epochs;
  ASSERT_GT(e[3], e[0] + 1) << "the deltas skip epochs";
  SlsCli src(rounds->source.sls.get());
  Machine dst;
  SlsCli cli(dst.sls.get());
  ReplicaStandby session(&dst.sim, nullptr);
  // A full image at E1, then E4 since E1 and E6 since E4.
  for (auto [round, since] : {std::pair{0, -1}, std::pair{3, 0}, std::pair{5, 3}}) {
    auto stream = src.Send("app", e[round], since < 0 ? 0 : e[since]);
    ASSERT_TRUE(stream.ok()) << stream.status().message();
    auto restored = cli.Recv(*stream, &session);
    ASSERT_TRUE(restored.ok()) << restored.status().message();
    EXPECT_EQ(restored->epoch, e[round]);
    EXPECT_EQ(session.last_applied_epoch(), e[round]);
    EXPECT_EQ(session.pending_epochs(), 0u);
    EXPECT_TRUE(MatchesModel(*restored, rounds->models[round])) << "round " << round;
  }
}

TEST(OneReceiver, DeltaAboveTheSessionsEpochIsRefusedAndLeavesTheSessionAsItWas) {
  auto rounds = CheckpointSixRounds();
  const std::vector<uint64_t>& e = rounds->epochs;
  SlsCli src(rounds->source.sls.get());
  Machine dst;
  SlsCli cli(dst.sls.get());
  ReplicaStandby session(&dst.sim, nullptr);
  auto full = src.Send("app", e[0]);
  ASSERT_TRUE(full.ok());
  auto first = cli.Recv(*full, &session);
  ASSERT_TRUE(first.ok()) << first.status().message();
  ImageTable table = Snapshot(session);

  // E3 since E2: the session holds E1 only.
  auto delta = src.Send("app", e[2], e[1]);
  ASSERT_TRUE(delta.ok());
  auto refused = cli.Recv(*delta, &session);
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.status().code(), Errc::kBadState);
  EXPECT_EQ(session.last_applied_epoch(), e[0]);
  EXPECT_TRUE(SameImages(session, table));
  EXPECT_EQ(session.pending_epochs(), 0u);
  EXPECT_TRUE(MatchesModel(*first, rounds->models[0])) << "the running instance stays";

  // The delta the session can take still applies on top of E1.
  auto next = src.Send("app", e[2], e[0]);
  ASSERT_TRUE(next.ok());
  auto restored = cli.Recv(*next, &session);
  ASSERT_TRUE(restored.ok()) << restored.status().message();
  EXPECT_TRUE(MatchesModel(*restored, rounds->models[2]));
}

TEST(OneReceiver, StreamJoiningTwoEpochsIsRefusedAndLeavesTheSessionAsItWas) {
  auto rounds = CheckpointSixRounds();
  const std::vector<uint64_t>& e = rounds->epochs;
  SlsCli src(rounds->source.sls.get());
  auto full = src.Send("app", e[0]);
  auto delta = src.Send("app", e[1], e[0]);
  auto foreign = src.Send("app", e[5]);
  ASSERT_TRUE(full.ok() && delta.ok() && foreign.ok());
  // A legitimate delta with a whole full image of a later epoch behind it:
  // every frame validates on its own.
  CheckpointStream joined = *delta;
  joined.bytes.insert(joined.bytes.end(), foreign->bytes.begin(), foreign->bytes.end());

  Machine dst;
  SlsCli cli(dst.sls.get());
  ReplicaStandby session(&dst.sim, nullptr);
  auto first = cli.Recv(*full, &session);
  ASSERT_TRUE(first.ok()) << first.status().message();
  ImageTable table = Snapshot(session);
  auto refused = cli.Recv(joined, &session);
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.status().code(), Errc::kCorrupt);
  EXPECT_EQ(session.last_applied_epoch(), e[0]);
  EXPECT_TRUE(SameImages(session, table));
  EXPECT_EQ(session.pending_epochs(), 0u);
  EXPECT_TRUE(MatchesModel(*first, rounds->models[0])) << "the running instance stays";

  // The delta on its own is not a replay: it applies on top of E1.
  auto restored = cli.Recv(*delta, &session);
  ASSERT_TRUE(restored.ok()) << restored.status().message();
  EXPECT_EQ(restored->epoch, e[1]);
  EXPECT_TRUE(MatchesModel(*restored, rounds->models[1]));

  // Without a session, two joined full images are refused too.
  Machine fresh;
  CheckpointStream two_full = *full;
  two_full.bytes.insert(two_full.bytes.end(), foreign->bytes.begin(), foreign->bytes.end());
  auto none = SlsCli(fresh.sls.get()).Recv(two_full);
  ASSERT_FALSE(none.ok());
  EXPECT_EQ(none.status().code(), Errc::kCorrupt);
  EXPECT_TRUE(fresh.kernel->AllProcesses().empty());
}

TEST(OneReceiver, ReplicaEpochArrivingBeforeItsPredecessorWaits) {
  CapturedEpochs epochs = CaptureReplicaEpochs();
  ImageTable in_order;
  {
    SimContext sim;
    ReplicaLink link;
    ReplicaStandby standby(&sim, &link);
    for (const auto* frames : {&epochs.first, &epochs.second}) {
      for (const WireFrame& f : *frames) {
        ASSERT_TRUE(link.Push(f));
      }
      standby.Pump();
    }
    ASSERT_EQ(standby.last_applied_epoch(), 2u);
    in_order = Snapshot(standby);
  }
  SimContext sim;
  ReplicaLink link;
  ReplicaStandby standby(&sim, &link);
  for (const WireFrame& f : epochs.second) {
    ASSERT_TRUE(link.Push(f));
  }
  standby.Pump();
  EXPECT_EQ(standby.last_applied_epoch(), 0u) << "epoch 2 is a delta on epoch 1";
  EXPECT_EQ(standby.pending_epochs(), 1u);
  EXPECT_TRUE(standby.object_table().empty());
  for (const WireFrame& f : epochs.first) {
    ASSERT_TRUE(link.Push(f));
  }
  standby.Pump();
  EXPECT_EQ(standby.last_applied_epoch(), 2u);
  EXPECT_EQ(standby.pending_epochs(), 0u);
  EXPECT_TRUE(SameImages(standby, in_order));
}

TEST(OneReceiver, ColdRestoreRefusesAnImagePageBeyondTheManifestsObjectSize) {
  // The first replica epoch, re-encoded with its first object's frame one
  // page larger than the manifest sizes the object, holding that page. Every
  // frame validates; only the resolver's page bound stands in the way.
  CapturedEpochs epochs = CaptureReplicaEpochs();
  std::vector<std::span<const uint8_t>> frames;
  for (const WireFrame& f : epochs.first) {
    frames.emplace_back(f.bytes);
  }
  auto decoded = DecodeEpoch(frames);
  ASSERT_TRUE(decoded.ok()) << decoded.status().message();
  ASSERT_FALSE(decoded->objects.empty());
  FrameId id = PeekFrame(frames[0])->id;
  std::vector<uint8_t> extra = PagePattern(5);
  std::vector<WireFrame> forged;
  for (size_t i = 0; i < decoded->objects.size(); i++) {
    const DecodedObject& obj = decoded->objects[i];
    std::vector<PageView> pages = obj.pages;
    uint64_t size = obj.size;
    if (i == 0) {
      pages.push_back(PageView{PagesOf(size), extra.data()});
      size += kPageSize;
    }
    id.seq = i;
    AppendDataFrame(id, obj.oid, size, pages, nullptr, &forged.emplace_back().bytes);
  }
  id.seq = decoded->objects.size();
  AppendCommitFrame(id, decoded->commit, &forged.emplace_back().bytes);

  Machine m;
  ReplicaLink link;
  auto* standby = static_cast<ReplicaStandby*>(
      m.sls->RegisterBackend(std::make_unique<ReplicaStandby>(&m.sim, &link)));
  for (WireFrame& f : forged) {
    ASSERT_TRUE(link.Push(std::move(f)));
  }
  standby->Pump();
  ASSERT_EQ(standby->last_applied_epoch(), 1u) << "the forged epoch validates";
  auto restored = m.sls->Restore("app", 0, RestoreMode::kFull, standby);
  ASSERT_FALSE(restored.ok());
  EXPECT_EQ(restored.status().code(), Errc::kCorrupt);
  EXPECT_TRUE(m.kernel->AllProcesses().empty());
}

}  // namespace
}  // namespace aurora
