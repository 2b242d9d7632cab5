// The object store's on-media formats (src/objstore/store_format.h).
//
// Four regression tests pin decoder crashes found by an ASan+UBSan probe:
// a zero store block size (division by zero at mount), a 2^62-byte
// metadata length (an allocation abort at mount), an extent whose stored
// length exceeds its store block (a heap overflow in the scrubber and the
// compactor), and a journal record length that wraps the record span (a
// length_error in replay).
//
// A seeded mutation harness then damages the superblock, the journal header
// and record, and a metadata blob from a store holding LZ, dedup-hit,
// GC-relocated and journal extents. CRC-sealed formats are resealed, so
// mutants reach the semantic checks. Every mutant must decode to a typed
// error or to a value that encodes and decodes back to itself. Same-length
// metadata mutants are also written back to the device, where mounting,
// scrubbing and reading every object at every retained epoch must all
// return typed results.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <limits>
#include <string>
#include <vector>

#include "src/base/checksum.h"
#include "src/objstore/scrubber.h"
#include "src/objstore/store_format.h"
#include "tests/mutation_harness.h"
#include "tests/store_fixture.h"

namespace aurora {
namespace {

using mutation::kForgedCounts;
using mutation::Tally;

constexpr size_t kSealBytes = sizeof(uint32_t);

// Rewrites the CRC32C that ends the sealed span [0, seal_end) of `b`.
void Reseal(std::vector<uint8_t>* b, size_t seal_end) {
  uint32_t crc = Crc32c(b->data(), seal_end - kSealBytes);
  for (size_t i = 0; i < kSealBytes; i++) {
    (*b)[seal_end - kSealBytes + i] = static_cast<uint8_t>(crc >> (8 * i));
  }
}

std::vector<uint8_t> ReadDevice(BlockDevice* dev, uint64_t lba, size_t len) {
  const uint32_t bs = dev->block_size();
  std::vector<uint8_t> out((len + bs - 1) / bs * bs);
  EXPECT_TRUE(dev->ReadSync(lba, out.data(), static_cast<uint32_t>(out.size() / bs)).ok());
  out.resize(len);
  return out;
}

// Writes `bytes` at `lba`, keeping whatever follows them in their last block.
void WriteDevice(BlockDevice* dev, uint64_t lba, const std::vector<uint8_t>& bytes) {
  const uint32_t bs = dev->block_size();
  std::vector<uint8_t> buf = ReadDevice(dev, lba, (bytes.size() + bs - 1) / bs * bs);
  std::copy(bytes.begin(), bytes.end(), buf.begin());
  EXPECT_TRUE(dev->WriteSync(lba, buf.data(), static_cast<uint32_t>(buf.size() / bs)).ok());
}

// Every slot of the superblock ring that decodes, by slot.
std::vector<std::pair<uint64_t, Superblock>> ValidSlots(BlockDevice* dev) {
  std::vector<std::pair<uint64_t, Superblock>> out;
  for (uint64_t slot = 0; slot < kSuperSlots; slot++) {
    std::vector<uint8_t> block = ReadDevice(dev, slot, dev->block_size());
    auto sb = DecodeSuperblock(block.data(), block.size(), dev->block_size(), dev->block_count());
    if (sb.ok()) {
      out.emplace_back(slot, *sb);
    }
  }
  return out;
}

Superblock Newest(BlockDevice* dev) {
  auto slots = ValidSlots(dev);
  EXPECT_FALSE(slots.empty());
  auto newest = std::max_element(slots.begin(), slots.end(), [](const auto& a, const auto& b) {
    return a.second.epoch < b.second.epoch;
  });
  return newest->second;
}

uint64_t MetaLba(const Superblock& sb, uint32_t dev_bs) {
  return sb.meta_block * (sb.block_size / dev_bs);
}

std::vector<uint8_t> ReadMetaBlob(BlockDevice* dev, const Superblock& sb) {
  return ReadDevice(dev, MetaLba(sb, dev->block_size()), sb.meta_len);
}

StoreMeta DecodeNewestMeta(BlockDevice* dev) {
  Superblock sb = Newest(dev);
  std::vector<uint8_t> blob = ReadMetaBlob(dev, sb);
  auto meta = DecodeMeta(blob.data(), blob.size(), sb.block_size, sb.total_blocks);
  EXPECT_TRUE(meta.ok()) << meta.status().message();
  return std::move(*meta);
}

// Rewrites every decodable superblock slot after `edit` changes its fields.
template <typename Edit>
void RewriteSlots(BlockDevice* dev, Edit edit) {
  for (auto [slot, sb] : ValidSlots(dev)) {
    edit(&sb);
    WriteDevice(dev, slot, EncodeSuperblock(sb));
  }
}

// --- Regression tests: four decoder crashes -----------------------------------

TEST(StoreFormatRepro, ZeroStoreBlockSizeIsCorrupt) {
  auto f = BuildFixtureStore();
  RewriteSlots(f->device.get(), [](Superblock* sb) { sb->block_size = 0; });
  std::vector<uint8_t> slot = ReadDevice(f->device.get(), 1, f->device->block_size());
  auto decoded = DecodeSuperblock(slot.data(), slot.size(), f->device->block_size(),
                                  f->device->block_count());
  EXPECT_EQ(decoded.status().code(), Errc::kCorrupt);
  auto opened = ObjectStore::Open(f->device.get(), &f->sim);
  EXPECT_EQ(opened.status().code(), Errc::kCorrupt);
}

TEST(StoreFormatRepro, HugeMetaLengthIsCorrupt) {
  auto f = BuildFixtureStore();
  RewriteSlots(f->device.get(), [](Superblock* sb) { sb->meta_len = uint64_t{1} << 62; });
  mutation::g_largest_alloc = 0;
  auto opened = ObjectStore::Open(f->device.get(), &f->sim);
  EXPECT_EQ(opened.status().code(), Errc::kCorrupt);
  EXPECT_LE(mutation::g_largest_alloc, FixtureStore::kBlock);
}

// Makes the first compressed extent of `meta` claim two store blocks.
void OversizeAnExtent(StoreMeta* meta) {
  for (auto& [oid, info] : meta->objects) {
    for (auto& [logical, extent] : info.extents) {
      if (extent.stored_len != 0) {
        extent.stored_len = 2 * FixtureStore::kBlock;
        return;
      }
    }
  }
  ADD_FAILURE() << "the fixture holds no compressed extent";
}

TEST(StoreFormatRepro, StoredLengthPastItsBlockIsCorrupt) {
  auto f = BuildFixtureStore();
  BlockDevice* dev = f->device.get();
  // Damage the newest blob and one the directory still lists: the mount
  // falls back past the first, and the scrubber and historic reads meet
  // the second.
  Superblock newest = Newest(dev);
  StoreMeta meta = DecodeNewestMeta(dev);
  ASSERT_GE(meta.checkpoints.size(), 2u);
  const CheckpointRecord& old = meta.checkpoints[meta.checkpoints.size() - 2];
  Superblock old_sb = newest;
  old_sb.meta_block = old.meta_block;
  old_sb.meta_len = old.meta_len;
  for (const Superblock& sb : {newest, old_sb}) {
    std::vector<uint8_t> blob = ReadMetaBlob(dev, sb);
    StoreMeta m = *DecodeMeta(blob.data(), blob.size(), sb.block_size, sb.total_blocks);
    OversizeAnExtent(&m);
    std::vector<uint8_t> bad = EncodeMeta(m);
    ASSERT_EQ(bad.size(), blob.size());
    EXPECT_EQ(DecodeMeta(bad.data(), bad.size(), sb.block_size, sb.total_blocks).status().code(),
              Errc::kCorrupt);
    WriteDevice(dev, MetaLba(sb, dev->block_size()), bad);
  }
  auto store = ObjectStore::Open(dev, &f->sim);
  ASSERT_TRUE(store.ok()) << store.status().message();
  EXPECT_LT((*store)->ListCheckpoints().back().epoch, newest.epoch);
  auto report = Scrubber(store->get()).ScrubAll();
  ASSERT_TRUE(report.ok());
  EXPECT_FALSE(report->clean());
  EXPECT_EQ((*store)->TableAt(old.epoch).status().code(), Errc::kCorrupt);
}

TEST(StoreFormatRepro, WrappingJournalRecordLengthIsCorrupt) {
  auto f = BuildFixtureStore();
  BlockDevice* dev = f->device.get();
  const uint32_t dev_bs = dev->block_size();
  StoreMeta meta = DecodeNewestMeta(dev);
  const ObjectInfo& journal = meta.objects.at(f->journal);
  uint64_t record_lba = journal.journal_start * (FixtureStore::kBlock / dev_bs) + 1;
  std::vector<uint8_t> record = ReadDevice(dev, record_lba, dev_bs);
  mutation::PutLe64(&record, 20, std::numeric_limits<uint64_t>::max());  // the length field
  EXPECT_EQ(DecodeJournalRecordHead(record.data(), record.size(), dev_bs).status().code(),
            Errc::kCorrupt);
  WriteDevice(dev, record_lba, record);

  auto replayed = f->store->JournalReplay(f->journal);
  ASSERT_TRUE(replayed.ok());
  EXPECT_TRUE(replayed->empty());
  auto store = ObjectStore::Open(dev, &f->sim);
  ASSERT_TRUE(store.ok()) << store.status().message();
  auto after_mount = (*store)->JournalReplay(f->journal);
  ASSERT_TRUE(after_mount.ok());
  EXPECT_TRUE(after_mount->empty());
}

// --- Mutation harness ------------------------------------------------------------

// Counts one decode outcome: a typed rejection, or a value that survives
// an encode/decode round trip unchanged.
template <typename Value, typename Decode, typename Encode>
void TallyDecode(Tally* tally, const std::vector<uint8_t>& bytes, Decode decode, Encode encode) {
  try {
    Result<Value> v = decode(bytes);
    if (!v.ok()) {
      Errc code = v.status().code();
      tally->Add(code == Errc::kCorrupt || code == Errc::kNotSupported ? "rejected" : "untyped");
      return;
    }
    std::vector<uint8_t> again = encode(*v);
    Result<Value> back = decode(again);
    tally->Add(back.ok() && *back == *v ? "round_trip" : "not_round_trip");
  } catch (const std::exception&) {
    tally->Add("crashed");
  }
}

void ExpectAllTyped(const Tally& tally, const char* what) {
  std::fprintf(stderr, "%s: %llu mutants:%s\n", what,
               static_cast<unsigned long long>(tally.Total()), tally.Summary().c_str());
  EXPECT_EQ(tally["rejected"] + tally["round_trip"], tally.Total()) << what << tally.Summary();
}

// Flips (resealed at `seal_end` when nonzero), every truncation, appends,
// and forged values in the u64 fields at `u64_offsets`.
std::vector<std::vector<uint8_t>> MakeMutants(const std::vector<uint8_t>& base, uint64_t seed,
                                              size_t seal_end,
                                              const std::vector<size_t>& u64_offsets) {
  std::vector<std::vector<uint8_t>> out;
  Rng rng(seed);
  auto sealed = [seal_end](std::vector<uint8_t> m) {
    if (seal_end != 0 && m.size() >= seal_end) {
      Reseal(&m, seal_end);
    }
    return m;
  };
  for (int i = 0; i < 3000; i++) {
    std::vector<uint8_t> m = base;
    mutation::FlipBytes(rng, &m);
    out.push_back(sealed(std::move(m)));
  }
  for (size_t len = 0; len < base.size(); len++) {
    out.push_back(mutation::Truncated(base, len));
  }
  for (int i = 0; i < 64; i++) {
    std::vector<uint8_t> grown = mutation::Appended(rng, base);
    out.push_back(grown);
    if (seal_end == base.size()) {
      Reseal(&grown, grown.size());  // the seal moved to cover the appended bytes
      out.push_back(std::move(grown));
    }
  }
  for (size_t off : u64_offsets) {
    for (uint64_t v : {kForgedCounts[0], kForgedCounts[1], ~uint64_t{0}}) {
      out.push_back(sealed(mutation::WithU64(base, off, v)));
    }
  }
  return out;
}

TEST(StoreFormatMutation, SuperblockMutantsAreTypedOrRoundTrip) {
  auto f = BuildFixtureStore();
  const uint32_t dev_bs = f->device->block_size();
  const uint64_t dev_blocks = f->device->block_count();
  std::vector<uint8_t> base = EncodeSuperblock(Newest(f->device.get()));
  ASSERT_EQ(base.size(), 120u);
  // u64 epoch, total_blocks, meta_block, meta_len and committed_at.
  auto mutants = MakeMutants(base, 0x73757062, base.size(), {8, 20, 28, 36, 44});
  Tally tally;
  for (const auto& m : mutants) {
    TallyDecode<Superblock>(
        &tally, m,
        [&](const std::vector<uint8_t>& b) {
          return DecodeSuperblock(b.data(), b.size(), dev_bs, dev_blocks);
        },
        [](const Superblock& sb) { return EncodeSuperblock(sb); });
  }
  ExpectAllTyped(tally, "superblock");
}

TEST(StoreFormatMutation, JournalHeaderMutantsAreTypedOrRoundTrip) {
  const uint32_t dev_bs = 4096;
  std::vector<uint8_t> base = EncodeJournalHeader(7, dev_bs);
  base.resize(16);  // magic, generation, CRC; the rest is padding
  // The header's CRC covers the generation only: reseal bytes [4, 16).
  auto reseal = [](std::vector<uint8_t> m) {
    if (m.size() >= 16) {
      uint32_t crc = Crc32c(m.data() + 4, 8);
      for (size_t i = 0; i < kSealBytes; i++) {
        m[12 + i] = static_cast<uint8_t>(crc >> (8 * i));
      }
    }
    return m;
  };
  Tally tally;
  for (auto m : MakeMutants(base, 0x6a686472, 0, {4})) {
    for (const auto& variant : {m, reseal(m)}) {
      TallyDecode<uint64_t>(
          &tally, variant,
          [](const std::vector<uint8_t>& b) { return DecodeJournalHeader(b.data(), b.size()); },
          [dev_bs](uint64_t gen) { return EncodeJournalHeader(gen, dev_bs); });
    }
  }
  ExpectAllTyped(tally, "journal header");
}

struct DecodedRecord {
  JournalRecordHead head;
  std::vector<uint8_t> payload;
  bool operator==(const DecodedRecord&) const = default;
};

TEST(StoreFormatMutation, JournalRecordMutantsAreTypedOrRoundTrip) {
  const uint32_t dev_bs = 4096;
  std::vector<uint8_t> payload(100);
  for (size_t i = 0; i < payload.size(); i++) {
    payload[i] = static_cast<uint8_t>(i * 37 + 5);
  }
  std::vector<uint8_t> base = EncodeJournalRecord(3, 9, payload.data(), payload.size(), dev_bs);
  base.resize(kJournalRecordHeaderBytes + payload.size());
  // The record's CRC (at 28) covers its payload: reseal it for the payload
  // the (possibly damaged) length field names, when that fits.
  auto reseal = [](std::vector<uint8_t> m) {
    if (m.size() >= kJournalRecordHeaderBytes) {
      uint64_t len = mutation::GetLe64(m, 20);
      if (len <= m.size() - kJournalRecordHeaderBytes) {
        uint32_t crc = Crc32c(m.data() + kJournalRecordHeaderBytes, len);
        for (size_t i = 0; i < kSealBytes; i++) {
          m[28 + i] = static_cast<uint8_t>(crc >> (8 * i));
        }
      }
    }
    return m;
  };
  auto decode = [dev_bs](const std::vector<uint8_t>& b) -> Result<DecodedRecord> {
    AURORA_ASSIGN_OR_RETURN(JournalRecordHead head,
                            DecodeJournalRecordHead(b.data(), b.size(), dev_bs));
    AURORA_ASSIGN_OR_RETURN(std::vector<uint8_t> body,
                            DecodeJournalPayload(head, b.data(), b.size()));
    return DecodedRecord{head, std::move(body)};
  };
  auto encode = [dev_bs](const DecodedRecord& r) {
    return EncodeJournalRecord(r.head.gen, r.head.seq, r.payload.data(), r.payload.size(),
                               dev_bs);
  };
  Tally tally;
  // u64 generation, sequence number and length.
  for (auto m : MakeMutants(base, 0x6a726563, 0, {4, 12, 20})) {
    for (const auto& variant : {m, reseal(m)}) {
      TallyDecode<DecodedRecord>(&tally, variant, decode, encode);
    }
  }
  ExpectAllTyped(tally, "journal record");
}

// Offsets of the metadata blob's count and length fields, walking `m` in
// the order EncodeMeta writes it.
std::vector<size_t> MetaCountOffsets(const StoreMeta& m) {
  std::vector<size_t> out;
  size_t at = 4 + 8 + 8;
  out.push_back(at);  // objects
  at += 8;
  for (const auto& [oid, info] : m.objects) {
    at += 8 + 1 + 8 + 1 + 8 + 8 + 8;
    out.push_back(at);  // extents
    at += 8 + info.extents.size() * (8 + 8 + 8 + 4 + 4 + 1);
  }
  out.push_back(at);  // deadlists
  at += 8;
  for (const auto& [epoch, entries] : m.deadlists) {
    out.push_back(at + 8);  // entries
    at += 16 + entries.size() * (8 + 8 + 4 + 4);
  }
  out.push_back(at);  // checkpoints
  at += 8;
  for (const CheckpointRecord& c : m.checkpoints) {
    out.push_back(at + 8);  // name length
    at += 8 + 8 + c.name.size() + 8 + 8 + 8;
  }
  at += 1 + 4;  // layout, segment_blocks
  out.push_back(at);  // relocation entries
  at += 8 + m.reloc.size() * 24;
  out.push_back(at);  // open data segments
  at += 8 + m.open_data_seg.size() * 12;
  out.push_back(at);  // quarantined segments
  at += 8 + m.quarantined.size() * 8 + 1 + 1;
  out.push_back(at);  // dedup entries
  return out;
}

// Mounts the device, scrubs it and reads every object at every retained
// epoch, counting each step's outcome. Any Status is typed; only a thrown
// exception (or a crash, which ends the test) is not.
void ExerciseDevice(FixtureStore* f, Tally* tally) {
  try {
    auto store = ObjectStore::Open(f->device.get(), &f->sim);
    if (!store.ok()) {
      tally->Add("mount_rejected");
      return;
    }
    tally->Add("mounted");
    ObjectStore* s = store->get();
    auto report = Scrubber(s).ScrubAll();
    tally->Add(report.ok() && report->clean() ? "scrub_clean" : "scrub_found_damage");
    std::vector<uint8_t> block(FixtureStore::kBlock);
    for (const CheckpointInfo& c : s->ListCheckpoints()) {
      auto table = s->TableAt(c.epoch);
      if (!table.ok()) {
        tally->Add("epoch_rejected");
        continue;
      }
      for (const auto& [oid, info] : **table) {
        for (const auto& [logical, extent] : info.extents) {
          if (logical >= (uint64_t{1} << 40)) {
            continue;  // a damaged key past any offset a read can name
          }
          Status read = s->ReadAtEpoch(c.epoch, oid, logical * FixtureStore::kBlock,
                                       block.data(), block.size());
          tally->Add(read.ok() ? "read_ok" : "read_rejected");
        }
      }
    }
  } catch (const std::exception&) {
    tally->Add("crashed");
  }
}

// The blob persists no table sized by the device: the same script commits
// blobs of one length on a 64 MiB and a 1 GiB device.
TEST(StoreFormat, BlobSizeDoesNotDependOnTheDevice) {
  auto newest_meta_len = [](uint64_t device_bytes) {
    SimContext sim;
    MemBlockDevice device(&sim.clock, device_bytes / kPageSize);
    StoreOptions options;
    options.block_size = FixtureStore::kBlock;
    auto store = *ObjectStore::Format(&device, &sim, options);
    Oid oid = *store->CreateObject(ObjType::kMemory);
    for (int i = 0; i < 4; i++) {
      std::vector<uint8_t> block = TextBlock(i);
      EXPECT_TRUE(store->WriteAt(oid, i * block.size(), block.data(), block.size()).ok());
      EXPECT_TRUE(store->CommitCheckpoint("c" + std::to_string(i)).ok());
    }
    return Newest(&device).meta_len;
  };
  EXPECT_EQ(newest_meta_len(64 * kMiB), newest_meta_len(kGiB));
}

// The allocator's state is rebuilt from the blob's tables, so a blob whose
// tables give one segment two roles must not mount: the mount falls back to
// the previous epoch without a single lifecycle violation.
TEST(StoreFormat, BlobGivingASegmentTwoRolesDoesNotMount) {
  auto first_extent = [](StoreMeta* m) -> Extent* {
    for (auto& [oid, info] : m->objects) {
      if (!info.extents.empty()) {
        return &info.extents.begin()->second;
      }
    }
    return nullptr;
  };
  const std::pair<const char*, void (*)(StoreMeta*, Extent*)> cases[] = {
      {"data extent in the superblock ring", [](StoreMeta*, Extent* e) { e->phys = 0; }},
      {"open data segment on the ring's meta segment",
       [](StoreMeta* m, Extent*) { m->open_data_seg.begin()->second = 0; }},
      {"journal run over a data extent",
       [](StoreMeta* m, Extent* e) {
         for (auto& [oid, info] : m->objects) {
           if (info.non_cow) {
             info.journal_start = e->phys;
           }
         }
       }},
      {"quarantined meta segment", [](StoreMeta* m, Extent*) { m->quarantined = {0}; }},
  };
  for (const auto& [what, damage] : cases) {
    SCOPED_TRACE(what);
    auto f = BuildFixtureStore();
    BlockDevice* dev = f->device.get();
    const Superblock newest = Newest(dev);
    StoreMeta meta = DecodeNewestMeta(dev);
    ASSERT_FALSE(meta.open_data_seg.empty());
    damage(&meta, first_extent(&meta));
    std::vector<uint8_t> bad = EncodeMeta(meta);
    ASSERT_TRUE(DecodeMeta(bad.data(), bad.size(), newest.block_size, newest.total_blocks).ok());
    RewriteSlots(dev, [&](Superblock* sb) {
      if (sb->epoch == newest.epoch) {
        sb->meta_len = bad.size();
      }
    });
    WriteDevice(dev, MetaLba(newest, dev->block_size()), bad);
    auto store = ObjectStore::Open(dev, &f->sim);
    ASSERT_TRUE(store.ok()) << store.status().message();
    EXPECT_LT((*store)->ListCheckpoints().back().epoch, newest.epoch);
    EXPECT_EQ(f->sim.metrics.counter("store.bad_seg_transitions").value(), 0u);
  }
}

TEST(StoreFormatMutation, MetaBlobMutantsAreTypedOrRoundTripAndMountTyped) {
  auto f = BuildFixtureStore();
  BlockDevice* dev = f->device.get();
  const Superblock sb = Newest(dev);
  StoreMeta meta = DecodeNewestMeta(dev);
  // The blob carries every record kind the store writes.
  bool lz = false;
  bool journal = false;
  for (const auto& [oid, info] : meta.objects) {
    journal |= info.non_cow;
    for (const auto& [logical, extent] : info.extents) {
      lz |= extent.stored_len != 0;
    }
  }
  bool shared = std::any_of(meta.dedup_index.begin(), meta.dedup_index.end(),
                            [](const auto& e) { return e.second.refs > 1; });
  ASSERT_TRUE(lz && journal && shared);
  ASSERT_FALSE(meta.reloc.empty() || meta.deadlists.empty());

  // The harness base is the blob re-encoded in the decoded table's order,
  // which MetaCountOffsets walks; it is the same length as the original.
  const std::vector<uint8_t> original = ReadMetaBlob(dev, sb);
  const std::vector<uint8_t> base = EncodeMeta(meta);
  ASSERT_EQ(base.size(), original.size());
  const uint64_t lba = MetaLba(sb, dev->block_size());
  auto mutants = MakeMutants(base, 0x6d657461, base.size(), MetaCountOffsets(meta));

  Tally decoded;
  Tally mounted;
  size_t largest_alloc = 0;
  f->store.reset();
  for (const auto& m : mutants) {
    mutation::g_largest_alloc = 0;
    AURORA_IGNORE_STATUS(DecodeMeta(m.data(), m.size(), sb.block_size, sb.total_blocks),
                         "probes the decoder's largest allocation; TallyDecode checks the result");
    largest_alloc = std::max(largest_alloc, mutation::g_largest_alloc);
    TallyDecode<StoreMeta>(
        &decoded, m,
        [&](const std::vector<uint8_t>& b) {
          return DecodeMeta(b.data(), b.size(), sb.block_size, sb.total_blocks);
        },
        [](const StoreMeta& v) { return EncodeMeta(v); });
    if (m.size() == base.size()) {
      WriteDevice(dev, lba, m);
      ExerciseDevice(f.get(), &mounted);
    }
  }
  WriteDevice(dev, lba, original);
  ExpectAllTyped(decoded, "meta blob");
  std::fprintf(stderr, "meta blob on the device:%s\n", mounted.Summary().c_str());
  EXPECT_EQ(mounted["crashed"], 0u) << mounted.Summary();
  EXPECT_GT(mounted["mounted"], 0u);
  // Every mount rebuilt the segment table through the lifecycle graph
  // without one move outside it.
  EXPECT_EQ(f->sim.metrics.counter("store.bad_seg_transitions").value(), 0u);
  std::fprintf(stderr, "meta blob largest allocation: %zu of a %zu-byte blob\n", largest_alloc,
               base.size());
  // No decode allocates much more than its input. The bound dates from the
  // segment table (13 bytes on media, 16 in memory), which the blob no
  // longer carries; it is kept as it was.
  EXPECT_LE(largest_alloc, base.size() * 16 / 13 + 64);
}

}  // namespace
}  // namespace aurora
