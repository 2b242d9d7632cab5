// Google-benchmark microbenchmarks for Aurora's hot primitives.
//
// These measure *host* CPU time of the real data-structure operations (page
// copies, shadow lookups, serialization, checksums, journal formatting) —
// complementary to the simulated-time benches, and useful for catching
// implementation regressions.
#include <benchmark/benchmark.h>

#include <algorithm>

#include "bench/bench_common.h"
#include "src/base/checksum.h"
#include "src/base/rng.h"
#include "src/core/backend.h"
#include "src/core/epoch_stream.h"
#include "src/core/serialize.h"
#include "src/objstore/extent_codec.h"
#include "src/objstore/store_format.h"

namespace aurora {
namespace {

// Checkpoint-page-like input of `len` bytes: a seeded random half, then a
// repeating record, so the LZ rows find matches and the hashes see no runs
// they could shortcut.
std::vector<uint8_t> PageLikeInput(size_t len) {
  Rng rng(len);
  std::vector<uint8_t> buf(len);
  for (size_t i = 0; i < len; i++) {
    buf[i] = i < len / 2 ? static_cast<uint8_t>(rng.Next()) : static_cast<uint8_t>(i % 61);
  }
  return buf;
}

void BM_Crc32c(benchmark::State& state) {
  std::vector<uint8_t> data = PageLikeInput(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(Crc32c(data.data(), data.size()));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * state.range(0));
}
BENCHMARK(BM_Crc32c)->Arg(4096)->Arg(65536);

// The portable byte-table path Crc32c falls back to without SSE4.2.
void BM_Crc32cTableReference(benchmark::State& state) {
  std::vector<uint8_t> data = PageLikeInput(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(detail::Crc32cTable(data.data(), data.size(), 0));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * state.range(0));
}
BENCHMARK(BM_Crc32cTableReference)->Arg(4096)->Arg(65536);

void BM_ContentHash128(benchmark::State& state) {
  std::vector<uint8_t> data = PageLikeInput(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(ContentHash128(data.data(), data.size()));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * state.range(0));
}
BENCHMARK(BM_ContentHash128)->Arg(4096)->Arg(65536);

// Seeded random bytes: the LZ finder's all-literal regime.
std::vector<uint8_t> RandomInput(size_t len) {
  Rng rng(len + 1);
  std::vector<uint8_t> buf(len);
  for (uint8_t& b : buf) {
    b = static_cast<uint8_t>(rng.Next());
  }
  return buf;
}

// 64-byte log records with a sequential hex id and a seeded hex field, like
// churn_gc's record chunks: the finder's all-match regime.
std::vector<uint8_t> HexRecordInput(size_t len) {
  static constexpr char kRecord[] =
      "rec ................ field=...... status=ok                    \n";
  static constexpr char kHex[] = "0123456789abcdef";
  Rng rng(len + 2);
  const uint64_t base = rng.Next();
  std::vector<uint8_t> buf(len);
  for (size_t rec = 0; rec < len; rec += 64) {
    const uint64_t id = base + rec;
    const uint64_t field = rng.Next();
    for (size_t col = 0; col < 64 && rec + col < len; col++) {
      char c = kRecord[col];
      if (col >= 4 && col < 20) {
        c = kHex[(id >> (60 - 4 * (col - 4))) & 15];
      } else if (col >= 27 && col < 33) {
        c = kHex[(field >> (4 * (col - 27))) & 15];
      }
      buf[rec + col] = static_cast<uint8_t>(c);
    }
  }
  return buf;
}

// The stream for input with no match at all: eight literals under each 0xff
// control byte. Compress declines such input (the stream outgrows the
// block), so the literal decode path gets its stream from here.
std::vector<uint8_t> AllLiteralStream(const std::vector<uint8_t>& data) {
  std::vector<uint8_t> stream;
  for (size_t i = 0; i < data.size(); i += 8) {
    size_t n = std::min<size_t>(8, data.size() - i);
    stream.push_back(static_cast<uint8_t>((1u << n) - 1));
    stream.insert(stream.end(), data.begin() + static_cast<std::ptrdiff_t>(i),
                  data.begin() + static_cast<std::ptrdiff_t>(i + n));
  }
  return stream;
}

void RunLzCompress(benchmark::State& state, const std::vector<uint8_t>& data) {
  std::vector<uint8_t> out(data.size());
  LzExtentCodec codec;
  for (auto _ : state) {
    benchmark::DoNotOptimize(out.data());
    benchmark::DoNotOptimize(codec.Compress(data.data(), data.size(), out.data()));
    benchmark::ClobberMemory();
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(data.size()));
}

void RunLzDecompress(benchmark::State& state, const std::vector<uint8_t>& data,
                     const std::vector<uint8_t>& compressed) {
  LzExtentCodec codec;
  std::vector<uint8_t> back(data.size());
  for (auto _ : state) {
    benchmark::DoNotOptimize(back.data());
    benchmark::DoNotOptimize(
        codec.Decompress(compressed.data(), compressed.size(), back.data(), back.size()).ok());
    benchmark::ClobberMemory();
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(data.size()));
}

void BM_LzCompress(benchmark::State& state) {
  RunLzCompress(state, PageLikeInput(static_cast<size_t>(state.range(0))));
}
BENCHMARK(BM_LzCompress)->Arg(4096)->Arg(65536);

void BM_LzDecompress(benchmark::State& state) {
  std::vector<uint8_t> data = PageLikeInput(static_cast<size_t>(state.range(0)));
  std::vector<uint8_t> compressed(data.size());
  LzExtentCodec codec;
  compressed.resize(codec.Compress(data.data(), data.size(), compressed.data()));
  if (compressed.empty()) {
    state.SkipWithError("input did not compress");
    return;
  }
  RunLzDecompress(state, data, compressed);
}
BENCHMARK(BM_LzDecompress)->Arg(4096)->Arg(65536);

// One content class per row. BM_LzCompress's page-like input averages the
// two regimes, which behave very differently.
void BM_LzCompressContent(benchmark::State& state, std::vector<uint8_t> (*make)(size_t)) {
  RunLzCompress(state, make(static_cast<size_t>(state.range(0))));
}
BENCHMARK_CAPTURE(BM_LzCompressContent, random, &RandomInput)->Arg(65536);
BENCHMARK_CAPTURE(BM_LzCompressContent, hex_records, &HexRecordInput)->Arg(65536);

void BM_LzDecompressContent(benchmark::State& state, std::vector<uint8_t> (*make)(size_t)) {
  std::vector<uint8_t> data = make(static_cast<size_t>(state.range(0)));
  std::vector<uint8_t> compressed(data.size());
  LzExtentCodec codec;
  compressed.resize(codec.Compress(data.data(), data.size(), compressed.data()));
  RunLzDecompress(state, data, compressed.empty() ? AllLiteralStream(data) : compressed);
}
BENCHMARK_CAPTURE(BM_LzDecompressContent, random, &RandomInput)->Arg(65536);
BENCHMARK_CAPTURE(BM_LzDecompressContent, hex_records, &HexRecordInput)->Arg(65536);

void BM_CowFaultPromotion(benchmark::State& state) {
  SimContext sim;
  auto parent = VmObject::CreateAnonymous(4096 * kPageSize);
  uint8_t buf[kPageSize] = {1};
  for (uint64_t i = 0; i < 4096; i++) {
    parent->InstallPage(i, buf);
  }
  uint64_t i = 0;
  std::unique_ptr<VmMap> map;
  uint64_t addr = 0;
  for (auto _ : state) {
    if (i % 4096 == 0) {
      state.PauseTiming();
      // A fresh address space over a fresh shadow: a map is not assignable.
      map = std::make_unique<VmMap>(&sim);
      auto shadow = VmObject::CreateShadow(parent);
      addr = *map->Map(0x1000000, shadow->size(), kProtRead | kProtWrite, shadow, 0, false);
      state.ResumeTiming();
    }
    uint64_t v = i;
    benchmark::DoNotOptimize(map->Write(addr + (i % 4096) * kPageSize, &v, sizeof(v)).ok());
    i++;
  }
}
BENCHMARK(BM_CowFaultPromotion);

void BM_ShadowChainLookup(benchmark::State& state) {
  auto base = VmObject::CreateAnonymous(1024 * kPageSize);
  uint8_t buf[kPageSize] = {2};
  for (uint64_t i = 0; i < 1024; i++) {
    base->InstallPage(i, buf);
  }
  std::shared_ptr<VmObject> top = base;
  for (int64_t d = 0; d < state.range(0); d++) {
    top = VmObject::CreateShadow(top);
  }
  uint64_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(top->LookupChain(i % 1024).page);
    i++;
  }
}
BENCHMARK(BM_ShadowChainLookup)->Arg(1)->Arg(2)->Arg(8);

// Read faults through a two-deep shadow chain over a 20 MiB region, in a
// scattered page order: each fault walks the chain to the base, which holds
// the page, and maps it read-only. A fresh map every pass drops the
// translations the previous pass installed.
void BM_SoftFault(benchmark::State& state) {
  constexpr uint64_t kPages = 20 * kMiB / kPageSize;
  SimContext sim;
  auto base = VmObject::CreateAnonymous(kPages * kPageSize);
  std::vector<uint8_t> buf(kPageSize, 3);
  for (uint64_t i = 0; i < kPages; i++) {
    base->InstallPage(i, buf.data());
  }
  auto top = VmObject::CreateShadow(base);
  std::unique_ptr<VmMap> map;
  uint64_t addr = 0;
  uint64_t i = 0;
  for (auto _ : state) {
    if (i % kPages == 0) {
      state.PauseTiming();
      map = std::make_unique<VmMap>(&sim);
      addr = *map->Map(0x10000000, kPages * kPageSize, kProtRead | kProtWrite, top, 0, false);
      state.ResumeTiming();
    }
    // 2053 is prime and does not divide kPages: one pass visits every page.
    auto pte = map->Fault(addr + (i * 2053 % kPages) * kPageSize, /*write=*/false);
    benchmark::DoNotOptimize(pte.ok() ? *pte : nullptr);
    i++;
  }
}
BENCHMARK(BM_SoftFault);

// A promotion's copy of one 4 096-page object out of the standby's image
// table (ReplicaStandby::Materialize), and the object's release.
void BM_PromoteFromStandby(benchmark::State& state) {
  constexpr uint64_t kPages = 4096;
  SimContext sim;
  ReplicaStandby standby(&sim, nullptr);
  Oid oid = standby.NameObject(kPages * kPageSize);
  std::vector<uint8_t> bytes(kPages * kPageSize);
  for (size_t i = 0; i < bytes.size(); i++) {
    bytes[i] = static_cast<uint8_t>(i * 131 + (i >> 12));
  }
  std::vector<PageView> views;
  for (uint64_t p = 0; p < kPages; p++) {
    views.push_back(PageView{p, bytes.data() + p * kPageSize});
  }
  std::vector<uint8_t> data;
  std::vector<uint8_t> commit;
  AppendDataFrame(FrameId{1, 1, 0}, oid.value, kPages * kPageSize, views, nullptr, &data);
  AppendCommitFrame(FrameId{1, 1, 1}, EpochCommit{"gbench", "ckpt", {}, 0, 2}, &commit);
  standby.Place(WireFrame{std::move(data), 0});
  standby.Place(WireFrame{std::move(commit), 0});
  standby.ApplyReady();
  if (standby.last_applied_epoch() != 1) {
    state.SkipWithError("the image epoch did not apply");
    return;
  }
  for (auto _ : state) {
    uint64_t pages = 0;
    auto obj = standby.Materialize(oid.value, kPages * kPageSize, &pages);
    benchmark::DoNotOptimize(obj.ok() ? obj->get() : nullptr);
    benchmark::DoNotOptimize(pages);
  }
}
BENCHMARK(BM_PromoteFromStandby);

void BM_SerializeOsState(benchmark::State& state) {
  BenchMachine m(2 * kGiB);
  AppProfile profile{"gbench", 8 * kMiB, 1, 4, 64, 32, 1};
  auto procs = BuildAppProfile(m, profile);
  ConsistencyGroup* group = *m.sls->CreateGroup("gbench");
  for (Process* p : procs) {
    AURORA_IGNORE_STATUS(m.sls->Attach(group, p), "attaching a freshly created process to its group cannot fail here");
  }
  auto ensure = [&m](VmObject* obj) {
    if (obj->sls_oid() == 0) {
      obj->set_sls_oid((*m.store->CreateObject(ObjType::kMemory, obj->size())).value);
    }
    return Oid{obj->sls_oid()};
  };
  for (auto _ : state) {
    SerializeStats stats;
    auto blob = SerializeOsState(&m.sim, *group, 1, kInvalidOid, ensure, &stats);
    benchmark::DoNotOptimize(blob.ok());
  }
}
BENCHMARK(BM_SerializeOsState);

void BM_JournalRecordFormat(benchmark::State& state) {
  std::vector<uint8_t> payload(static_cast<size_t>(state.range(0)), 0x3d);
  for (auto _ : state) {
    std::vector<uint8_t> record =
        EncodeJournalRecord(1, 2, payload.data(), payload.size(), kPageSize);
    benchmark::DoNotOptimize(record.data());
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * state.range(0));
}
BENCHMARK(BM_JournalRecordFormat)->Arg(4096);

}  // namespace
}  // namespace aurora

// Expanded BENCHMARK_MAIN so the run also leaves a BENCH_micro_gbench.json
// behind (machines constructed by the fixtures feed its metrics section).
int main(int argc, char** argv) {
  aurora::BenchReport report("micro_gbench");
  ::benchmark::Initialize(&argc, argv);
  if (::benchmark::ReportUnrecognizedArguments(argc, argv)) {
    return 1;
  }
  ::benchmark::RunSpecifiedBenchmarks();
  ::benchmark::Shutdown();
  return 0;
}
