// Google-benchmark microbenchmarks for Aurora's hot primitives.
//
// These measure *host* CPU time of the real data-structure operations (page
// copies, shadow lookups, serialization, checksums, journal formatting) —
// complementary to the simulated-time benches, and useful for catching
// implementation regressions.
#include <benchmark/benchmark.h>

#include "bench/bench_common.h"
#include "src/base/checksum.h"
#include "src/base/rng.h"
#include "src/base/serializer.h"
#include "src/core/serialize.h"
#include "src/objstore/extent_codec.h"

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

void BM_LzCompress(benchmark::State& state) {
  std::vector<uint8_t> data = PageLikeInput(static_cast<size_t>(state.range(0)));
  std::vector<uint8_t> out(data.size());
  LzExtentCodec codec;
  for (auto _ : state) {
    benchmark::DoNotOptimize(out.data());
    benchmark::DoNotOptimize(codec.Compress(data.data(), data.size(), out.data()));
    benchmark::ClobberMemory();
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * state.range(0));
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
  std::vector<uint8_t> back(data.size());
  for (auto _ : state) {
    benchmark::DoNotOptimize(back.data());
    benchmark::DoNotOptimize(
        codec.Decompress(compressed.data(), compressed.size(), back.data(), back.size()).ok());
    benchmark::ClobberMemory();
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * state.range(0));
}
BENCHMARK(BM_LzDecompress)->Arg(4096)->Arg(65536);

void BM_CowFaultPromotion(benchmark::State& state) {
  SimContext sim;
  VmMap map(&sim);
  auto parent = VmObject::CreateAnonymous(4096 * kPageSize);
  uint8_t buf[kPageSize] = {1};
  for (uint64_t i = 0; i < 4096; i++) {
    parent->InstallPage(i, buf);
  }
  uint64_t i = 0;
  std::shared_ptr<VmObject> shadow;
  uint64_t addr = 0;
  for (auto _ : state) {
    if (i % 4096 == 0) {
      state.PauseTiming();
      shadow = VmObject::CreateShadow(parent);
      map = VmMap(&sim);
      addr = *map.Map(0x1000000, shadow->size(), kProtRead | kProtWrite, shadow, 0, false);
      state.ResumeTiming();
    }
    uint64_t v = i;
    benchmark::DoNotOptimize(map.Write(addr + (i % 4096) * kPageSize, &v, sizeof(v)).ok());
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
    BinaryWriter w;
    w.PutU32(0x4155524a);
    w.PutU64(1);
    w.PutU64(2);
    w.PutU64(payload.size());
    w.PutU32(Crc32c(payload.data(), payload.size()));
    w.PutRaw(payload.data(), payload.size());
    benchmark::DoNotOptimize(w.data().data());
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
