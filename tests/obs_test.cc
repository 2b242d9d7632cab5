// Tests for the observability layer: metric primitive semantics, span
// tracing, the JSON exporter, and end-to-end instrumentation of a real
// checkpoint (phase spans present, counters consistent with device traffic).
#include <gtest/gtest.h>

#include <cstring>

#include "src/base/sim_context.h"
#include "src/core/cli.h"
#include "src/core/sls.h"
#include "src/fs/aurora_fs.h"
#include "src/objstore/object_store.h"
#include "src/obs/json.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/storage/block_device.h"

namespace aurora {
namespace {

// --- Primitives --------------------------------------------------------------

TEST(Metrics, CounterAndGaugeSemantics) {
  MetricsRegistry reg;
  reg.counter("a.events").Add();
  reg.counter("a.events").Add(41);
  EXPECT_EQ(reg.CounterValue("a.events"), 42u);
  EXPECT_EQ(reg.CounterValue("never.recorded"), 0u);

  reg.gauge("a.level").Set(10);
  reg.gauge("a.level").Add(5);
  reg.gauge("a.level").Sub(20);
  EXPECT_EQ(reg.GaugeValue("a.level"), -5);
  EXPECT_EQ(reg.GaugeValue("never.recorded"), 0);

  // References are stable: a hot path can cache them across inserts.
  Counter& cached = reg.counter("a.events");
  for (int i = 0; i < 100; i++) {
    reg.counter("churn." + std::to_string(i)).Add();
  }
  cached.Add();
  EXPECT_EQ(reg.CounterValue("a.events"), 43u);

  reg.Reset();
  EXPECT_EQ(reg.CounterValue("a.events"), 0u);
  EXPECT_EQ(reg.GaugeValue("a.level"), 0);
}

TEST(Metrics, HistogramBasics) {
  SimHistogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.Min(), 0u);
  EXPECT_EQ(h.Max(), 0u);
  EXPECT_EQ(h.MeanNanos(), 0.0);

  h.Record(100);
  h.Record(200);
  h.Record(300);
  EXPECT_EQ(h.count(), 3u);
  EXPECT_EQ(h.sum(), 600u);
  EXPECT_EQ(h.Min(), 100u);
  EXPECT_EQ(h.Max(), 300u);
  EXPECT_DOUBLE_EQ(h.MeanNanos(), 200.0);
}

TEST(Metrics, HistogramPercentilesBoundTheSamples) {
  SimHistogram h;
  for (uint64_t v = 1; v <= 1000; v++) {
    h.Record(v * kMicrosecond);
  }
  // Log-bucketed: percentiles are bucket upper bounds, so they can overshoot
  // the exact sample by at most one sub-bucket width (1/32 of the value).
  SimDuration p50 = h.Percentile(50);
  SimDuration p99 = h.Percentile(99);
  EXPECT_GE(p50, 500 * kMicrosecond);
  EXPECT_LE(p50, 520 * kMicrosecond);
  EXPECT_GE(p99, 990 * kMicrosecond);
  EXPECT_LE(p99, 1030 * kMicrosecond);
  EXPECT_LE(h.Percentile(0), h.Percentile(50));
  EXPECT_LE(h.Percentile(50), h.Percentile(100));
  EXPECT_EQ(h.Percentile(100), h.Percentile(99.99));
}

TEST(Metrics, HistogramMerge) {
  SimHistogram a;
  SimHistogram b;
  a.Record(10);
  a.Record(20);
  b.Record(5);
  b.Record(40);
  a.Merge(b);
  EXPECT_EQ(a.count(), 4u);
  EXPECT_EQ(a.sum(), 75u);
  EXPECT_EQ(a.Min(), 5u);
  EXPECT_EQ(a.Max(), 40u);

  a.Reset();
  EXPECT_EQ(a.count(), 0u);
  EXPECT_EQ(a.sum(), 0u);
  EXPECT_EQ(a.Max(), 0u);
  EXPECT_EQ(a.Percentile(99), 0u);
  a.Record(7);  // buckets were cleared too, not just the summary fields
  EXPECT_EQ(a.Percentile(100), 7u);
}

// --- Span tracer -------------------------------------------------------------

TEST(Trace, SpansCarryScopeAndTimestamps) {
  SimClock clock;
  SpanTracer tracer(&clock);

  uint64_t s1 = tracer.NewScope();
  size_t a = tracer.Begin("phase.a");
  clock.Advance(10 * kMicrosecond);
  tracer.End(a);
  size_t b = tracer.Begin("phase.b");
  tracer.EndAt(b, clock.now() + 5 * kMillisecond);  // async completion

  uint64_t s2 = tracer.NewScope();
  size_t c = tracer.Begin("phase.a");
  tracer.End(c);

  auto in1 = tracer.SpansInScope(s1);
  ASSERT_EQ(in1.size(), 2u);
  EXPECT_EQ(in1[0].name, "phase.a");
  EXPECT_EQ(in1[0].duration(), 10 * kMicrosecond);
  EXPECT_EQ(in1[1].name, "phase.b");
  EXPECT_EQ(in1[1].duration(), 5 * kMillisecond);
  EXPECT_GT(in1[1].end, clock.now());

  ASSERT_EQ(tracer.SpansInScope(s2).size(), 1u);
  EXPECT_EQ(tracer.SpansNamed("phase.a").size(), 2u);
  EXPECT_EQ(tracer.dropped(), 0u);
}

TEST(Trace, RingTrimsOldSpansButKeepsHandlesValid) {
  SimClock clock;
  SpanTracer tracer(&clock);
  const size_t kOverfill = (1 << 16) + 1000;
  size_t last = 0;
  for (size_t i = 0; i < kOverfill; i++) {
    last = tracer.Begin("s");
    tracer.End(last);
  }
  EXPECT_GT(tracer.dropped(), 0u);
  EXPECT_LE(tracer.spans().size(), size_t{1} << 16);
  // The newest handle must remain addressable after the trim.
  tracer.EndAt(last, clock.now() + 1);
  EXPECT_EQ(tracer.spans().back().end, clock.now() + 1);
}

// --- JSON exporter -----------------------------------------------------------

TEST(Json, WriterProducesWellFormedOutput) {
  JsonWriter w;
  w.BeginObject();
  w.Key("str");
  w.Value("a\"b\\c\nd");
  w.Key("num");
  w.Value(uint64_t{18446744073709551615ull});
  w.Key("neg");
  w.Value(int64_t{-7});
  w.Key("arr");
  w.BeginArray();
  w.Value(true);
  w.Value(1.5);
  w.EndArray();
  w.EndObject();
  std::string out = w.str();
  EXPECT_NE(out.find("\"str\": \"a\\\"b\\\\c\\nd\""), std::string::npos);
  EXPECT_NE(out.find("18446744073709551615"), std::string::npos);
  EXPECT_NE(out.find("-7"), std::string::npos);
  EXPECT_NE(out.find("true"), std::string::npos);
  EXPECT_NE(out.find("1.5"), std::string::npos);
}

TEST(Json, MetricsExportContainsAllSections) {
  SimClock clock;
  MetricsRegistry reg;
  SpanTracer tracer(&clock);
  reg.counter("x.count").Add(3);
  reg.gauge("x.level").Set(-2);
  reg.histogram("x.lat").Record(5 * kMicrosecond);
  tracer.NewScope();
  size_t h = tracer.Begin("x.phase");
  clock.Advance(kMicrosecond);
  tracer.End(h);

  std::string json = MetricsToJson(reg, tracer);
  EXPECT_NE(json.find("\"counters\""), std::string::npos);
  EXPECT_NE(json.find("\"x.count\": 3"), std::string::npos);
  EXPECT_NE(json.find("\"x.level\": -2"), std::string::npos);
  EXPECT_NE(json.find("\"histograms\""), std::string::npos);
  EXPECT_NE(json.find("\"count\": 1"), std::string::npos);
  EXPECT_NE(json.find("\"spans\""), std::string::npos);
  EXPECT_NE(json.find("\"x.phase\""), std::string::npos);
  EXPECT_NE(json.find("\"end_ns\": 1000"), std::string::npos);
}

TEST(Json, MaxSpansKeepsNewestAndCountsSkipped) {
  SimClock clock;
  MetricsRegistry reg;
  SpanTracer tracer(&clock);
  for (int i = 0; i < 10; i++) {
    tracer.End(tracer.Begin("span" + std::to_string(i)));
  }
  std::string json = MetricsToJson(reg, tracer, true, 3);
  EXPECT_EQ(json.find("\"span6\""), std::string::npos);
  EXPECT_NE(json.find("\"span7\""), std::string::npos);
  EXPECT_NE(json.find("\"span9\""), std::string::npos);
  EXPECT_NE(json.find("\"spans_dropped\": 7"), std::string::npos);
}

// --- End to end: a real checkpoint ------------------------------------------

struct Machine {
  Machine() {
    device = MakePaperTestbedStore(&sim.clock, 1 * kGiB, kPageSize, &sim.metrics);
    // Raw store: the counter-consistency assertions relate device bytes to
    // flushed bytes one-to-one, which dedup/compression intentionally break.
    StoreOptions raw;
    raw.dedup = false;
    raw.codec = CodecId::kRaw;
    store = *ObjectStore::Format(device.get(), &sim, raw);
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

TEST(ObsIntegration, CheckpointEmitsPhaseSpansAndConsistentCounters) {
  Machine m;
  Process* proc = *m.kernel->CreateProcess("app");
  const uint64_t kMem = 2 * kMiB;
  auto obj = VmObject::CreateAnonymous(kMem);
  uint64_t addr = *proc->vm().Map(0x400000, kMem, kProtRead | kProtWrite, obj, 0, false);
  ASSERT_TRUE(proc->vm().DirtyRange(addr, kMem).ok());
  ConsistencyGroup* group = *m.sls->CreateGroup("app");
  ASSERT_TRUE(m.sls->Attach(group, proc).ok());

  uint64_t dev_bytes_before = m.sim.metrics.CounterValue("device.bytes_written");
  auto ckpt = m.sls->Checkpoint(group, "obs");
  ASSERT_TRUE(ckpt.ok());
  m.sim.clock.AdvanceTo(ckpt->durable_at);

  // One checkpoint, fully traced: every pipeline phase shows up exactly once
  // in the checkpoint's scope, in pipeline order.
  auto spans = m.sim.tracer.SpansInScope(m.sim.tracer.current_scope());
  const char* kPhases[] = {"ckpt.collapse", "ckpt.preserialize", "ckpt.quiesce",
                           "ckpt.serialize", "ckpt.shadow",      "ckpt.flush",
                           "ckpt.commit",   "ckpt.release"};
  ASSERT_EQ(spans.size(), 8u);
  for (size_t i = 0; i < 8; i++) {
    EXPECT_EQ(spans[i].name, kPhases[i]) << "phase " << i;
    EXPECT_GE(spans[i].end, spans[i].begin);
    if (i > 0) {
      EXPECT_GE(spans[i].begin, spans[i - 1].begin);
    }
  }
  // Async phases end at durability, in the future of the phases that queued
  // them; the release span ends exactly when the checkpoint is durable.
  EXPECT_EQ(spans[7].end, ckpt->durable_at);

  // Counter cross-checks.
  const MetricsRegistry& metrics = m.sim.metrics;
  EXPECT_EQ(metrics.CounterValue("ckpt.checkpoints"), 1u);
  uint64_t pages = metrics.CounterValue("ckpt.pages_flushed");
  uint64_t bytes = metrics.CounterValue("ckpt.bytes_flushed");
  EXPECT_GE(pages, kMem / kPageSize);  // at least the dirtied region
  EXPECT_EQ(bytes, pages * kPageSize);
  EXPECT_EQ(pages, ckpt->pages_flushed);
  // Everything flushed reached the device (plus metadata/superblock traffic).
  uint64_t dev_bytes = metrics.CounterValue("device.bytes_written") - dev_bytes_before;
  EXPECT_GE(dev_bytes, bytes);
  EXPECT_GE(metrics.CounterValue("store.commits"), 1u);
  EXPECT_GE(metrics.CounterValue("vm.objects_shadowed"), 1u);
  EXPECT_GE(metrics.CounterValue("kernel.quiesces"), 1u);

  // Histograms recorded the phase timings.
  EXPECT_EQ(metrics.histograms().at("ckpt.stop_time").count(), 1u);
  EXPECT_EQ(static_cast<SimDuration>(metrics.histograms().at("ckpt.stop_time").Min()),
            metrics.histograms().at("ckpt.stop_time").Max());

  // A second checkpoint opens a fresh scope with its own 8 phases.
  ASSERT_TRUE(m.sls->Checkpoint(group, "obs2").ok());
  EXPECT_EQ(m.sim.tracer.SpansInScope(m.sim.tracer.current_scope()).size(), 8u);
  EXPECT_EQ(metrics.CounterValue("ckpt.checkpoints"), 2u);
}

TEST(ObsIntegration, SyscallCountersAndStatSnapshot) {
  Machine m;
  Process* proc = *m.kernel->CreateProcess("app");
  int fd = *m.kernel->Open(*proc, "f", kOpenRead | kOpenWrite, true);
  char buf[16] = "hello";
  ASSERT_TRUE(m.kernel->WriteFd(*proc, fd, buf, 5).ok());
  ASSERT_TRUE(m.kernel->SeekFd(*proc, fd, 0, 0).ok());
  ASSERT_TRUE(m.kernel->ReadFd(*proc, fd, buf, 5).ok());
  ASSERT_TRUE(m.kernel->Close(*proc, fd).ok());

  EXPECT_EQ(m.sim.metrics.CounterValue("kernel.syscall.open"), 1u);
  EXPECT_EQ(m.sim.metrics.CounterValue("kernel.syscall.write"), 1u);
  EXPECT_EQ(m.sim.metrics.CounterValue("kernel.syscall.read"), 1u);
  EXPECT_EQ(m.sim.metrics.CounterValue("kernel.syscall.close"), 1u);
  EXPECT_GE(m.sim.metrics.CounterValue("kernel.syscalls"), 4u);

  ConsistencyGroup* group = *m.sls->CreateGroup("app");
  ASSERT_TRUE(m.sls->Attach(group, proc).ok());
  ASSERT_TRUE(m.sls->Checkpoint(group, "stat").ok());

  SlsCli cli(m.sls.get());
  std::vector<std::string> lines = cli.Stat();
  ASSERT_FALSE(lines.empty());
  bool saw_counter = false;
  bool saw_hist = false;
  bool saw_trace = false;
  for (const std::string& line : lines) {
    saw_counter |= line.find("ckpt.checkpoints") != std::string::npos;
    saw_hist |= line.find("ckpt.stop_time") != std::string::npos;
    saw_trace |= line.find("ckpt.flush") != std::string::npos;
  }
  EXPECT_TRUE(saw_counter);
  EXPECT_TRUE(saw_hist);
  EXPECT_TRUE(saw_trace);
}

TEST(ObsIntegration, RestoreTracedAndCounted) {
  Machine m;
  Process* proc = *m.kernel->CreateProcess("app");
  auto obj = VmObject::CreateAnonymous(kMiB);
  uint64_t addr = *proc->vm().Map(0x400000, kMiB, kProtRead | kProtWrite, obj, 0, false);
  ASSERT_TRUE(proc->vm().DirtyRange(addr, kMiB).ok());
  ConsistencyGroup* group = *m.sls->CreateGroup("app");
  ASSERT_TRUE(m.sls->Attach(group, proc).ok());
  auto ckpt = m.sls->Checkpoint(group, "v1");
  ASSERT_TRUE(ckpt.ok());
  m.sim.clock.AdvanceTo(ckpt->durable_at);

  auto restored = m.sls->Restore("app", 0, RestoreMode::kFull);
  ASSERT_TRUE(restored.ok());
  EXPECT_EQ(m.sim.metrics.CounterValue("restore.restores"), 1u);
  EXPECT_EQ(m.sim.metrics.histograms().at("restore.time").count(), 1u);
  auto spans = m.sim.tracer.SpansInScope(m.sim.tracer.current_scope());
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_EQ(spans[0].name, "restore");
  EXPECT_EQ(spans[0].duration(), restored->restore_time);
}

}  // namespace
}  // namespace aurora
