#include <gtest/gtest.h>

#include <cstring>

#include "src/base/sim_context.h"
#include "src/storage/block_device.h"

namespace aurora {
namespace {

std::vector<uint8_t> Pattern(size_t len, uint8_t seed) {
  std::vector<uint8_t> out(len);
  for (size_t i = 0; i < len; i++) {
    out[i] = static_cast<uint8_t>(seed + i * 13);
  }
  return out;
}

TEST(MemBlockDevice, WriteReadRoundTrip) {
  SimClock clock;
  MemBlockDevice dev(&clock, 1024);
  auto data = Pattern(kPageSize * 3, 7);
  ASSERT_TRUE(dev.WriteSync(10, data.data(), 3).ok());
  std::vector<uint8_t> back(kPageSize * 3);
  ASSERT_TRUE(dev.ReadSync(10, back.data(), 3).ok());
  EXPECT_EQ(data, back);
}

TEST(MemBlockDevice, UnwrittenBlocksReadZero) {
  SimClock clock;
  MemBlockDevice dev(&clock, 64);
  std::vector<uint8_t> back(kPageSize, 0xff);
  ASSERT_TRUE(dev.ReadSync(5, back.data(), 1).ok());
  for (uint8_t b : back) {
    EXPECT_EQ(b, 0);
  }
  EXPECT_EQ(dev.ResidentBlocks(), 0u);  // sparse
}

TEST(MemBlockDevice, BoundsChecked) {
  SimClock clock;
  MemBlockDevice dev(&clock, 8);
  std::vector<uint8_t> buf(kPageSize);
  EXPECT_FALSE(dev.WriteAsync(0, clock.now(), 8, buf.data(), 1).ok());
  EXPECT_FALSE(dev.ReadAsync(0, 7, buf.data(), 2).ok());
}

TEST(MemBlockDevice, LatencyModel) {
  SimClock clock;
  DeviceProfile profile;
  MemBlockDevice dev(&clock, 1 << 20);
  std::vector<uint8_t> buf(kPageSize);
  SimTime t0 = clock.now();
  ASSERT_TRUE(dev.WriteSync(0, buf.data(), 1).ok());
  SimDuration one_write = clock.now() - t0;
  // One 4 KiB write: fixed latency + small transfer.
  EXPECT_GE(one_write, profile.write_latency);
  EXPECT_LT(one_write, profile.write_latency + 10 * kMicrosecond);
}

TEST(MemBlockDevice, PipeliningOverlapsLatency) {
  SimClock clock;
  MemBlockDevice dev(&clock, 1 << 20);
  std::vector<uint8_t> buf(kPageSize);
  // 100 async writes issued back-to-back: completions pipeline, so total
  // time is ~transfer-bound plus ONE latency, not 100 latencies.
  SimTime last = 0;
  for (int i = 0; i < 100; i++) {
    auto done = dev.WriteAsync(0, clock.now(), static_cast<uint64_t>(i), buf.data(), 1);
    ASSERT_TRUE(done.ok());
    last = std::max(last, *done);
  }
  DeviceProfile profile;
  // Transfer-bound plus one latency — far below 100 serialized latencies.
  EXPECT_LT(last, profile.write_latency + 400 * kMicrosecond);
  EXPECT_LT(last, 100 * profile.write_latency / 2);
}

// Every submission queue has its own timeline from the moment the device is
// built: a write on queue 3 issued alongside one on queue 0 completes as if
// it were alone, while two writes on queue 0 serialize.
TEST(MemBlockDevice, QueueTimelinesIndependentFromConstruction) {
  DeviceProfile profile;
  std::vector<uint8_t> buf(16 * kPageSize);
  SimClock alone_clock;
  MemBlockDevice alone(&alone_clock, 1024);
  auto solo = alone.WriteAsync(0, alone_clock.now(), 0, buf.data(), 16);
  ASSERT_TRUE(solo.ok());

  SimClock clock;
  MemBlockDevice dev(&clock, 1024);
  auto on_q0 = dev.WriteAsync(0, clock.now(), 0, buf.data(), 16);
  auto on_q3 = dev.WriteAsync(3, clock.now(), 16, buf.data(), 16);
  ASSERT_TRUE(on_q0.ok());
  ASSERT_TRUE(on_q3.ok());
  EXPECT_EQ(*on_q0, *solo);
  EXPECT_EQ(*on_q3, *solo) << "queue 3 must not wait behind queue 0";

  // A second write on queue 0 starts when the first transfer frees the
  // queue, so it completes one transfer (plus command overhead) later.
  auto behind = dev.WriteAsync(0, clock.now(), 32, buf.data(), 16);
  ASSERT_TRUE(behind.ok());
  EXPECT_EQ(*behind, 2 * *solo - profile.write_latency);
}

// A write submitted ahead of the clock (a flush lane that finished its CPU
// work later) starts at max(submission, queue free), and its queue delay is
// measured from the submission, not from now.
TEST(MemBlockDevice, TransferStartsAtSubmissionOrQueueFree) {
  DeviceProfile profile;
  std::vector<uint8_t> buf(16 * kPageSize);
  SimClock alone_clock;
  MemBlockDevice alone(&alone_clock, 1024);
  auto solo = alone.WriteAsync(0, alone_clock.now(), 0, buf.data(), 16);
  ASSERT_TRUE(solo.ok());
  const SimDuration service = *solo - alone_clock.now();

  SimClock clock;
  MetricsRegistry metrics;
  MemBlockDevice dev(&clock, 1024);
  dev.set_metrics(&metrics);
  const SimTime later = clock.now() + 100 * kMicrosecond;
  auto idle = dev.WriteAsync(0, later, 0, buf.data(), 16);
  ASSERT_TRUE(idle.ok());
  EXPECT_EQ(*idle, later + service) << "an idle queue starts the transfer at submission";
  EXPECT_EQ(clock.now(), 0) << "submitting ahead of the clock must not move it";

  // Submitted at `later` too, behind the first transfer: it starts when the
  // queue frees, and waited exactly that long after its submission.
  auto behind = dev.WriteAsync(0, later, 16, buf.data(), 16);
  ASSERT_TRUE(behind.ok());
  const SimDuration queue_wait = *idle - profile.write_latency - later;
  EXPECT_EQ(*behind, later + queue_wait + service);
  const SimHistogram& delay = metrics.histogram("device.queue_delay");
  EXPECT_EQ(delay.count(), 2u);
  EXPECT_EQ(delay.Min(), 0);
  EXPECT_EQ(delay.Max(), queue_wait);
}

TEST(MemBlockDevice, CrashTearsAndDropsWrites) {
  SimClock clock;
  MemBlockDevice dev(&clock, 64);
  auto before = Pattern(kPageSize, 1);
  ASSERT_TRUE(dev.WriteSync(0, before.data(), 1).ok());
  dev.CrashAfterWrites(0);  // the very next write is torn
  auto after = Pattern(kPageSize, 2);
  ASSERT_TRUE(dev.WriteSync(0, after.data(), 1).ok());
  EXPECT_TRUE(dev.crashed());
  // Later writes are dropped entirely.
  auto late = Pattern(kPageSize, 3);
  ASSERT_TRUE(dev.WriteSync(1, late.data(), 1).ok());

  std::vector<uint8_t> back(kPageSize);
  ASSERT_TRUE(dev.ReadSync(0, back.data(), 1).ok());
  // First half new, second half old: a torn write.
  EXPECT_EQ(0, std::memcmp(back.data(), after.data(), kPageSize / 2));
  EXPECT_EQ(0, std::memcmp(back.data() + kPageSize / 2, before.data() + kPageSize / 2,
                           kPageSize / 2));
  ASSERT_TRUE(dev.ReadSync(1, back.data(), 1).ok());
  for (uint8_t b : back) {
    EXPECT_EQ(b, 0);
  }
}

TEST(StripedDevice, RoundTripAcrossStripes) {
  SimClock clock;
  auto striped = MakePaperTestbedStore(&clock, 64 * kMiB);
  // 256 KiB spans all four devices (64 KiB stripe unit).
  auto data = Pattern(256 * kKiB, 9);
  uint32_t nblocks = static_cast<uint32_t>(data.size() / striped->block_size());
  ASSERT_TRUE(striped->WriteSync(3, data.data(), nblocks).ok());
  std::vector<uint8_t> back(data.size());
  ASSERT_TRUE(striped->ReadSync(3, back.data(), nblocks).ok());
  EXPECT_EQ(data, back);
}

TEST(StripedDevice, BandwidthAggregates) {
  SimClock clock;
  auto striped = MakePaperTestbedStore(&clock, 4 * kGiB);
  // Stream 64 MiB: four devices in parallel should beat one device's rate.
  std::vector<uint8_t> chunk(1 * kMiB);
  SimTime t0 = clock.now();
  SimTime done = t0;
  for (uint64_t i = 0; i < 64; i++) {
    auto t = striped->WriteAsync(0, clock.now(), i * (chunk.size() / striped->block_size()),
                                 chunk.data(),
                                 static_cast<uint32_t>(chunk.size() / striped->block_size()));
    ASSERT_TRUE(t.ok());
    done = std::max(done, *t);
  }
  double seconds = ToSeconds(done - t0);
  double gbps = 64.0 / 1024.0 / seconds;
  EXPECT_GT(gbps, 4.0);  // aggregate ~5.4 GB/s
  EXPECT_LT(gbps, 7.0);
}

TEST(StripedDevice, StatsAggregate) {
  SimClock clock;
  auto striped = MakePaperTestbedStore(&clock, 64 * kMiB);
  std::vector<uint8_t> buf(64 * kKiB);
  ASSERT_TRUE(striped->WriteSync(0, buf.data(), 16).ok());
  EXPECT_EQ(striped->stats().bytes_written, 64 * kKiB);
  EXPECT_EQ(striped->stats().writes, 16u);
}

}  // namespace
}  // namespace aurora
