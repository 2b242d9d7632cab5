// Warm-standby live replication (DESIGN.md section 18): the standby's
// epoch state machine under duplication, reordering, partitions, primary
// crashes and standby-side corruption — promotion must land on the last
// durable epoch (or speculate a validated wire tail) and never compose a
// torn image.
#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "src/base/sim_context.h"
#include "src/core/backend.h"
#include "src/core/cli.h"
#include "src/core/sls.h"
#include "src/fs/aurora_fs.h"
#include "src/objstore/object_store.h"
#include "src/storage/block_device.h"

namespace aurora {
namespace {

constexpr uint64_t kMem = 256 * kKiB;

// Primary machine plus the replication pair: a standby image table behind a
// fault-injectable link, and the primary-side backend that streams to it.
struct ReplMachine {
  ReplMachine() {
    device = MakePaperTestbedStore(&sim.clock, 1 * kGiB);
    store = *ObjectStore::Format(device.get(), &sim);
    fs = std::make_unique<AuroraFs>(&sim, store.get());
    kernel = std::make_unique<Kernel>(&sim);
    sls = std::make_unique<Sls>(&sim, kernel.get(), store.get(), fs.get());
    standby = static_cast<ReplicaStandby*>(
        sls->RegisterBackend(std::make_unique<ReplicaStandby>(&sim, &link)));
    replica = static_cast<ReplicaBackend*>(
        sls->RegisterBackend(std::make_unique<ReplicaBackend>(&sim, standby, &link)));
  }

  SimContext sim;
  ReplicaLink link;
  std::unique_ptr<BlockDevice> device;
  std::unique_ptr<ObjectStore> store;
  std::unique_ptr<AuroraFs> fs;
  std::unique_ptr<Kernel> kernel;
  std::unique_ptr<Sls> sls;
  ReplicaStandby* standby = nullptr;
  ReplicaBackend* replica = nullptr;
};

std::vector<uint8_t> Pattern(uint8_t salt) {
  std::vector<uint8_t> p(kMem);
  for (uint64_t i = 0; i < kMem; i++) {
    p[i] = static_cast<uint8_t>(i * 7 + salt + (i >> 12));
  }
  return p;
}

// One-region app attached to a group whose checkpoints route to the replica.
Process* SetUpApp(ReplMachine& m, uint64_t* addr_out) {
  Process* proc = *m.kernel->CreateProcess("app");
  auto obj = VmObject::CreateAnonymous(kMem);
  *addr_out = *proc->vm().Map(0x400000, kMem, kProtRead | kProtWrite, obj, 0, false);
  ConsistencyGroup* group = *m.sls->CreateGroup("app");
  EXPECT_TRUE(m.sls->Attach(group, proc).ok());
  EXPECT_TRUE(m.sls->SetBackend(group, "replica").ok());
  return proc;
}

void WritePattern(Process* proc, uint64_t addr, const std::vector<uint8_t>& p) {
  ASSERT_TRUE(proc->vm().Write(addr, p.data(), p.size()).ok());
}

// The primary host dies: its incarnation disappears mid-flight.
void CrashPrimaryHost(ReplMachine& m) {
  ConsistencyGroup* group = m.sls->FindGroup("app");
  ASSERT_NE(group, nullptr);
  for (Process* p : group->processes) {
    m.kernel->DestroyProcess(p);
  }
  group->processes.clear();
}

std::vector<uint8_t> ReadPromoted(const RestoreResult& restored, uint64_t addr) {
  std::vector<uint8_t> got(kMem);
  EXPECT_EQ(restored.group->processes.size(), 1u);
  EXPECT_TRUE(restored.group->processes[0]->vm().Read(addr, got.data(), got.size()).ok());
  return got;
}

TEST(Replication, WatermarksAdvanceWithEachCommittedEpoch) {
  ReplMachine m;
  uint64_t addr = 0;
  Process* proc = SetUpApp(m, &addr);
  ConsistencyGroup* group = m.sls->FindGroup("app");

  WritePattern(proc, addr, Pattern(1));
  auto c1 = m.sls->Checkpoint(group, "first");
  ASSERT_TRUE(c1.ok());
  EXPECT_FALSE(c1->aborted);
  EXPECT_EQ(m.standby->last_applied_epoch(), 1u);
  EXPECT_EQ(m.standby->last_validated_epoch(), 1u);

  WritePattern(proc, addr, Pattern(2));
  auto c2 = m.sls->Checkpoint(group, "second");
  ASSERT_TRUE(c2.ok());
  EXPECT_EQ(m.standby->last_applied_epoch(), 2u);
  EXPECT_EQ(m.standby->pending_epochs(), 0u);
  EXPECT_EQ(m.sim.metrics.CounterValue("repl.epochs_applied"), 2u);
  EXPECT_GT(m.sim.metrics.CounterValue("repl.frames_shipped"), 0u);
  EXPECT_GT(m.standby->ingest_busy_until(), 0u);
}

TEST(Replication, DuplicatedAndReorderedFramesApplyIdempotently) {
  ReplMachine m;
  ReplicaLink::FaultProfile faults;
  faults.duplicate_rate = 1.0;  // every frame delivered twice
  faults.reorder_rate = 0.5;
  m.link.SetFaults(faults);

  uint64_t addr = 0;
  Process* proc = SetUpApp(m, &addr);
  ConsistencyGroup* group = m.sls->FindGroup("app");

  WritePattern(proc, addr, Pattern(3));
  ASSERT_TRUE(m.sls->Checkpoint(group, "first").ok());
  std::vector<uint8_t> want = Pattern(4);
  WritePattern(proc, addr, want);
  ASSERT_TRUE(m.sls->Checkpoint(group, "second").ok());

  EXPECT_EQ(m.standby->last_applied_epoch(), 2u);
  EXPECT_GT(m.sim.metrics.CounterValue("repl.dup_frames_ignored"), 0u);
  EXPECT_EQ(m.sim.metrics.CounterValue("repl.epochs_rolled_back"), 0u);

  CrashPrimaryHost(m);
  SlsCli cli(m.sls.get());
  auto restored = cli.Promote("app", "replica", /*force=*/true);
  ASSERT_TRUE(restored.ok()) << restored.status().message();
  EXPECT_EQ(restored->epoch, 2u);
  EXPECT_EQ(ReadPromoted(*restored, addr), want);
  EXPECT_EQ(m.sim.metrics.CounterValue("repl.torn_promotions"), 0u);
}

TEST(Replication, PartitionAbortsEpochThenReshipSupersedes) {
  ReplMachine m;
  uint64_t addr = 0;
  Process* proc = SetUpApp(m, &addr);
  ConsistencyGroup* group = m.sls->FindGroup("app");

  WritePattern(proc, addr, Pattern(5));
  ASSERT_TRUE(m.sls->Checkpoint(group, "first").ok());

  // Mid-epoch cut: one frame escapes, then the wire goes dark. The epoch
  // aborts typed (graceful degradation), the application keeps running.
  std::vector<uint8_t> want = Pattern(6);
  WritePattern(proc, addr, want);
  m.link.PartitionAfterFrames(1);
  auto c2 = m.sls->Checkpoint(group, "second");
  ASSERT_TRUE(c2.ok());
  EXPECT_TRUE(c2->aborted);
  EXPECT_GT(m.sim.metrics.CounterValue("net.partitions"), 0u);
  EXPECT_EQ(m.standby->last_applied_epoch(), 1u);

  // Link heals: the next checkpoint re-ships epoch 2 under a fresh attempt
  // id, superseding the partial frames the old attempt left on the wire.
  m.link.SetPartitioned(false);
  auto c3 = m.sls->Checkpoint(group, "second-retry");
  ASSERT_TRUE(c3.ok());
  EXPECT_FALSE(c3->aborted);
  EXPECT_EQ(m.standby->last_applied_epoch(), 2u);
  EXPECT_EQ(m.standby->pending_epochs(), 0u);

  CrashPrimaryHost(m);
  SlsCli cli(m.sls.get());
  auto restored = cli.Promote("app", "replica", /*force=*/true);
  ASSERT_TRUE(restored.ok()) << restored.status().message();
  EXPECT_EQ(ReadPromoted(*restored, addr), want);
  EXPECT_EQ(m.sim.metrics.CounterValue("repl.torn_promotions"), 0u);
}

TEST(Replication, CorruptedPendingEpochRollsBackThenHeals) {
  ReplMachine m;
  uint64_t addr = 0;
  Process* proc = SetUpApp(m, &addr);
  ConsistencyGroup* group = m.sls->FindGroup("app");

  WritePattern(proc, addr, Pattern(7));
  ASSERT_TRUE(m.sls->Checkpoint(group, "first").ok());
  ASSERT_EQ(m.standby->last_applied_epoch(), 1u);

  // Hand-craft an epoch-2 stream (attempt 0: any real re-ship supersedes
  // it) and flip a byte of a received page before the commit frame lands —
  // the standby-side latent-sector analogue. Apply-time CRC validation must
  // roll the whole epoch back rather than apply the damaged page.
  std::vector<uint8_t> page(kPageSize, 0xAB);
  WireFrame data;
  AppendDataFrame(FrameId{2, 0, 0}, 999, kPageSize, {PageView{0, page.data()}}, nullptr,
                  &data.bytes);
  ASSERT_TRUE(m.link.Push(data));
  m.standby->Pump();
  ASSERT_EQ(m.standby->pending_epochs(), 1u);
  ASSERT_TRUE(m.standby->CorruptPendingPage(2));

  EpochCommit record;
  record.group = "app";
  record.ckpt_name = "forged";
  record.manifest = {1, 2, 3};
  record.nframes = 2;
  WireFrame commit;
  AppendCommitFrame(FrameId{2, 0, 1}, record, &commit.bytes);
  ASSERT_TRUE(m.link.Push(commit));
  m.standby->Pump();

  EXPECT_EQ(m.sim.metrics.CounterValue("repl.crc_failures"), 1u);
  EXPECT_EQ(m.sim.metrics.CounterValue("repl.epochs_rolled_back"), 1u);
  EXPECT_EQ(m.standby->last_applied_epoch(), 1u);
  EXPECT_EQ(m.standby->pending_epochs(), 0u);
  bool poisoned = false;
  for (const std::string& line : m.standby->Describe()) {
    poisoned |= line.find("POISONED") != std::string::npos;
  }
  EXPECT_TRUE(poisoned);

  // At-least-once delivery heals the chain: the primary's real epoch 2
  // arrives intact under a higher attempt id and applies cleanly.
  std::vector<uint8_t> want = Pattern(8);
  WritePattern(proc, addr, want);
  ASSERT_TRUE(m.sls->Checkpoint(group, "second").ok());
  EXPECT_EQ(m.standby->last_applied_epoch(), 2u);
  for (const std::string& line : m.standby->Describe()) {
    EXPECT_EQ(line.find("POISONED"), std::string::npos) << line;
  }

  CrashPrimaryHost(m);
  SlsCli cli(m.sls.get());
  auto restored = cli.Promote("app", "replica", /*force=*/true);
  ASSERT_TRUE(restored.ok()) << restored.status().message();
  EXPECT_EQ(restored->epoch, 2u);
  EXPECT_EQ(ReadPromoted(*restored, addr), want);
  EXPECT_EQ(m.sim.metrics.CounterValue("repl.torn_promotions"), 0u);
}

// Frames the primary pushes for the app's second (incremental) epoch — a
// probe run so crash/partition fuses can target exact stream positions.
uint64_t ProbeSecondEpochFrames() {
  ReplMachine probe;
  uint64_t addr = 0;
  Process* proc = SetUpApp(probe, &addr);
  ConsistencyGroup* group = probe.sls->FindGroup("app");
  WritePattern(proc, addr, Pattern(9));
  EXPECT_TRUE(probe.sls->Checkpoint(group, "first").ok());
  uint64_t before = probe.link.frames_pushed();
  WritePattern(proc, addr, Pattern(10));
  EXPECT_TRUE(probe.sls->Checkpoint(group, "second").ok());
  return probe.link.frames_pushed() - before;
}

TEST(Replication, SpeculativeFailoverAppliesValidatedWireTail) {
  // The primary dies right after the commit frame leaves the NIC: its own
  // checkpoint aborts (no acknowledgment), but every frame of epoch 2 is
  // through the wire. Failover drains the link, validates, and promotes on
  // the speculated epoch.
  uint64_t frames2 = ProbeSecondEpochFrames();
  ASSERT_GE(frames2, 2u);

  ReplMachine m;
  uint64_t addr = 0;
  Process* proc = SetUpApp(m, &addr);
  ConsistencyGroup* group = m.sls->FindGroup("app");
  WritePattern(proc, addr, Pattern(9));
  ASSERT_TRUE(m.sls->Checkpoint(group, "first").ok());
  std::vector<uint8_t> want = Pattern(10);
  WritePattern(proc, addr, want);
  m.replica->CrashAfterFrames(frames2);
  auto c2 = m.sls->Checkpoint(group, "second");
  ASSERT_TRUE(c2.ok());
  EXPECT_TRUE(c2->aborted);
  EXPECT_TRUE(m.replica->crashed());
  EXPECT_EQ(m.standby->last_applied_epoch(), 1u) << "nothing pumped before failover";

  CrashPrimaryHost(m);
  SlsCli cli(m.sls.get());
  auto restored = cli.Promote("app", "replica", /*force=*/true);
  ASSERT_TRUE(restored.ok()) << restored.status().message();
  EXPECT_EQ(restored->epoch, 2u);
  EXPECT_EQ(ReadPromoted(*restored, addr), want);
  EXPECT_EQ(m.sim.metrics.CounterValue("repl.speculative_failovers"), 1u);
  EXPECT_EQ(m.sim.metrics.CounterValue("repl.torn_promotions"), 0u);
}

TEST(Replication, MidEpochCrashRollsBackToLastDurableEpoch) {
  ReplMachine m;
  uint64_t addr = 0;
  Process* proc = SetUpApp(m, &addr);
  ConsistencyGroup* group = m.sls->FindGroup("app");
  std::vector<uint8_t> want = Pattern(11);
  WritePattern(proc, addr, want);
  ASSERT_TRUE(m.sls->Checkpoint(group, "first").ok());

  // One data frame of epoch 2 escapes, then the primary dies: the standby
  // holds a torn epoch that can never complete, and failover must discard
  // it — promoting epoch 1's image, never a mix.
  WritePattern(proc, addr, Pattern(12));
  m.replica->CrashAfterFrames(1);
  auto c2 = m.sls->Checkpoint(group, "second");
  ASSERT_TRUE(c2.ok());
  EXPECT_TRUE(c2->aborted);

  CrashPrimaryHost(m);
  SlsCli cli(m.sls.get());
  auto restored = cli.Promote("app", "replica", /*force=*/true);
  ASSERT_TRUE(restored.ok()) << restored.status().message();
  EXPECT_EQ(restored->epoch, 1u);
  EXPECT_EQ(ReadPromoted(*restored, addr), want);
  EXPECT_EQ(m.sim.metrics.CounterValue("repl.rolled_back_failovers"), 1u);
  EXPECT_EQ(m.sim.metrics.CounterValue("repl.torn_promotions"), 0u);
}

TEST(Replication, LeaseGuardsAgainstSplitBrain) {
  ReplMachine m;
  uint64_t addr = 0;
  Process* proc = SetUpApp(m, &addr);
  ConsistencyGroup* group = m.sls->FindGroup("app");
  WritePattern(proc, addr, Pattern(13));
  ASSERT_TRUE(m.sls->Checkpoint(group, "first").ok());

  // Every shipped frame refreshed the lease: an unforced failover right
  // after a healthy checkpoint must refuse — the primary may still be live.
  auto plan = m.standby->PrepareFailover();
  ASSERT_FALSE(plan.ok());
  EXPECT_EQ(plan.status().code(), Errc::kBusy);

  // Silence for a full lease period means the primary is really gone.
  m.sim.clock.Advance(m.standby->lease() + kMillisecond);
  plan = m.standby->PrepareFailover();
  ASSERT_TRUE(plan.ok()) << plan.status().message();
  EXPECT_EQ(plan->epoch, 1u);
  EXPECT_TRUE(m.standby->promoted());
}

TEST(Replication, NoDurableEpochFailsTypedNotTorn) {
  ReplMachine m;
  uint64_t addr = 0;
  SetUpApp(m, &addr);
  ConsistencyGroup* group = m.sls->FindGroup("app");

  // Partitioned from the very first frame: no epoch ever reaches the
  // standby, so promotion has nothing durable to stand on and must fail
  // typed instead of fabricating an empty machine.
  m.link.SetPartitioned(true);
  auto c1 = m.sls->Checkpoint(group, "first");
  ASSERT_TRUE(c1.ok());
  EXPECT_TRUE(c1->aborted);

  auto plan = m.standby->PrepareFailover(/*force=*/true);
  ASSERT_FALSE(plan.ok());
  EXPECT_EQ(plan.status().code(), Errc::kUnavailable);
  EXPECT_FALSE(m.standby->promoted());
  EXPECT_EQ(m.sim.metrics.CounterValue("repl.torn_promotions"), 0u);
}

TEST(Replication, DemoteReturnsToIngestDuty) {
  ReplMachine m;
  uint64_t addr = 0;
  Process* proc = SetUpApp(m, &addr);
  ConsistencyGroup* group = m.sls->FindGroup("app");
  WritePattern(proc, addr, Pattern(14));
  ASSERT_TRUE(m.sls->Checkpoint(group, "first").ok());

  SlsCli cli(m.sls.get());
  EXPECT_EQ(cli.Demote("replica").code(), Errc::kBadState) << "not promoted yet";

  CrashPrimaryHost(m);
  auto restored = cli.Promote("app", "replica", /*force=*/true);
  ASSERT_TRUE(restored.ok()) << restored.status().message();
  EXPECT_TRUE(m.standby->promoted());

  ASSERT_TRUE(cli.Demote("replica").ok());
  EXPECT_FALSE(m.standby->promoted());
  EXPECT_EQ(m.sim.metrics.CounterValue("repl.demotions"), 1u);

  // The standby takes no checkpoints, so the promotion left the group's
  // checkpoint destination as it was. Failback is a fresh group on the
  // recovered primary streaming over the link again, with the demoted
  // standby back on ingest duty.
  Process* proc2 = *m.kernel->CreateProcess("app2");
  auto obj2 = VmObject::CreateAnonymous(kMem);
  uint64_t addr2 = *proc2->vm().Map(0x400000, kMem, kProtRead | kProtWrite, obj2, 0, false);
  ConsistencyGroup* g2 = *m.sls->CreateGroup("app2");
  ASSERT_TRUE(m.sls->Attach(g2, proc2).ok());
  ASSERT_TRUE(m.sls->SetBackend(g2, "replica").ok());
  WritePattern(proc2, addr2, Pattern(15));
  ASSERT_TRUE(m.sls->Checkpoint(g2, "failback").ok());
  EXPECT_EQ(m.standby->last_applied_epoch(), 2u);
}

// The warm-failover model's charges, pinned to the values this sequence
// measured at commit fab389e, when the standby still patched a warm
// VmObject beside each table entry: the images are now the model's, and
// ingest, promotion and demotion charge exactly what they charged then.
TEST(Replication, WarmFailoverChargesArePinned) {
  ReplMachine m;
  uint64_t addr = 0;
  Process* proc = SetUpApp(m, &addr);
  // Mapped but never written: it ships no pages, so the standby models no
  // warm image of it and the first promotion copies it cold.
  ASSERT_TRUE(proc->vm()
                  .Map(0x800000, kMem, kProtRead | kProtWrite, VmObject::CreateAnonymous(kMem), 0,
                       false)
                  .ok());
  ConsistencyGroup* group = m.sls->FindGroup("app");
  WritePattern(proc, addr, Pattern(21));
  ASSERT_TRUE(m.sls->Checkpoint(group, "first").ok());
  WritePattern(proc, addr, Pattern(22));
  ASSERT_TRUE(m.sls->Checkpoint(group, "second").ok());
  EXPECT_EQ(m.standby->ingest_busy_until(), 1056518u);

  SlsCli cli(m.sls.get());
  CrashPrimaryHost(m);
  auto first = cli.Promote("app", "replica", /*force=*/true);
  ASSERT_TRUE(first.ok()) << first.status().message();
  EXPECT_EQ(first->restore_time, 476959u);
  EXPECT_EQ(m.sim.metrics.CounterValue("repl.warm_restores"), 1u) << "the written region";
  EXPECT_EQ(m.sim.metrics.CounterValue("repl.cold_restores"), 1u) << "the unwritten one";
  ASSERT_TRUE(cli.Demote("replica").ok());
  EXPECT_EQ(m.standby->ingest_busy_until(), 1082732u);

  // One more applied epoch, from the promoted incarnation, and a second
  // promotion: the demotion modeled a warm image of every entry.
  ASSERT_EQ(first->group->processes.size(), 1u);
  WritePattern(first->group->processes[0], addr, Pattern(23));
  ASSERT_TRUE(m.sls->Checkpoint(first->group, "third").ok());
  EXPECT_EQ(m.standby->last_applied_epoch(), 3u);
  EXPECT_EQ(m.standby->ingest_busy_until(), 1646289u);
  CrashPrimaryHost(m);
  auto second = cli.Promote("app", "replica", /*force=*/true);
  ASSERT_TRUE(second.ok()) << second.status().message();
  EXPECT_EQ(second->restore_time, 476959u);
  EXPECT_EQ(m.sim.metrics.CounterValue("repl.warm_restores"), 3u) << "two more, both warm";
  EXPECT_EQ(m.sim.metrics.CounterValue("repl.cold_restores"), 1u);
  ASSERT_TRUE(cli.Demote("replica").ok());
  EXPECT_EQ(m.standby->ingest_busy_until(), 1672503u);
  EXPECT_EQ(ReadPromoted(*second, addr), Pattern(23));
}

// A write to the promoted group stays its own: it unshares the page it
// writes from the table, and after the demotion a lazy restore from the
// standby still pages in the applied bytes.
TEST(Replication, PromotedWritesLeaveTheTableAsApplied) {
  ReplMachine m;
  uint64_t addr = 0;
  Process* proc = SetUpApp(m, &addr);
  WritePattern(proc, addr, Pattern(24));
  ASSERT_TRUE(m.sls->Checkpoint(m.sls->FindGroup("app"), "applied").ok());

  SlsCli cli(m.sls.get());
  CrashPrimaryHost(m);
  auto promoted = cli.Promote("app", "replica", /*force=*/true);
  ASSERT_TRUE(promoted.ok()) << promoted.status().message();
  ASSERT_EQ(promoted->group->processes.size(), 1u);
  std::vector<uint8_t> page(kPageSize, 0xEE);
  ASSERT_TRUE(promoted->group->processes[0]->vm().Write(addr, page.data(), page.size()).ok());
  ASSERT_TRUE(cli.Demote("replica").ok());

  auto lazy = m.sls->Restore("app", 0, RestoreMode::kLazy, m.standby);
  ASSERT_TRUE(lazy.ok()) << lazy.status().message();
  EXPECT_EQ(ReadPromoted(*lazy, addr), Pattern(24));
}

// How many of the table's frames some restored object also holds, and how
// many frames the table holds.
std::pair<uint64_t, uint64_t> SharedTableFrames(const ReplicaStandby& standby) {
  uint64_t shared = 0;
  uint64_t total = 0;
  for (const auto& [oid, image] : standby.object_table()) {
    image.pages.ForEach([&](uint64_t, const PageFrame& frame) {
      total++;
      shared += frame.owners() > 1 ? 1 : 0;
    });
  }
  return {shared, total};
}

// Materialize installs the table's own frames, so a restore from the
// standby copies no page on the host: a materialized object shares every
// page with the table, and a write into it unshares exactly the page it
// writes while the table keeps the applied bytes. A promotion and a failback
// restore through the replica share the frames too; the promoted group's
// writes land in the shadow the restore puts over its image.
TEST(Replication, RestoredImagesShareTheTablesFramesUntilWritten) {
  ReplMachine m;
  uint64_t addr = 0;
  Process* proc = SetUpApp(m, &addr);
  WritePattern(proc, addr, Pattern(24));
  ASSERT_TRUE(m.sls->Checkpoint(m.sls->FindGroup("app"), "applied").ok());
  const uint64_t pages = kMem / kPageSize;
  EXPECT_EQ(SharedTableFrames(*m.standby), std::make_pair(uint64_t{0}, pages))
      << "the apply copies each page out of its wire frame";
  ASSERT_EQ(m.standby->object_table().size(), 1u);
  const uint64_t oid = m.standby->object_table().begin()->first;
  const std::vector<uint8_t> applied = Pattern(24);
  auto table_as_applied = [&] {
    for (const auto& [id, image] : m.standby->object_table()) {
      image.pages.ForEach([&](uint64_t pgidx, const PageFrame& frame) {
        EXPECT_EQ(std::memcmp(frame.data(), applied.data() + pgidx * kPageSize, kPageSize), 0)
            << "table page " << pgidx;
      });
    }
  };

  {
    uint64_t copied = 0;
    auto obj = m.standby->Materialize(oid, kMem, &copied);
    ASSERT_TRUE(obj.ok()) << obj.status().message();
    EXPECT_EQ(copied, pages) << "the model still charges every page";
    EXPECT_EQ(SharedTableFrames(*m.standby).first, pages);
    VmMap map(&m.sim);
    ASSERT_TRUE(map.Map(0x400000, kMem, kProtRead | kProtWrite, *obj, 0, false).ok());
    uint64_t note = 0xFEEDFACE;
    ASSERT_TRUE(map.Write(0x400000 + 3 * kPageSize + 8, &note, sizeof(note)).ok());
    EXPECT_EQ(SharedTableFrames(*m.standby).first, pages - 1);
    std::vector<uint8_t> want = applied;
    std::memcpy(want.data() + 3 * kPageSize + 8, &note, sizeof(note));
    std::vector<uint8_t> got(kMem);
    ASSERT_TRUE(map.Read(0x400000, got.data(), got.size()).ok());
    EXPECT_EQ(got, want);
    table_as_applied();
  }
  EXPECT_EQ(SharedTableFrames(*m.standby).first, 0u) << "the object's frames went with it";

  SlsCli cli(m.sls.get());
  CrashPrimaryHost(m);
  auto promoted = cli.Promote("app", "replica", /*force=*/true);
  ASSERT_TRUE(promoted.ok()) << promoted.status().message();
  EXPECT_EQ(SharedTableFrames(*m.standby).first, pages);
  ASSERT_EQ(promoted->group->processes.size(), 1u);
  WritePattern(promoted->group->processes[0], addr, Pattern(25));
  EXPECT_EQ(ReadPromoted(*promoted, addr), Pattern(25));
  table_as_applied();

  ASSERT_TRUE(cli.Demote("replica").ok());
  auto failback = m.sls->Restore("app", 0, RestoreMode::kFull, m.replica);
  ASSERT_TRUE(failback.ok()) << failback.status().message();
  EXPECT_EQ(SharedTableFrames(*m.standby).first, pages);
  EXPECT_EQ(ReadPromoted(*failback, addr), applied);

  // A lazy restore's pager hands out the table's frames as pages fault in.
  // The group's writes land in the shadow above the restored base, which
  // keeps sharing them as the group's in-memory checkpoint.
  auto lazy = m.sls->Restore("app", 0, RestoreMode::kLazy, m.replica);
  ASSERT_TRUE(lazy.ok()) << lazy.status().message();
  EXPECT_EQ(SharedTableFrames(*m.standby).first, 0u) << "no page has faulted in yet";
  EXPECT_EQ(ReadPromoted(*lazy, addr), applied);
  EXPECT_EQ(SharedTableFrames(*m.standby).first, pages) << "a fault copied the table's page";
  WritePattern(lazy->group->processes[0], addr, Pattern(26));
  EXPECT_EQ(SharedTableFrames(*m.standby).first, pages);
  EXPECT_EQ(ReadPromoted(*lazy, addr), Pattern(26));
  table_as_applied();
}

// The standby holds each group's newest applied epoch. An older one is
// kNotFound from the standby in both modes and through the replica, before
// the running group is touched; the newest still restores.
TEST(Replication, OlderEpochIsRefusedAndTheGroupKeepsRunning) {
  ReplMachine m;
  uint64_t addr = 0;
  Process* proc = SetUpApp(m, &addr);
  ConsistencyGroup* group = m.sls->FindGroup("app");
  WritePattern(proc, addr, Pattern(0xAA));
  ASSERT_TRUE(m.sls->Checkpoint(group, "older").ok());
  WritePattern(proc, addr, Pattern(0xBB));
  ASSERT_TRUE(m.sls->Checkpoint(group, "newest").ok());
  ASSERT_EQ(m.standby->last_applied_epoch(), 2u);
  WritePattern(proc, addr, Pattern(0xCC));

  struct Source {
    CheckpointBackend* backend;
    RestoreMode mode;
  };
  for (Source source : {Source{m.standby, RestoreMode::kFull}, Source{m.standby, RestoreMode::kLazy},
                        Source{m.replica, RestoreMode::kFull}}) {
    SCOPED_TRACE(source.backend->name() +
                 (source.mode == RestoreMode::kFull ? " full" : " lazy"));
    auto older = m.sls->Restore("app", 1, source.mode, source.backend);
    ASSERT_FALSE(older.ok());
    EXPECT_EQ(older.status().code(), Errc::kNotFound);
    ASSERT_EQ(group->processes.size(), 1u);
    EXPECT_EQ(group->processes[0], proc);
    std::vector<uint8_t> got(kMem);
    ASSERT_TRUE(proc->vm().Read(addr, got.data(), got.size()).ok());
    EXPECT_EQ(got, Pattern(0xCC));
  }

  auto newest = m.sls->Restore("app", 2, RestoreMode::kFull, m.standby);
  ASSERT_TRUE(newest.ok()) << newest.status().message();
  EXPECT_EQ(newest->epoch, 2u);
  EXPECT_EQ(ReadPromoted(*newest, addr), Pattern(0xBB));
}

TEST(Replication, ReplVerbReportsRoleWatermarksAndCounters) {
  ReplMachine m;
  uint64_t addr = 0;
  Process* proc = SetUpApp(m, &addr);
  ConsistencyGroup* group = m.sls->FindGroup("app");
  WritePattern(proc, addr, Pattern(16));
  ASSERT_TRUE(m.sls->Checkpoint(group, "first").ok());
  ASSERT_TRUE(m.replica->SendHeartbeat().ok());

  SlsCli cli(m.sls.get());
  auto lines = cli.Repl("replica");
  ASSERT_TRUE(lines.ok());
  std::string all;
  for (const std::string& line : *lines) {
    all += line + "\n";
  }
  EXPECT_NE(all.find("role: standby"), std::string::npos) << all;
  EXPECT_NE(all.find("applied_epoch: 1"), std::string::npos) << all;
  EXPECT_NE(all.find("counters:"), std::string::npos) << all;
  EXPECT_NE(all.find("repl.frames_shipped"), std::string::npos) << all;
  EXPECT_NE(all.find("repl.heartbeats"), std::string::npos) << all;

  EXPECT_EQ(cli.Repl("nosuch").status().code(), Errc::kNotFound);
}

}  // namespace
}  // namespace aurora
