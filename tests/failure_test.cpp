// Failure-injection suite: how the platform behaves when links, nodes,
// middle-boxes and sessions die — the paper's dependability claims.
#include <gtest/gtest.h>

#include <functional>

#include "core/active_relay.hpp"
#include "core/platform.hpp"
#include "core/reconstruction.hpp"
#include "fs/simext.hpp"
#include "journal/log.hpp"
#include "services/registry.hpp"
#include "services/replication.hpp"
#include "testutil.hpp"

namespace storm {
namespace {

using core::DeploymentHandle;
using core::RelayMode;
using core::ServiceSpec;

class FailureTest : public ::testing::Test {
 protected:
  FailureTest() : cloud_(sim_, cloud::CloudConfig{}), platform_(cloud_) {
    services::register_builtin_services(platform_);
  }

  DeploymentHandle deploy_active(const std::string& vm,
                                 const std::string& vol) {
    ServiceSpec spec;
    spec.type = "noop";
    spec.relay = RelayMode::kActive;
    Status status = error(ErrorCode::kIoError, "unset");
    DeploymentHandle deployment;
    platform_.attach_with_chain(vm, vol, {spec},
                                [&](Result<DeploymentHandle> r) {
                                  status = r.status();
                                  if (r.is_ok()) deployment = r.value();
                                });
    sim_.run();
    EXPECT_TRUE(status.is_ok()) << status.to_string();
    return deployment;
  }

  sim::Simulator sim_;
  cloud::Cloud cloud_;
  core::StormPlatform platform_;
};

// Ported from the PR-5 backpressure suite and re-pointed at the journal
// engine: crash the relay while backpressure has it paused at the NVRAM
// watermark. Restart must replay the engine's segmented log (not the old
// per-session buffer), the paused ingress state must not leak into the
// rebuilt sessions, and no acknowledged write may be lost.
TEST_F(FailureTest, JournalReplaysAfterBackpressurePausedCrash) {
  cloud::Vm& vm = cloud_.create_vm("vm", "t", 0);
  ASSERT_TRUE(cloud_.create_volume("vol", 40'000).is_ok());

  ServiceSpec spec;
  spec.type = "noop";
  spec.relay = RelayMode::kActive;
  spec.params["journal_hwm_kb"] = "32";
  spec.params["journal_lwm_kb"] = "8";
  Status status = error(ErrorCode::kIoError, "unset");
  DeploymentHandle dep;
  platform_.attach_with_chain("vm", "vol", {spec},
                              [&](Result<DeploymentHandle> r) {
                                status = r.status();
                                if (r.is_ok()) dep = r.value();
                              });
  sim_.run();
  ASSERT_TRUE(status.is_ok()) << status.to_string();
  ASSERT_TRUE(dep.valid());
  dep.attachment()->initiator->set_recovery({.enabled = true});
  core::ActiveRelay* relay = dep.active_relay(0);
  ASSERT_NE(relay, nullptr);

  cloud_.storage(0).node().set_down(true);

  constexpr int kWrites = 8;
  constexpr std::uint32_t kSectors = 128;
  int completed = 0, failed = 0, next = 0;
  std::function<void()> issue = [&] {
    const int i = next++;
    Bytes data = testutil::pattern_bytes(kSectors * block::kSectorSize,
                                         static_cast<std::uint8_t>(i + 1));
    vm.disk()->write(static_cast<std::uint64_t>(i) * kSectors,
                     std::move(data), [&](Status s) {
                       ++completed;
                       if (!s.is_ok()) ++failed;
                       if (next < kWrites) issue();
                     });
  };
  for (int i = 0; i < 4; ++i) issue();

  sim_.run_until(sim::milliseconds(200));
  ASSERT_GE(relay->paused_directions(), 1u) << "pause must precede crash";
  ASSERT_GE(relay->journal_bytes(), 1u);
  // The buffered PDUs live in the engine's NVRAM segments, not in
  // volatile session state: the physical image must cover them.
  journal::Device& device = relay->journal_device();
  EXPECT_GE(device.device_bytes(), relay->journal_bytes());
  EXPECT_GE(device.export_image().bytes(), relay->journal_bytes());

  ASSERT_TRUE(dep.crash_middlebox(0).is_ok());
  cloud_.storage(0).node().set_down(false);
  sim_.run_for(sim::milliseconds(20));
  ASSERT_TRUE(dep.restart_middlebox(0).is_ok());
  sim_.run();

  EXPECT_EQ(completed, kWrites);
  EXPECT_EQ(failed, 0) << "a paused crash must not lose acknowledged writes";
  EXPECT_GT(relay->journal_replays(), 0u);
  EXPECT_GT(dep.attachment()->initiator->recoveries(), 0u);
  EXPECT_EQ(relay->paused_directions(), 0u);
  // Engine-level replay telemetry: the restart went through a segment
  // scan, and everything drained after recovery.
  const std::string journal_scope =
      "relay." + dep.mb_vm(0)->name() + ".journal.";
  EXPECT_GE(sim_.telemetry().counter(journal_scope + "replays").value(), 1u);
  EXPECT_GT(
      sim_.telemetry().counter(journal_scope + "replay_records_recovered")
          .value(),
      0u);
  EXPECT_EQ(relay->journal_bytes(), 0u);

  auto volume = cloud_.storage(0).volumes().find_by_name("vol");
  ASSERT_TRUE(volume.is_ok());
  for (int i = 0; i < kWrites; ++i) {
    Bytes expect = testutil::pattern_bytes(kSectors * block::kSectorSize,
                                           static_cast<std::uint8_t>(i + 1));
    EXPECT_EQ(volume.value()->disk().store().read_sync(
                  static_cast<std::uint64_t>(i) * kSectors, kSectors),
              expect)
        << "write " << i << " corrupted or lost";
  }
}

TEST_F(FailureTest, TargetSessionCloseFailsTenantIoThroughChain) {
  cloud::Vm& vm = cloud_.create_vm("vm", "t", 0);
  ASSERT_TRUE(cloud_.create_volume("vol", 20'000).is_ok());
  DeploymentHandle dep = deploy_active("vm", "vol");

  // Outstanding write, then the target kills the (relay-side) session.
  int state = 0;
  vm.disk()->write(0, Bytes(64 * block::kSectorSize, 1),
                   [&](Status s) { state = s.is_ok() ? 1 : -1; });
  EXPECT_EQ(cloud_.storage(0).target().close_sessions_for(
                dep.attachment()->iqn), 1u);
  sim_.run();
  // The relay propagates the upstream loss to the tenant side: the
  // initiator's command fails rather than hanging forever.
  EXPECT_EQ(state, -1);
}

TEST_F(FailureTest, MiddleboxVmPowerOffStallsButDoesNotCorrupt) {
  cloud::Vm& vm = cloud_.create_vm("vm", "t", 0);
  ASSERT_TRUE(cloud_.create_volume("vol", 20'000).is_ok());
  DeploymentHandle dep = deploy_active("vm", "vol");

  // Prove a write works, then power off the middle-box VM.
  bool first_ok = false;
  vm.disk()->write(0, Bytes(block::kSectorSize, 0xAA),
                   [&](Status s) { first_ok = s.is_ok(); });
  sim_.run();
  ASSERT_TRUE(first_ok);

  dep.mb_vm(0)->node().set_down(true);
  int state = 0;
  vm.disk()->write(8, Bytes(block::kSectorSize, 0xBB),
                   [&](Status s) { state = s.is_ok() ? 1 : -1; });
  sim_.run();
  // Silent node-down gives no RST: the I/O stalls (0), it must not be
  // reported successful, and the earlier data is untouched.
  EXPECT_NE(state, 1);
  auto volume = cloud_.storage(0).volumes().find_by_name("vol");
  EXPECT_EQ(volume.value()->disk().store().read_sync(0, 1),
            Bytes(block::kSectorSize, 0xAA));
  EXPECT_EQ(volume.value()->disk().store().read_sync(8, 1),
            Bytes(block::kSectorSize, 0x00));
}

TEST_F(FailureTest, StorageLinkFlapDropsInFlightOnly) {
  // LEGACY path: flap the host's storage link around an I/O burst.
  cloud::Vm& vm = cloud_.create_vm("vm", "t", 0);
  ASSERT_TRUE(cloud_.create_volume("vol", 20'000).is_ok());
  Status status = error(ErrorCode::kIoError, "unset");
  cloud_.attach_volume(vm, "vol",
                       [&](Status s, cloud::Attachment) { status = s; });
  sim_.run();
  ASSERT_TRUE(status.is_ok());

  bool ok = false;
  vm.disk()->write(0, Bytes(block::kSectorSize, 1),
                   [&](Status s) { ok = s.is_ok(); });
  sim_.run();
  ASSERT_TRUE(ok);

  // No traffic while the link flaps: nothing breaks afterwards (TCP-lite
  // has no keepalives, so an idle flap is invisible).
  cloud_.storage_switch();  // (link is private; flap via node down/up)
  cloud_.storage(0).node().set_down(true);
  sim_.run_for(sim::milliseconds(5));
  cloud_.storage(0).node().set_down(false);

  ok = false;
  vm.disk()->write(8, Bytes(block::kSectorSize, 2),
                   [&](Status s) { ok = s.is_ok(); });
  sim_.run();
  EXPECT_TRUE(ok) << "idle-time outage must not poison the session";
}

TEST_F(FailureTest, RelayRecoveryPreservesExactlyOnceWrites) {
  cloud::Vm& vm = cloud_.create_vm("vm", "t", 0);
  ASSERT_TRUE(cloud_.create_volume("vol", 40'000).is_ok());
  DeploymentHandle dep = deploy_active("vm", "vol");
  core::ActiveRelay& relay = *dep.active_relay(0);

  // Start a 128 KB write; cut the upstream while its burst is in flight;
  // the tenant-side write stalls (journaled), then completes after
  // recovery with byte-exact content.
  Bytes payload = testutil::pattern_bytes(256 * block::kSectorSize);
  int state = 0;
  vm.disk()->write(100, payload, [&](Status s) {
    state = s.is_ok() ? 1 : -1;
  });
  sim_.run_for(sim::microseconds(300));
  relay.fail_upstream();
  sim_.run();
  EXPECT_EQ(state, 0) << "write should stall, not fail: tenant side alive";
  EXPECT_GT(relay.journal_bytes(), 0u);

  relay.recover_upstream();
  sim_.run();
  EXPECT_EQ(state, 1) << "journal replay must complete the write";
  auto volume = cloud_.storage(0).volumes().find_by_name("vol");
  EXPECT_EQ(volume.value()->disk().store().read_sync(100, 256), payload);
}

// A command in flight inside an active relay when it crashes dies with
// the box: its "relay.<vm>" dwell span must end at the crash instead of
// staying open forever while the re-issued command opens a new one.
TEST_F(FailureTest, RelayCrashEndsTheDwellSpansOfCommandsInFlight) {
  cloud::Vm& vm = cloud_.create_vm("vm", "t", 0);
  ASSERT_TRUE(cloud_.create_volume("vol", 40'000).is_ok());
  ServiceSpec spec;
  spec.type = "encryption";
  spec.relay = RelayMode::kActive;
  Status status = error(ErrorCode::kIoError, "unset");
  DeploymentHandle dep;
  platform_.attach_with_chain("vm", "vol", {spec},
                              [&](Result<DeploymentHandle> r) {
                                status = r.status();
                                if (r.is_ok()) dep = r.value();
                              });
  sim_.run();
  ASSERT_TRUE(status.is_ok()) << status.to_string();
  dep.attachment()->initiator->set_recovery({.enabled = true});
  const std::string span_name = "relay." + dep.mb_vm(0)->name();
  const obs::Tracer& tracer = sim_.telemetry().tracer();
  auto open_spans = [&] {
    std::size_t open = 0;
    for (const obs::Span* span : tracer.spans_named(span_name)) {
      if (!span->ended) ++open;
    }
    return open;
  };

  constexpr int kRounds = 4;
  constexpr std::uint32_t kSectors = 128;  // 64 KiB
  for (int round = 0; round < kRounds; ++round) {
    int state = 0;
    vm.disk()->write(static_cast<std::uint64_t>(round) * kSectors,
                     testutil::pattern_bytes(kSectors * block::kSectorSize,
                                             static_cast<std::uint8_t>(round)),
                     [&](Status s) { state = s.is_ok() ? 1 : -1; });
    // Crash mid-burst: once the command has entered the relay, let part
    // of its data follow it in.
    for (int step = 0; step < 1000 && open_spans() == 0; ++step) {
      sim_.run_for(sim::microseconds(10));
    }
    sim_.run_for(sim::microseconds(100));
    ASSERT_EQ(state, 0) << "round " << round;
    ASSERT_GE(open_spans(), 1u) << "the crash must catch a command inside";
    ASSERT_TRUE(dep.crash_middlebox(0).is_ok());
    EXPECT_EQ(open_spans(), 0u) << "round " << round;
    sim_.run_for(sim::milliseconds(20));
    ASSERT_TRUE(dep.restart_middlebox(0).is_ok());
    sim_.run();
    EXPECT_EQ(state, 1) << "round " << round;
  }
  EXPECT_GT(dep.attachment()->initiator->recoveries(), 0u);
  // Nothing stays open once every write has its response: each child
  // span either ended at a crash or when its response passed back.
  EXPECT_GE(tracer.spans_named(span_name).size(),
            static_cast<std::size_t>(kRounds));
  EXPECT_EQ(open_spans(), 0u);
}

TEST_F(FailureTest, ReadsAfterRecoveryAreServed) {
  cloud::Vm& vm = cloud_.create_vm("vm", "t", 0);
  ASSERT_TRUE(cloud_.create_volume("vol", 20'000).is_ok());
  DeploymentHandle dep = deploy_active("vm", "vol");
  core::ActiveRelay& relay = *dep.active_relay(0);

  Bytes data = testutil::pattern_bytes(16 * block::kSectorSize);
  bool ok = false;
  vm.disk()->write(0, data, [&](Status s) { ok = s.is_ok(); });
  sim_.run();
  ASSERT_TRUE(ok);

  relay.fail_upstream();
  sim_.run();
  relay.recover_upstream();
  sim_.run();

  Bytes got;
  vm.disk()->read(0, 16, [&](Status s, Bytes d) {
    ASSERT_TRUE(s.is_ok()) << s.to_string();
    got = std::move(d);
  });
  sim_.run();
  EXPECT_EQ(got, data);
}

// restart() re-dials the upstream leg before the initiator reconnects,
// so for a while the resumed session has no downstream connection. A
// malformed PDU from upstream in that window must only drop the upstream
// leg, not reach for the missing downstream one.
TEST_F(FailureTest, GarbageFromUpstreamBeforeTheInitiatorReconnects) {
  cloud_.create_vm("vm", "t", 0);
  ASSERT_TRUE(cloud_.create_volume("vol", 20'000).is_ok());
  DeploymentHandle dep = deploy_active("vm", "vol");
  core::ActiveRelay& relay = *dep.active_relay(0);

  // A fake target takes the real one's port and answers every new
  // connection with garbage: 0xFFFFFFFF is a length prefix no PDU has.
  net::TcpStack& storage = cloud_.storage(0).node().tcp();
  storage.stop_listening(iscsi::kIscsiPort);
  int answered = 0;
  storage.listen(iscsi::kIscsiPort, [&](net::TcpConnection& conn) {
    conn.send(Bytes(64, 0xFF));
    ++answered;
  });

  ASSERT_TRUE(dep.crash_middlebox(0).is_ok());
  ASSERT_TRUE(dep.restart_middlebox(0).is_ok());
  sim_.run_for(sim::milliseconds(5));

  EXPECT_EQ(answered, 1) << "the restart must re-dial the upstream leg";
  EXPECT_FALSE(relay.crashed());
  bool parse_error = false;
  for (const auto& event : sim_.telemetry().recorder().events()) {
    parse_error = parse_error ||
                  event.what.find(": parse error: ") != std::string::npos;
  }
  EXPECT_TRUE(parse_error) << "the garbage must reach the relay's parser";
}

TEST_F(FailureTest, DetachMidWriteDrainsWithoutLossOrDuplication) {
  cloud::Vm& vm = cloud_.create_vm("vm", "t", 0);
  ASSERT_TRUE(cloud_.create_volume("vol", 40'000).is_ok());
  DeploymentHandle dep = deploy_active("vm", "vol");

  // A burst of distinct-LBA writes, then detach while they are still in
  // flight: the drain protocol must land every admitted write exactly
  // once before the rules come down.
  constexpr int kWrites = 8;
  constexpr std::uint32_t kSectors = 16;
  int completed = 0;
  int failed = 0;
  for (int i = 0; i < kWrites; ++i) {
    vm.disk()->write(
        static_cast<std::uint64_t>(i) * kSectors,
        testutil::pattern_bytes(kSectors * block::kSectorSize,
                                static_cast<std::uint8_t>(i + 1)),
        [&](Status s) {
          ++completed;
          if (!s.is_ok()) ++failed;
        });
  }
  sim_.run_for(sim::microseconds(200));  // mid-flight
  ASSERT_GT(dep.attachment()->initiator->outstanding(), 0u);
  ASSERT_LT(completed, kWrites);
  ASSERT_TRUE(dep.detach().is_ok());
  EXPECT_TRUE(dep.draining());

  // Nothing new is admitted once the drain begins.
  int late = 0;
  vm.disk()->write(static_cast<std::uint64_t>(kWrites) * kSectors,
                   Bytes(block::kSectorSize, 0xEE),
                   [&](Status s) { late = s.is_ok() ? 1 : -1; });
  sim_.run();
  EXPECT_EQ(late, -1) << "post-detach write must be refused";

  // Every admitted write completed, none errored, and the image holds
  // each block exactly as written — no loss, no duplication.
  EXPECT_EQ(completed, kWrites);
  EXPECT_EQ(failed, 0);
  EXPECT_FALSE(dep.valid()) << "teardown must invalidate the handle";
  auto volume = cloud_.storage(0).volumes().find_by_name("vol");
  for (int i = 0; i < kWrites; ++i) {
    EXPECT_EQ(volume.value()->disk().store().read_sync(
                  static_cast<std::uint64_t>(i) * kSectors, kSectors),
              testutil::pattern_bytes(kSectors * block::kSectorSize,
                                      static_cast<std::uint8_t>(i + 1)))
        << "block " << i;
  }
}

// The drain poll's deadline branch: a chain whose relay died with writes
// in flight can never go quiescent, so detach must force the teardown
// once the drain timeout passes — not before — and invalidate the handle.
TEST_F(FailureTest, DetachOfDeadChainForcesTeardownAtDrainTimeout) {
  cloud::Vm& vm = cloud_.create_vm("vm", "t", 0);
  ASSERT_TRUE(cloud_.create_volume("vol", 40'000).is_ok());
  DeploymentHandle dep = deploy_active("vm", "vol");
  for (std::uint64_t i = 0; i < 4; ++i) {
    vm.disk()->write(i * 16, testutil::pattern_bytes(16 * block::kSectorSize),
                     [](Status) {});
  }
  sim_.run_for(sim::microseconds(200));  // mid-flight
  ASSERT_GT(dep.attachment()->initiator->outstanding(), 0u);
  ASSERT_TRUE(dep.crash_middlebox(0).is_ok());

  constexpr sim::Duration kTimeout = core::StormPlatform::kDrainTimeout;
  const sim::Time begin = sim_.now();
  ASSERT_TRUE(dep.detach().is_ok());
  sim_.run_until(begin + kTimeout - sim::microseconds(200));
  EXPECT_TRUE(dep.valid()) << "teardown forced before the drain timeout";
  EXPECT_TRUE(dep.draining());

  sim_.run_until(begin + kTimeout + sim::microseconds(200));
  EXPECT_FALSE(dep.valid()) << "a wedged chain must not pin the deployment";
  EXPECT_FALSE(platform_.find_deployment("vm", "vol").valid());
  bool forced = false;
  for (const auto& event : sim_.telemetry().recorder().events()) {
    forced = forced || event.what.find("drain timeout); forcing detach") !=
                           std::string::npos;
  }
  EXPECT_TRUE(forced) << "the forced teardown must be recorded";
}

// Seeded chaos: kill a replica's backing session in the middle of a
// read burst. Reads that were in flight against the dying copy must be
// re-served from survivors with byte-identical payloads, and the read
// accounting must cover every read exactly once (the old dispatch-time
// counter double-counted a failed-over read as served-from-replica).
TEST_F(FailureTest, ReplicaKillMidReadBurstFailsOverWithoutDuplication) {
  cloud::Vm& vm = cloud_.create_vm("db", "t", 0);
  ASSERT_TRUE(cloud_.create_volume("primary", 40'000).is_ok());
  ASSERT_TRUE(cloud_.create_volume("replica0", 40'000).is_ok());
  ASSERT_TRUE(cloud_.create_volume("replica1", 40'000).is_ok());

  ServiceSpec spec;
  spec.type = "replication";
  spec.relay = RelayMode::kActive;
  spec.params["replicas"] = "replica0,replica1";
  spec.quorum.enabled = true;
  spec.quorum.write_quorum = 2;
  Status status = error(ErrorCode::kIoError, "unset");
  DeploymentHandle dep;
  platform_.attach_with_chain("db", "primary", {spec},
                              [&](Result<DeploymentHandle> r) {
                                status = r.status();
                                if (r.is_ok()) dep = r.value();
                              });
  sim_.run();
  ASSERT_TRUE(status.is_ok()) << status.to_string();
  ASSERT_TRUE(dep.valid());
  auto* service =
      static_cast<services::ReplicationService*>(dep.service(0));

  // Seeded layout: 16 extents, each with a pattern derived from its
  // index — a failover that returned the wrong copy's bytes (or stale
  // ones) breaks the comparison below.
  constexpr int kExtents = 16;
  constexpr std::uint32_t kSectors = 8;
  for (int i = 0; i < kExtents; ++i) {
    bool ok = false;
    vm.disk()->write(static_cast<std::uint64_t>(i) * 64,
                     testutil::pattern_bytes(kSectors * block::kSectorSize,
                                             static_cast<std::uint8_t>(i + 1)),
                     [&](Status s) {
                       ASSERT_TRUE(s.is_ok()) << s.to_string();
                       ok = true;
                     });
    sim_.run();
    ASSERT_TRUE(ok);
  }
  const std::uint64_t reads_before = service->reads_from_primary() +
                                     service->reads_from_replicas() +
                                     service->reads_failed_over();

  // Fire the whole burst without draining the simulator, then kill
  // replica0's session while reads are still in flight.
  constexpr int kReads = 48;
  int completed = 0, failed = 0, mismatched = 0;
  for (int i = 0; i < kReads; ++i) {
    const int extent = i % kExtents;
    vm.disk()->read(
        static_cast<std::uint64_t>(extent) * 64, kSectors,
        [&, extent](Status s, Bytes got) {
          ++completed;
          if (!s.is_ok()) {
            ++failed;
            return;
          }
          if (got != testutil::pattern_bytes(
                         kSectors * block::kSectorSize,
                         static_cast<std::uint8_t>(extent + 1))) {
            ++mismatched;
          }
        });
  }
  auto iqn = cloud_.find_attachment(dep.mb_vm(0)->name(), "replica0");
  ASSERT_TRUE(iqn.has_value());
  sim_.schedule_in(sim::microseconds(40), [&] {
    cloud_.storage(0).target().close_sessions_for(iqn->iqn);
  });
  sim_.run();

  EXPECT_EQ(completed, kReads) << "every read must complete";
  EXPECT_EQ(failed, 0) << "failover must hide the replica death";
  EXPECT_EQ(mismatched, 0) << "failover payloads must be byte-identical";
  EXPECT_EQ(service->replica_state(0),
            services::ReplicaState::kDegraded);

  // Exactly-once accounting: primary + replica + failed-over sums to
  // the burst, with no read counted both as replica-served and as a
  // failover (the dispatch-time double-count this suite guards).
  EXPECT_EQ(service->reads_from_primary() + service->reads_from_replicas() +
                service->reads_failed_over() - reads_before,
            static_cast<std::uint64_t>(kReads));
  EXPECT_GT(service->reads_failed_over(), 0u)
      << "the kill must have caught reads in flight";
}

// --- double-indirect reconstruction (large files) -----------------------------

TEST(ReconstructionLarge, DoubleIndirectFilesResolve) {
  sim::Simulator sim;
  block::MemDisk disk(16384 * fs::kSectorsPerBlock);  // 64 MB
  ASSERT_TRUE(fs::SimExt::mkfs(disk).is_ok());

  std::unique_ptr<core::SemanticsReconstructor> recon;
  struct Tap : block::BlockDevice {
    block::MemDisk& inner;
    std::unique_ptr<core::SemanticsReconstructor>& recon;
    Tap(block::MemDisk& d, std::unique_ptr<core::SemanticsReconstructor>& r)
        : inner(d), recon(r) {}
    void read(std::uint64_t lba, std::uint32_t count,
              ReadCallback done) override {
      if (recon) recon->on_read(lba, count * 512ull);
      inner.read(lba, count, std::move(done));
    }
    void write(std::uint64_t lba, Bytes data, WriteCallback done) override {
      if (recon) recon->on_write(lba, data);
      inner.write(lba, std::move(data), std::move(done));
    }
    std::uint64_t num_sectors() const override {
      return inner.num_sectors();
    }
  } tap{disk, recon};

  fs::SimExt fs(sim, tap);
  fs.mount([](Status s) { ASSERT_TRUE(s.is_ok()); });
  sim.run();
  recon = core::SemanticsReconstructor::unformatted();
  // Arm from live traffic: rewrite the superblock through the tap.
  recon->on_write(0, disk.read_sync(0, fs::kSectorsPerBlock));
  ASSERT_TRUE(recon->armed());

  bool ok = false;
  fs.create("/huge", [&](Status s) { ok = s.is_ok(); });
  sim.run();
  ASSERT_TRUE(ok);
  // 6 MB: deep into the double-indirect range (direct 48 KB + indirect
  // 4 MB cover the first ~4.2 MB).
  constexpr std::uint64_t kSize = 6 * 1024 * 1024;
  ok = false;
  fs.write_file("/huge", 0, Bytes(kSize, 0x6D), [&](Status s) {
    ok = s.is_ok();
  });
  sim.run();
  ASSERT_TRUE(ok) << "write failed";

  // Every data block of the double-indirect tail resolves to the path.
  auto ops = recon->on_read((5 * 1024 * 1024 / 512), 64 * 1024);
  ASSERT_FALSE(ops.empty());
  for (const auto& op : ops) {
    EXPECT_EQ(op.path, "/huge") << op.to_string();
  }
}

}  // namespace
}  // namespace storm
