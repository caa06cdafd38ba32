// Fault-injection suite: the deterministic FaultPlan itself, TCP loss
// recovery under induced drop/corrupt/duplicate/reorder, journal
// retention invariants, atomic-attachment rollback, and the full chaos
// test (lossy fabric + middle-box power failure mid-workload) whose
// event trace and data digest must be byte-identical across runs with
// the same seed.
#include <gtest/gtest.h>

#include <set>
#include <string>

#include "cloud/cloud.hpp"
#include "common/hash.hpp"
#include "common/rng.hpp"
#include "core/active_relay.hpp"
#include "core/platform.hpp"
#include "journal/log.hpp"
#include "iscsi/pdu.hpp"
#include "services/registry.hpp"
#include "sim/fault.hpp"
#include "testutil.hpp"

namespace storm {
namespace {

using testutil::ip;
using testutil::TwoNodeNet;

// ------------------------------------------------------------- FaultPlan

TEST(FaultPlan, SameSeedSameDecisionsAndTrace) {
  sim::PacketFaultProfile profile;
  profile.drop_rate = 0.3;
  profile.corrupt_rate = 0.2;
  profile.duplicate_rate = 0.2;
  profile.delay_rate = 0.2;

  sim::Simulator sim_a, sim_b;
  sim::FaultPlan a(sim_a, 42), b(sim_b, 42);
  for (int i = 0; i < 500; ++i) {
    auto da = a.decide(profile, "link");
    auto db = b.decide(profile, "link");
    EXPECT_EQ(da.drop, db.drop);
    EXPECT_EQ(da.corrupt, db.corrupt);
    EXPECT_EQ(da.duplicate, db.duplicate);
    EXPECT_EQ(da.extra_delay, db.extra_delay);
  }
  EXPECT_EQ(a.trace_string(), b.trace_string());
  EXPECT_GT(a.dropped() + a.corrupted() + a.duplicated() + a.delayed(), 0u);
}

TEST(FaultPlan, DifferentSeedsDiverge) {
  sim::PacketFaultProfile profile;
  profile.drop_rate = 0.5;
  sim::Simulator sim;
  sim::FaultPlan a(sim, 1), b(sim, 2);
  for (int i = 0; i < 1000; ++i) {
    a.decide(profile, "l");
    b.decide(profile, "l");
  }
  EXPECT_NE(a.trace_string(), b.trace_string());
}

TEST(FaultPlan, FlipRandomBitChangesExactlyOneBit) {
  sim::Simulator sim;
  sim::FaultPlan plan(sim, 7);
  Bytes buf = testutil::pattern_bytes(64);
  Bytes orig = buf;
  plan.flip_random_bit(buf);
  int diff_bits = 0;
  for (std::size_t i = 0; i < buf.size(); ++i) {
    std::uint8_t x = buf[i] ^ orig[i];
    while (x) {
      diff_bits += x & 1;
      x >>= 1;
    }
  }
  EXPECT_EQ(diff_bits, 1);
}

TEST(FaultPlan, ReachesHostAndStorageLinksOfAnyCloud) {
  // A fault plan armed on a cloud built from Cloud::parallel_config must
  // observe every link, the host and storage NICs included.
  cloud::CloudConfig config;
  config.compute_hosts = 2;
  config.storage_hosts = 1;
  sim::Simulator sim(cloud::Cloud::parallel_config(config));
  cloud::Cloud cloud(sim, config);
  sim::FaultPlan plan(sim, 11);
  sim::PacketFaultProfile profile;
  profile.drop_rate = 0.05;
  cloud.set_fault_plan(&plan, profile);

  cloud::Vm& vm = cloud.create_vm("vm", "t", 1);
  ASSERT_TRUE(cloud.create_volume("vol", 4096).is_ok());
  Status attached = error(ErrorCode::kIoError, "unset");
  cloud.attach_volume(vm, "vol",
                      [&](Status s, cloud::Attachment) { attached = s; });
  sim.run();
  ASSERT_TRUE(attached.is_ok()) << attached.to_string();
  for (int i = 0; i < 8; ++i) {
    vm.disk()->write(static_cast<std::uint64_t>(i) * 8,
                     Bytes(8 * block::kSectorSize, 0x5A), [](Status) {});
  }
  sim.run();

  std::set<std::string> labels;
  for (const sim::FaultEvent& ev : plan.trace()) labels.insert(ev.label);
  EXPECT_TRUE(labels.count("drop host1.storage") != 0 ||
              labels.count("drop storage0.storage") != 0)
      << plan.trace_string();
}

TEST(FaultPlan, ScheduledEventsFireInOrderAndTrace) {
  sim::Simulator sim;
  sim::FaultPlan plan(sim, 9);
  std::vector<std::string> fired;
  plan.schedule(sim::milliseconds(2), "second", [&] { fired.push_back("b"); });
  plan.schedule(sim::milliseconds(1), "first", [&] { fired.push_back("a"); });
  sim.run();
  ASSERT_EQ(fired.size(), 2u);
  EXPECT_EQ(fired[0], "a");
  EXPECT_EQ(fired[1], "b");
  ASSERT_EQ(plan.trace().size(), 2u);
  EXPECT_EQ(plan.trace()[0].label, "first");
  EXPECT_EQ(plan.trace()[1].label, "second");
  EXPECT_EQ(plan.trace()[0].at, sim::milliseconds(1));
}

// ----------------------------------------------- TCP under induced faults

Bytes transfer_through(TwoNodeNet& net, sim::FaultPlan& plan,
                       sim::PacketFaultProfile profile, std::size_t size) {
  net.link.set_fault(&plan, profile, "ab");
  Bytes received;
  net.b.tcp().listen(80, [&](net::TcpConnection& conn) {
    conn.set_on_data([&](Buf data) {
      received.insert(received.end(), data.begin(), data.end());
    });
  });
  net::TcpConnection& client =
      net.a.tcp().connect(net::SocketAddr{ip("10.0.0.2"), 80}, [] {});
  client.send(testutil::pattern_bytes(size));
  net.sim.run();
  return received;
}

TEST(TcpFault, RecoversFromPacketLoss) {
  TwoNodeNet net;
  sim::FaultPlan plan(net.sim, 11);
  sim::PacketFaultProfile profile;
  profile.drop_rate = 0.05;
  Bytes got = transfer_through(net, plan, profile, 200'000);
  EXPECT_TRUE(testutil::same_bytes(got, testutil::pattern_bytes(200'000)));
  EXPECT_GT(plan.dropped(), 0u);
  EXPECT_GT(net.a.tcp().retransmits(), 0u);
}

TEST(TcpFault, ChecksumRejectsCorruptedSegments) {
  TwoNodeNet net;
  sim::FaultPlan plan(net.sim, 12);
  sim::PacketFaultProfile profile;
  profile.corrupt_rate = 0.05;
  Bytes got = transfer_through(net, plan, profile, 200'000);
  EXPECT_TRUE(testutil::same_bytes(got, testutil::pattern_bytes(200'000)));
  EXPECT_GT(plan.corrupted(), 0u);
  // Corrupted segments must be dropped by the checksum, then retransmitted.
  EXPECT_GT(net.a.tcp().checksum_drops() + net.b.tcp().checksum_drops(), 0u);
}

TEST(TcpFault, DuplicatesDoNotDuplicateDelivery) {
  TwoNodeNet net;
  sim::FaultPlan plan(net.sim, 13);
  sim::PacketFaultProfile profile;
  profile.duplicate_rate = 0.1;
  Bytes got = transfer_through(net, plan, profile, 100'000);
  EXPECT_EQ(got.size(), 100'000u);
  EXPECT_TRUE(testutil::same_bytes(got, testutil::pattern_bytes(100'000)));
  EXPECT_GT(plan.duplicated(), 0u);
}

TEST(TcpFault, ReorderingIsResequenced) {
  TwoNodeNet net;
  sim::FaultPlan plan(net.sim, 14);
  sim::PacketFaultProfile profile;
  profile.delay_rate = 0.1;
  profile.delay_jitter = sim::milliseconds(2);
  Bytes got = transfer_through(net, plan, profile, 100'000);
  EXPECT_TRUE(testutil::same_bytes(got, testutil::pattern_bytes(100'000)));
  EXPECT_GT(plan.delayed(), 0u);
}

TEST(TcpFault, CombinedStormStillDeliversExactly) {
  TwoNodeNet net;
  sim::FaultPlan plan(net.sim, 15);
  sim::PacketFaultProfile profile;
  profile.drop_rate = 0.02;
  profile.corrupt_rate = 0.01;
  profile.duplicate_rate = 0.02;
  profile.delay_rate = 0.05;
  Bytes got = transfer_through(net, plan, profile, 300'000);
  EXPECT_TRUE(testutil::same_bytes(got, testutil::pattern_bytes(300'000)));
}

TEST(TcpFault, TotalLossFailsConnectionAfterRetries) {
  TwoNodeNet net;
  sim::FaultPlan plan(net.sim, 16);
  sim::PacketFaultProfile profile;
  profile.drop_rate = 1.0;  // black hole
  net.link.set_fault(&plan, profile, "ab");
  bool established = false;
  Status closed = Status::ok();
  net::TcpConnection& client = net.a.tcp().connect(
      net::SocketAddr{ip("10.0.0.2"), 80}, [&] { established = true; });
  client.set_on_closed([&](Status s) { closed = s; });
  net.sim.run();
  EXPECT_FALSE(established);
  EXPECT_EQ(closed.code(), ErrorCode::kConnectionFailed);
  EXPECT_GE(client.retransmits(), net::kTcpMaxRetries);
}

// ----------------------------------- relay journal stream semantics unit
// These began life against the per-session RelayJournal buffer; the relay
// now journals through a journal::Stream multiplexed into a shared
// journal::Device, and the burst-atomicity/watermark semantics must hold
// unchanged on the new engine.

Bytes wire_of(const iscsi::Pdu& pdu) { return iscsi::serialize(pdu); }

TEST(RelayJournal, TrimNeverSplitsABurst) {
  sim::Simulator sim;
  journal::Device device(sim, sim.telemetry().scope("journal."));
  journal::Stream journal(device);
  // Burst 1: A (final). Burst 2: B (mid) + C (final). Burst 3: D (mid).
  journal.append({Buf(Bytes(10, 1))}, 10, true);
  journal.append({Buf(Bytes(10, 2))}, 20, false);
  journal.append({Buf(Bytes(10, 3))}, 30, true);
  journal.append({Buf(Bytes(10, 4))}, 40, false);
  ASSERT_EQ(journal.entries(), 4u);

  // Ack lands mid-burst-2: only whole burst 1 may go.
  journal.trim(25);
  EXPECT_EQ(journal.entries(), 3u);
  EXPECT_EQ(journal.bytes(), 30u);

  // Ack covers burst 2 exactly: B and C go, the torn tail D stays.
  journal.trim(30);
  EXPECT_EQ(journal.entries(), 1u);
  EXPECT_EQ(chain_to_bytes(journal.unacknowledged().front()), Bytes(10, 4));

  // Acks past a non-boundary tail never drop it.
  journal.trim(1000);
  EXPECT_EQ(journal.entries(), 1u);
}

TEST(RelayJournal, ReplayHeadIsAlwaysAFreshCommand) {
  // Build a journal the way the relay does: two write bursts, each a
  // command PDU followed by Data-Out PDUs (final flag on the last).
  struct Entry {
    Bytes wire;
    std::uint64_t watermark;
    bool boundary;
  };
  std::vector<Entry> entries;
  std::uint64_t watermark = 0;
  std::vector<std::uint64_t> watermarks;
  for (std::uint32_t burst = 0; burst < 2; ++burst) {
    iscsi::Pdu cmd = iscsi::make_write_command(burst + 1, burst * 64, 16384);
    Bytes w = wire_of(cmd);
    watermark += w.size();
    entries.push_back(Entry{std::move(w), watermark, cmd.is_final()});
    watermarks.push_back(watermark);
    for (std::uint32_t off = 0; off < 16384; off += iscsi::kMaxDataSegment) {
      iscsi::Pdu data = iscsi::make_data_out(
          burst + 1, off, Bytes(iscsi::kMaxDataSegment, 0x5A),
          off + iscsi::kMaxDataSegment == 16384);
      Bytes dw = wire_of(data);
      watermark += dw.size();
      entries.push_back(Entry{std::move(dw), watermark, data.is_final()});
      watermarks.push_back(watermark);
    }
  }

  // Sweep every entry boundary (and a mid-entry ack): after any trim, a
  // replay must start at a SCSI command, never inside a burst. The old
  // buffer was copyable; the engine is not, so rebuild per ack point.
  std::vector<std::uint64_t> acks = watermarks;
  for (std::uint64_t w : watermarks) acks.push_back(w > 3 ? w - 3 : 0);
  acks.push_back(0);
  for (std::uint64_t ack : acks) {
    sim::Simulator sim;
    journal::Device device(sim, sim.telemetry().scope("journal."));
    journal::Stream journal(device);
    for (const Entry& e : entries) {
      journal.append({Buf(Bytes(e.wire))}, e.watermark, e.boundary);
    }
    journal.trim(ack);
    auto replay = journal.unacknowledged();
    if (replay.empty()) continue;
    Bytes head = chain_to_bytes(replay.front());
    auto parsed = iscsi::parse_pdu(
        Buf::copy(std::span<const std::uint8_t>(head).subspan(4)));
    ASSERT_TRUE(parsed.is_ok()) << "ack=" << ack;
    EXPECT_EQ(parsed.value().opcode, iscsi::Opcode::kScsiCommand)
        << "replay after ack=" << ack << " starts mid-burst with "
        << iscsi::to_string(parsed.value().opcode);
  }
}

TEST(RelayJournal, WatermarkTrimmingTracksBytes) {
  sim::Simulator sim;
  journal::Device device(sim, sim.telemetry().scope("journal."));
  journal::Stream journal(device);
  journal.append({Buf(Bytes(100, 1))}, 100, true);
  journal.append({Buf(Bytes(50, 2))}, 150, true);
  EXPECT_EQ(journal.bytes(), 150u);
  journal.trim(99);  // nothing fully acked
  EXPECT_EQ(journal.bytes(), 150u);
  journal.trim(100);
  EXPECT_EQ(journal.bytes(), 50u);
  journal.trim(150);
  EXPECT_EQ(journal.bytes(), 0u);
  EXPECT_TRUE(journal.unacknowledged().empty());
}

// --------------------------------------------- atomic attachment rollback

class PlatformFaultTest : public ::testing::Test {
 protected:
  PlatformFaultTest() : cloud_(sim_, cloud::CloudConfig{}),
                        platform_(cloud_) {
    services::register_builtin_services(platform_);
  }

  core::DeploymentHandle deploy(const std::string& vm, const std::string& vol,
                                Status* out_status = nullptr) {
    core::ServiceSpec spec;
    spec.type = "noop";
    spec.relay = core::RelayMode::kActive;
    Status status = error(ErrorCode::kIoError, "unset");
    core::DeploymentHandle deployment;
    platform_.attach_with_chain(vm, vol, {spec},
                                [&](Result<core::DeploymentHandle> r) {
                                  status = r.status();
                                  if (r.is_ok()) deployment = r.value();
                                });
    sim_.run();
    if (out_status != nullptr) *out_status = status;
    return deployment;
  }

  /// Count rules tagged with `cookie` anywhere in the fabric. Rollback
  /// must leave this at zero.
  std::size_t rules_with_cookie(std::uint64_t cookie) {
    std::size_t count = 0;
    for (net::FlowSwitch* fs : cloud_.flow_switches()) {
      for (const auto& rule : fs->rules()) {
        if (rule.cookie == cookie) ++count;
      }
    }
    auto& gws = platform_.splicer().tenant_gateways("t");
    count += gws.ingress->nat().remove_rules_by_cookie(cookie);
    count += gws.egress->nat().remove_rules_by_cookie(cookie);
    for (unsigned i = 0; i < cloud_.compute_count(); ++i) {
      count += cloud_.compute(i).node().nat().remove_rules_by_cookie(cookie);
    }
    return count;
  }

  sim::Simulator sim_;
  cloud::Cloud cloud_;
  core::StormPlatform platform_;
};

TEST_F(PlatformFaultTest, FailedAttachRollsBackAllRulesAndFlows) {
  cloud_.create_vm("vm", "t", 0);
  ASSERT_TRUE(cloud_.create_volume("vol", 20'000).is_ok());

  // Backend dark before the attach: every rule is installed, the login
  // SYN retries exhaust, and the attach must fail *atomically* — no NAT
  // rule, no SDN flow, no deployment left behind.
  cloud_.storage(0).node().set_down(true);

  Status status = Status::ok();
  core::DeploymentHandle dep = deploy("vm", "vol", &status);
  EXPECT_FALSE(status.is_ok());
  EXPECT_FALSE(dep.valid());
  EXPECT_FALSE(platform_.find_deployment("vm", "vol").valid());
  EXPECT_EQ(rules_with_cookie(1), 0u) << "half-spliced state survived";
  EXPECT_FALSE(cloud_.find_attachment("vm", "vol").has_value());

  // The fabric is clean: power the backend back on and the same attach
  // succeeds from scratch.
  cloud_.storage(0).node().set_down(false);
  dep = deploy("vm", "vol", &status);
  EXPECT_TRUE(status.is_ok()) << status.to_string();
  ASSERT_TRUE(dep.valid());

  cloud::Vm& vm = *cloud_.find_vm("vm");
  bool ok = false;
  vm.disk()->write(0, Bytes(block::kSectorSize, 0xCD),
                   [&](Status s) { ok = s.is_ok(); });
  sim_.run();
  EXPECT_TRUE(ok);
}

TEST_F(PlatformFaultTest, CrashAndRestartReplaysJournal) {
  cloud::Vm& vm = cloud_.create_vm("vm", "t", 0);
  ASSERT_TRUE(cloud_.create_volume("vol", 40'000).is_ok());
  core::DeploymentHandle dep = deploy("vm", "vol");
  ASSERT_TRUE(dep.valid());
  dep.attachment()->initiator->set_recovery({.enabled = true});

  Bytes payload = testutil::pattern_bytes(128 * block::kSectorSize);
  int state = 0;
  vm.disk()->write(64, payload, [&](Status s) { state = s.is_ok() ? 1 : -1; });
  // Power-fail the middle-box with the burst mid-flight.
  sim_.run_for(sim::microseconds(400));
  ASSERT_TRUE(dep.crash_middlebox(0).is_ok());
  sim_.run_for(sim::milliseconds(20));
  ASSERT_TRUE(dep.restart_middlebox(0).is_ok());
  sim_.run();

  EXPECT_EQ(state, 1) << "write lost across middle-box power failure";
  EXPECT_GT(dep.active_relay(0)->journal_replays(), 0u);
  EXPECT_GT(dep.attachment()->initiator->recoveries(), 0u);
  auto volume = cloud_.storage(0).volumes().find_by_name("vol");
  EXPECT_EQ(volume.value()->disk().store().read_sync(64, 128), payload);
}

// ------------------------------------------- backpressure under stall

/// Active-relay deployment with tenant-tuned NVRAM watermarks: pause
/// ingress credit at 32 KiB buffered, resume at 8 KiB.
core::DeploymentHandle deploy_with_watermarks(core::StormPlatform& platform,
                                              sim::Simulator& sim) {
  core::ServiceSpec spec;
  spec.type = "noop";
  spec.relay = core::RelayMode::kActive;
  spec.params["journal_hwm_kb"] = "32";
  spec.params["journal_lwm_kb"] = "8";
  Status status = error(ErrorCode::kIoError, "unset");
  core::DeploymentHandle dep;
  platform.attach_with_chain("vm", "vol", {spec},
                             [&](Result<core::DeploymentHandle> r) {
                               status = r.status();
                               if (r.is_ok()) dep = r.value();
                             });
  sim.run();
  EXPECT_TRUE(status.is_ok()) << status.to_string();
  return dep;
}

TEST_F(PlatformFaultTest, WatermarksBoundRelayBufferingAcrossStall) {
  cloud::Vm& vm = cloud_.create_vm("vm", "t", 0);
  ASSERT_TRUE(cloud_.create_volume("vol", 40'000).is_ok());
  core::DeploymentHandle dep = deploy_with_watermarks(platform_, sim_);
  ASSERT_TRUE(dep.valid());
  core::ActiveRelay* relay = dep.active_relay(0);
  ASSERT_NE(relay, nullptr);
  ASSERT_EQ(relay->flow_control().high_watermark, 32u * 1024u);

  // Stall the backend for 500 ms of sim time while the initiator keeps
  // four 64 KiB writes in flight (each completion issues the next).
  cloud_.storage(0).node().set_down(true);
  sim_.schedule_in(sim::milliseconds(500),
             [&] { cloud_.storage(0).node().set_down(false); });

  constexpr int kWrites = 24;
  constexpr std::uint32_t kSectors = 128;  // 64 KiB each, distinct LBAs
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

  // Mid-stall the relay must be paused with its buffering pinned near
  // the watermark, and the stalled-but-alive initiator must not have
  // lost its connection.
  sim_.run_until(sim::milliseconds(300));
  EXPECT_GE(relay->paused_directions(), 1u);
  EXPECT_GE(relay->buffered_bytes(), 32u * 1024u);

  sim_.run();
  EXPECT_EQ(completed, kWrites);
  EXPECT_EQ(failed, 0);
  // Bound: one complete 64 KiB burst (the watermarks only count complete
  // bursts, so a burst already past the 32 KiB watermark finishes) + one
  // receive window of in-flight credit for the next torn burst + header/
  // segmentation slack. Without backpressure the early-ACK loop would
  // have journaled the whole 1.5 MiB workload during the stall.
  EXPECT_GE(relay->peak_buffered_bytes(), 32u * 1024u);
  EXPECT_LE(relay->peak_buffered_bytes(), 64u * 1024u + 36u * 1024u + 28u * 1024u);
  // Fully drained and unpaused once the backend caught up.
  EXPECT_EQ(relay->queue_bytes(), 0u);
  EXPECT_EQ(relay->paused_directions(), 0u);
  EXPECT_EQ(relay->journal_bytes(), 0u);

  // Early-ACK semantics below the watermark survived: every byte landed.
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

// The backpressure-paused-crash replay regression moved to
// failure_test.cpp (FailureTest.JournalReplaysAfterBackpressurePausedCrash),
// re-pointed at the journal engine with segment-level asserts.

// ------------------------------------------------------------- chaos test

struct ChaosOutcome {
  std::string trace;
  Bytes image;               // the final volume image
  std::uint32_t digest = 0;  // crc32 of `image`: what same-seed runs compare
  std::uint64_t dropped = 0;
  std::uint64_t corrupted = 0;
  std::uint64_t replays = 0;
  std::uint64_t recoveries = 0;
  std::uint64_t retransmits = 0;
  int failed_writes = 0;
  std::string first_error;
};

/// One full chaos run: active-relay chain, 1% loss / 0.1% corruption /
/// 0.2% duplication on every link, middle-box power failure at the
/// workload's midpoint, restart 20 ms later. Returns the fault trace and
/// the final volume image with its digest.
ChaosOutcome run_chaos(std::uint64_t seed) {
  sim::Simulator sim;
  cloud::Cloud cloud(sim, cloud::CloudConfig{});
  core::StormPlatform platform(cloud);
  services::register_builtin_services(platform);
  sim::FaultPlan plan(sim, seed);

  cloud::Vm& vm = cloud.create_vm("vm", "t", 0);
  if (!cloud.create_volume("vol", 40'000).is_ok()) return {};
  core::ServiceSpec spec;
  spec.type = "noop";
  spec.relay = core::RelayMode::kActive;
  Status status = error(ErrorCode::kIoError, "unset");
  core::DeploymentHandle dep;
  platform.attach_with_chain("vm", "vol", {spec},
                             [&](Result<core::DeploymentHandle> r) {
                               status = r.status();
                               if (r.is_ok()) dep = r.value();
                             });
  sim.run();
  if (!status.is_ok() || !dep.valid()) return {};
  dep.attachment()->initiator->set_recovery({.enabled = true});

  // Faults arm only after the clean attach: the acceptance scenario is a
  // healthy deployment hit by a lossy fabric plus a power failure.
  sim::PacketFaultProfile profile;
  profile.drop_rate = 0.01;
  profile.corrupt_rate = 0.001;
  profile.duplicate_rate = 0.002;
  cloud.set_fault_plan(&plan, profile);

  constexpr int kWrites = 24;
  constexpr std::uint32_t kSectors = 16;  // 8 KB each, distinct LBAs
  ChaosOutcome out;
  int completed = 0;
  for (int i = 0; i < kWrites; ++i) {
    Bytes data = testutil::pattern_bytes(
        kSectors * block::kSectorSize, static_cast<std::uint8_t>(i + 1));
    vm.disk()->write(static_cast<std::uint64_t>(i) * kSectors,
                     std::move(data), [&, i](Status s) {
                       ++completed;
                       if (!s.is_ok()) {
                         ++out.failed_writes;
                         if (out.first_error.empty()) {
                           out.first_error = s.to_string();
                         }
                       }
                       if (i == kWrites / 2) {
                         // Power-fail the middle-box mid-workload; bring
                         // it back 20 ms later.
                         plan.record("crash mb0");
                         (void)dep.crash_middlebox(0);
                         plan.schedule(
                             sim.now() + sim::milliseconds(20), "restart mb0",
                             [&] { (void)dep.restart_middlebox(0); });
                       }
                     });
  }
  sim.run();

  if (completed != kWrites) out.failed_writes = kWrites - completed;
  out.trace = plan.trace_string();
  out.dropped = plan.dropped();
  out.corrupted = plan.corrupted();
  out.replays = dep.active_relay(0)->journal_replays();
  out.recoveries = dep.attachment()->initiator->recoveries();
  out.retransmits = cloud.compute(0).node().tcp().retransmits();

  auto volume = cloud.storage(0).volumes().find_by_name("vol");
  out.image = volume.value()->disk().store().read_sync(
      0, kWrites * kSectors);
  out.digest = crc32(out.image);
  return out;
}

TEST(Chaos, SameSeedIsByteIdenticalAndLosesNothing) {
  ChaosOutcome first = run_chaos(0xC0FFEE);
  ChaosOutcome second = run_chaos(0xC0FFEE);

  // Determinism: same seed -> same fault trace, same final volume image.
  EXPECT_EQ(first.trace, second.trace);
  EXPECT_EQ(first.digest, second.digest);
  ASSERT_FALSE(first.image.empty());

  // Zero data loss through loss, corruption, duplication and a
  // mid-workload middle-box power failure.
  EXPECT_EQ(first.failed_writes, 0);
  EXPECT_EQ(second.failed_writes, 0);

  // The run actually exercised the machinery it claims to.
  EXPECT_GT(first.dropped, 0u);
  EXPECT_GT(first.corrupted, 0u);
  EXPECT_GT(first.replays, 0u);
  EXPECT_GT(first.recoveries, 0u);
  EXPECT_GT(first.retransmits, 0u);

  // The expected image: every write landed exactly where it was aimed.
  Bytes expected;
  for (int i = 0; i < 24; ++i) {
    Bytes chunk = testutil::pattern_bytes(16 * block::kSectorSize,
                                          static_cast<std::uint8_t>(i + 1));
    expected.insert(expected.end(), chunk.begin(), chunk.end());
  }
  EXPECT_TRUE(testutil::same_bytes(first.image, expected));
}

TEST(Chaos, DifferentSeedsProduceDifferentTracesSameData) {
  ChaosOutcome a = run_chaos(1);
  ChaosOutcome b = run_chaos(2);
  EXPECT_NE(a.trace, b.trace);
  // Data integrity is seed-independent.
  EXPECT_EQ(a.digest, b.digest);
  EXPECT_EQ(a.failed_writes, 0) << a.first_error;
  EXPECT_EQ(b.failed_writes, 0) << b.first_error;
}

}  // namespace
}  // namespace storm
