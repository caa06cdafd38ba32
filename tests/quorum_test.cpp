// Quorum replication + copy-machine rebuild suite: W-of-N write commit,
// the versioned read rotation, and the throttled background rebuild that
// returns a degraded replica to parity (ISSUE 8 tentpole).
#include <gtest/gtest.h>

#include <functional>

#include "core/platform.hpp"
#include "net/qos.hpp"
#include "services/rebuild.hpp"
#include "services/registry.hpp"
#include "services/replication.hpp"
#include "testutil.hpp"

namespace storm::services {
namespace {

using core::DeploymentHandle;
using core::RelayMode;
using core::ServiceSpec;

// --- ExtentSet ----------------------------------------------------------------

TEST(ExtentSet, CoalescesOverlappingAndAdjacentRanges) {
  ExtentSet set;
  set.add(10, 20);
  set.add(30, 40);
  EXPECT_EQ(set.count(), 2u);
  set.add(20, 30);  // bridges the gap
  EXPECT_EQ(set.count(), 1u);
  EXPECT_EQ(set.sectors(), 30u);
  EXPECT_TRUE(set.intersects(15, 16));
  EXPECT_TRUE(set.intersects(0, 11));
  EXPECT_FALSE(set.intersects(0, 10));  // half-open: [0,10) misses [10,40)
  EXPECT_FALSE(set.intersects(40, 50));
}

TEST(ExtentSet, RemoveSplitsAndTakeFrontChunks) {
  ExtentSet set;
  set.add(0, 100);
  set.remove(40, 60);  // splits into [0,40) and [60,100)
  EXPECT_EQ(set.count(), 2u);
  EXPECT_EQ(set.sectors(), 80u);
  EXPECT_FALSE(set.intersects(40, 60));

  auto chunk = set.take_front(32);
  EXPECT_EQ(chunk.first, 0u);
  EXPECT_EQ(chunk.second, 32u);
  chunk = set.take_front(32);
  EXPECT_EQ(chunk.first, 32u);
  EXPECT_EQ(chunk.second, 40u);  // clipped at the extent boundary
  chunk = set.take_front(1000);
  EXPECT_EQ(chunk.first, 60u);
  EXPECT_EQ(chunk.second, 100u);
  EXPECT_TRUE(set.empty());
  chunk = set.take_front(8);
  EXPECT_EQ(chunk.first, 0u);
  EXPECT_EQ(chunk.second, 0u);
}

// --- CopyMachine --------------------------------------------------------------

class CopyMachineTest : public ::testing::Test {
 protected:
  static constexpr std::uint64_t kSectors = 4096;

  CopyMachineTest() : source_(kSectors), target_(kSectors) {}

  // rate/burst default to "effectively unthrottled" for logic tests.
  std::shared_ptr<CopyMachine> make_machine(
      std::uint64_t rate = 1'000'000'000, std::uint64_t burst = 1 << 20) {
    pacer_ = std::make_unique<net::TokenBucket>(sim_.executor(0), rate, burst);
    CopyMachine::Hooks hooks;
    hooks.read_source = [this](std::uint64_t lba, std::uint32_t sectors,
                               block::BlockDevice::ReadCallback done) {
      if (source_dead_) {
        done(error(ErrorCode::kUnavailable, "no source"), {});
        return;
      }
      if (hold_reads_) {
        held_.push_back([this, lba, sectors, done = std::move(done)] {
          source_.read(lba, sectors, done);
        });
        return;
      }
      source_.read(lba, sectors, std::move(done));
    };
    hooks.on_chunk = [this](std::uint64_t, std::uint64_t sectors) {
      ++chunks_;
      copied_sectors_ += sectors;
    };
    hooks.on_drained = [this] { ++drained_; };
    hooks.on_target_error = [this](Status) { ++target_errors_; };
    return std::make_shared<CopyMachine>(sim_.executor(0), *pacer_, &target_,
                                         dirty_, hooks);
  }

  sim::Simulator sim_;
  block::MemDisk source_;
  block::MemDisk target_;
  ExtentSet dirty_;
  std::unique_ptr<net::TokenBucket> pacer_;
  bool source_dead_ = false;
  bool hold_reads_ = false;
  std::vector<std::function<void()>> held_;
  int chunks_ = 0;
  int drained_ = 0;
  int target_errors_ = 0;
  std::uint64_t copied_sectors_ = 0;
};

TEST_F(CopyMachineTest, DrainsDirtyExtentsLowestFirstAndMatchesSource) {
  Bytes data = testutil::pattern_bytes(512 * block::kSectorSize);
  source_.write_sync(100, data);
  dirty_.add(100, 612);
  dirty_.add(2000, 2010);
  source_.write_sync(2000, testutil::pattern_bytes(10 * block::kSectorSize, 7));

  auto machine = make_machine();
  machine->kick();
  sim_.run();

  EXPECT_EQ(drained_, 1);
  EXPECT_TRUE(dirty_.empty());
  EXPECT_EQ(copied_sectors_, 522u);
  EXPECT_EQ(machine->bytes_copied(), 522u * block::kSectorSize);
  EXPECT_EQ(target_.read_sync(100, 512), data);
  EXPECT_EQ(target_.read_sync(2000, 10), source_.read_sync(2000, 10));
  EXPECT_GE(machine->cursor(), 2010u);
}

TEST_F(CopyMachineTest, TokenBucketPacesTheCopy) {
  // 1 MB dirty at 256 KB/s with a 64 KB burst: the tail ~960 KB must
  // wait for refill, so the drain takes at least ~3.5 simulated seconds.
  dirty_.add(0, 2048);
  auto machine = make_machine(/*rate=*/256 * 1024, /*burst=*/64 * 1024);
  machine->kick();
  sim_.run();

  EXPECT_EQ(drained_, 1);
  EXPECT_TRUE(dirty_.empty());
  EXPECT_GE(sim_.now(), sim::seconds(3));
  EXPECT_GT(pacer_->throttled_bytes(), 0u);
}

TEST_F(CopyMachineTest, HaltDropsInFlightAndPreservesRemainder) {
  dirty_.add(0, 1024);
  // Slow pacer so the copy is still mid-flight when we halt.
  auto machine = make_machine(/*rate=*/64 * 1024, /*burst=*/64 * 1024);
  machine->kick();
  sim_.run_until(sim::milliseconds(500));
  ASSERT_GT(chunks_, 0);
  ASSERT_FALSE(dirty_.empty()) << "test needs a mid-flight halt";

  const int chunks_at_halt = chunks_;
  machine->halt();
  sim_.run();
  EXPECT_EQ(chunks_, chunks_at_halt) << "no chunk may land after halt()";
  EXPECT_EQ(drained_, 0);
  EXPECT_TRUE(machine->halted());
  EXPECT_FALSE(dirty_.empty()) << "the remainder stays for the owner";
}

TEST_F(CopyMachineTest, SourceErrorStallsUntilKicked) {
  dirty_.add(0, 256);
  source_dead_ = true;
  auto machine = make_machine();
  machine->kick();
  sim_.run();

  EXPECT_EQ(drained_, 0);
  EXPECT_EQ(chunks_, 0);
  EXPECT_FALSE(machine->in_flight());
  EXPECT_FALSE(dirty_.empty()) << "failed chunk must be re-planned";

  source_dead_ = false;
  machine->kick();  // the owner's health probe re-kicks a stalled machine
  sim_.run();
  EXPECT_EQ(drained_, 1);
  EXPECT_TRUE(dirty_.empty());
}

TEST_F(CopyMachineTest, ActiveChunkExposesTheInFlightRange) {
  dirty_.add(0, 64);
  // Hold the source read so the chunk is observably in flight: this is
  // the window where a foreground write overlapping [0, 64) must be
  // routed to dirty instead of written through (stale-overwrite race).
  hold_reads_ = true;
  auto machine = make_machine();
  EXPECT_EQ(machine->active_chunk(), std::make_pair(std::uint64_t{0},
                                                    std::uint64_t{0}));
  machine->kick();
  ASSERT_EQ(held_.size(), 1u);
  EXPECT_TRUE(machine->in_flight());
  auto active = machine->active_chunk();
  EXPECT_EQ(active.first, 0u);
  EXPECT_EQ(active.second, 64u);

  hold_reads_ = false;
  held_[0]();  // complete the held read; the chunk lands on the target
  sim_.run();
  EXPECT_EQ(machine->active_chunk(), std::make_pair(std::uint64_t{0},
                                                    std::uint64_t{0}));
  EXPECT_EQ(drained_, 1);
}

// --- quorum replication through the platform ----------------------------------

class QuorumTest : public ::testing::Test {
 protected:
  QuorumTest() : cloud_(sim_, cloud::CloudConfig{}), platform_(cloud_) {
    register_builtin_services(platform_);
  }

  /// Deploy replication with a quorum stanza: `replicas` backup volumes,
  /// commit at `w` of 1+replicas copies.
  void setup(int replicas, unsigned w,
             std::uint64_t rebuild_rate = 64 * 1024 * 1024) {
    vm_ = &cloud_.create_vm("db", "alice", 0);
    ASSERT_TRUE(cloud_.create_volume("primary", 40'000).is_ok());
    std::string names;
    for (int i = 0; i < replicas; ++i) {
      std::string name = "replica" + std::to_string(i);
      ASSERT_TRUE(cloud_.create_volume(name, 40'000).is_ok());
      names += (i ? "," : "") + name;
    }
    ServiceSpec spec;
    spec.type = "replication";
    spec.relay = RelayMode::kActive;
    spec.params["replicas"] = names;
    spec.quorum.enabled = true;
    spec.quorum.write_quorum = w;
    spec.quorum.rebuild_rate_bytes_per_sec = rebuild_rate;

    Status status = error(ErrorCode::kIoError, "unset");
    platform_.attach_with_chain("db", "primary", {spec},
                                [&](Result<DeploymentHandle> r) {
                                  status = r.status();
                                  if (r.is_ok()) dep_ = r.value();
                                });
    sim_.run();
    ASSERT_TRUE(status.is_ok()) << status.to_string();
    ASSERT_TRUE(dep_.valid());
    service_ = static_cast<ReplicationService*>(dep_.service(0));
  }

  void write(std::uint64_t lba, const Bytes& data) {
    bool ok = false;
    vm_->disk()->write(lba, data, [&](Status s) {
      ASSERT_TRUE(s.is_ok()) << s.to_string();
      ok = true;
    });
    sim_.run();
    ASSERT_TRUE(ok);
  }

  Bytes read(std::uint64_t lba, std::uint32_t sectors) {
    Bytes got;
    bool ok = false;
    vm_->disk()->read(lba, sectors, [&](Status s, Bytes d) {
      ASSERT_TRUE(s.is_ok()) << s.to_string();
      got = std::move(d);
      ok = true;
    });
    sim_.run();
    EXPECT_TRUE(ok);
    return got;
  }

  block::MemDisk& backing(const std::string& name) {
    return cloud_.storage(0).volumes().find_by_name(name).value()
        ->disk().store();
  }

  void kill_replica_session(int i) {
    auto iqn = cloud_.find_attachment(dep_.mb_vm(0)->name(),
                                      "replica" + std::to_string(i));
    ASSERT_TRUE(iqn.has_value());
    ASSERT_GE(cloud_.storage(0).target().close_sessions_for(iqn->iqn), 1u);
    sim_.run();
  }

  /// Drive the service's probe-hook state machine (re-attach, rebuild
  /// kicks) the way ChainHealthManager would, until the predicate holds.
  void probe_until(const std::function<bool()>& done, int max_probes = 200) {
    for (int i = 0; i < max_probes && !done(); ++i) {
      service_->on_health_probe(sim_.now());
      sim_.run();
    }
    EXPECT_TRUE(done()) << "state machine did not converge";
  }

  sim::Simulator sim_;
  cloud::Cloud cloud_;
  core::StormPlatform platform_;
  cloud::Vm* vm_ = nullptr;
  DeploymentHandle dep_;
  ReplicationService* service_ = nullptr;
};

TEST_F(QuorumTest, WriteCommitsAtWOfNAndLandsEverywhere) {
  setup(/*replicas=*/2, /*w=*/2);
  Bytes data = testutil::pattern_bytes(8 * block::kSectorSize);
  write(100, data);

  EXPECT_EQ(service_->quorum_commits(), 1u);
  EXPECT_EQ(service_->quorum_failures(), 0u);
  EXPECT_EQ(service_->set_version(), 1u);
  EXPECT_EQ(backing("primary").read_sync(100, 8), data);
  EXPECT_EQ(backing("replica0").read_sync(100, 8), data);
  EXPECT_EQ(backing("replica1").read_sync(100, 8), data);
  // Once everything drains, every copy's version-map row is current.
  EXPECT_EQ(service_->replica_version(0), 1u);
  EXPECT_EQ(service_->replica_version(1), 1u);
}

TEST_F(QuorumTest, VersionMapAdvancesOncePerBurst) {
  setup(2, 2);
  for (int i = 1; i <= 5; ++i) {
    write(10, Bytes(2 * block::kSectorSize, static_cast<std::uint8_t>(i)));
    EXPECT_EQ(service_->set_version(), static_cast<std::uint64_t>(i));
  }
  EXPECT_EQ(service_->writes_replicated(), 5u);
  EXPECT_EQ(service_->quorum_commits(), 5u);
  EXPECT_EQ(service_->replica_version(0), 5u);
  EXPECT_EQ(service_->replica_version(1), 5u);
}

TEST_F(QuorumTest, WritesCommitWithADeadReplica) {
  setup(2, 2);
  kill_replica_session(0);

  // W=2 of N=3 still holds with the primary + one live replica: no
  // write toward the tenant may fail.
  for (int i = 1; i <= 8; ++i) {
    write(static_cast<std::uint64_t>(i) * 16,
          Bytes(4 * block::kSectorSize, static_cast<std::uint8_t>(i)));
  }
  EXPECT_EQ(service_->quorum_commits(), 8u);
  EXPECT_EQ(service_->quorum_failures(), 0u);
  EXPECT_EQ(service_->replica_state(0), ReplicaState::kDegraded);
  EXPECT_EQ(service_->replica_state(1), ReplicaState::kLive);
  EXPECT_GT(service_->rebuild_backlog_sectors(), 0u)
      << "missed writes must be tracked as dirty extents";
  EXPECT_EQ(backing("replica1").read_sync(16, 4),
            Bytes(4 * block::kSectorSize, 1));
}

TEST_F(QuorumTest, DegradedReplicaIsExcludedFromReads) {
  setup(2, 2);
  Bytes data = testutil::pattern_bytes(4 * block::kSectorSize);
  write(0, data);
  kill_replica_session(0);
  // First post-kill writes declare the replica dead and degrade it.
  write(50, testutil::pattern_bytes(2 * block::kSectorSize, 3));
  ASSERT_EQ(service_->replica_state(0), ReplicaState::kDegraded);

  // Every read is served correctly from the primary or the live copy;
  // the degraded replica never contributes (and never errors a read).
  for (int i = 0; i < 12; ++i) {
    EXPECT_EQ(read(0, 4), data) << "iteration " << i;
  }
  EXPECT_EQ(service_->reads_from_primary() + service_->reads_from_replicas() +
                service_->reads_failed_over(),
            12u)
      << "read accounting must cover every read exactly once";
}

TEST_F(QuorumTest, RebuildReturnsReplicaToRotationAtMatchingVersion) {
  setup(2, 2);
  Bytes before = testutil::pattern_bytes(8 * block::kSectorSize);
  write(0, before);
  kill_replica_session(0);

  Bytes missed = testutil::pattern_bytes(8 * block::kSectorSize, 5);
  write(200, missed);
  ASSERT_EQ(service_->replica_state(0), ReplicaState::kDegraded);
  ASSERT_LT(service_->replica_version(0), service_->set_version());

  probe_until([&] {
    return service_->replica_state(0) == ReplicaState::kLive;
  });

  // Version-map match gates the return to rotation; the dirty extents
  // were streamed from a survivor.
  EXPECT_EQ(service_->replica_version(0), service_->set_version());
  EXPECT_EQ(service_->rebuilds_completed(), 1u);
  EXPECT_GT(service_->rebuild_bytes(), 0u);
  EXPECT_EQ(service_->rebuild_backlog_sectors(), 0u);
  EXPECT_EQ(backing("replica0").read_sync(200, 8), missed);
  EXPECT_EQ(service_->live_replicas(), 2u);
}

TEST_F(QuorumTest, RebuildIsPacedByThePolicyTokenBucket) {
  // 1 MB/s rebuild rate: re-silvering ~2 MB of missed writes must take
  // more than a simulated second (burst covers only the first 256 KB).
  setup(2, 2, /*rebuild_rate=*/1024 * 1024);
  kill_replica_session(0);
  for (int i = 0; i < 32; ++i) {
    write(static_cast<std::uint64_t>(i) * 128,
          Bytes(128 * block::kSectorSize, static_cast<std::uint8_t>(i + 1)));
  }
  ASSERT_EQ(service_->replica_state(0), ReplicaState::kDegraded);
  ASSERT_GE(service_->rebuild_backlog_sectors(), 4096u);

  const sim::Time started = sim_.now();
  probe_until([&] {
    return service_->replica_state(0) == ReplicaState::kLive;
  }, /*max_probes=*/2000);
  EXPECT_GE(sim_.now() - started, sim::seconds(1))
      << "an unthrottled rebuild would finish instantly in virtual time";
  EXPECT_EQ(service_->rebuilds_completed(), 1u);
  EXPECT_EQ(backing("replica0").read_sync(31 * 128, 128),
            Bytes(128 * block::kSectorSize, 32));
}

TEST_F(QuorumTest, AttachedSpareIsSilveredBeforeJoiningRotation) {
  setup(1, 2);  // N=2: primary + replica0
  Bytes data = testutil::pattern_bytes(16 * block::kSectorSize);
  write(0, data);
  write(300, data);

  ASSERT_TRUE(cloud_.create_volume("spare", 40'000).is_ok());
  service_->attach_spare("spare");
  ASSERT_EQ(service_->replica_count(), 2u);
  ASSERT_EQ(service_->replica_state(1), ReplicaState::kDegraded);

  probe_until([&] {
    return service_->replica_state(1) == ReplicaState::kLive;
  });
  EXPECT_EQ(service_->replica_version(1), service_->set_version());
  EXPECT_EQ(backing("spare").read_sync(0, 16), data);
  EXPECT_EQ(backing("spare").read_sync(300, 16), data);
  EXPECT_EQ(service_->live_replicas(), 2u);
}

TEST_F(QuorumTest, RelayCrashDegradesConservativelyAndRebuildResumes) {
  setup(2, 2);
  // The tenant-side initiator re-dials the relay after restart.
  dep_.attachment()->initiator->set_recovery({.enabled = true});
  Bytes data = testutil::pattern_bytes(8 * block::kSectorSize);
  write(0, data);
  write(100, data);

  // Crash the hosting relay and restart it: the journaled state map is
  // all that survives. Replicas must come back no better than degraded-
  // conservative (never silently "up to date"), and the rebuild machine
  // must reconverge them from the journaled intents.
  ASSERT_TRUE(dep_.crash_middlebox(0).is_ok());
  sim_.run_for(sim::milliseconds(10));
  ASSERT_TRUE(dep_.restart_middlebox(0).is_ok());
  sim_.run();

  // Tenant I/O still works through the recovered relay.
  EXPECT_EQ(read(0, 8), data);
  write(500, data);
  EXPECT_EQ(backing("primary").read_sync(500, 8), data);

  probe_until([&] {
    return service_->live_replicas() == 2 &&
           service_->rebuild_backlog_sectors() == 0;
  });
  EXPECT_EQ(backing("replica0").read_sync(500, 8), data);
  EXPECT_EQ(backing("replica1").read_sync(500, 8), data);
  EXPECT_EQ(service_->replica_version(0), service_->set_version());
  EXPECT_EQ(service_->replica_version(1), service_->set_version());
}

TEST_F(QuorumTest, RelayCrashMidRebuildResumesTheCopy) {
  // 256 KB/s: re-silvering 4 MB of missed writes takes ~16 simulated
  // seconds, so the relay can crash while the copy machine runs.
  setup(2, 2, /*rebuild_rate=*/256 * 1024);
  dep_.attachment()->initiator->set_recovery({.enabled = true});
  kill_replica_session(1);
  for (int i = 0; i < 64; ++i) {
    write(static_cast<std::uint64_t>(i) * 128,
          Bytes(128 * block::kSectorSize, static_cast<std::uint8_t>(i + 1)));
  }
  ASSERT_EQ(service_->replica_state(1), ReplicaState::kDegraded);
  // Probe on a short clock (not sim_.run(), which would finish the
  // rebuild) until the re-attached copy starts rebuilding.
  for (int i = 0; i < 200 &&
                  service_->replica_state(1) != ReplicaState::kRebuilding;
       ++i) {
    service_->on_health_probe(sim_.now());
    sim_.run_for(sim::milliseconds(1));
  }
  ASSERT_EQ(service_->replica_state(1), ReplicaState::kRebuilding);

  // The crash halts the copy machine. Only the journaled version map
  // says the copy was rebuilding; recovery must read it back as
  // degraded, or the probe would never kick a new machine for it.
  ASSERT_TRUE(dep_.crash_middlebox(0).is_ok());
  sim_.run_for(sim::milliseconds(10));
  ASSERT_TRUE(dep_.restart_middlebox(0).is_ok());
  sim_.run_for(sim::milliseconds(10));
  EXPECT_EQ(service_->replica_state(1), ReplicaState::kDegraded);

  probe_until([&] {
    return service_->live_replicas() == 2 &&
           service_->rebuild_backlog_sectors() == 0;
  }, /*max_probes=*/2000);
  for (int i = 0; i < 64; ++i) {
    EXPECT_EQ(backing("replica1").read_sync(static_cast<std::uint64_t>(i) *
                                                128, 128),
              Bytes(128 * block::kSectorSize, static_cast<std::uint8_t>(i + 1)))
        << "extent " << i;
  }
  EXPECT_EQ(service_->replica_version(1), service_->set_version());
}

}  // namespace
}  // namespace storm::services
