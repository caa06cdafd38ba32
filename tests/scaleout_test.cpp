// Elastic chain scale-out suite: replica pools shared by every flow of a
// tenant (policy stanza `replicas N`), consistent-hash flow pinning,
// migration-based scale-up/-down that never fails an in-flight write,
// the QoS-driven autoscaler, and the seeded many-tenant determinism run
// whose telemetry must be byte-identical at any worker-thread count.
#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <string>
#include <vector>

#include "cloud/cloud.hpp"
#include "core/autoscaler.hpp"
#include "core/platform.hpp"
#include "core/sdn_controller.hpp"
#include "iscsi/pdu.hpp"
#include "services/registry.hpp"
#include "sim/simulator.hpp"
#include "testutil.hpp"
#include "workload/fio.hpp"

namespace storm {
namespace {

using core::DeploymentHandle;
using core::FlowHashRing;
using core::RelayMode;
using core::ReplicaSet;
using core::ServiceSpec;

ServiceSpec pooled_spec(unsigned count, unsigned min_count,
                        unsigned max_count) {
  ServiceSpec spec;
  spec.type = "noop";
  spec.relay = RelayMode::kActive;
  spec.replicas.enabled = true;
  spec.replicas.count = count;
  spec.replicas.min_count = min_count;
  spec.replicas.max_count = max_count;
  return spec;
}

class ScaleoutTest : public ::testing::Test {
 protected:
  ScaleoutTest() : cloud_(sim_, config()), platform_(cloud_) {
    services::register_builtin_services(platform_);
  }

  static cloud::CloudConfig config() {
    cloud::CloudConfig config;
    config.compute_hosts = 4;
    config.storage_hosts = 2;
    return config;
  }

  DeploymentHandle deploy(const std::string& vm, const std::string& vol,
                          std::vector<ServiceSpec> chain) {
    Status status = error(ErrorCode::kIoError, "unset");
    DeploymentHandle deployment;
    platform_.attach_with_chain(vm, vol, std::move(chain),
                                [&](Result<DeploymentHandle> r) {
                                  status = r.status();
                                  if (r.is_ok()) deployment = r.value();
                                });
    sim_.run();
    EXPECT_TRUE(status.is_ok()) << status.to_string();
    return deployment;
  }

  /// One write+read roundtrip through the chain; returns true when both
  /// complete OK and the data survives.
  bool roundtrip(cloud::Vm& vm, std::uint64_t lba) {
    const Bytes data = testutil::pattern_bytes(4 * block::kSectorSize,
                                               static_cast<std::uint8_t>(lba));
    int state = 0;
    Bytes got;
    vm.disk()->write(lba, data, [&](Status s) {
      if (!s.is_ok()) {
        state = -1;
        return;
      }
      vm.disk()->read(lba, 4, [&](Status rs, Bytes bytes) {
        state = rs.is_ok() ? 1 : -1;
        got = std::move(bytes);
      });
    });
    sim_.run();
    return state == 1 && got == data;
  }

  sim::Simulator sim_;
  cloud::Cloud cloud_;
  core::StormPlatform platform_;
};

// ------------------------------------------------------------ replica sets

TEST_F(ScaleoutTest, ReplicaPoolIsSharedAndSpreadAcrossHosts) {
  cloud::Vm& vm0 = cloud_.create_vm("vm0", "t", 0);
  cloud::Vm& vm1 = cloud_.create_vm("vm1", "t", 1);
  ASSERT_TRUE(cloud_.create_volume("vol0", 20'000, 0).is_ok());
  ASSERT_TRUE(cloud_.create_volume("vol1", 20'000, 1).is_ok());

  DeploymentHandle dep0 = deploy("vm0", "vol0", {pooled_spec(3, 1, 3)});
  DeploymentHandle dep1 = deploy("vm1", "vol1", {pooled_spec(3, 1, 3)});
  ASSERT_TRUE(dep0.valid());
  ASSERT_TRUE(dep1.valid());

  // One pool of exactly three replicas serves both flows: the second
  // attach joined the pool instead of provisioning its own boxes.
  const ReplicaSet* set = platform_.replica_set("t", "noop");
  ASSERT_NE(set, nullptr);
  EXPECT_EQ(set->replicas.size(), 3u);
  EXPECT_TRUE(set->parked.empty());
  EXPECT_EQ(set->ring.node_count(), 3u);
  EXPECT_EQ(set->assignments.size(), 2u);

  // Replicas land on distinct hosts — losing one host must never take
  // two replicas with it.
  std::set<unsigned> hosts;
  for (const auto& replica : set->replicas) {
    EXPECT_TRUE(replica->pooled);
    EXPECT_FALSE(replica->replica_label.empty());
    ASSERT_NE(replica->active_relay, nullptr);
    hosts.insert(replica->vm->host_index());
  }
  EXPECT_EQ(hosts.size(), 3u);

  // Both flows carry real data through their pinned replica.
  EXPECT_TRUE(roundtrip(vm0, 0));
  EXPECT_TRUE(roundtrip(vm1, 64));
}

// Regression: a pooled cipher serves initiators that all number their
// task tags from 1. Its in-flight table is keyed by flow and tag, so
// concurrent writes of two VMs land at their own LBAs and read back
// intact; keyed by tag alone they took each other's LBAs.
TEST_F(ScaleoutTest, PooledCipherKeepsConcurrentFlowsApart) {
  std::vector<cloud::Vm*> vms;
  ServiceSpec spec = pooled_spec(1, 1, 1);
  spec.type = "encryption";
  for (unsigned t = 0; t < 2; ++t) {
    vms.push_back(&cloud_.create_vm("vm" + std::to_string(t), "t", t));
    ASSERT_TRUE(
        cloud_.create_volume("vol" + std::to_string(t), 20'000, t).is_ok());
    ASSERT_TRUE(
        deploy("vm" + std::to_string(t), "vol" + std::to_string(t), {spec})
            .valid());
  }
  const ReplicaSet* set = platform_.replica_set("t", "encryption");
  ASSERT_NE(set, nullptr);
  ASSERT_EQ(set->replicas.size(), 1u) << "both flows share one box";

  constexpr std::size_t kBytes = 64 * 1024;
  constexpr std::uint64_t kSectors = kBytes / block::kSectorSize;
  for (std::uint64_t round = 0; round < 4; ++round) {
    std::vector<Bytes> written;
    std::vector<Bytes> got(vms.size());
    int ok = 0;
    for (std::size_t t = 0; t < vms.size(); ++t) {
      written.push_back(testutil::pattern_bytes(
          kBytes, static_cast<std::uint8_t>(2 * round + t + 1)));
      const std::uint64_t lba = (round * 2 + t) * kSectors;
      vms[t]->disk()->write(lba, written[t], [&, t, lba](Status s) {
        if (!s.is_ok()) return;
        vms[t]->disk()->read(lba, kSectors, [&, t](Status rs, Bytes bytes) {
          if (!rs.is_ok()) return;
          got[t] = std::move(bytes);
          ++ok;
        });
      });
    }
    sim_.run();
    ASSERT_EQ(ok, 2) << "round " << round;
    for (std::size_t t = 0; t < vms.size(); ++t) {
      EXPECT_TRUE(got[t] == written[t]) << "vm" << t << " round " << round;
    }
  }
}

TEST_F(ScaleoutTest, FlowPinningFollowsTheConsistentHashRing) {
  cloud_.create_vm("vm0", "t", 0);
  cloud_.create_vm("vm1", "t", 1);
  ASSERT_TRUE(cloud_.create_volume("vol0", 20'000, 0).is_ok());
  ASSERT_TRUE(cloud_.create_volume("vol1", 20'000, 1).is_ok());
  DeploymentHandle deps[] = {deploy("vm0", "vol0", {pooled_spec(3, 1, 3)}),
                             deploy("vm1", "vol1", {pooled_spec(3, 1, 3)})};

  const ReplicaSet* set = platform_.replica_set("t", "noop");
  ASSERT_NE(set, nullptr);
  for (DeploymentHandle& dep : deps) {
    const core::SpliceContext* splice = dep.splice();
    ASSERT_NE(splice, nullptr);
    // The recorded assignment is exactly what the ring computes from the
    // flow's iSCSI 4-tuple, and the deployment's chain hop is that
    // replica's relay — not a private instance.
    const std::string& expected = set->ring.assign(FlowHashRing::flow_key(
        splice->host_storage_ip, splice->vm_port, splice->target_ip,
        iscsi::kIscsiPort));
    ASSERT_TRUE(set->assignments.contains(dep.cookie()));
    EXPECT_EQ(set->assignments.at(dep.cookie()), expected);
    const core::MiddleboxInstance* pinned = set->find(expected);
    ASSERT_NE(pinned, nullptr);
    EXPECT_EQ(dep.active_relay(0), pinned->active_relay.get());
  }
}

// ------------------------------------------------------- scale-up / down

TEST_F(ScaleoutTest, ScaleUpMigratesFlowsWithZeroFailedWrites) {
  std::vector<cloud::Vm*> vms;
  std::vector<DeploymentHandle> deps;
  for (unsigned t = 0; t < 3; ++t) {
    vms.push_back(&cloud_.create_vm("vm" + std::to_string(t), "t", t));
    ASSERT_TRUE(
        cloud_.create_volume("vol" + std::to_string(t), 20'000, t % 2)
            .is_ok());
    deps.push_back(deploy("vm" + std::to_string(t),
                          "vol" + std::to_string(t),
                          {pooled_spec(1, 1, 3)}));
  }
  const ReplicaSet* set = platform_.replica_set("t", "noop");
  ASSERT_NE(set, nullptr);
  ASSERT_EQ(set->replicas.size(), 1u) << "all three flows start on one box";

  std::vector<workload::FioResult> results(3);
  std::vector<bool> finished(3, false);
  std::vector<std::unique_ptr<workload::FioRunner>> runners;
  for (unsigned t = 0; t < 3; ++t) {
    workload::FioConfig fio;
    fio.request_bytes = 8 * 1024;
    fio.jobs = 2;
    fio.duration = sim::milliseconds(120);
    fio.seed = 5 + t;
    runners.push_back(std::make_unique<workload::FioRunner>(
        vms[t]->node().executor(), *vms[t]->disk(), fio));
    runners.back()->start([&results, &finished, t](workload::FioResult r) {
      results[t] = r;
      finished[t] = true;
    });
  }

  Status scale_status = error(ErrorCode::kIoError, "unset");
  sim_.schedule_in(sim::milliseconds(30), [&] {
    platform_.scale_service_replicas("t", "noop", 3,
                                     [&](Status s) { scale_status = s; });
  });
  sim_.run();

  EXPECT_TRUE(scale_status.is_ok()) << scale_status.to_string();
  EXPECT_EQ(set->replicas.size(), 3u);
  EXPECT_EQ(set->ring.node_count(), 3u);

  // The rebalance moved at least one flow (atomically, via
  // swap_rules_by_cookie) and after it the flows spread over >1 replica.
  EXPECT_GE(sim_.telemetry().counter("scaleout.migrations").value(), 1u);
  EXPECT_GE(platform_.sdn().rule_swaps(), 1u);
  std::set<std::string> labels;
  for (const auto& [cookie, label] : set->assignments) labels.insert(label);
  EXPECT_GT(labels.size(), 1u);

  // Zero failed or dropped I/O: every op each job issued completed OK
  // (total_ops only counts successes).
  for (unsigned t = 0; t < 3; ++t) {
    ASSERT_TRUE(finished[t]);
    EXPECT_GT(results[t].total_ops, 0u);
    EXPECT_EQ(results[t].read_ops + results[t].write_ops,
              results[t].total_ops)
        << "tenant flow " << t << " lost ops during the migration";
  }
}

TEST_F(ScaleoutTest, DrainBasedScaleDownParksVictimsWithoutDroppingWrites) {
  std::vector<cloud::Vm*> vms;
  for (unsigned t = 0; t < 2; ++t) {
    vms.push_back(&cloud_.create_vm("vm" + std::to_string(t), "t", t));
    ASSERT_TRUE(
        cloud_.create_volume("vol" + std::to_string(t), 20'000, t % 2)
            .is_ok());
    deploy("vm" + std::to_string(t), "vol" + std::to_string(t),
           {pooled_spec(3, 1, 3)});
  }
  const ReplicaSet* set = platform_.replica_set("t", "noop");
  ASSERT_NE(set, nullptr);
  ASSERT_EQ(set->replicas.size(), 3u);

  std::vector<workload::FioResult> results(2);
  std::vector<bool> finished(2, false);
  std::vector<std::unique_ptr<workload::FioRunner>> runners;
  for (unsigned t = 0; t < 2; ++t) {
    workload::FioConfig fio;
    fio.request_bytes = 8 * 1024;
    fio.jobs = 2;
    fio.duration = sim::milliseconds(120);
    fio.seed = 11 + t;
    runners.push_back(std::make_unique<workload::FioRunner>(
        vms[t]->node().executor(), *vms[t]->disk(), fio));
    runners.back()->start([&results, &finished, t](workload::FioResult r) {
      results[t] = r;
      finished[t] = true;
    });
  }

  Status scale_status = error(ErrorCode::kIoError, "unset");
  sim_.schedule_in(sim::milliseconds(30), [&] {
    platform_.scale_service_replicas("t", "noop", 1,
                                     [&](Status s) { scale_status = s; });
  });
  sim_.run();

  EXPECT_TRUE(scale_status.is_ok()) << scale_status.to_string();
  ASSERT_EQ(set->replicas.size(), 1u);
  EXPECT_EQ(set->parked.size(), 2u);
  EXPECT_EQ(set->ring.node_count(), 1u);
  EXPECT_GE(sim_.telemetry().counter("scaleout.scale_downs").value(), 1u);

  // Every flow drained onto the survivor; the victims are powered off
  // with their journals intact (crash, not destruction).
  const std::string& survivor = set->replicas[0]->replica_label;
  for (const auto& [cookie, label] : set->assignments) {
    EXPECT_EQ(label, survivor);
  }
  for (const auto& parked : set->parked) {
    EXPECT_TRUE(parked->vm->node().is_down());
    ASSERT_NE(parked->active_relay, nullptr);
    EXPECT_TRUE(parked->active_relay->crashed());
  }

  for (unsigned t = 0; t < 2; ++t) {
    ASSERT_TRUE(finished[t]);
    EXPECT_GT(results[t].total_ops, 0u);
    EXPECT_EQ(results[t].read_ops + results[t].write_ops,
              results[t].total_ops)
        << "tenant flow " << t << " lost ops during the drain";
  }

  // The parked replicas are revived — not rebuilt — on the next
  // scale-up.
  scale_status = error(ErrorCode::kIoError, "unset");
  platform_.scale_service_replicas("t", "noop", 2,
                                   [&](Status s) { scale_status = s; });
  sim_.run();
  EXPECT_TRUE(scale_status.is_ok()) << scale_status.to_string();
  EXPECT_EQ(set->replicas.size(), 2u);
  EXPECT_EQ(set->parked.size(), 1u);
  EXPECT_FALSE(set->replicas.back()->vm->node().is_down());
  EXPECT_TRUE(roundtrip(*vms[0], 128));
}

// The migration poll's deadline branch: the scale-down victim's relay
// died with a write in flight and no health manager runs to recover it,
// so its flow can never drain. The migration gives up at the drain
// timeout and reopens the initiator's gate; the flow stays pinned to the
// victim, which keeps its ring arc and is not parked. The resize reports
// the migration's error.
TEST_F(ScaleoutTest, ScaleDownWithWedgedVictimTimesOutAndKeepsIt) {
  std::vector<cloud::Vm*> vms;
  std::vector<DeploymentHandle> deps;
  for (unsigned t = 0; t < 6; ++t) {
    vms.push_back(&cloud_.create_vm("vm" + std::to_string(t), "t", t % 4));
    ASSERT_TRUE(
        cloud_.create_volume("vol" + std::to_string(t), 20'000).is_ok());
    deps.push_back(deploy("vm" + std::to_string(t),
                          "vol" + std::to_string(t), {pooled_spec(2, 1, 2)}));
  }
  const ReplicaSet* set = platform_.replica_set("t", "noop");
  ASSERT_NE(set, nullptr);
  ASSERT_EQ(set->replicas.size(), 2u);
  const auto victim = set->replicas[1];  // newest: the scale-down victim
  std::size_t wedged = deps.size();
  for (std::size_t i = 0; i < deps.size(); ++i) {
    if (set->assignments.at(deps[i].cookie()) == victim->replica_label) {
      wedged = i;
    }
  }
  ASSERT_LT(wedged, deps.size()) << "no flow pinned to the victim";
  iscsi::Initiator* initiator = deps[wedged].attachment()->initiator;

  vms[wedged]->disk()->write(0, Bytes(16 * block::kSectorSize, 0xAB),
                             [](Status) {});
  sim_.run_for(sim::microseconds(200));  // mid-flight
  ASSERT_GT(initiator->outstanding(), 0u);
  victim->active_relay->crash();

  Status scale = Status::ok();
  bool scaled = false;
  platform_.scale_service_replicas("t", "noop", 1, [&](Status s) {
    scale = s;
    scaled = true;
  });
  sim_.run_for(core::StormPlatform::kDrainTimeout + sim::milliseconds(50));

  ASSERT_TRUE(scaled);
  EXPECT_EQ(scale.code(), ErrorCode::kDeadlineExceeded) << scale.to_string();
  EXPECT_EQ(scale.message(), "migration drain timeout");
  EXPECT_EQ(initiator->admission_mode(), iscsi::AdmissionMode::kOpen)
      << "a failed migration must reopen the initiator's gate";
  EXPECT_EQ(set->assignments.at(deps[wedged].cookie()),
            victim->replica_label);
  EXPECT_EQ(deps[wedged].mb_vm(0), victim->vm) << "the flow must not move";
  EXPECT_EQ(set->replicas.size(), 2u);
  EXPECT_TRUE(set->parked.empty()) << "a victim that owns flows is kept";
  EXPECT_EQ(set->ring.node_count(), 2u) << "the victim's arcs come back";
}

TEST_F(ScaleoutTest, DetachReleasesOnlyItsOwnFlow) {
  cloud_.create_vm("vm0", "t", 0);
  cloud::Vm& vm1 = cloud_.create_vm("vm1", "t", 1);
  ASSERT_TRUE(cloud_.create_volume("vol0", 20'000, 0).is_ok());
  ASSERT_TRUE(cloud_.create_volume("vol1", 20'000, 1).is_ok());
  DeploymentHandle dep0 = deploy("vm0", "vol0", {pooled_spec(2, 1, 2)});
  DeploymentHandle dep1 = deploy("vm1", "vol1", {pooled_spec(2, 1, 2)});

  const ReplicaSet* set = platform_.replica_set("t", "noop");
  ASSERT_NE(set, nullptr);
  ASSERT_EQ(set->assignments.size(), 2u);

  EXPECT_TRUE(dep0.detach().is_ok());
  sim_.run();
  EXPECT_FALSE(dep0.valid());

  // The pool survives the detach — only the detached flow's session and
  // ring assignment are gone; the other tenant flow still carries data.
  EXPECT_EQ(set->replicas.size(), 2u);
  ASSERT_EQ(set->assignments.size(), 1u);
  EXPECT_TRUE(set->assignments.contains(dep1.cookie()));
  for (const auto& replica : set->replicas) {
    EXPECT_FALSE(replica->active_relay->crashed());
  }
  EXPECT_TRUE(roundtrip(vm1, 0));
}

// ------------------------------------------------------------- autoscaler

TEST_F(ScaleoutTest, AutoscalerScalesUpUnderThrottleAndRepricesBucket) {
  core::QosSpec qos;
  qos.enabled = true;
  qos.rate_bytes_per_sec = 2'000'000;
  qos.burst_bytes = 64 * 1024;
  platform_.set_tenant_qos("t", qos);

  cloud::Vm& vm = cloud_.create_vm("vm0", "t", 0);
  ASSERT_TRUE(cloud_.create_volume("vol0", 40'000, 0).is_ok());
  deploy("vm0", "vol0", {pooled_spec(1, 1, 3)});

  core::AutoscalerConfig cfg;
  cfg.tick_interval = sim::milliseconds(10);
  cfg.scale_up_bytes_per_sec = 1'000'000;
  cfg.scale_down_bytes_per_sec = 64 * 1024;
  cfg.sustain_up_ticks = 2;
  cfg.sustain_down_ticks = 1000;  // never down in this test
  cfg.cooldown = sim::milliseconds(30);
  core::Autoscaler scaler(platform_, cfg);
  scaler.watch_tenant("t", "noop", 1, 3);
  scaler.start();

  // A hot tenant: offered load far above the 2 MB/s admission rate, so
  // the bucket throttles hard and the scaler reads sustained pressure.
  workload::FioConfig fio;
  fio.request_bytes = 32 * 1024;
  fio.jobs = 4;
  fio.write_ratio = 1.0;
  fio.duration = sim::milliseconds(250);
  fio.seed = 21;
  workload::FioResult result;
  bool finished = false;
  workload::FioRunner runner(vm.node().executor(), *vm.disk(), fio);
  runner.start([&](workload::FioResult r) {
    result = r;
    finished = true;
  });
  sim_.run_for(sim::milliseconds(400));
  scaler.stop();
  sim_.run();

  EXPECT_GE(scaler.scale_ups(), 1u);
  EXPECT_EQ(scaler.scale_downs(), 0u);
  const ReplicaSet* set = platform_.replica_set("t", "noop");
  ASSERT_NE(set, nullptr);
  EXPECT_GE(set->replicas.size(), 2u);
  EXPECT_GE(sim_.telemetry().counter("autoscaler.t.scale_ups").value(), 1u);

  // Capacity actually follows the pool: the bucket was re-priced to
  // base_rate * replicas, so the added replica is admittable.
  const net::TokenBucket* bucket = platform_.tenant_qos("t");
  ASSERT_NE(bucket, nullptr);
  EXPECT_EQ(bucket->rate_bytes_per_sec(),
            2'000'000u * set->replicas.size());

  ASSERT_TRUE(finished);
  EXPECT_GT(result.total_ops, 0u);
  EXPECT_EQ(result.read_ops + result.write_ops, result.total_ops)
      << "autoscaling must never fail a write";
}

TEST_F(ScaleoutTest, AutoscalerScalesDownWhenSustainedIdle) {
  core::QosSpec qos;
  qos.enabled = true;
  qos.rate_bytes_per_sec = 4'000'000;
  qos.burst_bytes = 64 * 1024;
  platform_.set_tenant_qos("t", qos);

  cloud_.create_vm("vm0", "t", 0);
  ASSERT_TRUE(cloud_.create_volume("vol0", 20'000, 0).is_ok());
  deploy("vm0", "vol0", {pooled_spec(2, 1, 2)});

  core::AutoscalerConfig cfg;
  cfg.tick_interval = sim::milliseconds(5);
  cfg.sustain_down_ticks = 3;
  cfg.cooldown = sim::milliseconds(20);
  core::Autoscaler scaler(platform_, cfg);
  scaler.watch_tenant("t", "noop", 1, 2);  // base rate: 4 MB/s over 2
  scaler.start();

  sim_.run_for(sim::milliseconds(150));
  scaler.stop();
  sim_.run();

  EXPECT_GE(scaler.scale_downs(), 1u);
  const ReplicaSet* set = platform_.replica_set("t", "noop");
  ASSERT_NE(set, nullptr);
  EXPECT_EQ(set->replicas.size(), 1u);
  EXPECT_EQ(set->parked.size(), 1u);
  // The idle replica's admission share left with it.
  const net::TokenBucket* bucket = platform_.tenant_qos("t");
  ASSERT_NE(bucket, nullptr);
  EXPECT_EQ(bucket->rate_bytes_per_sec(), 2'000'000u);
}

// ----------------------------------------------------------- determinism

// The seeded many-tenant scale-out run — fio traffic on every tenant,
// one mid-run scale-up and one drain-based scale-down on the hot tenant
// — must produce byte-identical telemetry run to run and lose no I/O.
// `failed_ops` receives the fio ops that never completed.
std::string run_scaleout_scenario(unsigned tenants,
                                  std::uint64_t* failed_ops) {
  cloud::CloudConfig config;
  config.compute_hosts = 4;
  config.storage_hosts = 2;
  config.link_delay = sim::microseconds(15);
  sim::Simulator sim(cloud::Cloud::parallel_config(config));
  cloud::Cloud cloud(sim, config);
  core::StormPlatform platform(cloud);
  services::register_builtin_services(platform);

  std::vector<cloud::Vm*> vms;
  std::vector<DeploymentHandle> deps(tenants);
  for (unsigned t = 0; t < tenants; ++t) {
    const std::string name = std::to_string(t);
    vms.push_back(&cloud.create_vm("vm" + name, "tenant" + name, t % 4));
    EXPECT_TRUE(cloud.create_volume("vol" + name, 20'000, t % 2).is_ok());
    platform.attach_with_chain(
        "vm" + name, "vol" + name, {pooled_spec(1, 1, 3)},
        [&deps, t](Result<DeploymentHandle> r) {
          ASSERT_TRUE(r.is_ok()) << r.status().to_string();
          deps[t] = r.value();
        });
  }
  sim.run();
  for (auto& d : deps) EXPECT_TRUE(d.valid());

  std::vector<std::unique_ptr<workload::FioRunner>> runners;
  std::vector<workload::FioResult> results(tenants);
  for (unsigned t = 0; t < tenants; ++t) {
    workload::FioConfig fio;
    fio.request_bytes = 8 * 1024;
    fio.jobs = 1;
    fio.duration = sim::milliseconds(20);
    fio.seed = 100 + t;
    runners.push_back(std::make_unique<workload::FioRunner>(
        vms[t]->node().executor(), *vms[t]->disk(), fio));
    runners.back()->start(
        [&results, t](workload::FioResult r) { results[t] = r; });
  }

  // The hot tenant scales out under load, then back in via the drain
  // protocol while its flow is still running.
  sim.schedule_in(sim::milliseconds(5), [&platform] {
    platform.scale_service_replicas("tenant0", "noop", 3);
  });
  sim.schedule_in(sim::milliseconds(12), [&platform] {
    platform.scale_service_replicas("tenant0", "noop", 1);
  });
  sim.run();

  *failed_ops = 0;
  for (const workload::FioResult& r : results) {
    EXPECT_GT(r.total_ops, 0u);
    *failed_ops += r.read_ops + r.write_ops - r.total_ops;
  }
  const ReplicaSet* set = platform.replica_set("tenant0", "noop");
  EXPECT_NE(set, nullptr);
  if (set != nullptr) {
    EXPECT_EQ(set->replicas.size(), 1u);
    EXPECT_EQ(set->parked.size(), 2u);
  }
  return sim.telemetry_json();
}

TEST(ScaleoutDeterminism, SeededRunIsByteIdenticalAcrossRuns) {
  constexpr unsigned kTenants = 100;
  std::uint64_t failed_first = 0;
  std::uint64_t failed_second = 0;
  const std::string first = run_scaleout_scenario(kTenants, &failed_first);
  const std::string second = run_scaleout_scenario(kTenants, &failed_second);
  ASSERT_EQ(first, second) << "same seeds, different telemetry";
  EXPECT_EQ(failed_first, 0u);
  EXPECT_EQ(failed_second, 0u);
  EXPECT_NE(first.find("scaleout"), std::string::npos)
      << "scenario must actually exercise the scale-out path";
}

}  // namespace
}  // namespace storm
