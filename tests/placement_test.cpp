// Multi-tenant placement: tenants on different hosts, volumes striped
// over two storage hosts, three relay modes and a middle-box power
// failure mid-run. The seeded run must be byte-identical run to run and
// lose no I/O.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "cloud/cloud.hpp"
#include "core/platform.hpp"
#include "services/registry.hpp"
#include "sim/simulator.hpp"
#include "workload/fio.hpp"

using namespace storm;

namespace {

cloud::CloudConfig small_config() {
  cloud::CloudConfig config;
  config.compute_hosts = 3;
  config.storage_hosts = 2;
  config.link_delay = sim::microseconds(15);
  return config;
}

// One multi-tenant scenario with chains, faults and recovery: the
// byte-identity witness for placement across hosts.
struct ScenarioOutcome {
  std::string telemetry;
  std::vector<bool> finished;             // per tenant: fio reported
  std::vector<workload::FioResult> fio;   // per tenant
  std::vector<std::size_t> outstanding;   // per tenant: commands in flight
};

std::uint64_t failed_ops(const workload::FioResult& r) {
  return r.read_ops + r.write_ops - r.total_ops;
}

ScenarioOutcome run_tenant_scenario(bool recovery) {
  const cloud::CloudConfig config = small_config();
  sim::Simulator sim(cloud::Cloud::parallel_config(config));
  cloud::Cloud cloud(sim, config);
  core::StormPlatform platform(cloud);
  services::register_builtin_services(platform);

  // Three tenants on three hosts, volumes striped over both storage
  // hosts, three different relay modes.
  const core::RelayMode modes[] = {core::RelayMode::kActive,
                                   core::RelayMode::kPassive,
                                   core::RelayMode::kForward};
  std::vector<cloud::Vm*> vms;
  std::vector<core::DeploymentHandle> deployments(3);
  for (unsigned t = 0; t < 3; ++t) {
    vms.push_back(&cloud.create_vm("vm" + std::to_string(t),
                                   "tenant" + std::to_string(t), t, 2));
    EXPECT_TRUE(
        cloud.create_volume("vol" + std::to_string(t), 64 * 1024, t % 2)
            .is_ok());
    core::ServiceSpec spec;
    spec.type = modes[t] == core::RelayMode::kForward ? "noop"
                                                      : "stream_cipher";
    spec.relay = modes[t];
    platform.attach_with_chain(
        "vm" + std::to_string(t), "vol" + std::to_string(t), {spec},
        [&deployments, t](Result<core::DeploymentHandle> r) {
          ASSERT_TRUE(r.is_ok()) << r.status().to_string();
          deployments[t] = r.value();
        });
  }
  sim.run();
  for (auto& d : deployments) EXPECT_TRUE(d.valid());
  // Tenant 0's box is power-failed below: with recovery on, its
  // initiator reconnects and the relay replays its journal, so no
  // command is lost.
  if (recovery) {
    deployments[0].attachment()->initiator->set_recovery({.enabled = true});
  }

  std::vector<std::unique_ptr<workload::FioRunner>> runners;
  std::vector<workload::FioResult> results(3);
  std::vector<bool> done(3, false);
  for (unsigned t = 0; t < 3; ++t) {
    workload::FioConfig fio_config;
    fio_config.request_bytes = 16 * 1024;
    fio_config.jobs = 2;
    fio_config.duration = sim::milliseconds(400);
    fio_config.seed = 7 + t;
    runners.push_back(std::make_unique<workload::FioRunner>(
        vms[t]->node().executor(), *vms[t]->disk(), fio_config));
    runners.back()->start(
        [&results, &done, t](workload::FioResult r) {
          results[t] = r;
          done[t] = true;
        });
  }

  // fig13-style chaos while the workloads run: power-fail the active
  // relay's box and bring it back.
  sim.schedule_in(sim::milliseconds(120), [&deployments] {
    (void)deployments[0].crash_middlebox(0);
  });
  sim.schedule_in(sim::milliseconds(200), [&deployments] {
    (void)deployments[0].restart_middlebox(0);
  });
  sim.run();

  ScenarioOutcome out;
  out.finished = done;
  out.fio = results;
  for (unsigned t = 0; t < 3; ++t) {
    out.outstanding.push_back(
        deployments[t].attachment()->initiator->outstanding());
  }
  out.telemetry = sim.telemetry_json();
  return out;
}

TEST(Placement, MultiTenantChaosRunIsByteIdenticalAcrossRuns) {
  const ScenarioOutcome first = run_tenant_scenario(/*recovery=*/true);
  const ScenarioOutcome second = run_tenant_scenario(/*recovery=*/true);
  ASSERT_EQ(first.telemetry, second.telemetry)
      << "same seeds, different telemetry";
  for (const ScenarioOutcome* run : {&first, &second}) {
    for (unsigned t = 0; t < 3; ++t) {
      EXPECT_TRUE(run->finished[t]) << "tenant " << t;
      EXPECT_GT(run->fio[t].total_ops, 0u) << "tenant " << t;
      EXPECT_EQ(failed_ops(run->fio[t]), 0u) << "tenant " << t;
    }
  }
  // Guard against the scenario degenerating to an empty dump.
  EXPECT_NE(first.telemetry.find("iscsi"), std::string::npos);
}

// Without session recovery there is no command watchdog, so a relay
// that crashes after TCP acked its commands is invisible to the
// initiator (see kResponseTimeout in iscsi/initiator.cpp): tenant 0's
// commands stay outstanding and its fio never reports, with no error
// surfaced. The other tenants' chains are untouched and finish cleanly.
TEST(Placement, CrashWithoutRecoveryWedgesOnlyTheCrashedTenant) {
  const ScenarioOutcome run = run_tenant_scenario(/*recovery=*/false);
  EXPECT_FALSE(run.finished[0]);
  EXPECT_GT(run.outstanding[0], 0u);
  for (unsigned t = 1; t < 3; ++t) {
    EXPECT_TRUE(run.finished[t]) << "tenant " << t;
    EXPECT_GT(run.fio[t].total_ops, 0u) << "tenant " << t;
    EXPECT_EQ(failed_ops(run.fio[t]), 0u) << "tenant " << t;
    EXPECT_EQ(run.outstanding[t], 0u) << "tenant " << t;
  }
}

}  // namespace
