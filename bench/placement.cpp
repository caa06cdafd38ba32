// Multi-tenant placement: the paper testbed at fleet size. Eight tenants
// run fio through their own active-relay (stream-cipher) chains on a
// cloud of 8 compute hosts + 2 storage hosts, volumes striped over the
// storage hosts and every box spread to a neighbouring host.
//
// The seeded scenario runs twice and the bench exits non-zero if
//   - any fio op fails or any runner does not finish,
//   - the two runs export different telemetry (same-seed determinism).
// Events, wall time and events/s are reported for host-cost tracking.
//
// Writes BENCH_placement.json. Usage: placement
#include <chrono>
#include <cstdio>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.hpp"

using namespace storm;
using namespace storm::bench;

namespace {

constexpr unsigned kTenants = 8;
constexpr unsigned kComputeHosts = 8;
constexpr unsigned kStorageHosts = 2;

struct RunResult {
  std::size_t events = 0;
  double wall_s = 0;
  std::uint64_t failed_ops = 0;
  std::string telemetry;

  double events_per_s() const {
    return wall_s > 0 ? static_cast<double>(events) / wall_s : 0;
  }
};

cloud::CloudConfig scenario_config() {
  cloud::CloudConfig config = testbed_config();
  config.compute_hosts = kComputeHosts;
  config.storage_hosts = kStorageHosts;
  return config;
}

RunResult run_scenario() {
  const cloud::CloudConfig config = scenario_config();
  sim::Simulator sim;
  cloud::Cloud cloud(sim, config);
  core::StormPlatform platform(cloud);
  services::register_builtin_services(platform);

  // One tenant per compute host, volumes striped over the storage hosts,
  // every volume spliced through an active stream-cipher middle-box (the
  // placer spreads the box to a neighbouring host).
  std::vector<cloud::Vm*> vms;
  for (unsigned t = 0; t < kTenants; ++t) {
    const std::string tenant = "tenant" + std::to_string(t);
    vms.push_back(&cloud.create_vm("vm" + std::to_string(t), tenant,
                                   t % config.compute_hosts, 2));
    const std::string volume = "vol" + std::to_string(t);
    if (!cloud.create_volume(volume, 512 * 1024, t % kStorageHosts)
             .is_ok()) {
      throw std::runtime_error("create_volume failed");
    }
  }
  unsigned attached = 0;
  for (unsigned t = 0; t < kTenants; ++t) {
    core::ServiceSpec spec;
    spec.type = "stream_cipher";
    spec.relay = core::RelayMode::kActive;
    platform.attach_with_chain(
        "vm" + std::to_string(t), "vol" + std::to_string(t), {spec},
        [&attached](Result<core::DeploymentHandle> r) {
          if (!r.is_ok()) {
            throw std::runtime_error("attach: " + r.status().to_string());
          }
          ++attached;
        });
  }
  sim.run();
  if (attached != kTenants) throw std::runtime_error("attachments missing");

  // Every tenant hammers its spliced disk.
  std::vector<std::unique_ptr<workload::FioRunner>> runners;
  std::vector<workload::FioResult> results;
  for (unsigned t = 0; t < kTenants; ++t) {
    workload::FioConfig fio_config;
    fio_config.request_bytes = 64 * 1024;
    fio_config.jobs = 2;
    fio_config.duration = sim::seconds(3);
    fio_config.seed = 0x9E1C + t;
    runners.push_back(std::make_unique<workload::FioRunner>(
        vms[t]->node().executor(), *vms[t]->disk(), fio_config));
    runners.back()->start(
        [&results](workload::FioResult r) { results.push_back(r); });
  }

  const auto start = std::chrono::steady_clock::now();
  RunResult out;
  out.events = sim.run();
  const auto stop = std::chrono::steady_clock::now();
  if (results.size() != kTenants) throw std::runtime_error("fio incomplete");
  out.wall_s = std::chrono::duration<double>(stop - start).count();
  for (const workload::FioResult& r : results) {
    out.failed_ops += r.read_ops + r.write_ops - r.total_ops;
  }
  out.telemetry = sim.telemetry_json();
  return out;
}

}  // namespace

int main() {
  std::printf("placement: %u tenants on %u compute + %u storage hosts\n",
              kTenants, kComputeHosts, kStorageHosts);
  const RunResult first = run_scenario();
  const RunResult second = run_scenario();
  int rc = 0;
  for (const RunResult* r : {&first, &second}) {
    std::printf("run: %9zu events  %10.0f ev/s  %7.2f ms wall  "
                "%llu failed ops\n",
                r->events, r->events_per_s(), r->wall_s * 1e3,
                static_cast<unsigned long long>(r->failed_ops));
    if (r->failed_ops != 0) {
      std::fprintf(stderr, "FAIL: %llu failed fio ops\n",
                   static_cast<unsigned long long>(r->failed_ops));
      rc = 1;
    }
  }
  const bool deterministic =
      !first.telemetry.empty() && first.telemetry == second.telemetry;
  if (!deterministic) {
    std::fprintf(stderr, "FAIL: same-seed runs exported different telemetry\n");
    rc = 1;
  }
  std::printf("same-seed telemetry byte-identical: %s\n",
              deterministic ? "yes" : "NO");

  char json[320];
  std::snprintf(json, sizeof json,
                "{\"bench\":\"placement\",\"tenants\":%u,\"events\":%zu,"
                "\"events_per_s\":%.0f,\"wall_ms\":%.2f,\"failed_ops\":%llu,"
                "\"deterministic\":%s}",
                kTenants, first.events, first.events_per_s(),
                first.wall_s * 1e3,
                static_cast<unsigned long long>(first.failed_ops +
                                                second.failed_ops),
                deterministic ? "true" : "false");
  std::printf("%s\n", json);
  std::ofstream("BENCH_placement.json") << json << "\n";
  if (rc == 0) std::printf("PASS\n");
  return rc;
}
