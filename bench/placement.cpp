// Partition-aware placement scaling: the paper testbed as a *parallel*
// simulation. Eight tenants run fio through their own active-relay
// (stream-cipher) chains on a cloud of 8 compute hosts + 2 storage
// hosts; the cloud's host-per-partition mapping (Cloud::host_partition)
// pins every host's components to its own partition, so the scenario is
// 11 partitions (control + 8 compute + 2 storage) of genuinely
// concurrent simulated work.
//
// The same seeded scenario runs at several worker-thread counts:
//   - the merged telemetry must be byte-identical at every count (the
//     conservative-lookahead determinism contract; always a hard gate),
//   - zero lookahead violations (the auto-derived lookahead must cover
//     every partition-spanning link; always a hard gate),
//   - wall-clock speedup floors (>= 2.0x at 8 threads, >= 1.5x at 4)
//     are enforced only when the machine has that many hardware
//     threads; report-only on smaller builders.
//
// Writes BENCH_placement.json. Usage: placement [--threads 1,4,8]
#include <chrono>
#include <cstdio>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <thread>
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
  std::uint64_t violations = 0;
  std::uint64_t mailbox_batches = 0;
  std::uint64_t mailbox_posts = 0;
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

RunResult run_scenario(unsigned threads) {
  const cloud::CloudConfig config = scenario_config();
  sim::Simulator sim(cloud::Cloud::parallel_config(config, threads));
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

  // Every tenant hammers its spliced disk from its own partition.
  std::vector<std::unique_ptr<workload::FioRunner>> runners;
  unsigned finished = 0;
  for (unsigned t = 0; t < kTenants; ++t) {
    workload::FioConfig fio_config;
    fio_config.request_bytes = 64 * 1024;
    fio_config.jobs = 2;
    fio_config.duration = sim::seconds(3);
    fio_config.seed = 0x9E1C + t;
    runners.push_back(std::make_unique<workload::FioRunner>(
        vms[t]->node().executor(), *vms[t]->disk(), fio_config));
    runners.back()->start(
        [&finished](workload::FioResult) { ++finished; });
  }

  const auto start = std::chrono::steady_clock::now();
  RunResult out;
  out.events = sim.run();
  const auto stop = std::chrono::steady_clock::now();
  if (finished != kTenants) throw std::runtime_error("fio incomplete");
  out.wall_s = std::chrono::duration<double>(stop - start).count();
  out.violations = sim.lookahead_violations();
  out.mailbox_batches = sim.mailbox_batches();
  out.mailbox_posts = sim.mailbox_posts();
  out.telemetry = sim.telemetry_json();
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<unsigned> thread_counts = parse_thread_flag(argc, argv);
  if (thread_counts.empty()) thread_counts = {1, 4, 8};
  const unsigned hw = std::thread::hardware_concurrency();
  const std::uint32_t partitions =
      cloud::Cloud::parallel_config(scenario_config(), 1).partitions;
  std::printf("placement scaling: %u tenants over %u partitions "
              "(host-per-partition), hardware threads %u\n",
              kTenants, partitions, hw);

  int rc = 0;
  std::map<unsigned, RunResult> results;
  for (unsigned t : thread_counts) {
    results[t] = run_scenario(t);
    const RunResult& r = results[t];
    std::printf("%2u thread(s): %9zu events  %10.0f ev/s  %7.2f ms wall  "
                "%llu mailbox batches / %llu posts\n",
                t, r.events, r.events_per_s(), r.wall_s * 1e3,
                static_cast<unsigned long long>(r.mailbox_batches),
                static_cast<unsigned long long>(r.mailbox_posts));
    if (r.violations != 0) {
      std::fprintf(stderr, "FAIL: %llu lookahead violations at %u threads\n",
                   static_cast<unsigned long long>(r.violations), t);
      rc = 1;
    }
  }

  // Determinism gates unconditionally: one partition layout, any thread
  // count, byte-identical merged telemetry.
  bool deterministic = true;
  const unsigned base_t = results.begin()->first;
  for (const auto& [t, r] : results) {
    if (r.telemetry != results[base_t].telemetry) {
      deterministic = false;
      std::fprintf(stderr, "FAIL: telemetry at %u threads differs from %u\n",
                   t, base_t);
      rc = 1;
    }
  }
  std::printf("telemetry byte-identical across thread counts: %s\n",
              deterministic ? "yes" : "NO");

  const double base_eps =
      results.count(1) ? results[1].events_per_s() : 0;
  auto speedup = [&](unsigned t) {
    return (base_eps > 0 && results.count(t))
               ? results[t].events_per_s() / base_eps
               : 0.0;
  };
  const double s4 = speedup(4);
  const double s8 = speedup(8);
  if (s8 > 0) std::printf("speedup 8t: %.2fx\n", s8);
  if (s4 > 0) std::printf("speedup 4t: %.2fx\n", s4);
  if (hw >= 8 && results.count(1) && results.count(8) && s8 < 2.0) {
    std::fprintf(stderr, "FAIL: 8-thread speedup %.2fx < 2.0x\n", s8);
    rc = 1;
  } else if (hw >= 4 && hw < 8 && results.count(1) && results.count(4) &&
             s4 < 1.5) {
    std::fprintf(stderr, "FAIL: 4-thread speedup %.2fx < 1.5x\n", s4);
    rc = 1;
  }

  std::uint64_t violations = 0;
  for (const auto& [t, r] : results) {
    if (r.violations > violations) violations = r.violations;
  }
  const char* gate = hw >= 8 ? "enforced-8t"
                             : (hw >= 4 ? "enforced-4t" : "report-only");
  std::string json =
      "{\"bench\":\"placement\",\"tenants\":" + std::to_string(kTenants) +
      ",\"partitions\":" + std::to_string(partitions) +
      ",\"hardware_threads\":" + std::to_string(hw) + ",\"threads\":{";
  bool first = true;
  for (const auto& [t, r] : results) {
    if (!first) json += ",";
    first = false;
    char buf[200];
    std::snprintf(buf, sizeof buf,
                  "\"%u\":{\"events\":%zu,\"events_per_s\":%.0f,"
                  "\"wall_ms\":%.2f,\"mailbox_batches\":%llu,"
                  "\"mailbox_posts\":%llu}",
                  t, r.events, r.events_per_s(), r.wall_s * 1e3,
                  static_cast<unsigned long long>(r.mailbox_batches),
                  static_cast<unsigned long long>(r.mailbox_posts));
    json += buf;
  }
  char tail[220];
  std::snprintf(tail, sizeof tail,
                "},\"speedup_4t\":%.3f,\"speedup_8t\":%.3f,"
                "\"deterministic\":%s,\"lookahead_violations\":%llu,"
                "\"gate\":\"%s\"}",
                s4, s8, deterministic ? "true" : "false",
                static_cast<unsigned long long>(violations), gate);
  json += tail;
  std::printf("%s\n", json.c_str());
  std::ofstream("BENCH_placement.json") << json << "\n";
  if (rc == 0) std::printf("PASS (gate: %s)\n", gate);
  return rc;
}
