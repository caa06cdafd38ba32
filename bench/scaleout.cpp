// Elastic chain scale-out (BENCH_scaleout.json): replica pools for
// middle-box hops under a multi-tenant load.
//
// Phase 1 — capacity: one hot tenant drives six fio flows through a
// stream-cipher hop deployed as a single replica, then as a 3-replica
// pool with consistent-hash flow distribution. The relay VM's single
// virtio queue is the bottleneck, so the pool must buy real throughput:
//   - 3-replica aggregate IOPS >= 1.7x the single replica (hard gate,
//     simulated time, machine-independent),
//   - p99 latency no worse than the single-replica run (hard gate).
//
// Phase 2 — elasticity: 100 tenants (mixed fio + PostMark) run against
// the platform while the QoS-driven autoscaler watches the hot tenant.
// A mid-run burst must trigger at least one scale-up (atomic hash-range
// swaps via swap_rules_by_cookie) and the idle tail at least one
// drain-based scale-down, with
//   - zero failed or dropped writes across every migration (hard gate),
//   - zero PostMark errors (hard gate),
//   - exact-match flow-cache hit rate > 99.99% (hard gate),
//   - byte-identical telemetry across two same-seed runs (hard gate).
//
// Writes BENCH_scaleout.json. Usage: scaleout
#include <chrono>
#include <cstdio>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "core/autoscaler.hpp"
#include "fs/simext.hpp"
#include "workload/postmark.hpp"

using namespace storm;
using namespace storm::bench;

namespace {

constexpr unsigned kTenants = 100;
constexpr unsigned kHotFlows = 6;
constexpr unsigned kComputeHosts = 8;
constexpr unsigned kStorageHosts = 2;

cloud::CloudConfig scenario_config() {
  cloud::CloudConfig config = testbed_config();
  config.compute_hosts = kComputeHosts;
  config.storage_hosts = kStorageHosts;
  return config;
}

core::ServiceSpec pooled_spec(unsigned count, unsigned max_count) {
  core::ServiceSpec spec;
  spec.type = "stream_cipher";
  spec.relay = core::RelayMode::kActive;
  spec.replicas.enabled = true;
  spec.replicas.count = count;
  spec.replicas.min_count = 1;
  spec.replicas.max_count = max_count;
  return spec;
}

std::uint64_t failed_ops(const workload::FioResult& r) {
  return r.read_ops + r.write_ops - r.total_ops;
}

// ------------------------------------------------- phase 1: capacity

struct HotResult {
  double aggregate_iops = 0;
  double p99_ms = 0;  // worst flow
  std::uint64_t failed = 0;
};

HotResult run_hot_tenant(unsigned replicas) {
  cloud::CloudConfig config = scenario_config();
  // The capacity phase must make the shared relay the bottleneck that
  // replicas multiply — the middle-box VM's single-queue virtio path
  // (paper §V-A). Everything else gets headroom: a 10 GbE fabric (the
  // tenant's gateway pair and the storage NICs stop binding), a
  // wide-open TCP window (the relay terminates TCP per segment, so ACK
  // clocking is off the table), fast disks, four storage hosts.
  config.link_bps = 10'000'000'000ull;
  config.instance_link_bps = 10'000'000'000ull;
  config.tcp_window = 128 * 1024;
  config.storage_hosts = 4;
  config.disk_profile.base_latency = sim::microseconds(200);
  sim::Simulator sim;
  cloud::Cloud cloud(sim, config);
  core::StormPlatform platform(cloud);
  services::register_builtin_services(platform);

  std::vector<cloud::Vm*> vms;
  unsigned attached = 0;
  for (unsigned f = 0; f < kHotFlows; ++f) {
    const std::string name = "hot" + std::to_string(f);
    vms.push_back(
        &cloud.create_vm("vm-" + name, "hot", f % kComputeHosts, 2));
    if (!cloud.create_volume("vol-" + name, 128 * 1024, f % 4).is_ok()) {
      throw std::runtime_error("create_volume failed");
    }
    platform.attach_with_chain(
        "vm-" + name, "vol-" + name, {pooled_spec(replicas, replicas)},
        [&attached](Result<core::DeploymentHandle> r) {
          if (!r.is_ok()) {
            throw std::runtime_error("attach: " + r.status().to_string());
          }
          ++attached;
        });
  }
  sim.run();
  if (attached != kHotFlows) throw std::runtime_error("attach missing");

  std::vector<workload::FioResult> results(kHotFlows);
  unsigned finished = 0;
  std::vector<std::unique_ptr<workload::FioRunner>> runners;
  for (unsigned f = 0; f < kHotFlows; ++f) {
    workload::FioConfig fio;
    fio.request_bytes = 16 * 1024;
    fio.jobs = 8;
    fio.duration = sim::milliseconds(600);
    fio.seed = 0xA11CE + f;
    runners.push_back(std::make_unique<workload::FioRunner>(
        vms[f]->node().executor(), *vms[f]->disk(), fio));
    runners.back()->start([&results, &finished, f](workload::FioResult r) {
      results[f] = r;
      ++finished;
    });
  }
  sim.run();
  if (finished != kHotFlows) throw std::runtime_error("fio incomplete");

  HotResult out;
  for (const auto& r : results) {
    out.aggregate_iops += r.iops;
    if (r.p99_latency_ms > out.p99_ms) out.p99_ms = r.p99_latency_ms;
    out.failed += failed_ops(r);
  }
  return out;
}

// ------------------------------------------------ phase 2: elasticity

struct ElasticResult {
  std::size_t events = 0;
  double wall_s = 0;
  std::uint64_t scale_ups = 0;
  std::uint64_t scale_downs = 0;
  std::uint64_t migrations = 0;
  std::uint64_t rule_swaps = 0;
  std::uint64_t failed = 0;
  std::uint64_t postmark_errors = 0;
  double cache_hit_rate = 0;
  std::size_t final_replicas = 0;
  std::size_t parked = 0;
  std::string telemetry;
};

ElasticResult run_elastic() {
  const cloud::CloudConfig config = scenario_config();
  sim::Simulator sim;
  cloud::Cloud cloud(sim, config);
  core::StormPlatform platform(cloud);
  services::register_builtin_services(platform);

  // The hot tenant (tenant0) runs three flows through an elastic
  // stream-cipher pool behind a 4 MB/s admission bucket — the throttle
  // telemetry the autoscaler keys on.
  core::QosSpec qos;
  qos.enabled = true;
  qos.rate_bytes_per_sec = 4'000'000;
  qos.burst_bytes = 128 * 1024;
  platform.set_tenant_qos("tenant0", qos);

  constexpr unsigned kHotVms = 3;
  constexpr unsigned kPostmarkTenants = 2;
  // Flow layout: 3 hot flows + light fio tenants + 2 PostMark tenants,
  // 100 tenants total (tenant0 counts once).
  const unsigned light_tenants = kTenants - 1 - kPostmarkTenants;

  std::vector<cloud::Vm*> hot_vms;
  std::vector<cloud::Vm*> light_vms;
  std::vector<cloud::Vm*> pm_vms;
  unsigned attached = 0, expected = 0;
  auto on_attach = [&attached](Result<core::DeploymentHandle> r) {
    if (!r.is_ok()) {
      throw std::runtime_error("attach: " + r.status().to_string());
    }
    ++attached;
  };

  for (unsigned f = 0; f < kHotVms; ++f) {
    const std::string name = "hot" + std::to_string(f);
    hot_vms.push_back(
        &cloud.create_vm("vm-" + name, "tenant0", f % kComputeHosts, 2));
    if (!cloud.create_volume("vol-" + name, 64 * 1024, f % kStorageHosts)
             .is_ok()) {
      throw std::runtime_error("create_volume failed");
    }
    platform.attach_with_chain("vm-" + name, "vol-" + name,
                               {pooled_spec(1, 3)}, on_attach);
    ++expected;
  }
  for (unsigned t = 0; t < light_tenants; ++t) {
    const std::string name = std::to_string(t + 1);
    light_vms.push_back(&cloud.create_vm(
        "vm" + name, "tenant" + name, t % kComputeHosts, 2));
    if (!cloud.create_volume("vol" + name, 20'000, t % kStorageHosts)
             .is_ok()) {
      throw std::runtime_error("create_volume failed");
    }
    core::ServiceSpec spec;
    spec.type = "noop";
    spec.relay = core::RelayMode::kActive;
    platform.attach_with_chain("vm" + name, "vol" + name, {spec},
                               on_attach);
    ++expected;
  }
  for (unsigned p = 0; p < kPostmarkTenants; ++p) {
    const std::string name = std::to_string(light_tenants + 1 + p);
    pm_vms.push_back(&cloud.create_vm("vm" + name, "tenant" + name,
                                      (p + 3) % kComputeHosts, 2));
    if (!cloud.create_volume("vol" + name, 16 * 1024, p % kStorageHosts)
             .is_ok()) {
      throw std::runtime_error("create_volume failed");
    }
    core::ServiceSpec spec;
    spec.type = "noop";
    spec.relay = core::RelayMode::kActive;
    platform.attach_with_chain("vm" + name, "vol" + name, {spec},
                               on_attach);
    ++expected;
  }
  sim.run();
  if (attached != expected) throw std::runtime_error("attach missing");

  // Format the PostMark volumes through their spliced data path.
  std::vector<std::unique_ptr<fs::SimExt>> filesystems;
  for (cloud::Vm* vm : pm_vms) {
    block::MemDisk image(16 * 1024);
    if (!fs::SimExt::mkfs(image).is_ok()) throw std::runtime_error("mkfs");
    const Bytes zero(fs::kBlockSize, 0);
    for (std::uint64_t block = 0; block < 16 * 1024 / fs::kSectorsPerBlock;
         ++block) {
      Bytes content = image.read_sync(block * fs::kSectorsPerBlock,
                                      fs::kSectorsPerBlock);
      if (content == zero) continue;
      bool ok = false;
      vm->disk()->write(block * fs::kSectorsPerBlock, std::move(content),
                        [&](Status s) { ok = s.is_ok(); });
      sim.run();
      if (!ok) throw std::runtime_error("format write failed");
    }
    filesystems.push_back(
        std::make_unique<fs::SimExt>(vm->node().executor(), *vm->disk()));
    filesystems.back()->mount([](Status s) {
      if (!s.is_ok()) throw std::runtime_error("mount: " + s.to_string());
    });
    sim.run();
  }

  // The autoscaler rides the hot tenant's throttle rate.
  core::AutoscalerConfig cfg;
  cfg.tick_interval = sim::milliseconds(10);
  cfg.scale_up_bytes_per_sec = 2'000'000;
  cfg.scale_down_bytes_per_sec = 256 * 1024;
  cfg.sustain_up_ticks = 2;
  cfg.sustain_down_ticks = 4;
  cfg.cooldown = sim::milliseconds(40);
  core::Autoscaler scaler(platform, cfg);
  scaler.watch_tenant("tenant0", "stream_cipher", 1, 3);
  scaler.start();

  // Workloads: the hot burst saturates the 4 MB/s bucket for 120 ms;
  // the light tenants tick along underneath; PostMark churns small
  // files. The burst must scale the pool up; the idle tail must drain
  // it back down.
  std::vector<workload::FioResult> hot_results(kHotVms);
  unsigned hot_done = 0;
  std::vector<std::unique_ptr<workload::FioRunner>> runners;
  for (unsigned f = 0; f < kHotVms; ++f) {
    workload::FioConfig fio;
    fio.request_bytes = 64 * 1024;
    fio.jobs = 2;
    fio.write_ratio = 0.8;
    fio.duration = sim::milliseconds(120);
    fio.seed = 0xB00 + f;
    runners.push_back(std::make_unique<workload::FioRunner>(
        hot_vms[f]->node().executor(), *hot_vms[f]->disk(), fio));
    runners.back()->start(
        [&hot_results, &hot_done, f](workload::FioResult r) {
          hot_results[f] = r;
          ++hot_done;
        });
  }
  std::vector<workload::FioResult> light_results(light_vms.size());
  unsigned light_done = 0;
  for (unsigned t = 0; t < light_vms.size(); ++t) {
    workload::FioConfig fio;
    fio.request_bytes = 8 * 1024;
    fio.jobs = 1;
    fio.duration = sim::milliseconds(60);
    fio.seed = 0x5EED + t;
    runners.push_back(std::make_unique<workload::FioRunner>(
        light_vms[t]->node().executor(), *light_vms[t]->disk(), fio));
    runners.back()->start(
        [&light_results, &light_done, t](workload::FioResult r) {
          light_results[t] = r;
          ++light_done;
        });
  }
  std::vector<workload::PostmarkResult> pm_results(pm_vms.size());
  unsigned pm_done = 0;
  std::vector<std::unique_ptr<workload::PostmarkRunner>> postmarks;
  for (unsigned p = 0; p < pm_vms.size(); ++p) {
    workload::PostmarkConfig pm;
    pm.directories = 4;
    pm.initial_files = 30;
    pm.transactions = 120;
    pm.seed = 0xF11E + p;
    postmarks.push_back(std::make_unique<workload::PostmarkRunner>(
        pm_vms[p]->node().executor(), *filesystems[p], pm));
    postmarks.back()->run(
        [&pm_results, &pm_done, p](workload::PostmarkResult r) {
          pm_results[p] = r;
          ++pm_done;
        });
  }
  sim.schedule_in(sim::milliseconds(320), [&scaler] { scaler.stop(); });

  const auto start = std::chrono::steady_clock::now();
  ElasticResult out;
  // Let every flow populate the exact-match caches (one compulsory miss
  // per flow per switch), then gate the steady-state hit rate — the
  // window that spans every rule swap the autoscaler performs.
  out.events = sim.run_for(sim::milliseconds(10));
  const cloud::Cloud::FlowCacheStats warm = cloud.flow_cache_stats();
  out.events += sim.run();
  const auto stop = std::chrono::steady_clock::now();
  out.wall_s = std::chrono::duration<double>(stop - start).count();
  if (hot_done != kHotVms || light_done != light_vms.size() ||
      pm_done != pm_vms.size()) {
    throw std::runtime_error("workloads incomplete");
  }

  out.scale_ups = scaler.scale_ups();
  out.scale_downs = scaler.scale_downs();
  out.migrations = sim.telemetry().counter("scaleout.migrations").value();
  out.rule_swaps = platform.sdn().rule_swaps();
  for (const auto& r : hot_results) out.failed += failed_ops(r);
  for (const auto& r : light_results) out.failed += failed_ops(r);
  for (const auto& r : pm_results) out.postmark_errors += r.errors;
  const cloud::Cloud::FlowCacheStats total = cloud.flow_cache_stats();
  cloud::Cloud::FlowCacheStats steady;
  steady.hits = total.hits - warm.hits;
  steady.misses = total.misses - warm.misses;
  out.cache_hit_rate = steady.hit_rate();
  if (const core::ReplicaSet* set =
          platform.replica_set("tenant0", "stream_cipher")) {
    out.final_replicas = set->replicas.size();
    out.parked = set->parked.size();
  }
  out.telemetry = sim.telemetry_json();
  return out;
}

}  // namespace

int main() {
  int rc = 0;

  std::printf("scale-out: %u-flow hot tenant, 1 vs 3 replicas\n", kHotFlows);
  const HotResult base = run_hot_tenant(1);
  const HotResult scaled = run_hot_tenant(3);
  const double ratio =
      base.aggregate_iops > 0 ? scaled.aggregate_iops / base.aggregate_iops
                              : 0;
  std::printf("  1 replica : %8.0f IOPS aggregate, p99 %7.2f ms\n",
              base.aggregate_iops, base.p99_ms);
  std::printf("  3 replicas: %8.0f IOPS aggregate, p99 %7.2f ms "
              "(%.2fx)\n",
              scaled.aggregate_iops, scaled.p99_ms, ratio);
  if (ratio < 1.7) {
    std::fprintf(stderr, "FAIL: 3-replica aggregate %.2fx < 1.7x\n", ratio);
    rc = 1;
  }
  if (scaled.p99_ms > base.p99_ms) {
    std::fprintf(stderr, "FAIL: scaled p99 %.2f ms worse than %.2f ms\n",
                 scaled.p99_ms, base.p99_ms);
    rc = 1;
  }
  if (base.failed + scaled.failed != 0) {
    std::fprintf(stderr, "FAIL: capacity phase dropped ops\n");
    rc = 1;
  }

  std::printf("elastic phase: %u tenants (fio + PostMark), autoscaled hot "
              "tenant\n",
              kTenants);
  const ElasticResult first = run_elastic();
  const ElasticResult second = run_elastic();
  for (const ElasticResult* r : {&first, &second}) {
    std::printf("run: %9zu events  %7.2f ms wall  ups=%llu downs=%llu "
                "migrations=%llu cache=%.5f\n",
                r->events, r->wall_s * 1e3,
                static_cast<unsigned long long>(r->scale_ups),
                static_cast<unsigned long long>(r->scale_downs),
                static_cast<unsigned long long>(r->migrations),
                r->cache_hit_rate);
  }
  if (first.scale_ups < 1) {
    std::fprintf(stderr, "FAIL: burst never scaled the pool up\n");
    rc = 1;
  }
  if (first.scale_downs < 1) {
    std::fprintf(stderr, "FAIL: idle tail never scaled the pool down\n");
    rc = 1;
  }
  if (first.migrations < 1) {
    std::fprintf(stderr, "FAIL: rebalancing moved no flows\n");
    rc = 1;
  }
  if (first.failed != 0) {
    std::fprintf(stderr,
                 "FAIL: %llu failed/dropped ops across scale events\n",
                 static_cast<unsigned long long>(first.failed));
    rc = 1;
  }
  if (first.postmark_errors != 0) {
    std::fprintf(stderr, "FAIL: PostMark saw %llu errors\n",
                 static_cast<unsigned long long>(first.postmark_errors));
    rc = 1;
  }
  if (first.cache_hit_rate <= 0.9999) {
    std::fprintf(stderr, "FAIL: flow-cache hit rate %.6f <= 0.9999\n",
                 first.cache_hit_rate);
    rc = 1;
  }

  const bool deterministic =
      !first.telemetry.empty() && first.telemetry == second.telemetry;
  if (!deterministic) {
    std::fprintf(stderr, "FAIL: same-seed runs exported different telemetry\n");
    rc = 1;
  }
  std::printf("same-seed telemetry byte-identical: %s\n",
              deterministic ? "yes" : "NO");

  char buf[640];
  std::snprintf(
      buf, sizeof buf,
      "{\"bench\":\"scaleout\",\"tenants\":%u,\"hot_flows\":%u,"
      "\"baseline\":{\"aggregate_iops\":%.0f,\"p99_ms\":%.3f},"
      "\"scaled\":{\"replicas\":3,\"aggregate_iops\":%.0f,\"p99_ms\":%.3f},"
      "\"iops_ratio\":%.3f,\"elastic\":{\"scale_ups\":%llu,"
      "\"scale_downs\":%llu,\"migrations\":%llu,\"rule_swaps\":%llu,"
      "\"failed_ops\":%llu,\"postmark_errors\":%llu,"
      "\"cache_hit_rate\":%.6f,\"final_replicas\":%zu,\"parked\":%zu},",
      kTenants, kHotFlows, base.aggregate_iops, base.p99_ms,
      scaled.aggregate_iops, scaled.p99_ms, ratio,
      static_cast<unsigned long long>(first.scale_ups),
      static_cast<unsigned long long>(first.scale_downs),
      static_cast<unsigned long long>(first.migrations),
      static_cast<unsigned long long>(first.rule_swaps),
      static_cast<unsigned long long>(first.failed),
      static_cast<unsigned long long>(first.postmark_errors),
      first.cache_hit_rate, first.final_replicas, first.parked);
  std::string json = buf;
  std::snprintf(buf, sizeof buf,
                "\"events\":%zu,\"wall_ms\":%.2f,\"deterministic\":%s}",
                first.events, first.wall_s * 1e3,
                deterministic ? "true" : "false");
  json += buf;
  std::printf("%s\n", json.c_str());
  std::ofstream("BENCH_scaleout.json") << json << "\n";
  if (rc == 0) std::printf("PASS\n");
  return rc;
}
