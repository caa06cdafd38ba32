// Reproduces paper Figures 12/13: the tenant-defined replication
// middle-box under an OLTP database workload.
//
// Setup (paper Fig. 12): one database VM with its volume attached through
// a replication middle-box holding two extra replicas (factor 3); four
// client VMs, six request threads each. At t=60 s one replica's iSCSI
// session is closed. The paper observes: the database keeps running, TPS
// dips slightly (less read parallelism), and 3-replica throughput is
// ~80% above the 1-replica baseline thanks to striped reads.
#include <cstdio>
#include <cstring>
#include <fstream>
#include <vector>

#include <algorithm>

#include "bench_common.hpp"
#include "block/block_device.hpp"
#include "core/health_manager.hpp"
#include "core/platform.hpp"
#include "fs/simext.hpp"
#include "services/replication.hpp"
#include "workload/minidb.hpp"
#include "workload/postmark.hpp"

using namespace storm;
using namespace storm::bench;

namespace {

struct RunResult {
  std::vector<double> tps_timeline;  // per second
  double steady_tps = 0;             // mean of seconds 10..55
};

RunResult run_case(unsigned replicas, bool inject_failure,
                   unsigned run_seconds) {
  cloud::CloudConfig config = testbed_config();
  // OLTP I/O is small and latency-bound: a faster volume backend keeps
  // the database disk from hiding the read-striping effect.
  config.disk_profile.base_latency = sim::milliseconds(2);
  config.disk_profile.queue_depth = 4;
  sim::Simulator sim;
  cloud::Cloud cloud(sim, config);
  core::StormPlatform platform(cloud);
  services::register_builtin_services(platform);

  cloud::Vm& db_vm = cloud.create_vm("mysql", "tenant1", 0, 2);
  if (!cloud.create_volume("dbvol", 262'144).is_ok()) std::abort();
  std::string replica_names;
  for (unsigned i = 0; i < replicas; ++i) {
    std::string name = "dbvol-r" + std::to_string(i);
    if (!cloud.create_volume(name, 262'144).is_ok()) std::abort();
    replica_names += (i ? "," : "") + name;
  }

  core::DeploymentHandle deployment;
  if (replicas > 0) {
    core::ServiceSpec spec;
    spec.type = "replication";
    spec.relay = core::RelayMode::kActive;
    spec.params["replicas"] = replica_names;
    Status status = error(ErrorCode::kIoError, "unset");
    platform.attach_with_chain("mysql", "dbvol", {spec},
                               [&](Result<core::DeploymentHandle> r) {
                                 status = r.status();
                                 if (r.is_ok()) deployment = r.value();
                               });
    sim.run();
    if (!status.is_ok()) std::abort();
  } else {
    Status status = error(ErrorCode::kIoError, "unset");
    cloud.attach_volume(db_vm, "dbvol",
                        [&](Status s, cloud::Attachment) { status = s; });
    sim.run();
    if (!status.is_ok()) std::abort();
  }

  workload::MiniDb db(db_vm.node().executor(), *db_vm.disk());
  db.init([](Status s) {
    if (!s.is_ok()) std::abort();
  });
  sim.run();
  workload::DbServer server(db_vm, db);
  server.start();

  // Four client VMs x six threads (paper Fig. 12).
  std::vector<std::unique_ptr<workload::OltpClient>> clients;
  sim::Time deadline = sim.now() + sim::seconds(run_seconds);
  int drained = 0;
  for (unsigned i = 0; i < 4; ++i) {
    cloud::Vm& client_vm =
        cloud.create_vm("client" + std::to_string(i), "tenant1", 1 + i % 3);
    clients.push_back(std::make_unique<workload::OltpClient>(
        client_vm, net::SocketAddr{db_vm.ip(), 3306}, 6));
  }
  for (auto& client : clients) {
    client->start(deadline, [&] { ++drained; });
  }

  if (inject_failure && replicas > 0) {
    sim.schedule_in(sim::seconds(60), [&] {
      auto attachment =
          cloud.find_attachment(deployment.mb_vm(0)->name(), "dbvol-r0");
      if (attachment) {
        cloud.storage(0).target().close_sessions_for(attachment->iqn);
      }
    });
  }
  sim.run();

  RunResult result;
  result.tps_timeline.assign(run_seconds, 0.0);
  for (auto& client : clients) {
    const auto& buckets = client->per_second_commits();
    for (std::size_t s = 0; s < buckets.size() && s < result.tps_timeline.size();
         ++s) {
      result.tps_timeline[s] += static_cast<double>(buckets[s]);
    }
  }
  double sum = 0;
  int n = 0;
  for (std::size_t s = 10; s < 55 && s < result.tps_timeline.size(); ++s) {
    sum += result.tps_timeline[s];
    ++n;
  }
  result.steady_tps = n ? sum / n : 0;
  return result;
}

// --------------------------------------------------------------- MTTR

struct MttrResult {
  double detect_ms = 0;  // last-alive -> declared failed
  double repair_ms = 0;  // declared failed -> data path restored
  double mttr_ms = 0;    // detect + repair (journal replay + rule swap)
  std::uint64_t failures = 0;
  std::uint64_t recoveries = 0;
  int failed_writes = 0;
  double heartbeat_ms = 0;
  unsigned miss_threshold = 0;
};

/// Whole-middle-box failover under recovery=standby: the replication
/// middle-box VM power-fails under sustained database writes; the health
/// manager detects the death, promotes the warm spare (NVRAM journal
/// handoff + atomic SDN rule swap) and the MTTR histograms record how
/// long the tenant's data path was degraded.
MttrResult run_mttr_case() {
  sim::Simulator sim;
  cloud::CloudConfig config = testbed_config();
  config.disk_profile.base_latency = sim::milliseconds(2);
  config.disk_profile.queue_depth = 4;
  cloud::Cloud cloud(sim, config);
  core::StormPlatform platform(cloud);
  services::register_builtin_services(platform);

  cloud::Vm& db_vm = cloud.create_vm("mysql", "tenant1", 0, 2);
  if (!cloud.create_volume("dbvol", 262'144).is_ok()) std::abort();
  if (!cloud.create_volume("dbvol-r0", 262'144).is_ok()) std::abort();
  if (!cloud.create_volume("dbvol-r1", 262'144).is_ok()) std::abort();

  core::ServiceSpec spec;
  spec.type = "replication";
  spec.relay = core::RelayMode::kActive;
  spec.recovery = core::RecoveryPolicyKind::kStandby;
  spec.params["replicas"] = "dbvol-r0,dbvol-r1";
  Status status = error(ErrorCode::kIoError, "unset");
  core::DeploymentHandle deployment;
  platform.attach_with_chain("mysql", "dbvol", {spec},
                             [&](Result<core::DeploymentHandle> r) {
                               status = r.status();
                               if (r.is_ok()) deployment = r.value();
                             });
  sim.run();
  if (!status.is_ok()) std::abort();
  deployment.attachment()->initiator->set_recovery({.enabled = true});
  platform.health().start();

  // Sustained 8 KB writes every 2 ms; the middle-box dies at t=50ms.
  MttrResult result;
  constexpr int kWrites = 64;
  constexpr std::uint32_t kSectors = 16;
  for (int i = 0; i < kWrites; ++i) {
    sim.schedule_in(sim::milliseconds(2) * i, [&, i] {
      db_vm.disk()->write(
          static_cast<std::uint64_t>(i) * kSectors,
          Bytes(kSectors * block::kSectorSize,
                static_cast<std::uint8_t>(i + 1)),
          [&](Status s) {
            if (!s.is_ok()) ++result.failed_writes;
          });
    });
  }
  sim.schedule_in(sim::milliseconds(50),
            [&] { (void)deployment.crash_middlebox(0); });
  sim.run_for(sim::seconds(2));
  platform.health().stop();
  sim.run();

  obs::Registry& reg = sim.telemetry();
  result.detect_ms = static_cast<double>(
                         reg.histogram("health.detect_ns").max()) / 1e6;
  result.repair_ms = static_cast<double>(
                         reg.histogram("health.repair_ns").max()) / 1e6;
  result.mttr_ms = static_cast<double>(
                       reg.histogram("health.mttr_ns").max()) / 1e6;
  result.failures = platform.health().failures_detected();
  result.recoveries = platform.health().recoveries_completed();
  result.heartbeat_ms =
      static_cast<double>(core::ChainHealthManager::kHeartbeatInterval) / 1e6;
  result.miss_threshold = core::ChainHealthManager::kMissThreshold;
  return result;
}

// ------------------------------------------------- quorum rebuild case

struct RebuildResult {
  bool rebuilt = false;
  double rebuild_ms = 0;        // replica kill -> back in rotation
  double p99_pre_ms = 0;        // foreground PostMark p99, before the kill
  double p99_during_ms = 0;     // ... while degraded/rebuilding
  std::uint64_t failed_writes = 0;  // PostMark errors + quorum failures
  std::uint64_t stale_reads_prevented = 0;
  std::uint64_t reads_failed_over = 0;
  std::uint64_t rebuild_bytes = 0;
  std::uint64_t rebuild_throttled_bytes = 0;
  std::uint64_t transactions = 0;
  std::string telemetry;  // same-seed determinism witness
};

double p99_ms(std::vector<sim::Duration>& samples) {
  if (samples.empty()) return 0;
  std::sort(samples.begin(), samples.end());
  const std::size_t idx =
      std::min(samples.size() - 1, samples.size() * 99 / 100);
  return static_cast<double>(samples[idx]) / 1e6;
}

/// PostMark through a W=2/N=3 quorum replica set; one replica's iSCSI
/// session is killed mid-run. The health cadence re-attaches the copy
/// and the token-bucket-paced copy machine streams its dirty extents
/// back from a survivor while the workload keeps running.
RebuildResult run_rebuild_case(std::uint64_t seed) {
  sim::Simulator sim;
  cloud::CloudConfig config = testbed_config();
  config.disk_profile.base_latency = sim::milliseconds(2);
  config.disk_profile.queue_depth = 4;
  cloud::Cloud cloud(sim, config);
  core::StormPlatform platform(cloud);
  services::register_builtin_services(platform);

  cloud::Vm& vm = cloud.create_vm("pm", "tenant1", 0, 2);
  constexpr std::uint64_t kSectors = 262'144;
  for (const char* name : {"pmvol", "pmvol-r0", "pmvol-r1"}) {
    if (!cloud.create_volume(name, kSectors).is_ok()) std::abort();
  }
  // Identical formatted image on every copy (the replica set starts in
  // sync at version 0, as a real provisioning flow would leave it).
  block::MemDisk image(kSectors);
  if (!fs::SimExt::mkfs(image).is_ok()) std::abort();
  Bytes whole = image.read_sync(0, static_cast<std::uint32_t>(kSectors));
  for (const char* name : {"pmvol", "pmvol-r0", "pmvol-r1"}) {
    cloud.storage(0).volumes().find_by_name(name).value()
        ->disk().store().write_sync(0, whole);
  }

  core::ServiceSpec spec;
  spec.type = "replication";
  spec.relay = core::RelayMode::kActive;
  spec.params["replicas"] = "pmvol-r0,pmvol-r1";
  spec.quorum.enabled = true;
  spec.quorum.write_quorum = 2;
  spec.quorum.rebuild_rate_bytes_per_sec = 64ull * 1024 * 1024;
  spec.quorum.rebuild_burst_bytes = 256 * 1024;
  Status status = error(ErrorCode::kIoError, "unset");
  core::DeploymentHandle deployment;
  platform.attach_with_chain("pm", "pmvol", {spec},
                             [&](Result<core::DeploymentHandle> r) {
                               status = r.status();
                               if (r.is_ok()) deployment = r.value();
                             });
  sim.run();
  if (!status.is_ok()) std::abort();
  auto* service =
      static_cast<services::ReplicationService*>(deployment.service(0));
  platform.health().start();  // probes drive re-attach + rebuild kicks

  fs::SimExt fs(vm.node().executor(), *vm.disk());
  bool mounted = false;
  fs.mount([&](Status s) { mounted = s.is_ok(); });
  sim.run_for(sim::seconds(2));
  if (!mounted) std::abort();

  workload::PostmarkConfig pm_config;
  pm_config.transactions = 600;
  pm_config.seed = seed;
  workload::PostmarkRunner postmark(vm.node().executor(), fs, pm_config);

  // Kill replica0's session at the 150th transaction; the latency sink
  // doubles as the op-latency recorder and the chaos trigger.
  RebuildResult result;
  std::vector<std::pair<sim::Time, sim::Duration>> latencies;
  sim::Time killed_at = 0;
  postmark.set_latency_sink([&](sim::Duration latency) {
    latencies.emplace_back(sim.now(), latency);
    if (latencies.size() == 150 && killed_at == 0) {
      auto attachment =
          cloud.find_attachment(deployment.mb_vm(0)->name(), "pmvol-r0");
      if (attachment) {
        cloud.storage(0).target().close_sessions_for(attachment->iqn);
        killed_at = sim.now();
      }
    }
  });

  bool pm_done = false;
  workload::PostmarkResult pm_result;
  postmark.run([&](workload::PostmarkResult r) {
    pm_result = r;
    pm_done = true;
  });

  // The health manager reschedules itself forever, so drive the clock in
  // slices until the workload finished and the replica is back.
  sim::Time rebuilt_at = 0;
  for (int slice = 0; slice < 600; ++slice) {
    sim.run_for(sim::milliseconds(100));
    if (rebuilt_at == 0 && service->rebuilds_completed() > 0) {
      rebuilt_at = sim.now();
    }
    if (pm_done && rebuilt_at != 0) break;
  }
  platform.health().stop();
  sim.run();
  if (rebuilt_at == 0 && service->rebuilds_completed() > 0) {
    rebuilt_at = sim.now();
  }

  result.rebuilt = rebuilt_at != 0;
  result.rebuild_ms = result.rebuilt
      ? static_cast<double>(rebuilt_at - killed_at) / 1e6 : 0;
  std::vector<sim::Duration> pre, during;
  for (const auto& [at, latency] : latencies) {
    if (killed_at == 0 || at <= killed_at) {
      pre.push_back(latency);
    } else if (rebuilt_at == 0 || at <= rebuilt_at) {
      during.push_back(latency);
    }
  }
  result.p99_pre_ms = p99_ms(pre);
  result.p99_during_ms = p99_ms(during);
  result.failed_writes = pm_result.errors + service->quorum_failures();
  result.stale_reads_prevented = service->stale_reads_prevented();
  result.reads_failed_over = service->reads_failed_over();
  result.rebuild_bytes = service->rebuild_bytes();
  result.rebuild_throttled_bytes =
      sim.telemetry()
          .counter("relay." + deployment.mb_vm(0)->name() +
                   ".replication.rebuild_throttled_bytes")
          .value();
  result.transactions = static_cast<std::uint64_t>(latencies.size());
  result.telemetry = sim.telemetry_json();
  if (!pm_done) result.failed_writes += 1;  // wedged workload = failure
  return result;
}

/// Report + gate: returns nonzero when the dependability claims the
/// rebuild scenario makes (no failed writes, no stale reads, the
/// replica actually returns, same-seed determinism) do not hold.
int report_rebuild(const RebuildResult& run1, bool deterministic) {
  std::printf("\nQuorum rebuild: PostMark under W=2/N=3, replica killed "
              "mid-run\n");
  std::printf("  transactions       : %llu\n",
              static_cast<unsigned long long>(run1.transactions));
  std::printf("  rebuild completed  : %s\n", run1.rebuilt ? "yes" : "NO");
  std::printf("  rebuild time       : %8.1f ms (%llu bytes streamed, "
              "%llu throttled)\n",
              run1.rebuild_ms,
              static_cast<unsigned long long>(run1.rebuild_bytes),
              static_cast<unsigned long long>(run1.rebuild_throttled_bytes));
  std::printf("  foreground p99     : %8.2f ms pre-kill, %8.2f ms "
              "degraded+rebuilding\n",
              run1.p99_pre_ms, run1.p99_during_ms);
  std::printf("  failed writes      : %llu\n",
              static_cast<unsigned long long>(run1.failed_writes));
  std::printf("  stale reads        : 0 served (%llu prevented, %llu "
              "reads failed over)\n",
              static_cast<unsigned long long>(run1.stale_reads_prevented),
              static_cast<unsigned long long>(run1.reads_failed_over));
  std::printf("  same-seed telemetry: %s\n",
              deterministic ? "byte-identical" : "DIVERGED");

  int rc = 0;
  if (!run1.rebuilt) {
    std::fprintf(stderr, "FAIL: replica never returned to rotation\n");
    rc = 1;
  }
  if (run1.failed_writes != 0) {
    std::fprintf(stderr, "FAIL: %llu foreground writes failed under "
                 "W=2/N=3 with one dead copy\n",
                 static_cast<unsigned long long>(run1.failed_writes));
    rc = 1;
  }
  if (!deterministic) {
    std::fprintf(stderr,
                 "FAIL: same-seed runs exported different telemetry\n");
    rc = 1;
  }
  return rc;
}

void report_mttr(const MttrResult& mttr) {
  std::printf("\nMTTR: replication middle-box power failure, "
              "recovery=standby\n");
  std::printf("  heartbeat %.1f ms x %u misses\n", mttr.heartbeat_ms,
              mttr.miss_threshold);
  std::printf("  detection          : %8.3f ms\n", mttr.detect_ms);
  std::printf("  repair (journal replay + rule swap + re-login): %8.3f ms\n",
              mttr.repair_ms);
  std::printf("  MTTR               : %8.3f ms\n", mttr.mttr_ms);
  std::printf("  failures=%llu recoveries=%llu failed_writes=%d\n",
              static_cast<unsigned long long>(mttr.failures),
              static_cast<unsigned long long>(mttr.recoveries),
              mttr.failed_writes);
}

/// One artifact covering both failure drills: whole-middle-box failover
/// (MTTR) and single-replica loss under quorum (degraded service +
/// throttled rebuild). CI's perf-smoke gate checks both field groups.
void write_failover_json(const MttrResult& mttr, const RebuildResult& rb,
                         bool deterministic) {
  std::ofstream out("BENCH_failover.json");
  out << "{\n"
      << "  \"bench\": \"failover\",\n"
      << "  \"policy\": \"standby\",\n"
      << "  \"heartbeat_interval_ms\": " << mttr.heartbeat_ms << ",\n"
      << "  \"miss_threshold\": " << mttr.miss_threshold << ",\n"
      << "  \"detect_ms\": " << mttr.detect_ms << ",\n"
      << "  \"repair_ms\": " << mttr.repair_ms << ",\n"
      << "  \"mttr_ms\": " << mttr.mttr_ms << ",\n"
      << "  \"failures\": " << mttr.failures << ",\n"
      << "  \"recoveries\": " << mttr.recoveries << ",\n"
      << "  \"failed_writes\": " << mttr.failed_writes << ",\n"
      << "  \"write_quorum\": 2,\n"
      << "  \"copies\": 3,\n"
      << "  \"rebuild_transactions\": " << rb.transactions << ",\n"
      << "  \"rebuild_completed\": " << (rb.rebuilt ? "true" : "false")
      << ",\n"
      << "  \"rebuild_ms\": " << rb.rebuild_ms << ",\n"
      << "  \"rebuild_bytes\": " << rb.rebuild_bytes << ",\n"
      << "  \"rebuild_throttled_bytes\": " << rb.rebuild_throttled_bytes
      << ",\n"
      << "  \"rebuild_p99_pre_ms\": " << rb.p99_pre_ms << ",\n"
      << "  \"rebuild_p99_during_ms\": " << rb.p99_during_ms << ",\n"
      << "  \"rebuild_failed_writes\": " << rb.failed_writes << ",\n"
      << "  \"stale_reads_prevented\": " << rb.stale_reads_prevented
      << ",\n"
      << "  \"reads_failed_over\": " << rb.reads_failed_over << ",\n"
      << "  \"deterministic\": " << (deterministic ? "true" : "false")
      << "\n"
      << "}\n";
}

/// CI artifact mode: both failure drills, gated, no TPS timelines.
int run_failover_suite() {
  print_header("Failover MTTR (recovery=standby)");
  MttrResult mttr = run_mttr_case();
  report_mttr(mttr);

  RebuildResult run1 = run_rebuild_case(/*seed=*/11);
  RebuildResult run2 = run_rebuild_case(/*seed=*/11);
  const bool deterministic =
      !run1.telemetry.empty() && run1.telemetry == run2.telemetry;
  int rc = report_rebuild(run1, deterministic);
  write_failover_json(mttr, run1, deterministic);
  return rc;
}

}  // namespace

int main(int argc, char** argv) {
  // --mttr-only: skip the 120-simulated-second TPS timelines and run just
  // the failure drills (CI artifact mode; gates the quorum rebuild too).
  const bool mttr_only =
      argc > 1 && std::strcmp(argv[1], "--mttr-only") == 0;
  if (mttr_only) {
    return run_failover_suite();
  }

  print_header("Figure 13: MySQL-like TPS with replication, replica failure at t=60s");

  const RunResult three =
      run_case(/*replicas=*/2, /*inject_failure=*/true, 120);
  const RunResult one =
      run_case(/*replicas=*/0, /*inject_failure=*/false, 120);

  std::printf("time(s)  tps_3replica  tps_1replica\n");
  for (std::size_t s = 0; s < three.tps_timeline.size(); s += 5) {
    std::printf("%6zu  %12.0f  %12.0f%s\n", s, three.tps_timeline[s],
                s < one.tps_timeline.size() ? one.tps_timeline[s] : 0.0,
                s == 60 ? "   <- replica fails" : "");
  }

  double pre_fail = 0, post_fail = 0;
  int pre_n = 0, post_n = 0;
  for (std::size_t s = 10; s < 58; ++s) {
    pre_fail += three.tps_timeline[s];
    ++pre_n;
  }
  for (std::size_t s = 65; s < 115; ++s) {
    post_fail += three.tps_timeline[s];
    ++post_n;
  }
  pre_fail /= pre_n;
  post_fail /= post_n;

  std::printf("\n3-replica steady TPS (pre-failure) : %.0f\n", pre_fail);
  std::printf("3-replica steady TPS (post-failure): %.0f\n", post_fail);
  std::printf("1-replica steady TPS               : %.0f\n", one.steady_tps);
  std::printf("3-replica vs 1-replica improvement : %.0f%%\n",
              (pre_fail / one.steady_tps - 1.0) * 100.0);
  std::printf("\npaper: DB keeps running after the failure, TPS drops "
              "slightly;\n       3 replicas ~80%% above the 1-replica "
              "baseline\n");

  return run_failover_suite();
}
