// Fault-injection storm benchmark: the active-relay data path under an
// increasingly hostile fabric. Each scenario runs the same write workload
// over several seeds and reports the fault/recovery counters plus an
// end-to-end data-integrity verdict (the volume image is compared byte
// for byte against what a fault-free run would have produced).
//
//   BASELINE    clean fabric
//   LOSS        1% packet loss
//   LOSS+CORR   1% loss, 0.1% corruption, 0.2% duplication
//   CRASH       LOSS+CORR plus a middle-box power failure mid-workload
//   FULL-STORM  CRASH plus a link flap and a storage-backend blip
//
// The interesting result is the right-hand column: every scenario must
// end with data_ok=yes — loss is absorbed by TCP retransmission,
// corruption by checksums, the power failure by journal replay plus
// initiator session recovery (paper §III-B).
#include <cstdio>
#include <string>

#include "bench_common.hpp"
#include "sim/fault.hpp"

using namespace storm;
using namespace storm::bench;

namespace {

constexpr int kWrites = 64;
constexpr std::uint32_t kSectors = 16;  // 8 KiB per write

Bytes pattern(std::size_t n, std::uint8_t seed) {
  Bytes out(n);
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = static_cast<std::uint8_t>(seed + i * 31);
  }
  return out;
}

struct Scenario {
  const char* name;
  sim::PacketFaultProfile profile;
  bool crash;
  bool flap;
  bool backend_blip;
};

struct Outcome {
  double sim_ms = 0;
  std::uint64_t dropped = 0;
  std::uint64_t corrupted = 0;
  std::uint64_t duplicated = 0;
  std::uint64_t retransmits = 0;
  std::uint64_t checksum_drops = 0;
  std::uint64_t replays = 0;
  std::uint64_t recoveries = 0;
  int failed_writes = 0;
  bool data_ok = false;
};

Bytes expected_image() {
  Bytes image;
  for (int i = 0; i < kWrites; ++i) {
    Bytes chunk = pattern(kSectors * block::kSectorSize,
                          static_cast<std::uint8_t>(i + 1));
    image.insert(image.end(), chunk.begin(), chunk.end());
  }
  return image;
}

Outcome run_scenario(const Scenario& scenario, std::uint64_t seed) {
  sim::Simulator sim;
  cloud::Cloud cloud(sim, cloud::CloudConfig{});
  core::StormPlatform platform(cloud);
  services::register_builtin_services(platform);
  sim::FaultPlan plan(sim, seed);

  cloud::Vm& vm = cloud.create_vm("vm", "tenant1", 0);
  if (!cloud.create_volume("vol", 65'536).is_ok()) std::abort();
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
  if (!status.is_ok() || !dep.valid()) std::abort();
  dep.attachment()->initiator->set_recovery({.enabled = true});

  // Faults arm only after the clean attach.
  cloud.set_fault_plan(&plan, scenario.profile);

  Outcome out;
  int completed = 0;
  for (int i = 0; i < kWrites; ++i) {
    Bytes data = pattern(kSectors * block::kSectorSize,
                         static_cast<std::uint8_t>(i + 1));
    vm.disk()->write(static_cast<std::uint64_t>(i) * kSectors,
                     std::move(data), [&](Status s) {
                       ++completed;
                       if (!s.is_ok()) ++out.failed_writes;
                     });
  }

  if (scenario.crash) {
    plan.schedule(sim::milliseconds(2), "crash mb0",
                  [&] { (void)dep.crash_middlebox(0); });
    plan.schedule(sim::milliseconds(22), "restart mb0",
                  [&] { (void)dep.restart_middlebox(0); });
  }
  if (scenario.flap) {
    net::Link* mb_link = cloud.find_link("vm." + dep.mb_vm(0)->name());
    // Windows are hundreds of milliseconds so they straddle RTO cycles —
    // a blink shorter than the retransmission timer can land in an idle
    // gap and perturb nothing.
    if (mb_link != nullptr) {
      plan.schedule(sim::milliseconds(600), "flap mb link down",
                    [mb_link] { mb_link->set_down(true); });
      plan.schedule(sim::milliseconds(900), "flap mb link up",
                    [mb_link] { mb_link->set_down(false); });
    }
  }
  if (scenario.backend_blip) {
    plan.schedule(sim::milliseconds(1500), "backend down",
                  [&] { cloud.storage(0).node().set_down(true); });
    plan.schedule(sim::milliseconds(1800), "backend up",
                  [&] { cloud.storage(0).node().set_down(false); });
  }
  sim.run();

  if (completed != kWrites) out.failed_writes += kWrites - completed;
  out.sim_ms = static_cast<double>(sim.now()) / 1e6;
  out.dropped = plan.dropped();
  out.corrupted = plan.corrupted();
  out.duplicated = plan.duplicated();
  out.replays = dep.active_relay(0)->journal_replays();
  out.recoveries = dep.attachment()->initiator->recoveries();
  out.retransmits = cloud.compute(0).node().tcp().retransmits() +
                    dep.mb_vm(0)->node().tcp().retransmits() +
                    cloud.storage(0).node().tcp().retransmits();
  out.checksum_drops = cloud.compute(0).node().tcp().checksum_drops() +
                       dep.mb_vm(0)->node().tcp().checksum_drops() +
                       cloud.storage(0).node().tcp().checksum_drops();

  auto volume = cloud.storage(0).volumes().find_by_name("vol");
  Bytes image = volume.value()->disk().store().read_sync(
      0, static_cast<std::uint32_t>(kWrites) * kSectors);
  out.data_ok = out.failed_writes == 0 && image == expected_image();
  return out;
}

}  // namespace

int main() {
  sim::PacketFaultProfile clean;
  sim::PacketFaultProfile loss;
  loss.drop_rate = 0.01;
  sim::PacketFaultProfile storm = loss;
  storm.corrupt_rate = 0.001;
  storm.duplicate_rate = 0.002;

  const Scenario scenarios[] = {
      {"BASELINE", clean, false, false, false},
      {"LOSS", loss, false, false, false},
      {"LOSS+CORR", storm, false, false, false},
      {"CRASH", storm, true, false, false},
      {"FULL-STORM", storm, true, true, true},
  };

  print_header("fault storm: active relay, 64 x 8 KiB writes");
  std::printf("%-11s %5s %8s %6s %5s %4s %7s %6s %7s %5s %5s %s\n",
              "scenario", "seed", "sim_ms", "drop", "corr", "dup", "retx",
              "csumd", "replays", "recov", "fail", "data_ok");
  int bad_rows = 0;
  for (const Scenario& scenario : scenarios) {
    for (std::uint64_t seed : {1ull, 2ull, 3ull}) {
      Outcome o = run_scenario(scenario, seed);
      std::printf("%-11s %5llu %8.2f %6llu %5llu %4llu %7llu %6llu %7llu "
                  "%5llu %5d %s\n",
                  scenario.name, static_cast<unsigned long long>(seed),
                  o.sim_ms, static_cast<unsigned long long>(o.dropped),
                  static_cast<unsigned long long>(o.corrupted),
                  static_cast<unsigned long long>(o.duplicated),
                  static_cast<unsigned long long>(o.retransmits),
                  static_cast<unsigned long long>(o.checksum_drops),
                  static_cast<unsigned long long>(o.replays),
                  static_cast<unsigned long long>(o.recoveries),
                  o.failed_writes, o.data_ok ? "yes" : "NO");
      if (!o.data_ok) ++bad_rows;
    }
  }
  if (bad_rows > 0) {
    std::fprintf(stderr, "FAIL: %d scenario runs ended data_ok=NO\n",
                 bad_rows);
    return 1;
  }
  return 0;
}
