// Reproduces paper Figures 4 and 7: traffic-redirection (routing)
// overhead. LEGACY vs MB-FWD (forwarding-only middle-box, no processing),
// one fio job, 50/50 random read/write, I/O sizes 4 KB - 256 KB.
// Middle-box and both gateways are placed on different physical hosts
// than the VM and target (the paper's worst case).
//
// Paper reference points (normalized to LEGACY):
//   Fig. 4 IOPS    : MB-FWD 0.93 / 0.86 / 0.83 / 0.82
//   Fig. 7 latency : MB-FWD 1.08 / 1.22 / 1.25 / 1.30
#include <cstdio>
#include <vector>

#include "bench_common.hpp"
#include "obs/registry.hpp"

using namespace storm;
using namespace storm::bench;

namespace {

int run() {
  const std::vector<std::uint32_t> sizes = {4 * 1024, 16 * 1024, 64 * 1024,
                                            256 * 1024};
  print_header("Figure 4 + 7: routing overhead (LEGACY vs MB-FWD)");
  std::printf("%-8s %12s %12s %10s | %12s %12s %10s\n", "io_size",
              "legacy_iops", "mbfwd_iops", "norm_iops", "legacy_ms",
              "mbfwd_ms", "norm_lat");
  for (std::uint32_t size : sizes) {
    auto legacy = fio_point(PathMode::kLegacy, size, 1, sim::seconds(8));
    auto fwd = fio_point(PathMode::kForward, size, 1, sim::seconds(8));
    std::printf("%-8u %12.0f %12.0f %10.2f | %12.3f %12.3f %10.2f\n",
                size / 1024, legacy.iops, fwd.iops, fwd.iops / legacy.iops,
                legacy.mean_latency_ms, fwd.mean_latency_ms,
                fwd.mean_latency_ms / legacy.mean_latency_ms);
  }
  std::printf("\npaper Fig.4 norm IOPS: 0.93 0.86 0.83 0.82 (4K..256K)\n");
  std::printf("paper Fig.7 norm lat : 1.08 1.22 1.25 1.30 (4K..256K)\n");

  // Flow-table fast path: a long-lived iSCSI flow through the gateways'
  // FlowSwitches should be almost entirely exact-match cache hits — the
  // linear rule scan runs once per flow, not once per packet.
  Testbed testbed(PathMode::kForward);
  workload::FioConfig config;
  config.request_bytes = 64 * 1024;
  config.jobs = 1;
  config.duration = sim::seconds(4);
  testbed.run_fio(config);
  obs::Registry& reg = testbed.simulator().telemetry();
  const std::uint64_t hits = reg.counter("net.flow.cache_hits").value();
  const std::uint64_t misses = reg.counter("net.flow.cache_misses").value();
  const double hit_rate =
      hits + misses ? static_cast<double>(hits) /
                          static_cast<double>(hits + misses)
                    : 0.0;
  print_header("flow-switch exact-match cache (MB-FWD, 64 KiB)");
  std::printf("cache_hits=%llu cache_misses=%llu hit_rate=%.4f\n",
              static_cast<unsigned long long>(hits),
              static_cast<unsigned long long>(misses), hit_rate);
  if (hit_rate < 0.90) {
    std::fprintf(stderr, "FAIL: flow cache hit rate %.4f < 0.90\n", hit_rate);
    return 1;
  }
  return 0;
}

}  // namespace

int main() { return run(); }
