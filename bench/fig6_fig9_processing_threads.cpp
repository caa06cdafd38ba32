// Reproduces paper Figures 6 and 9: middle-box processing overhead vs
// parallelism. Same setup as Figures 5/8 but the I/O size is fixed at
// 16 KB and the fio job count sweeps 4..32 ("to simulate parallelism in
// the tenant's application").
//
// Paper reference points (normalized to MB-FWD):
//   Fig. 6 IOPS    : ACTIVE 1.06 / 1.10 / 1.27 / 1.39 at 4/8/16/32 jobs
//   Fig. 9 latency : ACTIVE 0.95 / 0.91 / 0.79 / 0.70
// The paper adds that at 32 threads even vs LEGACY the active-relay
// overhead is "much less than 10%".
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.hpp"

using namespace storm;
using namespace storm::bench;

namespace {

int run() {
  const std::vector<unsigned> jobs = {4, 8, 16, 32};
  constexpr std::uint32_t kSize = 16 * 1024;
  print_header("Figure 6 + 9: processing overhead vs fio threads (16 KB)");
  std::printf("%-8s %10s %10s %10s | %9s %9s | %9s %9s | %9s\n", "jobs",
              "fwd_iops", "pass_iops", "act_iops", "pass_n", "act_n",
              "pass_lat", "act_lat", "act/leg");
  for (unsigned n : jobs) {
    auto legacy = fio_point(PathMode::kLegacy, kSize, n, sim::seconds(5));
    auto fwd = fio_point(PathMode::kForward, kSize, n, sim::seconds(5));
    auto passive = fio_point(PathMode::kPassive, kSize, n, sim::seconds(5));
    auto active = fio_point(PathMode::kActive, kSize, n, sim::seconds(5));
    std::printf("%-8u %10.0f %10.0f %10.0f | %9.2f %9.2f | %9.2f %9.2f | %9.2f\n",
                n, fwd.iops, passive.iops, active.iops,
                passive.iops / fwd.iops, active.iops / fwd.iops,
                passive.mean_latency_ms / fwd.mean_latency_ms,
                active.mean_latency_ms / fwd.mean_latency_ms,
                active.iops / legacy.iops);
  }
  std::printf("\npaper Fig.6 norm IOPS: ACTIVE 1.06 1.10 1.27 1.39\n");
  std::printf("paper Fig.9 norm lat : ACTIVE 0.95 0.91 0.79 0.70\n");
  return 0;
}

}  // namespace

int main() { return run(); }
