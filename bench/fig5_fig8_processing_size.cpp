// Reproduces paper Figures 5 and 8: middle-box processing overhead vs
// I/O size. A stream-cipher service runs in the middle-box; the three
// interception approaches are compared (all normalized to MB-FWD):
//   MB-FWD            forwarding only, no interception (baseline = 1.0)
//   MB-PASSIVE-RELAY  per-packet hook + copies, cipher inline
//   MB-ACTIVE-RELAY   split-TCP + immediate ACK, cipher off the ACK path
//
// Paper reference points (normalized to MB-FWD):
//   Fig. 5 IOPS    : ACTIVE 1.01 / 1.00 / 1.06 / 1.14; PASSIVE 3-13% below
//   Fig. 8 latency : ACTIVE 0.98 / 1.01 / 0.94 / 0.89
//
// After the table, one MB-ACTIVE run is re-executed with command tracing
// and a per-layer latency breakdown is emitted as JSON (stdout + file):
// every traced command's root span carries telescoping hop events
// (issue -> mb.<vm>.cmd -> target.cmd -> target.rsp -> mb.<vm>.rsp ->
// complete), so the summed hop durations must equal the end-to-end
// latency — the self-check fails loudly if they diverge by more than 1%.
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "obs/registry.hpp"

using namespace storm;
using namespace storm::bench;

namespace {

struct Breakdown {
  // Hop label pairs ("issue -> mb.X.cmd") in first-seen order, with the
  // total sim-time spent in that leg across all traced commands.
  std::vector<std::pair<std::string, std::uint64_t>> legs;
  std::uint64_t spans = 0;
  std::uint64_t sum_hop_ns = 0;
  std::uint64_t end_to_end_ns = 0;
};

Breakdown per_layer_breakdown(const obs::Tracer& tracer) {
  Breakdown out;
  std::map<std::string, std::size_t> index;
  for (const obs::Span& span : tracer.spans()) {
    if (!span.name.starts_with("cmd.") || !span.ended) continue;
    if (span.events.size() < 2) continue;
    ++out.spans;
    out.end_to_end_ns += span.end - span.start;
    for (std::size_t i = 0; i + 1 < span.events.size(); ++i) {
      const obs::SpanEvent& a = span.events[i];
      const obs::SpanEvent& b = span.events[i + 1];
      std::string leg = a.label + " -> " + b.label;
      auto [it, inserted] = index.emplace(leg, out.legs.size());
      if (inserted) out.legs.emplace_back(leg, 0);
      out.legs[it->second].second += b.at - a.at;
      out.sum_hop_ns += b.at - a.at;
    }
  }
  return out;
}

std::string breakdown_json(std::uint32_t io_size, const Breakdown& b) {
  std::string json = "{\"figure\":\"fig5_fig8\",\"mode\":\"MB-ACTIVE-RELAY\","
                     "\"io_size\":" + std::to_string(io_size) +
                     ",\"commands\":" + std::to_string(b.spans) + ",\"layers\":[";
  for (std::size_t i = 0; i < b.legs.size(); ++i) {
    if (i) json += ",";
    json += "{\"leg\":\"" + b.legs[i].first +
            "\",\"total_ns\":" + std::to_string(b.legs[i].second) + "}";
  }
  json += "],\"sum_hop_ns\":" + std::to_string(b.sum_hop_ns) +
          ",\"end_to_end_ns\":" + std::to_string(b.end_to_end_ns) + "}";
  return json;
}

void run_table() {
  const std::vector<std::uint32_t> sizes = {4 * 1024, 16 * 1024, 64 * 1024,
                                            256 * 1024};
  print_header("Figure 5 + 8: processing overhead vs I/O size");
  std::printf("%-8s %10s %10s %10s | %9s %9s | %9s %9s\n", "io_size",
              "fwd_iops", "pass_iops", "act_iops", "pass_n", "act_n",
              "pass_lat", "act_lat");
  for (std::uint32_t size : sizes) {
    auto fwd = fio_point(PathMode::kForward, size, 1, sim::seconds(8));
    auto passive = fio_point(PathMode::kPassive, size, 1, sim::seconds(8));
    auto active = fio_point(PathMode::kActive, size, 1, sim::seconds(8));
    std::printf("%-8u %10.0f %10.0f %10.0f | %9.2f %9.2f | %9.2f %9.2f\n",
                size / 1024, fwd.iops, passive.iops, active.iops,
                passive.iops / fwd.iops, active.iops / fwd.iops,
                passive.mean_latency_ms / fwd.mean_latency_ms,
                active.mean_latency_ms / fwd.mean_latency_ms);
  }
  std::printf("\npaper Fig.5 norm IOPS: ACTIVE 1.01 1.00 1.06 1.14; "
              "PASSIVE ~0.97..0.87\n");
  std::printf("paper Fig.8 norm lat : ACTIVE 0.98 1.01 0.94 0.89\n");
}

}  // namespace

int main() {
  run_table();

  // --- per-layer latency breakdown from the telemetry trace spans ---
  const std::uint32_t kBreakdownIoSize = 64 * 1024;
  Testbed testbed(PathMode::kActive);
  workload::FioConfig config;
  config.request_bytes = kBreakdownIoSize;
  config.jobs = 1;
  config.duration = sim::seconds(1);
  testbed.run_fio(config);

  Breakdown b = per_layer_breakdown(testbed.simulator().telemetry().tracer());
  std::string json = breakdown_json(kBreakdownIoSize, b);
  print_header("per-layer breakdown (MB-ACTIVE-RELAY, 64 KiB)");
  std::printf("%s\n", json.c_str());
  std::ofstream("fig5_fig8_breakdown.json") << json << "\n";
  write_telemetry_json(testbed.simulator(), "fig5_fig8_telemetry.json");

  // Self-check: telescoping hop events must reconstruct the end-to-end
  // latency. Tolerate 1% (criterion); in practice they match exactly
  // because the first/last events coincide with span start/end.
  const double e2e = static_cast<double>(b.end_to_end_ns);
  const double diff = e2e > static_cast<double>(b.sum_hop_ns)
                          ? e2e - static_cast<double>(b.sum_hop_ns)
                          : static_cast<double>(b.sum_hop_ns) - e2e;
  if (b.spans == 0 || (e2e > 0 && diff / e2e > 0.01)) {
    std::fprintf(stderr,
                 "FAIL: hop sum %llu ns vs end-to-end %llu ns (>1%% apart, "
                 "%llu spans)\n",
                 static_cast<unsigned long long>(b.sum_hop_ns),
                 static_cast<unsigned long long>(b.end_to_end_ns),
                 static_cast<unsigned long long>(b.spans));
    return 1;
  }
  std::printf("hop-sum check: %llu commands, sum %llu ns == e2e %llu ns\n",
              static_cast<unsigned long long>(b.spans),
              static_cast<unsigned long long>(b.sum_hop_ns),
              static_cast<unsigned long long>(b.end_to_end_ns));
  return 0;
}
