// Probes: host ns per call of one layer's public function, timed by the
// benchmark on the workload's own sizes. Each probe repeats its loop and
// keeps the median, so one preempted repetition does not move it.
#pragma once

#include <cstdint>
#include <optional>

#include "sim/simulator.hpp"

namespace perfbench {

struct ProbeResults {
  double sim_noop_event_ns = 0;     // schedule + dispatch, 1 partition
  double sim_empty_window_ns = 0;   // one no-op per partition per window
  double sim_empty_window_ns_threaded = 0;  // ... with `threads` workers
  double crc32_ns_per_kib = 0;
  double pdu_serialize_ns = 0;      // serialize_chunks of one data PDU
  double pdu_parse_ns = 0;          // parse_pdu of the same PDU
  double journal_append_ns = 0;     // Device::append of one data PDU
  double chacha20_ns_per_kib = 0;
};

/// `io_bytes`: the workload's I/O size. `fleet`: the partitioned
/// kernel's configuration, when the workload uses one (the empty-window
/// probes read zero otherwise); the threaded window probe runs the same
/// partitions on `threads` worker threads.
ProbeResults run_probes(std::uint32_t io_bytes,
                        std::optional<storm::sim::ParallelConfig> fleet,
                        unsigned threads);

}  // namespace perfbench
