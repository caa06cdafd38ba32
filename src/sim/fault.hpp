// Deterministic, seedable fault injection.
//
// A FaultPlan is the single source of randomness and scheduling for every
// induced fault in a simulation run: links consult it per packet for
// probabilistic drop/corrupt/duplicate/delay decisions, and tests/benches
// register named scheduled events (crash a middle-box VM, flap a link,
// take the backend down mid-burst). Every decision and event is appended
// to an ordered trace, so two runs with the same seed and the same
// workload produce byte-identical traces — the chaos tests assert exactly
// that.
//
// This layer deliberately knows nothing about net:: types; it deals in
// probabilities, durations and raw byte buffers. The Link applies the
// decisions to packets.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/bytes.hpp"
#include "common/rng.hpp"
#include "sim/simulator.hpp"
#include "sim/time.hpp"

namespace storm::sim {

/// Per-link fault probabilities. All default to zero (clean link).
struct PacketFaultProfile {
  double drop_rate = 0.0;       // packet silently discarded
  double corrupt_rate = 0.0;    // one random bit flipped in flight
  double duplicate_rate = 0.0;  // packet delivered twice
  double delay_rate = 0.0;      // packet held back -> reordering
  Duration delay_jitter = microseconds(500);  // extra delay when delayed

  bool enabled() const {
    return drop_rate > 0 || corrupt_rate > 0 || duplicate_rate > 0 ||
           delay_rate > 0;
  }
};

/// Outcome of one per-packet consultation.
struct PacketFaultDecision {
  bool drop = false;
  bool corrupt = false;
  bool duplicate = false;
  Duration extra_delay = 0;
};

/// One entry in the deterministic fault trace.
struct FaultEvent {
  Time at = 0;
  std::string label;
};

class FaultPlan {
 public:
  FaultPlan(Executor executor, std::uint64_t seed)
      : sim_(executor), rng_(seed) {}

  Rng& rng() { return rng_; }

  /// Roll the dice for one packet crossing a link labelled `label`.
  /// Draw order is fixed (drop, corrupt, duplicate, delay) so traces are
  /// reproducible for a given packet sequence.
  PacketFaultDecision decide(const PacketFaultProfile& profile,
                             const std::string& label);

  /// Flip one uniformly-chosen bit in `buf` (no-op on empty buffers).
  /// The span form is what the link uses on a packet's COW payload view.
  void flip_random_bit(std::span<std::uint8_t> buf);
  void flip_random_bit(Bytes& buf) {
    flip_random_bit(std::span<std::uint8_t>(buf));
  }

  /// Schedule a named fault action; it is recorded in the trace when it
  /// fires.
  void schedule(Time when, std::string label, std::function<void()> action);

  /// Record a trace entry for an externally-triggered fault.
  void record(const std::string& label);

  const std::vector<FaultEvent>& trace() const { return trace_; }

  /// One line per trace entry: "<time_ns> <label>". Used for golden
  /// comparisons between runs.
  std::string trace_string() const;

  std::uint64_t dropped() const { return dropped_; }
  std::uint64_t corrupted() const { return corrupted_; }
  std::uint64_t duplicated() const { return duplicated_; }
  std::uint64_t delayed() const { return delayed_; }

 private:
  Executor sim_;
  Rng rng_;
  std::vector<FaultEvent> trace_;
  std::uint64_t dropped_ = 0;
  std::uint64_t corrupted_ = 0;
  std::uint64_t duplicated_ = 0;
  std::uint64_t delayed_ = 0;
};

}  // namespace storm::sim
