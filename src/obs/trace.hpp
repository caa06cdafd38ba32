// Trace spans over simulated time.
//
// A Span covers one logical operation (a SCSI command, a deployment
// attach); hop events stamped onto it record each layer crossing with
// sim-time and a free-form value (queue depth, byte count). Spans link
// parent -> child, so one command traced VM -> gateway -> middle-boxes
// -> target carries per-relay child spans under the command's root span.
//
// Cross-layer correlation uses string keys (e.g. "cmd:<port>:<tag>"):
// the layer that starts a root span binds the key; downstream layers
// look it up to attach events/children without any in-band plumbing.
// Span ids are sequential and times are sim-clock, so identically
// seeded runs produce identical traces.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "sim/time.hpp"

namespace storm::obs {

using SpanId = std::uint64_t;

struct SpanEvent {
  std::string label;
  sim::Time at = 0;
  std::uint64_t value = 0;  // layer-defined: queue depth, bytes, ...
};

struct Span {
  SpanId id = 0;
  SpanId parent = 0;
  std::string name;
  sim::Time start = 0;
  sim::Time end = 0;
  bool ended = false;
  std::vector<SpanEvent> events;
};

class Tracer {
 public:
  /// Spans beyond this many become id-only (events/end are dropped);
  /// bounds memory on long benchmark runs while keeping early commands
  /// fully traced for sampling.
  explicit Tracer(std::size_t max_retained = 8192)
      : max_retained_(max_retained) {}

  SpanId begin_span(std::string name, sim::Time now, SpanId parent = 0);
  void add_event(SpanId id, std::string label, sim::Time now,
                 std::uint64_t value = 0);
  void end_span(SpanId id, sim::Time now);

  /// Correlation keys: at most one live span per key.
  void bind(const std::string& key, SpanId id) { bindings_[key] = id; }
  SpanId lookup(const std::string& key) const;
  void unbind(const std::string& key) { bindings_.erase(key); }

  const Span* span(SpanId id) const;
  std::vector<const Span*> spans_named(const std::string& name) const;
  std::vector<const Span*> children_of(SpanId parent) const;
  const std::vector<Span>& spans() const { return spans_; }

  std::uint64_t spans_started() const { return next_id_ - 1; }
  std::uint64_t spans_dropped() const { return dropped_; }

 private:
  Span* find(SpanId id);

  std::size_t max_retained_;
  SpanId next_id_ = 1;
  std::uint64_t dropped_ = 0;
  std::vector<Span> spans_;  // ids 1..spans_.size(), in order
  std::map<std::string, SpanId> bindings_;
};

}  // namespace storm::obs
