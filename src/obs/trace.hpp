// Trace spans over simulated time.
//
// A Span covers one logical operation (a SCSI command, a deployment
// attach); hop events stamped onto it record each layer crossing with
// sim-time and a free-form value (queue depth, byte count). Spans link
// parent -> child, so one command traced VM -> gateway -> middle-boxes
// -> target carries per-relay child spans under the command's root span.
//
// Cross-layer correlation uses integer trace ids (trace_id(): the flow's
// preserved TCP source port plus the command's task tag): the layer that
// starts a root span binds the id; downstream layers look it up to attach
// events/children without any in-band plumbing. Span ids are sequential
// and times are sim-clock, so identically seeded runs produce identical
// traces.
#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "sim/time.hpp"

namespace storm::obs {

using SpanId = std::uint64_t;
/// Correlation id of one SCSI command's trace, derivable at every
/// PDU-aware layer: the port fills bits 32-47 and the tag bits 0-31, so
/// no two (port, tag) pairs share an id.
using TraceId = std::uint64_t;

constexpr TraceId trace_id(std::uint16_t source_port,
                           std::uint32_t task_tag) {
  return static_cast<TraceId>(source_port) << 32 | task_tag;
}

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

  /// Correlation ids: at most one live span per id.
  void bind(TraceId trace, SpanId id) { bindings_[trace] = id; }
  SpanId lookup(TraceId trace) const;
  void unbind(TraceId trace) { bindings_.erase(trace); }

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
  std::unordered_map<TraceId, SpanId> bindings_;
};

}  // namespace storm::obs
