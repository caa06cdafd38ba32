// The per-simulation telemetry hub. One Registry hangs off each
// sim::Simulator (see Simulator::telemetry()), so every component of a
// simulated cluster — links, TCP stacks, NAT engines, relays, services,
// the platform — reports into the same deterministic store. All
// timestamps are sim-clock: two identically seeded runs produce
// byte-identical to_json() output.
//
// Metric objects have stable addresses for the Registry's lifetime;
// hot-path components look them up once by name and keep the pointer.
#pragma once

#include <map>
#include <memory>
#include <string>
#include <type_traits>

#include "obs/metrics.hpp"
#include "obs/recorder.hpp"
#include "obs/trace.hpp"
#include "sim/simulator.hpp"
#include "sim/time.hpp"

namespace storm::obs {

class Registry;

/// A named slice of a Registry: metric names are prefixed with the
/// scope's prefix ("relay.mb-1-encryption." + "pdus"). Copyable handle;
/// a default-constructed Scope discards everything (null object), so
/// components can hold one unconditionally.
class Scope {
 public:
  Scope() = default;
  Scope(Registry& registry, std::string prefix)
      : registry_(&registry), prefix_(std::move(prefix)) {}

  Counter& counter(const std::string& name) const;
  Gauge& gauge(const std::string& name) const;
  Histogram& histogram(const std::string& name) const;

  Registry* registry() const { return registry_; }
  const std::string& prefix() const { return prefix_; }

 private:
  Registry* registry_ = nullptr;
  std::string prefix_;
};

/// The metric `slot` caches, looked up in `scope` by name on first use
/// only: hot paths skip the per-use string lookup, and the key still
/// enters the telemetry dump at the moment a per-use lookup made it.
template <typename Metric>
Metric& cached(Metric*& slot, const Scope& scope, const char* name) {
  if (slot == nullptr) {
    if constexpr (std::is_same_v<Metric, Counter>) {
      slot = &scope.counter(name);
    } else if constexpr (std::is_same_v<Metric, Gauge>) {
      slot = &scope.gauge(name);
    } else {
      slot = &scope.histogram(name);
    }
  }
  return *slot;
}

class Registry {
 public:
  /// Timestamps come from `executor`'s clock. Every Simulator owns one
  /// (Simulator::telemetry()); a Simulator& converts implicitly.
  explicit Registry(sim::Executor executor);

  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);
  Histogram& histogram(const std::string& name);
  Scope scope(std::string prefix) { return Scope(*this, std::move(prefix)); }

  // --- tracing (see trace.hpp) ---
  SpanId begin_span(std::string name, SpanId parent = 0);
  void add_event(SpanId id, std::string label, std::uint64_t value = 0);
  void end_span(SpanId id);
  void bind(TraceId trace, SpanId id) { tracer_.bind(trace, id); }
  SpanId lookup(TraceId trace) const { return tracer_.lookup(trace); }
  void unbind(TraceId trace) { tracer_.unbind(trace); }
  Tracer& tracer() { return tracer_; }
  const Tracer& tracer() const { return tracer_; }

  // --- flight recorder ---
  FlightRecorder& recorder() { return recorder_; }
  /// Stamp `what` with the current sim-time into the flight recorder.
  void record_event(std::string what);

  sim::Time now() const;
  sim::Simulator& simulator() { return exec_.simulator(); }
  sim::Executor executor() const { return exec_; }

  /// Machine-readable dump: counters, gauges, histogram summaries, the
  /// flight-recorder tail, and (optionally) every retained span. Keys
  /// are emitted in name order, values in sim-time units — deterministic
  /// for identically seeded runs. Non-const: it first syncs the
  /// "net.bytes_copied" and "net.bytes_digested" counters from the
  /// process-wide buffer-copy and CRC tallies (deltas since this
  /// Registry was constructed, so successive simulations in one process
  /// don't bleed into each other).
  std::string to_json(bool include_spans = false);

 private:
  sim::Executor exec_;
  std::uint64_t copy_baseline_ = 0;    // bufstats at construction
  std::uint64_t digest_baseline_ = 0;  // hashstats at construction
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
  Tracer tracer_;
  FlightRecorder recorder_;
};

}  // namespace storm::obs
