// QoS-driven autoscaler for elastic replica sets (paper §III-D: tenant
// policies size their own middle-box capacity). The scaler watches each
// registered tenant's token-bucket throttle telemetry — the rate of
// `qos.<tenant>.throttled_bytes` is a direct, backpressure-free signal
// that the tenant's offered load exceeds its paid-for capacity — and
// resizes the tenant's replica pool through
// StormPlatform::scale_service_replicas:
//
//  * sustained throttling above scale_up_bytes_per_sec adds a replica
//    and re-prices the tenant's bucket to base_rate * replicas, so the
//    new capacity is actually admittable;
//  * a sustained idle spell (throttle rate below
//    scale_down_bytes_per_sec) removes one, returning the bucket rate
//    with it. Scale-down rides the drain-based migration protocol, so a
//    burst in flight is never dropped.
//
// Opt-in like the health manager (start()/stop()): the tick reschedules
// itself forever. Two identically seeded runs scale at identical sim
// times.
#pragma once

#include <cstdint>
#include <map>
#include <string>

#include "sim/simulator.hpp"
#include "sim/time.hpp"

namespace storm::core {

class StormPlatform;

struct AutoscalerConfig {
  /// Telemetry sampling cadence. Thresholds are evaluated per tick.
  sim::Duration tick_interval = sim::milliseconds(20);
  /// Throttled-byte rate that counts as pressure.
  std::uint64_t scale_up_bytes_per_sec = 8ull * 1024 * 1024;
  /// Throttled-byte rate under which the pool is oversized.
  std::uint64_t scale_down_bytes_per_sec = 512ull * 1024;
  /// Consecutive pressured ticks before adding a replica (debounce: one
  /// throttled window is a blip, a run of them is a hot tenant).
  unsigned sustain_up_ticks = 3;
  /// Consecutive idle ticks before removing a replica (longer on the way
  /// down: flapping costs a migration per flap).
  unsigned sustain_down_ticks = 25;
  /// Dead time after any resize; rebalancing mid-cooldown would chase
  /// its own migration traffic.
  sim::Duration cooldown = sim::milliseconds(200);
};

class Autoscaler {
 public:
  explicit Autoscaler(StormPlatform& platform, AutoscalerConfig config = {});

  Autoscaler(const Autoscaler&) = delete;
  Autoscaler& operator=(const Autoscaler&) = delete;
  ~Autoscaler();

  /// Watch one tenant's replica pool for `service_type`, elastic within
  /// [min_replicas, max_replicas] (further clamped by the policy's own
  /// replicas min/max). The tenant's current QoS rate is captured as the
  /// per-replica base rate.
  void watch_tenant(const std::string& tenant,
                    const std::string& service_type, unsigned min_replicas,
                    unsigned max_replicas);

  void start();
  void stop();
  bool running() const { return running_; }

  const AutoscalerConfig& config() const { return config_; }
  std::uint64_t scale_ups() const { return scale_ups_; }
  std::uint64_t scale_downs() const { return scale_downs_; }

 private:
  struct TenantState {
    std::string service_type;
    unsigned min_replicas = 1;
    unsigned max_replicas = 1;
    /// Per-replica admission rate: the bucket is re-priced to
    /// base_rate * replicas on every resize. 0 = tenant has no QoS
    /// bucket; capacity scales without re-pricing.
    std::uint64_t base_rate = 0;
    std::uint64_t base_burst = 0;
    std::uint64_t last_throttled = 0;
    unsigned pressured_ticks = 0;
    unsigned idle_ticks = 0;
    sim::Time cooldown_until = 0;
    bool resizing = false;
  };

  void tick();
  void evaluate(const std::string& tenant, TenantState& state);
  void resize(const std::string& tenant, TenantState& state, unsigned target);

  StormPlatform& platform_;
  AutoscalerConfig config_;
  bool running_ = false;
  sim::CancelToken tick_token_;
  std::map<std::string, TenantState> tenants_;
  std::uint64_t scale_ups_ = 0;
  std::uint64_t scale_downs_ = 0;
};

}  // namespace storm::core
