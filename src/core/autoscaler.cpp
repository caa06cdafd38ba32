#include "core/autoscaler.hpp"

#include <algorithm>

#include "core/active_relay.hpp"
#include "core/platform.hpp"
#include "net/qos.hpp"
#include "obs/registry.hpp"

namespace storm::core {

Autoscaler::Autoscaler(StormPlatform& platform, AutoscalerConfig config)
    : platform_(platform), config_(config) {}

Autoscaler::~Autoscaler() { stop(); }

void Autoscaler::watch_tenant(const std::string& tenant,
                              const std::string& service_type,
                              unsigned min_replicas, unsigned max_replicas) {
  TenantState state;
  state.service_type = service_type;
  state.min_replicas = std::max(1u, min_replicas);
  state.max_replicas = std::max(state.min_replicas, max_replicas);
  // The installed QoS rate is the tenant's *current* capacity; divide by
  // the current pool size to get the per-replica base the bucket is
  // re-priced from on every resize.
  if (const net::TokenBucket* bucket = platform_.tenant_qos(tenant)) {
    std::size_t pool = 1;
    if (const ReplicaSet* set = platform_.replica_set(tenant, service_type)) {
      pool = std::max<std::size_t>(1, set->replicas.size());
    }
    state.base_rate = bucket->rate_bytes_per_sec() / pool;
    state.base_burst = bucket->burst_bytes() / pool;
    state.last_throttled = bucket->throttled_bytes();
  }
  tenants_[tenant] = std::move(state);
}

void Autoscaler::start() {
  if (running_) return;
  running_ = true;
  platform_.cloud().simulator().telemetry().record_event(
      "autoscaler: started");
  tick();
}

void Autoscaler::stop() {
  if (!running_) return;
  running_ = false;
  tick_token_.cancel();
}

void Autoscaler::tick() {
  if (!running_) return;
  for (auto& [tenant, state] : tenants_) {
    evaluate(tenant, state);
  }
  tick_token_ = platform_.cloud().simulator().schedule_in(
      config_.tick_interval, [this] { tick(); });
}

void Autoscaler::evaluate(const std::string& tenant, TenantState& state) {
  const ReplicaSet* set = platform_.replica_set(tenant, state.service_type);
  if (set == nullptr || set->replicas.empty()) return;
  obs::Registry& reg = platform_.cloud().simulator().telemetry();
  const sim::Time now = reg.now();
  if (state.resizing || now < state.cooldown_until) return;

  // Throttle pressure: bytes the bucket held back since the last tick,
  // normalized to a rate.
  std::uint64_t throttled_rate = 0;
  if (const net::TokenBucket* bucket = platform_.tenant_qos(tenant)) {
    const std::uint64_t total = bucket->throttled_bytes();
    const std::uint64_t delta = total - state.last_throttled;
    state.last_throttled = total;
    throttled_rate = static_cast<std::uint64_t>(
        static_cast<double>(delta) * 1e9 /
        static_cast<double>(config_.tick_interval));
  }
  // Health pressure: a dead replica shrinks effective capacity — the
  // same liveness probe the health manager runs. Scaling up restores
  // the paid-for parallelism while the dead box is repaired.
  std::size_t dead = 0;
  for (const auto& replica : set->replicas) {
    if (replica->vm->node().is_down() ||
        (replica->active_relay != nullptr &&
         replica->active_relay->crashed())) {
      ++dead;
    }
  }

  const unsigned live =
      static_cast<unsigned>(set->replicas.size() - std::min(dead, set->replicas.size()));
  const bool pressured =
      throttled_rate >= config_.scale_up_bytes_per_sec || live < state.min_replicas;
  const bool idle = throttled_rate <= config_.scale_down_bytes_per_sec &&
                    dead == 0;

  if (pressured) {
    state.idle_ticks = 0;
    ++state.pressured_ticks;
    if (state.pressured_ticks >= config_.sustain_up_ticks &&
        set->replicas.size() < state.max_replicas) {
      reg.record_event("autoscaler: " + tenant + " pressured (" +
                       std::to_string(throttled_rate) + " B/s throttled, " +
                       std::to_string(dead) + " dead); scaling up");
      resize(tenant, state,
             static_cast<unsigned>(set->replicas.size()) + 1);
    }
    return;
  }
  state.pressured_ticks = 0;
  if (!idle) {
    state.idle_ticks = 0;
    return;
  }
  ++state.idle_ticks;
  if (state.idle_ticks >= config_.sustain_down_ticks &&
      set->replicas.size() > state.min_replicas) {
    reg.record_event("autoscaler: " + tenant + " idle; scaling down");
    resize(tenant, state, static_cast<unsigned>(set->replicas.size()) - 1);
  }
}

void Autoscaler::resize(const std::string& tenant, TenantState& state,
                        unsigned target) {
  obs::Registry& reg = platform_.cloud().simulator().telemetry();
  const ReplicaSet* set = platform_.replica_set(tenant, state.service_type);
  const bool up = set == nullptr || target > set->replicas.size();
  state.resizing = true;
  state.pressured_ticks = 0;
  state.idle_ticks = 0;
  const std::string service_type = state.service_type;
  platform_.scale_service_replicas(
      tenant, service_type, target, [this, tenant, up](Status status) {
        auto it = tenants_.find(tenant);
        if (it == tenants_.end()) return;
        TenantState& state = it->second;
        obs::Registry& reg = platform_.cloud().simulator().telemetry();
        state.resizing = false;
        state.cooldown_until = reg.now() + config_.cooldown;
        if (!status.is_ok()) {
          reg.record_event("autoscaler: " + tenant + " resize failed: " +
                           status.to_string());
          return;
        }
        const ReplicaSet* set =
            platform_.replica_set(tenant, state.service_type);
        const std::size_t count =
            set != nullptr ? std::max<std::size_t>(1, set->replicas.size())
                           : 1;
        // Re-price the tenant's admission to match the new capacity:
        // without this, the bucket's old rate caps the pool and the new
        // replica idles behind the throttle that triggered it.
        if (state.base_rate != 0) {
          if (net::TokenBucket* bucket = platform_.tenant_qos_mutable(tenant)) {
            bucket->set_rate(state.base_rate * count,
                             state.base_burst * count);
            state.last_throttled = bucket->throttled_bytes();
          }
        }
        if (up) {
          ++scale_ups_;
          reg.counter("autoscaler." + tenant + ".scale_ups").add();
        } else {
          ++scale_downs_;
          reg.counter("autoscaler." + tenant + ".scale_downs").add();
        }
        reg.record_event("autoscaler: " + tenant + " now " +
                         std::to_string(count) + " replica(s)");
      });
  reg.counter("autoscaler.resizes").add();
}

}  // namespace storm::core
