#include "core/health_manager.hpp"

#include <sstream>
#include <utility>

#include "common/log.hpp"
#include "core/platform.hpp"
#include "iscsi/initiator.hpp"

namespace storm::core {

const char* to_string(RelayHealth state) {
  switch (state) {
    case RelayHealth::kAlive:
      return "alive";
    case RelayHealth::kSuspect:
      return "suspect";
    case RelayHealth::kFailed:
      return "failed";
    case RelayHealth::kStandbyPromoted:
      return "standby-promoted";
    case RelayHealth::kBypassed:
      return "bypassed";
    case RelayHealth::kFenced:
      return "fenced";
  }
  return "?";
}

void dump_flight_recorder(obs::Registry& registry, const std::string& why) {
  std::ostringstream dump;
  registry.recorder().dump(dump);
  log_warn("health") << why << "; flight recorder tail:\n" << dump.str();
}

ChainHealthManager::ChainHealthManager(StormPlatform& platform)
    : platform_(platform) {}

obs::Registry& ChainHealthManager::telemetry() const {
  return platform_.cloud_.simulator().telemetry();
}

void ChainHealthManager::start() {
  if (running_) {
    return;
  }
  running_ = true;
  telemetry().record_event("health: monitoring started");
  tick();
}

void ChainHealthManager::stop() {
  if (!running_) {
    return;
  }
  running_ = false;
  tick_token_.cancel();
}

void ChainHealthManager::tick() {
  if (!running_) {
    return;
  }
  for (auto& dep : platform_.deployments_) {
    ChainHealth& chain = dep->health;
    if (chain.boxes.size() != dep->boxes.size()) {
      // First sight of this chain (or an add/remove_middlebox reshaped
      // it): everything is presumed alive as of now.
      chain.boxes.assign(dep->boxes.size(), BoxHealth{});
      for (BoxHealth& bh : chain.boxes) {
        bh.last_alive = telemetry().now();
      }
    }
    if (dep->state != DeploymentState::kActive) {
      continue;
    }
    if (chain.recovering) {
      check_recovery(*dep);
    }
    probe_deployment(*dep);
  }
  tick_token_ = platform_.cloud_.simulator().schedule_in(
      kHeartbeatInterval, [this] { tick(); });
}

bool ChainHealthManager::box_alive(const Deployment& dep,
                                   std::size_t position) const {
  const MiddleboxInstance& box = *dep.boxes[position];
  if (box.vm->node().is_down()) {
    return false;
  }
  if (box.active_relay && box.active_relay->crashed()) {
    return false;
  }
  return true;
}

void ChainHealthManager::probe_deployment(Deployment& dep) {
  const sim::Time now = telemetry().now();
  obs::Registry& reg = telemetry();
  for (std::size_t i = 0; i < dep.boxes.size(); ++i) {
    BoxHealth& bh = dep.health.boxes[i];
    // Services piggyback their own failure detection and repair state
    // machines (replica death declaration, re-attach, rebuild kicks) on
    // the heartbeat cadence — one recovery-latency knob for the chain.
    if (dep.boxes[i]->service != nullptr && box_alive(dep, i)) {
      dep.boxes[i]->service->on_health_probe(now);
    }
    if (bh.state != RelayHealth::kAlive && bh.state != RelayHealth::kSuspect) {
      continue;
    }
    reg.counter("health.heartbeats").add();
    if (box_alive(dep, i)) {
      if (bh.state == RelayHealth::kSuspect) {
        reg.record_event("health: relay " + dep.boxes[i]->vm->name() +
                         " answered before deadline");
      }
      bh.state = RelayHealth::kAlive;
      bh.misses = 0;
      bh.last_alive = now;
      continue;
    }
    ++bh.misses;
    reg.counter("health.misses").add();
    if (bh.state == RelayHealth::kAlive) {
      bh.state = RelayHealth::kSuspect;
      reg.record_event("health: relay " + dep.boxes[i]->vm->name() +
                       " suspect (" + std::to_string(bh.misses) + "/" +
                       std::to_string(kMissThreshold) + " misses)");
    }
    if (bh.misses >= kMissThreshold) {
      declare_failed(dep, i, "heartbeat deadline");
      break;  // the recovery policy may have reshaped the chain
    }
  }
}

void ChainHealthManager::declare_failed(Deployment& dep, std::size_t position,
                                        const std::string& how) {
  obs::Registry& reg = telemetry();
  ChainHealth& chain = dep.health;
  BoxHealth& bh = chain.boxes[position];
  bh.state = RelayHealth::kFailed;
  ++failures_;

  // The policy executors below may destroy or erase the box — capture
  // everything we need from it first.
  const std::string box_name = dep.boxes[position]->vm->name();
  const RecoveryPolicyKind policy = dep.boxes[position]->spec.recovery;

  reg.counter("health.failures").add();
  reg.record_event("health: relay " + box_name + " FAILED (" + how +
                   "; policy " + std::string(to_string(policy)) + ")");
  dump_flight_recorder(reg, "relay " + box_name + " failed (" + how + ")");

  chain.recovering = true;
  chain.recovering_position = position;
  chain.failure_last_alive = bh.last_alive;
  chain.failed_at = reg.now();
  chain.failover_span = reg.begin_span("failover." + dep.vm + ":" + dep.volume);
  reg.add_event(chain.failover_span, "detected:" + box_name,
                static_cast<std::uint64_t>(chain.failed_at -
                                           chain.failure_last_alive));
  reg.histogram("health.detect_ns")
      .record(static_cast<std::int64_t>(chain.failed_at -
                                        chain.failure_last_alive));

  Status status;
  switch (policy) {
    case RecoveryPolicyKind::kStandby:
      status = platform_.promote_standby(dep, position);
      if (status.is_ok()) {
        // The spare now occupies `position`; it starts a fresh health
        // history. Recovery completes once its sessions re-establish
        // (polled by check_recovery).
        chain.boxes[position] = BoxHealth{};
        chain.boxes[position].last_alive = reg.now();
        chain.outcome = RelayHealth::kStandbyPromoted;
        reg.add_event(chain.failover_span, "standby_promoted");
        reg.counter("health.failovers").add();
        return;
      }
      break;
    case RecoveryPolicyKind::kBypass:
      status = platform_.bypass_middlebox(dep, position);
      if (status.is_ok()) {
        chain.boxes.erase(chain.boxes.begin() +
                          static_cast<std::ptrdiff_t>(position));
        chain.outcome = RelayHealth::kBypassed;
        reg.add_event(chain.failover_span, "bypassed");
        reg.counter("health.bypasses").add();
        return;
      }
      break;
    case RecoveryPolicyKind::kFence:
      break;
  }

  if (policy != RecoveryPolicyKind::kFence) {
    reg.record_event("health: " + std::string(to_string(policy)) +
                     " recovery failed (" + status.to_string() +
                     "); fencing instead");
  }
  platform_.fence_deployment(dep, "relay " + box_name + " failed (" + how +
                                      ")");
  // position is still valid: fencing never erases boxes, and the failed
  // promote/bypass paths leave the vector untouched.
  chain.boxes[position].state = RelayHealth::kFenced;
  chain.outcome = RelayHealth::kFenced;
  chain.recovering = false;
  const sim::Time now = reg.now();
  reg.histogram("health.fence_ns")
      .record(static_cast<std::int64_t>(now - chain.failure_last_alive));
  reg.add_event(chain.failover_span, "fenced",
                static_cast<std::uint64_t>(now - chain.failure_last_alive));
  reg.end_span(chain.failover_span);
  chain.failover_span = 0;
  reg.counter("health.fences").add();
}

void ChainHealthManager::check_recovery(Deployment& dep) {
  const ChainHealth& chain = dep.health;
  bool restored = true;
  if (chain.outcome == RelayHealth::kStandbyPromoted &&
      chain.recovering_position < dep.boxes.size()) {
    ActiveRelay* relay =
        dep.boxes[chain.recovering_position]->active_relay.get();
    if (relay != nullptr) {
      restored = relay->sessions_established() && !relay->crashed();
    }
  }
  iscsi::Initiator* initiator = dep.attachment.initiator;
  if (initiator != nullptr) {
    restored = restored && initiator->logged_in() && !initiator->recovering();
  }
  if (restored) {
    finish_recovery(dep);
  }
}

void ChainHealthManager::finish_recovery(Deployment& dep) {
  obs::Registry& reg = telemetry();
  ChainHealth& chain = dep.health;
  const sim::Time now = reg.now();
  // MTTR runs from the instant the failed relay was last known alive to
  // the data path being fully restored — detection latency included.
  reg.histogram("health.mttr_ns")
      .record(static_cast<std::int64_t>(now - chain.failure_last_alive));
  reg.histogram("health.repair_ns")
      .record(static_cast<std::int64_t>(now - chain.failed_at));
  reg.add_event(chain.failover_span, "recovered",
                static_cast<std::uint64_t>(now - chain.failure_last_alive));
  reg.end_span(chain.failover_span);
  chain.failover_span = 0;
  chain.recovering = false;
  ++recoveries_;
  reg.counter("health.recoveries").add();
  reg.record_event("health: " + dep.vm + ":" + dep.volume + " recovered (" +
                   std::string(to_string(chain.outcome)) + ")");
}

std::size_t ChainHealthManager::monitored_chains() const {
  return platform_.deployments_.size();
}

RelayHealth ChainHealthManager::status(std::uint64_t cookie,
                                       std::size_t position) const {
  const Deployment* dep = platform_.deployment_by_cookie(cookie);
  if (dep == nullptr || position >= dep->health.boxes.size()) {
    return RelayHealth::kAlive;
  }
  return dep->health.boxes[position].state;
}

RelayHealth ChainHealthManager::last_outcome(std::uint64_t cookie) const {
  const Deployment* dep = platform_.deployment_by_cookie(cookie);
  return dep == nullptr ? RelayHealth::kAlive : dep->health.outcome;
}

}  // namespace storm::core
