// Chain health manager: liveness monitoring and automatic repair for
// deployed splice chains. The paper's atomic-attachment protocol (§III-A)
// guarantees a clean install; this subsystem keeps the chain alive
// afterwards — a crashed relay VM otherwise silently stalls every spliced
// volume behind it.
//
// Detection is one sim-clock heartbeat: every kHeartbeatInterval the
// manager probes each middle-box (VM power state + relay crash flag), and
// kMissThreshold consecutive misses declare the relay failed, long before
// any TCP connection behind it exhausts its retransmission backoff.
//
// On failure the manager dumps the FlightRecorder, opens a
// "failover.<vm>:<volume>" trace span, and executes the per-service
// recovery policy from the ServiceSpec (see RecoveryPolicyKind):
// standby promotion with NVRAM journal handoff, fail-open bypass, or
// fail-closed fencing. MTTR (detection -> data path restored) lands in
// obs:: histograms, so two identically seeded runs report identical
// recovery latencies.
//
// The manager is opt-in (start()/stop()): its heartbeat tick reschedules
// itself forever, so an idle simulator would otherwise never drain its
// event queue. Tests drive it with Simulator::run_for.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/policy.hpp"
#include "obs/registry.hpp"
#include "sim/simulator.hpp"
#include "sim/time.hpp"

namespace storm::core {

class StormPlatform;
struct Deployment;

/// Relay health state machine:
///   alive -> suspect -> failed -> {standby-promoted, bypassed, fenced}
/// A suspect relay that answers its next heartbeat returns to alive.
enum class RelayHealth {
  kAlive,
  kSuspect,
  kFailed,
  kStandbyPromoted,
  kBypassed,
  kFenced,
};

const char* to_string(RelayHealth state);

/// Dump the registry's flight-recorder tail to the warning log. Called on
/// every declared relay failure, whatever the recovery policy then does —
/// not only on explicit ActiveRelay::crash().
void dump_flight_recorder(obs::Registry& registry, const std::string& why);

struct BoxHealth {
  RelayHealth state = RelayHealth::kAlive;
  unsigned misses = 0;
  sim::Time last_alive = 0;
};

/// One chain's health record. It lives on its Deployment, so it is
/// destroyed with the boxes it probes and can never outlive them.
struct ChainHealth {
  std::vector<BoxHealth> boxes;
  // In-flight recovery (kStandby/kBypass): completion is polled each
  // tick — the failover span stays open until the data path is back.
  bool recovering = false;
  std::size_t recovering_position = 0;
  sim::Time failure_last_alive = 0;  // MTTR clock starts here
  sim::Time failed_at = 0;           // detection instant
  obs::SpanId failover_span = 0;
  RelayHealth outcome = RelayHealth::kAlive;
};

class ChainHealthManager {
 public:
  /// Heartbeat cadence. The detection deadline is
  /// kHeartbeatInterval * kMissThreshold.
  static constexpr sim::Duration kHeartbeatInterval = sim::milliseconds(5);
  /// Consecutive missed heartbeats before a relay is declared failed.
  static constexpr unsigned kMissThreshold = 2;

  explicit ChainHealthManager(StormPlatform& platform);

  ChainHealthManager(const ChainHealthManager&) = delete;
  ChainHealthManager& operator=(const ChainHealthManager&) = delete;

  /// Begin monitoring every current and future deployment. Reschedules
  /// itself each kHeartbeatInterval until stop().
  void start();
  void stop();
  bool running() const { return running_; }

  /// Health of one monitored middle-box position; kAlive for unknown
  /// cookies/positions (everything is presumed healthy until monitored).
  RelayHealth status(std::uint64_t cookie, std::size_t position) const;
  /// Terminal outcome of the chain's most recent failure (kAlive when it
  /// never failed). Survives the failed box being erased by a bypass.
  RelayHealth last_outcome(std::uint64_t cookie) const;

  std::uint64_t failures_detected() const { return failures_; }
  std::uint64_t recoveries_completed() const { return recoveries_; }

  /// Number of chains carrying health records: every live deployment
  /// (tests).
  std::size_t monitored_chains() const;

 private:
  void tick();
  void probe_deployment(Deployment& dep);
  bool box_alive(const Deployment& dep, std::size_t position) const;
  void declare_failed(Deployment& dep, std::size_t position,
                      const std::string& how);
  void check_recovery(Deployment& dep);
  void finish_recovery(Deployment& dep);
  obs::Registry& telemetry() const;

  StormPlatform& platform_;
  bool running_ = false;
  sim::CancelToken tick_token_;
  std::uint64_t failures_ = 0;
  std::uint64_t recoveries_ = 0;
};

}  // namespace storm::core
