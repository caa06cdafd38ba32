// The tenant-facing service API (paper §III-B): middle-box services
// receive parsed iSCSI PDUs in flow order, may transform them in place,
// consume them, or inject new PDUs in either direction.
//
// Everything a service needs from its hosting relay arrives through one
// ServiceContext: PDU injection, the middle-box's telemetry scope, and
// the identity of the volume being protected. The relay owns the context;
// services never see raw platform objects.
//
// Compute cost: services return the simulated CPU time their processing
// takes; the relay charges it to the middle-box VM's vCPUs, so service
// work contends with the relay's own packet handling — which is exactly
// the contention the paper's Figures 5-9 measure.
#pragma once

#include <cstdint>
#include <functional>
#include <string>

#include "common/status.hpp"
#include "iscsi/pdu.hpp"
#include "obs/registry.hpp"
#include "sim/simulator.hpp"
#include "sim/time.hpp"

namespace storm::journal {
class Device;
}  // namespace storm::journal

namespace storm::core {

enum class Direction {
  kToTarget,     // initiator -> storage (commands, Data-Out)
  kToInitiator,  // storage -> initiator (Data-In, responses)
};

inline const char* to_string(Direction dir) {
  return dir == Direction::kToTarget ? "to-target" : "to-initiator";
}

/// Per-PDU call context a relay hands to its service. Injection is only
/// implemented by the active relay (it owns both byte streams); the
/// passive relay rejects services that need it at deployment time and
/// throws if one injects anyway.
class ServiceContext {
 public:
  virtual ~ServiceContext() = default;

  /// Send a service-originated PDU toward the storage target.
  virtual void inject_to_target(iscsi::Pdu pdu) = 0;

  /// Send a service-originated PDU toward the tenant VM.
  virtual void inject_to_initiator(iscsi::Pdu pdu) = 0;

  /// The hosting middle-box's telemetry scope ("relay.<mb-vm>."); any
  /// counters/histograms a service creates here land next to its relay's
  /// metrics in the registry dump.
  virtual const obs::Scope& scope() = 0;

  /// Name of the protected (primary) volume whose traffic this relay
  /// splices; empty for packet-level boxes inserted without one.
  virtual const std::string& volume() const = 0;
};

/// What a hosting relay lends a service beyond the per-PDU context:
/// a scheduling executor (the middle-box VM's), the relay's
/// telemetry scope, and — on an active relay — its NVRAM journal device,
/// so a service can persist its own recovery state (e.g. the replication
/// version map) next to the relay's streams and survive a power failure
/// with it.
struct ServiceHost {
  sim::Executor executor;
  obs::Scope scope;
  journal::Device* journal = nullptr;
};

struct ServiceVerdict {
  /// True: the service handled the PDU itself (e.g. a replication box
  /// serving a read from a replica); the relay must not forward it.
  bool consume = false;
  /// Simulated CPU cost of processing this PDU, charged to the MB vCPUs.
  sim::Duration cpu_cost = 0;
};

class StorageService {
 public:
  virtual ~StorageService() = default;

  virtual std::string name() const = 0;

  /// Process one PDU travelling in `dir`. May mutate `pdu` in place
  /// (sizes must be preserved under a passive relay).
  virtual ServiceVerdict on_pdu(ServiceContext& ctx, Direction dir,
                                iscsi::Pdu& pdu) = 0;

  /// True when the service consumes/injects PDUs and therefore needs an
  /// active relay (TCP termination). Checked at deployment.
  virtual bool requires_active_relay() const { return false; }

  /// True when routing traffic *around* this box would violate its
  /// guarantee (a cipher leaks plaintext, replication silently stops
  /// mirroring). Deployment rejects recovery=bypass for such services —
  /// they may only fail over to a standby or fence (SICS: chain repair
  /// must preserve per-service security semantics).
  virtual bool confidentiality_critical() const { return false; }

  /// True when one service instance may serve flows of *different*
  /// volumes concurrently (replica-set pooling): the instance must keep
  /// no cross-PDU per-volume state of its own — anything it needs per
  /// flow comes from ServiceContext::volume(). Services that bind to one
  /// protected volume at construction (replication's copy set, the
  /// monitor's filesystem view) return false and are refused a `replicas`
  /// stanza at deployment.
  virtual bool replica_safe() const { return true; }

  /// Asynchronous setup before any traffic flows (e.g. the replication
  /// service attaching its backup volumes to the middle-box VM). The
  /// platform waits for `ready` before opening the data path.
  virtual void initialize(std::function<void(Status)> ready) {
    ready(Status::ok());
  }

  /// The spliced flow's TCP stream closed (target failure, detach).
  virtual void on_flow_closed(Status /*status*/) {}

  /// Called once by the hosting relay when it comes up, before traffic
  /// flows. Services that schedule their own work (background rebuild,
  /// timers) or persist recovery state take what they need from `host`.
  virtual void bind_host(const ServiceHost& /*host*/) {}

  /// Periodic liveness probe, driven by the chain health manager's
  /// heartbeat tick. Services run their own failure detection and
  /// repair state machines (replica death declaration, re-attach,
  /// rebuild kicks) on this cadence so recovery latency is governed by
  /// the same knob as relay failover.
  virtual void on_health_probe(sim::Time /*now*/) {}

  /// The hosting relay VM power-failed: volatile service state is gone;
  /// only what the service journaled survives. Halt background work.
  virtual void on_host_crashed() {}

  /// The hosting relay restarted and replayed its NVRAM: reload
  /// journaled state and resume background work.
  virtual void on_host_recovered() {}
};

}  // namespace storm::core
