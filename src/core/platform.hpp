// StormPlatform: the top-level façade tying the pieces together.
//
// Tenants submit policies (policy.hpp); the platform provisions
// middle-box VMs from the service registry, creates the tenant's gateway
// pair, programs NAT + SDN steering, and finally attaches the volume
// under the atomic-attachment protocol — after which every byte of that
// volume's iSCSI traffic traverses the tenant's middle-box chain,
// transparently to the VM and the storage backend (paper §III-D).
//
// Callers hold DeploymentHandle values, not raw pointers into the
// platform: a handle resolves its deployment by cookie on every use, so
// it stays valid (or reports invalid) across other deployments coming
// and going, and detach() is an explicit, first-class operation.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "cloud/cloud.hpp"
#include "core/active_relay.hpp"
#include "core/attribution.hpp"
#include "core/health_manager.hpp"
#include "core/passive_relay.hpp"
#include "core/policy.hpp"
#include "core/sdn_controller.hpp"
#include "core/service.hpp"
#include "core/splicer.hpp"
#include "net/qos.hpp"
#include "obs/registry.hpp"

namespace storm::core {

class StormPlatform;

/// Everything a service factory may need.
struct ServiceEnv {
  cloud::Cloud* cloud = nullptr;
  StormPlatform* platform = nullptr;
  cloud::Vm* mb_vm = nullptr;
  block::Volume* volume = nullptr;  // the protected (primary) volume
  const ServiceSpec* spec = nullptr;
};

/// One deployed middle-box VM with its relay and service instance.
struct MiddleboxInstance {
  cloud::Vm* vm = nullptr;
  ServiceSpec spec;
  std::unique_ptr<StorageService> service;  // null for relay=forward
  std::unique_ptr<ActiveRelay> active_relay;
  std::unique_ptr<PassiveRelay> passive_relay;
  /// Warm spare provisioned alongside boxes with recovery=standby: its
  /// relay listens but nothing is steered to it until the health manager
  /// promotes it in place of this box.
  std::unique_ptr<MiddleboxInstance> standby;
  /// True when this box belongs to a tenant ReplicaSet and is shared by
  /// every flow the consistent-hash ring pins to it. Deployment teardown
  /// must drop only its own session (ActiveRelay::drop_session), never
  /// shut the relay down.
  bool pooled = false;
  /// Ring label of a pooled box ("<tenant>/<type>#<ordinal>").
  std::string replica_label;
};

enum class DeploymentState {
  kActive,    // data path live
  kDraining,  // admission closed, waiting for in-flight work to flush
  kFenced,    // failed closed: rules torn, in-flight commands errored
};

/// A spliced volume attachment with its chain (platform-internal state;
/// external callers go through DeploymentHandle). Boxes are shared_ptr
/// because a pooled replica appears in every deployment whose flow the
/// hash ring pinned to it (its ReplicaSet co-owns it); non-pooled boxes
/// still have exactly one owner.
struct Deployment {
  std::string vm;
  std::string volume;
  SpliceContext splice;
  cloud::Attachment attachment;
  std::vector<std::shared_ptr<MiddleboxInstance>> boxes;
  obs::SpanId attach_span = 0;  // "deploy.<vm>:<volume>", ends at detach
  DeploymentState state = DeploymentState::kActive;
  ChainHealth health;  // the health manager's record of this chain
};

/// A pool of interchangeable active-relay replicas standing in for one
/// logical chain hop, shared by every flow of one tenant + service type
/// (policy stanza `replicas N`). The consistent-hash ring pins each flow
/// (keyed on its iSCSI 4-tuple) to exactly one replica; scale-up/-down
/// moves only the flows whose arc changed hands, each via the deferred-
/// admission migration protocol — no in-flight write is ever dropped.
struct ReplicaSet {
  std::string tenant;
  ServiceSpec spec;  // base spec: relay/type/params + replicas stanza
  std::vector<std::shared_ptr<MiddleboxInstance>> replicas;
  /// Scaled-down replicas, parked with relay shut down and VM powered
  /// off; a later scale-up revives the newest parked box before
  /// provisioning fresh ones (VM boot time off the scale-up path).
  std::vector<std::shared_ptr<MiddleboxInstance>> parked;
  FlowHashRing ring;
  std::map<std::uint64_t, std::string> assignments;  // cookie -> label
  unsigned next_ordinal = 0;

  std::string key() const { return tenant + "|" + spec.type; }
  MiddleboxInstance* find(const std::string& label) const {
    for (const auto& r : replicas) {
      if (r->replica_label == label) return r.get();
    }
    return nullptr;
  }
};

/// Value handle to one deployment. Resolution is by splice cookie, so a
/// handle survives unrelated deployments being created or torn down; a
/// handle whose deployment was detached (or rolled back) reports
/// valid() == false and its accessors return null / errors.
class DeploymentHandle {
 public:
  DeploymentHandle() = default;

  bool valid() const;
  explicit operator bool() const { return valid(); }
  std::uint64_t cookie() const { return cookie_; }

  const std::string& vm() const;
  const std::string& volume() const;
  std::size_t chain_length() const;
  const SpliceContext* splice() const;
  /// The underlying volume attachment (initiator/target endpoints).
  const cloud::Attachment* attachment() const;

  // --- typed access to one middle-box of the chain (tests/benches) ---
  ActiveRelay* active_relay(std::size_t position) const;
  PassiveRelay* passive_relay(std::size_t position) const;
  StorageService* service(std::size_t position) const;
  cloud::Vm* mb_vm(std::size_t position) const;
  const ServiceSpec* spec(std::size_t position) const;
  /// The warm standby relay shadowing `position` (recovery=standby only).
  ActiveRelay* standby_relay(std::size_t position) const;

  /// Drain in progress / fenced (see DeploymentState). Both false for an
  /// invalid handle.
  bool draining() const;
  bool fenced() const;

  // --- on-demand scaling (paper §III-A, SDN-enabled flow steering) ---
  /// Insert a packet-level middle-box (relay=forward|passive) at
  /// `position` in the chain and reprogram the switches.
  Status add_middlebox(const ServiceSpec& spec, std::size_t position);
  /// Remove the packet-level middle-box at `position`.
  Status remove_middlebox(std::size_t position);

  // --- fault injection (chaos tests / bench) ---
  /// Power-fail the middle-box VM at `position`: an active relay crashes
  /// with journal intact (see ActiveRelay::crash); other relay modes just
  /// take the VM's node down.
  Status crash_middlebox(std::size_t position);
  /// Power the crashed middle-box back on; an active relay re-dials the
  /// target and replays its journal.
  Status restart_middlebox(std::size_t position);

  /// Tear the deployment down via the drain protocol: stop admitting
  /// commands, wait (on the sim clock) for every relay queue, journal and
  /// outstanding command to flush, then remove every NAT rule and SDN
  /// flow tagged with the cookie and destroy the chain's relays. An idle
  /// chain tears down immediately; a busy one finishes its in-flight
  /// commands first, so no half-forwarded command is ever lost. The
  /// handle (and any copy of it) becomes invalid once teardown runs.
  Status detach();

 private:
  friend class StormPlatform;
  DeploymentHandle(StormPlatform* platform, std::uint64_t cookie)
      : platform_(platform), cookie_(cookie) {}
  Deployment* resolve() const;
  MiddleboxInstance* resolve_box(std::size_t position) const;

  StormPlatform* platform_ = nullptr;
  std::uint64_t cookie_ = 0;
};

class StormPlatform {
 public:
  explicit StormPlatform(cloud::Cloud& cloud);
  ~StormPlatform();

  StormPlatform(const StormPlatform&) = delete;
  StormPlatform& operator=(const StormPlatform&) = delete;

  /// Factory registry: maps ServiceSpec::type to a constructor. The
  /// built-in "noop" type is pre-registered; storm::services registers
  /// the paper's three services.
  using ServiceFactory =
      std::function<Result<std::unique_ptr<StorageService>>(ServiceEnv&)>;
  void register_service(const std::string& type, ServiceFactory factory);

  /// Apply a full tenant policy: deploy every volume's chain in order.
  /// On success the callback receives one handle per volume, in policy
  /// order; on the first failure it receives that error (deployments
  /// already made by this call are left in place).
  void apply_policy(
      const TenantPolicy& policy,
      std::function<void(Result<std::vector<DeploymentHandle>>)> done);

  /// Deploy one chain and attach one volume through it.
  void attach_with_chain(const std::string& vm_name,
                         const std::string& volume_name,
                         std::vector<ServiceSpec> chain,
                         std::function<void(Result<DeploymentHandle>)> done);

  /// Install (or replace) the tenant's token-bucket rate limit on its
  /// ingress gateway, creating the gateway pair if needed; a disabled
  /// spec removes the limiter. apply_policy calls this for policies
  /// carrying a `qos` stanza, so every chain of the tenant shares one
  /// bucket — one tenant's burst queues behind its own limit instead of
  /// starving another tenant's chain.
  void set_tenant_qos(const std::string& tenant, const QosSpec& qos);
  /// The tenant's installed bucket, or nullptr.
  const net::TokenBucket* tenant_qos(const std::string& tenant) const;
  /// Mutable bucket handle: the autoscaler re-prices the tenant's rate
  /// in place (TokenBucket::set_rate) as the replica pool grows and
  /// shrinks. nullptr when the tenant has no qos stanza installed.
  net::TokenBucket* tenant_qos_mutable(const std::string& tenant);

  // --- elastic replica sets (scale-out) ---
  /// Resize the tenant's replica pool for service `type` to `target`
  /// active replicas, clamped to the policy's min/max. Scale-up
  /// revives/provisions replicas and installs their hash arcs;
  /// scale-down retires the newest replicas first. Either
  /// way, only the flows whose arc changed hands move, each through the
  /// deferred-admission migration drain (commands park, never fail), and
  /// `done` fires once every migration landed — with OK, or the first
  /// migration error. Resizing to the current size is an OK no-op.
  void scale_service_replicas(const std::string& tenant,
                              const std::string& type,
                              unsigned target,
                              std::function<void(Status)> done = {});
  /// The tenant's pool for `service_type`, or nullptr when no deployment
  /// with a `replicas` stanza created one.
  const ReplicaSet* replica_set(const std::string& tenant,
                                const std::string& service_type) const;

  /// Handle to an existing deployment; invalid handle if none matches.
  DeploymentHandle find_deployment(const std::string& vm,
                                   const std::string& volume);

  ConnectionAttribution& attribution() { return attribution_; }
  NetworkSplicer& splicer() { return splicer_; }
  SdnController& sdn() { return sdn_; }
  cloud::Cloud& cloud() { return cloud_; }

  /// The chain health manager (liveness + automatic recovery). Created
  /// with the platform but idle until ChainHealthManager::start().
  ChainHealthManager& health() { return *health_; }

  /// Upper bound on how long a drain waits for in-flight work before
  /// forcing teardown anyway (a wedged chain must not block detach
  /// forever).
  static constexpr sim::Duration kDrainTimeout = sim::seconds(2);

 private:
  friend class DeploymentHandle;
  friend class ChainHealthManager;

  std::uint16_t allocate_flow_port() { return next_flow_port_++; }
  unsigned place_middlebox(const ServiceSpec& spec, unsigned vm_host);
  Result<std::unique_ptr<MiddleboxInstance>> build_box(
      const ServiceSpec& spec, const std::string& label,
      const std::string& tenant, unsigned vm_host, block::Volume* volume);
  void wire_relays(Deployment& deployment);

  // --- replica-set internals ---
  /// The pool keyed "<tenant>|<type>" (ReplicaSet::key), or nullptr.
  ReplicaSet* find_replica_set(const std::string& key);
  /// Create (or revive from the parked list) one pooled replica and
  /// start its relay; newly built service instances are appended to
  /// `fresh_services` so the attach path can initialize() them exactly
  /// once.
  Result<std::shared_ptr<MiddleboxInstance>> build_replica(
      ReplicaSet& set, unsigned avoid_host,
      std::vector<StorageService*>* fresh_services);
  /// Attach-time acquisition: ensure the tenant's pool exists at its
  /// configured size, pin this flow's 4-tuple on the hash ring, register
  /// the protected volume with the chosen relay. Returns the pooled box
  /// the flow was pinned to.
  Result<std::shared_ptr<MiddleboxInstance>> acquire_replica(
      Deployment& dep, const ServiceSpec& spec, const std::string& tenant,
      unsigned vm_host, std::vector<StorageService*>* fresh_services);
  /// Teardown/rollback: drop this deployment's sessions from its pooled
  /// boxes and erase its ring assignments. Pooled relays stay up.
  void release_replica_flows(Deployment& dep);
  /// Move dep's flow from the pooled box at `position` to `target`:
  /// session recovery on, deferred admission -> poll_until drained ->
  /// handoff of the extracted session -> reopen. Parked commands are
  /// replayed, never failed.
  void migrate_flow(Deployment& dep, std::size_t position,
                    std::shared_ptr<MiddleboxInstance> target,
                    std::function<void(Status)> done);
  /// After the ring changed: migrate every flow whose assignment no
  /// longer matches its current replica, one at a time (deterministic
  /// order), then run `done`.
  void rebalance_flows(ReplicaSet& set, std::function<void(Status)> done);
  /// Retire a drained replica: shut its relay down, power the VM off,
  /// move it to the parked list.
  void park_replica(ReplicaSet& set,
                    std::shared_ptr<MiddleboxInstance> box);
  Deployment* deployment_by_cookie(std::uint64_t cookie);
  Status add_middlebox(Deployment& deployment, const ServiceSpec& spec,
                       std::size_t position);
  Status remove_middlebox(Deployment& deployment, std::size_t position);
  Status crash_middlebox(Deployment& deployment, std::size_t position);
  Status restart_middlebox(Deployment& deployment, std::size_t position);
  /// The drain protocol: close the initiator's admission gate, then
  /// poll_until the chain is quiescent and tear it down — forced once
  /// kDrainTimeout elapses, so a wedged chain cannot pin the deployment
  /// forever. An idle chain tears down synchronously.
  Status detach_deployment(std::uint64_t cookie);
  /// Recompute splice.chain from the current boxes vector.
  void rebuild_chain(Deployment& deployment);
  /// The one flow-handoff path (standby promotion, replica migration,
  /// bypass); the callers differ only in where `snapshot` comes from.
  /// Turns the initiator's session recovery on if it is off, flushes the
  /// departing hop's cookie-tagged NAT rules, registers the flow's volume
  /// on the target, re-points hop `position` at `target` — or drops the
  /// hop when `target` is null — refreshes the capture NAT, reprograms
  /// the steering rules, adopts `snapshot` on the target's relay and
  /// kicks the initiator to re-dial the new path.
  void handoff(Deployment& dep, std::size_t position,
               std::shared_ptr<MiddleboxInstance> target,
               RelayJournalSnapshot snapshot);
  /// The one sim-clock poll: every 100us of simulated time test `ready`; run
  /// `done(true)` once it holds, or `done(false)` once `deadline` passed
  /// first. The first test runs right away.
  void poll_until(sim::Time deadline, std::function<bool()> ready,
                  std::function<void(bool)> done);

  // --- drain protocol ---
  /// Nothing in flight anywhere: no outstanding initiator commands, all
  /// relay queues/journals/backlogs empty.
  bool deployment_quiescent(const Deployment& dep) const;

  // --- recovery policy executors (invoked by the health manager) ---
  /// kStandby: swap the failed box at `position` for its warm spare —
  /// NVRAM journal handoff, capture-rule refresh, atomic SDN rule swap,
  /// initiator kick.
  Status promote_standby(Deployment& dep, std::size_t position);
  /// kBypass: remove the box at `position` from the chain and reroute
  /// around it. Refused (kPermissionDenied) for confidentiality-critical
  /// services — fail-open would violate their guarantee.
  Status bypass_middlebox(Deployment& dep, std::size_t position);
  /// kFence: fail closed — error in-flight commands back to the
  /// initiator, close admission, shut every relay down, tear the rules.
  Status fence_deployment(Deployment& dep, const std::string& reason);
  /// Undo a failed attach: remove every NAT rule and SDN flow tagged with
  /// the deployment's cookie and drop the deployment (tearing down its
  /// relays). No half-spliced state may survive a failed attach.
  void rollback_deployment(Deployment* dep);
  void teardown_rules(Deployment* dep);
  obs::Registry& telemetry();

  cloud::Cloud& cloud_;
  ConnectionAttribution attribution_;
  NetworkSplicer splicer_;
  SdnController sdn_;
  std::map<std::string, ServiceFactory> factories_;
  std::vector<std::unique_ptr<Deployment>> deployments_;
  // Keyed "<tenant>|<type>"; pooled boxes are co-owned by the set and by
  // every deployment pinned to them, so destruction order is immaterial.
  std::map<std::string, std::unique_ptr<ReplicaSet>> replica_sets_;
  std::map<std::string, std::unique_ptr<net::TokenBucket>> qos_buckets_;
  std::unique_ptr<ChainHealthManager> health_;
  std::uint64_t next_cookie_ = 1;
  std::uint16_t next_flow_port_ = 40000;
  unsigned next_mb_host_ = 0;
  std::uint64_t next_mb_id_ = 1;
};

}  // namespace storm::core
