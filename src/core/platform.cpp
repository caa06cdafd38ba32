#include "core/platform.hpp"

#include <algorithm>

#include "common/async.hpp"
#include "common/log.hpp"
#include "core/health_manager.hpp"

namespace storm::core {

namespace {

/// Built-in no-op service: parses and forwards (used for MB-FWD-style
/// baselines with interception but no processing).
class NoopService : public StorageService {
 public:
  std::string name() const override { return "noop"; }
  ServiceVerdict on_pdu(ServiceContext&, Direction, iscsi::Pdu&) override {
    return {};
  }
};

}  // namespace

// -------------------------------------------------------- DeploymentHandle

Deployment* DeploymentHandle::resolve() const {
  if (platform_ == nullptr || cookie_ == 0) return nullptr;
  return platform_->deployment_by_cookie(cookie_);
}

MiddleboxInstance* DeploymentHandle::resolve_box(std::size_t position) const {
  Deployment* dep = resolve();
  if (dep == nullptr || position >= dep->boxes.size()) return nullptr;
  return dep->boxes[position].get();
}

bool DeploymentHandle::valid() const { return resolve() != nullptr; }

const std::string& DeploymentHandle::vm() const {
  static const std::string empty;
  Deployment* dep = resolve();
  return dep != nullptr ? dep->vm : empty;
}

const std::string& DeploymentHandle::volume() const {
  static const std::string empty;
  Deployment* dep = resolve();
  return dep != nullptr ? dep->volume : empty;
}

std::size_t DeploymentHandle::chain_length() const {
  Deployment* dep = resolve();
  return dep != nullptr ? dep->boxes.size() : 0;
}

const SpliceContext* DeploymentHandle::splice() const {
  Deployment* dep = resolve();
  return dep != nullptr ? &dep->splice : nullptr;
}

const cloud::Attachment* DeploymentHandle::attachment() const {
  Deployment* dep = resolve();
  return dep != nullptr ? &dep->attachment : nullptr;
}

ActiveRelay* DeploymentHandle::active_relay(std::size_t position) const {
  MiddleboxInstance* box = resolve_box(position);
  return box != nullptr ? box->active_relay.get() : nullptr;
}

PassiveRelay* DeploymentHandle::passive_relay(std::size_t position) const {
  MiddleboxInstance* box = resolve_box(position);
  return box != nullptr ? box->passive_relay.get() : nullptr;
}

StorageService* DeploymentHandle::service(std::size_t position) const {
  MiddleboxInstance* box = resolve_box(position);
  return box != nullptr ? box->service.get() : nullptr;
}

cloud::Vm* DeploymentHandle::mb_vm(std::size_t position) const {
  MiddleboxInstance* box = resolve_box(position);
  return box != nullptr ? box->vm : nullptr;
}

const ServiceSpec* DeploymentHandle::spec(std::size_t position) const {
  MiddleboxInstance* box = resolve_box(position);
  return box != nullptr ? &box->spec : nullptr;
}

ActiveRelay* DeploymentHandle::standby_relay(std::size_t position) const {
  MiddleboxInstance* box = resolve_box(position);
  return box != nullptr && box->standby != nullptr
             ? box->standby->active_relay.get()
             : nullptr;
}

bool DeploymentHandle::draining() const {
  Deployment* dep = resolve();
  return dep != nullptr && dep->state == DeploymentState::kDraining;
}

bool DeploymentHandle::fenced() const {
  Deployment* dep = resolve();
  return dep != nullptr && dep->state == DeploymentState::kFenced;
}

Status DeploymentHandle::add_middlebox(const ServiceSpec& spec,
                                       std::size_t position) {
  Deployment* dep = resolve();
  if (dep == nullptr) return error(ErrorCode::kNotFound, "stale deployment");
  return platform_->add_middlebox(*dep, spec, position);
}

Status DeploymentHandle::remove_middlebox(std::size_t position) {
  Deployment* dep = resolve();
  if (dep == nullptr) return error(ErrorCode::kNotFound, "stale deployment");
  return platform_->remove_middlebox(*dep, position);
}

Status DeploymentHandle::crash_middlebox(std::size_t position) {
  Deployment* dep = resolve();
  if (dep == nullptr) return error(ErrorCode::kNotFound, "stale deployment");
  return platform_->crash_middlebox(*dep, position);
}

Status DeploymentHandle::restart_middlebox(std::size_t position) {
  Deployment* dep = resolve();
  if (dep == nullptr) return error(ErrorCode::kNotFound, "stale deployment");
  return platform_->restart_middlebox(*dep, position);
}

Status DeploymentHandle::detach() {
  if (platform_ == nullptr) {
    return error(ErrorCode::kInvalidArgument, "null deployment handle");
  }
  return platform_->detach_deployment(cookie_);
}

// ---------------------------------------------------------- StormPlatform

StormPlatform::StormPlatform(cloud::Cloud& cloud)
    : cloud_(cloud), attribution_(cloud), splicer_(cloud), sdn_(cloud),
      health_(std::make_unique<ChainHealthManager>(*this)) {
  register_service("noop", [](ServiceEnv&) {
    return Result<std::unique_ptr<StorageService>>(
        std::make_unique<NoopService>());
  });
}

StormPlatform::~StormPlatform() { health_->stop(); }

obs::Registry& StormPlatform::telemetry() {
  return cloud_.simulator().telemetry();
}

void StormPlatform::register_service(const std::string& type,
                                     ServiceFactory factory) {
  factories_[type] = std::move(factory);
}

unsigned StormPlatform::place_middlebox(const ServiceSpec& spec,
                                        unsigned vm_host) {
  if (spec.host_index >= 0) {
    return static_cast<unsigned>(spec.host_index);
  }
  // Default placement: round-robin over hosts other than the tenant VM's
  // (the paper's worst-case measurement spreads everything out; the
  // placement ablation co-locates explicitly via host_index).
  unsigned host = next_mb_host_++ % cloud_.compute_count();
  if (host == vm_host) host = next_mb_host_++ % cloud_.compute_count();
  return host;
}

Result<std::unique_ptr<MiddleboxInstance>> StormPlatform::build_box(
    const ServiceSpec& spec, const std::string& label,
    const std::string& tenant, unsigned vm_host, block::Volume* volume) {
  if (spec.host_index >= 0 &&
      static_cast<unsigned>(spec.host_index) >= cloud_.compute_count()) {
    return error(ErrorCode::kInvalidArgument,
                 "service '" + spec.type + "': no compute host " +
                     std::to_string(spec.host_index));
  }
  auto factory = factories_.find(spec.type);
  if (spec.relay != RelayMode::kForward && factory == factories_.end()) {
    return error(ErrorCode::kNotFound,
                 "no service registered for type '" + spec.type + "'");
  }
  auto box = std::make_unique<MiddleboxInstance>();
  box->spec = spec;
  unsigned host = place_middlebox(spec, vm_host);
  box->vm = &cloud_.create_middlebox_vm(label, tenant, host, spec.vcpus);

  if (spec.relay != RelayMode::kForward) {
    ServiceEnv env;
    env.cloud = &cloud_;
    env.platform = this;
    env.mb_vm = box->vm;
    env.volume = volume;
    env.spec = &box->spec;
    auto service = factory->second(env);
    if (!service.is_ok()) return service.status();
    box->service = std::move(service).take();
    if (box->service->requires_active_relay() &&
        spec.relay != RelayMode::kActive) {
      return error(ErrorCode::kInvalidArgument,
                   "service '" + spec.type + "' requires relay=active");
    }
    // Recovery-policy legality is a deploy-time property: bypass on a
    // confidentiality-critical service would fail open the day the box
    // dies, so it is refused before the chain ever carries traffic.
    if (spec.recovery == RecoveryPolicyKind::kBypass &&
        box->service->confidentiality_critical()) {
      return error(ErrorCode::kPermissionDenied,
                   "service '" + spec.type +
                       "' is confidentiality-critical: recovery=bypass "
                       "would fail open");
    }
  }
  return box;
}

namespace {

// Tenant-tunable relay flow control: the NVRAM watermarks come from the
// service stanza (`journal_hwm_kb=... journal_lwm_kb=...`); 0 disables
// backpressure for that box. Unspecified keys keep the defaults, and so
// do malformed ones (parse_policy rejects those before any deploy).
RelayFlowControl relay_flow_control(const ServiceSpec& spec) {
  RelayFlowControl flow;
  if (auto hwm = parse_count(spec.param("journal_hwm_kb"), 1024)) {
    flow.high_watermark = *hwm;
  }
  if (auto lwm = parse_count(spec.param("journal_lwm_kb"), 1024)) {
    flow.low_watermark = *lwm;
  }
  return flow;
}

// Starts the relay `box`'s relay mode calls for; an active one dials
// `upstream` with the box's own flow-control watermarks.
void start_relay(MiddleboxInstance& box, net::SocketAddr upstream,
                 const std::string& volume) {
  switch (box.spec.relay) {
    case RelayMode::kForward:
      break;  // plain IP forwarding, nothing to run
    case RelayMode::kPassive:
      box.passive_relay =
          std::make_unique<PassiveRelay>(*box.vm, *box.service, volume);
      box.passive_relay->start();
      break;
    case RelayMode::kActive:
      box.active_relay = std::make_unique<ActiveRelay>(
          *box.vm, upstream, *box.service, volume,
          relay_flow_control(box.spec));
      box.active_relay->start();
      break;
  }
}

// Initializes freshly built services (their setup may be asynchronous:
// replication attaches its replicas) and runs `done` once all of them
// reported — with OK or the first error.
void initialize_services(const std::vector<StorageService*>& services,
                         std::function<void(Status)> done) {
  auto join = Joiner::make(std::move(done));
  for (StorageService* service : services) service->initialize(join->begin());
  join->seal();
}

// A flow move tears the initiator's downstream TCP leg; session recovery
// re-dials from the pinned source port and re-issues whatever was in
// flight. Without it every command that met the old path would fail, so
// a move turns recovery on unless the caller already configured it.
void arm_session_recovery(iscsi::Initiator& initiator) {
  if (initiator.recovery_policy().enabled) return;
  iscsi::RecoveryPolicy recovery;
  recovery.enabled = true;
  recovery.reconnect_delay = sim::milliseconds(1);
  initiator.set_recovery(recovery);
}

// Stops a box from carrying traffic: an active relay crashes with its
// journal intact (and takes its VM down); any other box just loses power.
// Both are no-ops on a box that is already silent.
void silence(MiddleboxInstance& box) {
  if (box.active_relay != nullptr) {
    box.active_relay->crash();
  } else {
    box.vm->node().set_down(true);
  }
}

}  // namespace

void StormPlatform::wire_relays(Deployment& deployment) {
  net::SocketAddr upstream{deployment.splice.gateways.egress_instance_ip(),
                           iscsi::kIscsiPort};
  for (auto& box : deployment.boxes) {
    if (box->pooled) continue;  // pooled relays start when the pool builds
    start_relay(*box, upstream, deployment.volume);
    if (box->standby != nullptr) {
      // The warm spare listens from day one but receives nothing until a
      // failover swaps the capture + steering rules to its MAC.
      start_relay(*box->standby, upstream, deployment.volume);
    }
  }
}

// ---------------------------------------------------------- replica sets

ReplicaSet* StormPlatform::find_replica_set(const std::string& key) {
  auto it = replica_sets_.find(key);
  return it == replica_sets_.end() ? nullptr : it->second.get();
}

const ReplicaSet* StormPlatform::replica_set(
    const std::string& tenant, const std::string& service_type) const {
  auto it = replica_sets_.find(tenant + "|" + service_type);
  return it == replica_sets_.end() ? nullptr : it->second.get();
}

net::TokenBucket* StormPlatform::tenant_qos_mutable(
    const std::string& tenant) {
  auto it = qos_buckets_.find(tenant);
  return it == qos_buckets_.end() ? nullptr : it->second.get();
}

Result<std::shared_ptr<MiddleboxInstance>> StormPlatform::build_replica(
    ReplicaSet& set, unsigned avoid_host,
    std::vector<StorageService*>* fresh_services) {
  if (!set.parked.empty()) {
    // Revive the most recently parked replica: its VM and initialized
    // service are intact, so scale-up skips both boot and setup time.
    std::shared_ptr<MiddleboxInstance> box = set.parked.back();
    set.parked.pop_back();
    box->active_relay->restart();
    set.ring.add_node(box->replica_label);
    set.replicas.push_back(box);
    telemetry().record_event("scaleout: revived replica " +
                             box->replica_label + " on " + box->vm->name());
    return box;
  }

  const std::string label =
      set.tenant + "/" + set.spec.type + "#" + std::to_string(set.next_ordinal);
  // Spread replicas over distinct hosts (and off the tenant VM's host):
  // a co-located pair fails together, which defeats the pool.
  ServiceSpec spec = set.spec;
  if (spec.host_index < 0) {
    unsigned host = next_mb_host_++ % cloud_.compute_count();
    for (unsigned attempt = 0; attempt < cloud_.compute_count(); ++attempt) {
      bool taken = host == avoid_host;
      for (const auto& sibling : set.replicas) {
        taken = taken || sibling->vm->host_index() == host;
      }
      if (!taken) break;
      host = next_mb_host_++ % cloud_.compute_count();
    }
    spec.host_index = static_cast<int>(host);
  }
  auto built = build_box(spec, "mb-" + std::to_string(next_mb_id_++) + "-" +
                                   set.spec.type,
                         set.tenant, avoid_host, nullptr);
  if (!built.is_ok()) return built.status();
  std::shared_ptr<MiddleboxInstance> box = std::move(built).take();
  if (box->service != nullptr && !box->service->replica_safe()) {
    return error(ErrorCode::kInvalidArgument,
                 "service '" + set.spec.type +
                     "' keeps per-volume state and cannot be pooled "
                     "(replicas stanza)");
  }
  box->pooled = true;
  box->replica_label = label;
  ++set.next_ordinal;

  // The pooled relay dials the tenant's egress gateway like any private
  // relay would; per-flow volumes are registered as flows pin to it.
  GatewayPair& gateways = splicer_.tenant_gateways(set.tenant);
  start_relay(*box, {gateways.egress_instance_ip(), iscsi::kIscsiPort}, "");
  if (fresh_services != nullptr && box->service != nullptr) {
    fresh_services->push_back(box->service.get());
  }
  set.ring.add_node(label);
  set.replicas.push_back(box);
  telemetry().record_event("scaleout: built replica " + label + " on " +
                           box->vm->name());
  return box;
}

Result<std::shared_ptr<MiddleboxInstance>> StormPlatform::acquire_replica(
    Deployment& dep, const ServiceSpec& spec, const std::string& tenant,
    unsigned vm_host, std::vector<StorageService*>* fresh_services) {
  const std::string key = tenant + "|" + spec.type;
  auto it = replica_sets_.find(key);
  if (it == replica_sets_.end()) {
    auto set = std::make_unique<ReplicaSet>();
    set->tenant = tenant;
    set->spec = spec;
    it = replica_sets_.emplace(key, std::move(set)).first;
  }
  ReplicaSet& set = *it->second;
  // First acquisition sizes the pool from the policy; later attaches
  // join the pool at whatever size elasticity has taken it to.
  if (set.replicas.empty()) {
    for (unsigned i = 0; i < std::max(1u, spec.replicas.count); ++i) {
      auto built = build_replica(set, vm_host, fresh_services);
      if (!built.is_ok()) return built.status();
    }
  }

  const std::uint64_t flow_hash = FlowHashRing::flow_key(
      dep.splice.host_storage_ip, dep.splice.vm_port, dep.splice.target_ip,
      iscsi::kIscsiPort);
  const std::string& label = set.ring.assign(flow_hash);
  for (const auto& replica : set.replicas) {
    if (replica->replica_label != label) continue;
    replica->active_relay->register_volume(dep.splice.vm_port, dep.volume);
    set.assignments[dep.splice.cookie] = label;
    telemetry().record_event("scaleout: flow port " +
                             std::to_string(dep.splice.vm_port) +
                             " pinned to " + label);
    return replica;
  }
  return error(ErrorCode::kNotFound, "hash ring assigned unknown replica");
}

void StormPlatform::release_replica_flows(Deployment& dep) {
  for (auto& [key, set] : replica_sets_) {
    auto it = set->assignments.find(dep.splice.cookie);
    if (it == set->assignments.end()) continue;
    MiddleboxInstance* box = set->find(it->second);
    if (box != nullptr && box->active_relay != nullptr) {
      box->active_relay->drop_session(dep.splice.vm_port);
    }
    set->assignments.erase(it);
  }
}

void StormPlatform::migrate_flow(Deployment& dep, std::size_t position,
                                 std::shared_ptr<MiddleboxInstance> target,
                                 std::function<void(Status)> done) {
  std::shared_ptr<MiddleboxInstance> source = dep.boxes[position];
  if (source == target) {
    done(Status::ok());
    return;
  }
  iscsi::Initiator* initiator = dep.attachment.initiator;
  if (initiator == nullptr || source->active_relay == nullptr ||
      target->active_relay == nullptr) {
    done(error(ErrorCode::kFailedPrecondition,
               "flow migration needs a live initiator and active relays"));
    return;
  }
  // handoff() arms it too; arming before the drain keeps the whole move
  // under recovery, so a leg torn while the chain drains is re-dialed.
  arm_session_recovery(*initiator);
  // Park new commands instead of failing them: the chain drains to empty
  // under a live workload, and nothing issued during the move is lost.
  initiator->set_admission_mode(iscsi::AdmissionMode::kDeferred);
  telemetry().add_event(dep.attach_span, "migrate_begin", position);

  // The pool owns both boxes for the platform's lifetime; the poll holds
  // them weakly so a poll still pending at shutdown owns nothing.
  const std::uint64_t cookie = dep.splice.cookie;
  const std::uint16_t vm_port = dep.splice.vm_port;
  std::weak_ptr<MiddleboxInstance> from = source;
  std::weak_ptr<MiddleboxInstance> to = target;
  poll_until(
      cloud_.simulator().now() + kDrainTimeout,
      [this, cookie, vm_port, from] {
        Deployment* dep = deployment_by_cookie(cookie);
        auto source = from.lock();
        return dep == nullptr || source == nullptr ||
               (dep->attachment.initiator->outstanding() == 0 &&
                source->active_relay->session_quiescent(vm_port));
      },
      [this, cookie, position, vm_port, from, to, done](bool drained) {
        Deployment* dep = deployment_by_cookie(cookie);
        auto source = from.lock();
        auto target = to.lock();
        if (dep == nullptr || source == nullptr || target == nullptr) {
          done(error(ErrorCode::kNotFound,
                     "deployment detached mid-migration"));
          return;
        }
        iscsi::Initiator* initiator = dep->attachment.initiator;
        if (!drained) {
          initiator->set_admission_mode(iscsi::AdmissionMode::kOpen);
          done(error(ErrorCode::kDeadlineExceeded,
                     "migration drain timeout"));
          return;
        }
        // Quiescent: snapshot the drained session (login + empty unacked
        // tail) and tear it out of the source relay.
        handoff(*dep, position, target,
                source->active_relay->extract_session(vm_port));
        // Reopen the gate: parked commands queue behind session recovery
        // and issue after the re-login lands.
        initiator->set_admission_mode(iscsi::AdmissionMode::kOpen);
        telemetry().add_event(dep->attach_span, "migrated", position);
        telemetry().counter("scaleout.migrations").add();
        telemetry().record_event(
            "scaleout: flow port " + std::to_string(vm_port) + " moved " +
            source->replica_label + " -> " + target->replica_label);
        done(Status::ok());
      });
}

void StormPlatform::rebalance_flows(ReplicaSet& set,
                                    std::function<void(Status)> done) {
  // Collect the flows whose arc changed hands, in deterministic (cookie)
  // order, then migrate them one at a time: concurrent migrations of one
  // tenant would interleave their rule swaps.
  struct Move {
    std::uint64_t cookie;
    std::string from;
    std::string to;
  };
  auto moves = std::make_shared<std::vector<Move>>();
  for (const auto& [cookie, label] : set.assignments) {
    Deployment* dep = deployment_by_cookie(cookie);
    if (dep == nullptr) continue;
    const std::string& target = set.ring.assign(FlowHashRing::flow_key(
        dep->splice.host_storage_ip, dep->splice.vm_port,
        dep->splice.target_ip, iscsi::kIscsiPort));
    if (!target.empty() && target != label) {
      moves->push_back(Move{cookie, label, target});
    }
  }
  const std::string set_key = set.key();
  auto first_error = std::make_shared<Status>(Status::ok());
  Step step = [this, set_key, moves, first_error](std::size_t i, Next next) {
    const Move& move = (*moves)[i];
    ReplicaSet* set = find_replica_set(set_key);
    Deployment* dep = set != nullptr ? deployment_by_cookie(move.cookie)
                                     : nullptr;
    if (dep == nullptr) {
      next();
      return;
    }
    std::shared_ptr<MiddleboxInstance> target;
    for (const auto& replica : set->replicas) {
      if (replica->replica_label == move.to) target = replica;
    }
    std::size_t position = dep->boxes.size();
    for (std::size_t p = 0; p < dep->boxes.size(); ++p) {
      if (dep->boxes[p]->pooled &&
          dep->boxes[p]->replica_label == move.from) {
        position = p;
      }
    }
    if (target == nullptr || position == dep->boxes.size()) {
      next();
      return;
    }
    migrate_flow(*dep, position, target,
                 [this, set_key, moves, first_error, i, next](Status status) {
                   if (status.is_ok()) {
                     if (ReplicaSet* set = find_replica_set(set_key)) {
                       set->assignments[(*moves)[i].cookie] = (*moves)[i].to;
                     }
                   } else if (first_error->is_ok()) {
                     *first_error = status;
                   }
                   next();
                 });
  };
  run_steps(moves->size(), std::move(step),
            [first_error, done] { done(*first_error); });
}

void StormPlatform::park_replica(ReplicaSet& set,
                                 std::shared_ptr<MiddleboxInstance> box) {
  for (auto it = set.replicas.begin(); it != set.replicas.end(); ++it) {
    if (*it == box) {
      set.replicas.erase(it);
      break;
    }
  }
  // Journal intact, sessions already migrated away: a later revive can
  // restart() it.
  silence(*box);
  set.parked.push_back(box);
  telemetry().record_event("scaleout: parked replica " + box->replica_label);
}

void StormPlatform::scale_service_replicas(const std::string& tenant,
                                           const std::string& type,
                                           unsigned target,
                                           std::function<void(Status)> done) {
  if (!done) done = [](Status) {};
  ReplicaSet* set = find_replica_set(tenant + "|" + type);
  if (set == nullptr) {
    done(error(ErrorCode::kNotFound,
               "no replica set for " + tenant + "/" + type));
    return;
  }
  const unsigned lo = std::max(1u, set->spec.replicas.min_count);
  const unsigned hi = std::max(lo, set->spec.replicas.max_count);
  target = std::min(std::max(target, lo), hi);
  const unsigned current = static_cast<unsigned>(set->replicas.size());
  if (target == current) {
    done(Status::ok());
    return;
  }
  const std::string set_key = set->key();
  telemetry().record_event("scaleout: " + tenant + "/" + type + " " +
                           std::to_string(current) + " -> " +
                           std::to_string(target) + " replicas");

  if (target > current) {
    std::vector<StorageService*> fresh_services;
    for (unsigned i = current; i < target; ++i) {
      auto built = build_replica(*set, /*avoid_host=*/~0u, &fresh_services);
      if (!built.is_ok()) {
        done(built.status());
        return;
      }
    }
    telemetry().counter("scaleout.scale_ups").add();
    // Initialize fresh services (pool services are replica-safe and
    // initialize synchronously today, but honor the async contract), then
    // move only the flows whose arc the new replicas took over.
    initialize_services(fresh_services, [this, set_key, done](Status ready) {
      if (!ready.is_ok()) {
        done(ready);
        return;
      }
      if (ReplicaSet* set = find_replica_set(set_key)) {
        rebalance_flows(*set, done);
      } else {
        done(Status::ok());
      }
    });
    return;
  }

  // Scale-down: retire the newest replicas first (consistent hashing
  // moves only their arcs), drain their flows onto the survivors, then
  // park them. The set owns the victims; the pending rebalance holds them
  // weakly, like the migration poll.
  std::vector<std::weak_ptr<MiddleboxInstance>> victims;
  for (unsigned i = target; i < current; ++i) {
    set->ring.remove_node(set->replicas[i]->replica_label);
    victims.push_back(set->replicas[i]);
  }
  telemetry().counter("scaleout.scale_downs").add();
  rebalance_flows(*set, [this, set_key, victims, done](Status status) {
    ReplicaSet* set = find_replica_set(set_key);
    if (set == nullptr) {
      done(status);
      return;
    }
    for (const auto& weak : victims) {
      std::shared_ptr<MiddleboxInstance> victim = weak.lock();
      if (victim == nullptr) continue;
      bool busy = false;
      for (const auto& [cookie, label] : set->assignments) {
        busy = busy || label == victim->replica_label;
      }
      if (busy) {
        // A migration failed and left a flow behind: the victim must
        // keep serving it. Put its arcs back so new flows can land too.
        set->ring.add_node(victim->replica_label);
        if (status.is_ok()) {
          status = error(ErrorCode::kFailedPrecondition,
                         "replica " + victim->replica_label +
                             " still owns flows; not parked");
        }
        continue;
      }
      park_replica(*set, victim);
    }
    done(status);
  });
}

void StormPlatform::attach_with_chain(
    const std::string& vm_name, const std::string& volume_name,
    std::vector<ServiceSpec> chain,
    std::function<void(Result<DeploymentHandle>)> done) {
  // Every spec is checked before anything is provisioned: the cloud
  // cannot destroy a VM, so a box built for a bad spec would leak.
  Status valid = validate_chain(chain);
  if (!valid.is_ok()) {
    done(valid);
    return;
  }
  cloud::Vm* vm = cloud_.find_vm(vm_name);
  if (vm == nullptr) {
    done(error(ErrorCode::kNotFound, "no VM " + vm_name));
    return;
  }
  auto located = cloud_.locate_volume(volume_name);
  if (!located.is_ok()) {
    done(located.status());
    return;
  }
  block::Volume* volume = located.value().first;
  unsigned storage_index = located.value().second;

  auto deployment = std::make_unique<Deployment>();
  Deployment* dep = deployment.get();
  dep->vm = vm_name;
  dep->volume = volume_name;
  dep->splice.cookie = next_cookie_++;
  dep->splice.vm_port = allocate_flow_port();
  dep->splice.host_storage_ip = cloud_.compute(vm->host_index()).storage_ip();
  dep->splice.target_ip = cloud_.storage(storage_index).storage_ip();
  dep->splice.gateways = splicer_.tenant_gateways(vm->tenant());

  // The deployment's trace span covers provision -> splice -> login; it
  // stays open until detach so a dump shows which chains are live.
  dep->attach_span =
      telemetry().begin_span("deploy." + vm_name + ":" + volume_name);
  const std::uint64_t cookie = dep->splice.cookie;

  // Provision the middle-box VMs + service instances. Hops carrying a
  // `replicas` stanza draw a pooled box from the tenant's replica set
  // instead of building a private one; only freshly built service
  // instances go through initialize() below (a pooled instance serving
  // its second flow was initialized when the pool was built).
  std::vector<StorageService*> fresh_services;
  // A hop that cannot be provisioned fails the deploy: release the pins
  // this flow took on pooled replicas and close the span.
  auto fail = [&](const Status& status) {
    release_replica_flows(*dep);
    telemetry().end_span(dep->attach_span);
    done(status);
  };
  for (std::size_t i = 0; i < chain.size(); ++i) {
    if (chain[i].replicas.enabled) {
      auto pooled = acquire_replica(*dep, chain[i], vm->tenant(),
                                    vm->host_index(), &fresh_services);
      if (!pooled.is_ok()) return fail(pooled.status());
      dep->boxes.push_back(std::move(pooled).take());
      continue;
    }
    std::string label = "mb-" + std::to_string(next_mb_id_++) + "-" +
                        chain[i].type;
    auto box = build_box(chain[i], label, vm->tenant(), vm->host_index(),
                         volume);
    if (!box.is_ok()) return fail(box.status());
    if (chain[i].recovery == RecoveryPolicyKind::kStandby) {
      // Provision the warm spare now: a standby built after the failure
      // would add VM boot time to MTTR, which defeats the policy.
      auto standby = build_box(chain[i], label + "-sb", vm->tenant(),
                               vm->host_index(), volume);
      if (!standby.is_ok()) return fail(standby.status());
      box.value()->standby = std::move(standby).take();
    }
    if (box.value()->service) {
      fresh_services.push_back(box.value()->service.get());
    }
    if (box.value()->standby && box.value()->standby->service) {
      fresh_services.push_back(box.value()->standby->service.get());
    }
    dep->boxes.push_back(std::move(box).take());
  }
  rebuild_chain(*dep);
  telemetry().add_event(dep->attach_span, "boxes_provisioned",
                        dep->boxes.size());

  deployments_.push_back(std::move(deployment));

  // Let services finish async setup, then program the network and
  // attach the volume.
  initialize_services(fresh_services, [this, dep, vm, done,
                                       cookie](Status ready) {
    if (!ready.is_ok()) {
      telemetry().record_event("deploy " + dep->vm + ":" + dep->volume +
                               " failed: " + ready.to_string());
      rollback_deployment(dep);
      done(ready);
      return;
    }
    wire_relays(*dep);
    splicer_.install_gateway_rules(dep->splice);
    splicer_.install_capture_rules(dep->splice);
    sdn_.install_chain_rules(dep->splice);
    telemetry().add_event(dep->attach_span, "rules_installed");

    cloud::AttachHooks hooks;
    hooks.force_source_port = dep->splice.vm_port;
    hooks.before_login = [this, dep](cloud::ComputeHost& host,
                                     const cloud::Attachment&) {
      splicer_.install_host_redirect(host, dep->splice);
    };
    hooks.after_login = [this, dep](cloud::ComputeHost& host,
                                    const cloud::Attachment&) {
      splicer_.remove_host_redirect(host, dep->splice);
    };
    cloud_.attach_volume(*vm, dep->volume,
                         [this, dep, done, cookie](
                             Status status, cloud::Attachment attachment) {
                           if (!status.is_ok()) {
                             // The attach failed after rules were
                             // installed: leave nothing half-spliced.
                             telemetry().record_event(
                                 "deploy " + dep->vm + ":" + dep->volume +
                                 " failed: " + status.to_string());
                             rollback_deployment(dep);
                             done(status);
                             return;
                           }
                           dep->attachment = std::move(attachment);
                           telemetry().add_event(dep->attach_span,
                                                 "attached");
                           telemetry().record_event(
                               "deploy " + dep->vm + ":" + dep->volume +
                               " attached (cookie " +
                               std::to_string(cookie) + ")");
                           done(Result<DeploymentHandle>(
                               DeploymentHandle(this, cookie)));
                         },
                         hooks);
  });
}

void StormPlatform::apply_policy(
    const TenantPolicy& policy,
    std::function<void(Result<std::vector<DeploymentHandle>>)> done) {
  Status valid = validate_policy(policy);
  if (!valid.is_ok()) {
    done(valid);
    return;
  }
  if (policy.qos.enabled) set_tenant_qos(policy.tenant, policy.qos);
  auto volumes = std::make_shared<std::vector<VolumePolicy>>(policy.volumes);
  auto handles = std::make_shared<std::vector<DeploymentHandle>>();
  Step step = [this, volumes, handles, done](std::size_t i, Next next) {
    const VolumePolicy& vp = (*volumes)[i];
    attach_with_chain(vp.vm, vp.volume, vp.chain,
                      [handles, done, next](Result<DeploymentHandle> result) {
                        if (!result.is_ok()) {
                          done(result.status());
                          return;
                        }
                        handles->push_back(result.value());
                        next();
                      });
  };
  run_steps(volumes->size(), std::move(step), [handles, done] {
    done(Result<std::vector<DeploymentHandle>>(std::move(*handles)));
  });
}

void StormPlatform::set_tenant_qos(const std::string& tenant,
                                   const QosSpec& qos) {
  GatewayPair& gateways = splicer_.tenant_gateways(tenant);
  if (!qos.enabled || qos.rate_bytes_per_sec == 0) {
    gateways.ingress->set_rate_limiter(nullptr);
    qos_buckets_.erase(tenant);
    return;
  }
  auto bucket = std::make_unique<net::TokenBucket>(
      cloud_.simulator(), qos.rate_bytes_per_sec, qos.burst_bytes);
  obs::Registry& reg = telemetry();
  bucket->bind_telemetry(&reg.counter("qos." + tenant + ".throttled_bytes"),
                         &reg.gauge("qos." + tenant + ".queue_bytes"));
  // The bucket paces the ingress gateway's FORWARD path: every spliced
  // flow of the tenant funnels through it, locally-terminated traffic
  // (relay pseudo-endpoints) is exempt.
  gateways.ingress->set_rate_limiter(bucket.get());
  telemetry().record_event("qos: tenant " + tenant + " limited to " +
                           std::to_string(qos.rate_bytes_per_sec) +
                           " B/s (burst " + std::to_string(qos.burst_bytes) +
                           ")");
  qos_buckets_[tenant] = std::move(bucket);
}

const net::TokenBucket* StormPlatform::tenant_qos(
    const std::string& tenant) const {
  auto it = qos_buckets_.find(tenant);
  return it == qos_buckets_.end() ? nullptr : it->second.get();
}

void StormPlatform::teardown_rules(Deployment* dep) {
  splicer_.remove_all_rules(dep->splice);
  sdn_.remove_chain_rules(dep->splice.cookie);
  // The host redirect is cookie-tagged too; normally the after_login hook
  // removed it already, but a failure before that point must not leak it.
  cloud::Vm* vm = cloud_.find_vm(dep->vm);
  if (vm != nullptr) {
    cloud_.compute(vm->host_index())
        .node()
        .nat()
        .remove_rules_by_cookie(dep->splice.cookie,
                                /*flush_conntrack=*/true);
  }
}

void StormPlatform::rollback_deployment(Deployment* dep) {
  teardown_rules(dep);
  release_replica_flows(*dep);
  telemetry().end_span(dep->attach_span);
  for (auto it = deployments_.begin(); it != deployments_.end(); ++it) {
    if (it->get() == dep) {
      deployments_.erase(it);  // destroys relays (ActiveRelay::shutdown)
      break;
    }
  }
}

bool StormPlatform::deployment_quiescent(const Deployment& dep) const {
  if (dep.attachment.initiator != nullptr &&
      dep.attachment.initiator->outstanding() != 0) {
    return false;
  }
  for (const auto& box : dep.boxes) {
    if (box->active_relay != nullptr) {
      // A pooled relay carries other tenants' flows concurrently; only
      // *this* flow's session must be empty for this deployment to count
      // as drained.
      if (box->pooled
              ? !box->active_relay->session_quiescent(dep.splice.vm_port)
              : !box->active_relay->quiescent()) {
        return false;
      }
    }
    if (box->passive_relay != nullptr && !box->passive_relay->quiescent()) {
      return false;
    }
  }
  return true;
}

Status StormPlatform::detach_deployment(std::uint64_t cookie) {
  Deployment* dep = deployment_by_cookie(cookie);
  if (dep == nullptr) {
    return error(ErrorCode::kNotFound, "no deployment for handle");
  }
  if (dep->state == DeploymentState::kDraining) {
    return error(ErrorCode::kFailedPrecondition, "detach already draining");
  }
  dep->state = DeploymentState::kDraining;
  if (dep->attachment.initiator != nullptr) {
    dep->attachment.initiator->set_admission_mode(
        iscsi::AdmissionMode::kClosed);
  }
  telemetry().add_event(dep->attach_span, "drain_begin");
  poll_until(
      cloud_.simulator().now() + kDrainTimeout,
      [this, cookie] {
        Deployment* dep = deployment_by_cookie(cookie);
        return dep == nullptr || deployment_quiescent(*dep);
      },
      [this, cookie](bool drained) {
        Deployment* dep = deployment_by_cookie(cookie);
        if (dep == nullptr) return;  // torn down while the poll was pending
        if (drained) {
          telemetry().add_event(dep->attach_span, "drained");
        } else {
          const Status timeout =
              error(ErrorCode::kDeadlineExceeded, "drain timeout");
          telemetry().record_event("drain " + dep->vm + ":" + dep->volume +
                                   " incomplete (" + timeout.to_string() +
                                   "); forcing detach");
        }
        telemetry().record_event("detach " + dep->vm + ":" + dep->volume +
                                 " (cookie " + std::to_string(cookie) + ")");
        rollback_deployment(dep);  // rules out, relays destroyed
      });
  return Status::ok();
}

void StormPlatform::poll_until(sim::Time deadline, std::function<bool()> ready,
                               std::function<void(bool)> done) {
  // Fine-grained enough that a drain adds at most ~100us, coarse enough
  // not to dominate the event queue.
  static constexpr sim::Duration kPollInterval = sim::microseconds(100);
  // The poll's state lives only in the pending closure (each round moves
  // it on), so it is freed the moment the poll ends.
  if (ready()) {
    done(true);
  } else if (cloud_.simulator().now() >= deadline) {
    done(false);
  } else {
    cloud_.simulator().schedule_in(
        kPollInterval, [this, deadline, ready = std::move(ready),
                        done = std::move(done)]() mutable {
          poll_until(deadline, std::move(ready), std::move(done));
        });
  }
}

void StormPlatform::rebuild_chain(Deployment& deployment) {
  deployment.splice.chain.clear();
  for (auto& box : deployment.boxes) {
    deployment.splice.chain.push_back(Hop{box->vm, box->spec.relay});
  }
}

void StormPlatform::handoff(Deployment& dep, std::size_t position,
                            std::shared_ptr<MiddleboxInstance> target,
                            RelayJournalSnapshot snapshot) {
  iscsi::Initiator* initiator = dep.attachment.initiator;
  if (initiator != nullptr) arm_session_recovery(*initiator);
  // The departing hop's capture DNAT is cookie-tagged, but
  // refresh_capture_rules only touches the *new* chain's VMs: flush it
  // here, or the old VM keeps capturing the flow.
  dep.boxes[position]->vm->node().nat().remove_rules_by_cookie(
      dep.splice.cookie, /*flush_conntrack=*/true);
  if (target != nullptr) {
    target->active_relay->register_volume(dep.splice.vm_port, dep.volume);
    dep.boxes[position] = target;
  } else {
    dep.boxes.erase(dep.boxes.begin() + static_cast<std::ptrdiff_t>(position));
  }
  rebuild_chain(dep);
  // One atomic steering-rule swap per switch: the exact-match cache
  // revalidates in place.
  splicer_.refresh_capture_rules(dep.splice);
  sdn_.reprogram_chain(dep.splice);
  if (target != nullptr) {
    target->active_relay->adopt_sessions(std::move(snapshot));
  }
  // Re-dial now rather than at watchdog expiry; the reconnection is
  // adopted by the target's pseudo-server.
  if (initiator != nullptr) initiator->kick();
}

Status StormPlatform::promote_standby(Deployment& dep, std::size_t position) {
  if (position >= dep.boxes.size()) {
    return error(ErrorCode::kInvalidArgument, "position out of range");
  }
  // Held until the end: the failed box dies after the failover telemetry.
  std::shared_ptr<MiddleboxInstance> failed = dep.boxes[position];
  if (failed->active_relay == nullptr) {
    return error(ErrorCode::kFailedPrecondition,
                 "standby promotion needs an active relay");
  }
  if (failed->standby == nullptr ||
      failed->standby->active_relay == nullptr) {
    return error(ErrorCode::kFailedPrecondition,
                 "no warm standby for " + failed->vm->name());
  }
  std::shared_ptr<MiddleboxInstance> standby = std::move(failed->standby);
  // NVRAM handoff: snapshot the dead relay's journal — it survives the
  // VM's power loss — then silence whatever is left of the relay.
  RelayJournalSnapshot snapshot = failed->active_relay->export_journal();
  silence(*failed);
  handoff(dep, position, standby, std::move(snapshot));
  telemetry().add_event(dep.attach_span, "standby_promoted", position);
  telemetry().record_event("failover " + dep.vm + ":" + dep.volume +
                           ": promoted " + standby->vm->name() +
                           " in place of " + failed->vm->name());
  return Status::ok();
}

Status StormPlatform::bypass_middlebox(Deployment& dep,
                                       std::size_t position) {
  if (position >= dep.boxes.size()) {
    return error(ErrorCode::kInvalidArgument, "position out of range");
  }
  MiddleboxInstance* box = dep.boxes[position].get();
  if (box->pooled) {
    return error(ErrorCode::kFailedPrecondition,
                 "replica " + box->replica_label +
                     " is shared by other flows: bypass would sever them");
  }
  if (box->service != nullptr && box->service->confidentiality_critical()) {
    return error(ErrorCode::kPermissionDenied,
                 "service '" + box->spec.type +
                     "' is confidentiality-critical: bypass would fail "
                     "open");
  }
  // Silence the box (it may be half-dead rather than fully gone), then
  // route around it and let the initiator re-dial the shortened chain.
  silence(*box);
  telemetry().add_event(dep.attach_span, "bypassed", position);
  telemetry().record_event("failover " + dep.vm + ":" + dep.volume +
                           ": bypassing " + box->vm->name());
  handoff(dep, position, nullptr, {});
  return Status::ok();
}

Status StormPlatform::fence_deployment(Deployment& dep,
                                       const std::string& reason) {
  if (dep.state == DeploymentState::kFenced) return Status::ok();
  dep.state = DeploymentState::kFenced;
  telemetry().add_event(dep.attach_span, "fenced");
  telemetry().record_event("fence " + dep.vm + ":" + dep.volume + ": " +
                           reason);
  if (dep.attachment.initiator != nullptr) {
    // Fail closed: no new commands enter, in-flight ones error back to
    // the caller for retry at a higher layer.
    dep.attachment.initiator->set_admission_mode(
        iscsi::AdmissionMode::kClosed);
    dep.attachment.initiator->fail_outstanding(
        error(ErrorCode::kUnavailable, "deployment fenced: " + reason));
  }
  // Quiesce the data path and pull the rules. Nothing may keep flowing
  // around the dead box — that would be a silent bypass. A pooled relay
  // serves other tenants' healthy flows, so only this flow's session is
  // dropped; a private relay is shut down whole.
  for (auto& box : dep.boxes) {
    if (box->active_relay != nullptr) {
      if (box->pooled) {
        box->active_relay->drop_session(dep.splice.vm_port);
      } else {
        box->active_relay->shutdown();
      }
    }
    if (box->standby != nullptr && box->standby->active_relay != nullptr) {
      box->standby->active_relay->shutdown();
    }
  }
  teardown_rules(&dep);
  return Status::ok();
}

Status StormPlatform::crash_middlebox(Deployment& deployment,
                                      std::size_t position) {
  if (position >= deployment.boxes.size()) {
    return error(ErrorCode::kInvalidArgument, "position out of range");
  }
  MiddleboxInstance& box = *deployment.boxes[position];
  if (box.active_relay == nullptr) {
    telemetry().record_event("mb " + box.vm->name() + ": node down");
  }
  silence(box);
  return Status::ok();
}

Status StormPlatform::restart_middlebox(Deployment& deployment,
                                        std::size_t position) {
  if (position >= deployment.boxes.size()) {
    return error(ErrorCode::kInvalidArgument, "position out of range");
  }
  MiddleboxInstance* box = deployment.boxes[position].get();
  if (box->active_relay) {
    box->active_relay->restart();
  } else {
    telemetry().record_event("mb " + box->vm->name() + ": node up");
    box->vm->node().set_down(false);
  }
  return Status::ok();
}

Deployment* StormPlatform::deployment_by_cookie(std::uint64_t cookie) {
  for (auto& deployment : deployments_) {
    if (deployment->splice.cookie == cookie) return deployment.get();
  }
  return nullptr;
}

DeploymentHandle StormPlatform::find_deployment(const std::string& vm,
                                                const std::string& volume) {
  for (auto& deployment : deployments_) {
    if (deployment->vm == vm && deployment->volume == volume) {
      return DeploymentHandle(this, deployment->splice.cookie);
    }
  }
  return DeploymentHandle();
}

Status StormPlatform::add_middlebox(Deployment& deployment,
                                    const ServiceSpec& spec,
                                    std::size_t position) {
  Status valid = validate_chain({spec});
  if (!valid.is_ok()) return valid;
  if (spec.relay == RelayMode::kActive) {
    return error(ErrorCode::kInvalidArgument,
                 "cannot insert an active relay into a live flow "
                 "(it would cut the TCP stream)");
  }
  if (position > deployment.boxes.size()) {
    return error(ErrorCode::kInvalidArgument, "position out of range");
  }
  cloud::Vm* vm = cloud_.find_vm(deployment.vm);
  auto box = build_box(spec,
                       "mb-" + std::to_string(next_mb_id_++) + "-" + spec.type,
                       vm->tenant(), vm->host_index(), nullptr);
  if (!box.is_ok()) return box.status();
  start_relay(*box.value(), {}, deployment.volume);  // never active here
  deployment.boxes.insert(
      deployment.boxes.begin() + static_cast<std::ptrdiff_t>(position),
      std::move(box).take());
  rebuild_chain(deployment);
  sdn_.reprogram_chain(deployment.splice);
  telemetry().add_event(deployment.attach_span, "box_added",
                        deployment.boxes.size());
  return Status::ok();
}

Status StormPlatform::remove_middlebox(Deployment& deployment,
                                       std::size_t position) {
  if (position >= deployment.boxes.size()) {
    return error(ErrorCode::kInvalidArgument, "position out of range");
  }
  MiddleboxInstance& box = *deployment.boxes[position];
  if (box.spec.relay == RelayMode::kActive) {
    return error(ErrorCode::kInvalidArgument,
                 "cannot remove an active relay from a live flow");
  }
  deployment.boxes.erase(deployment.boxes.begin() +
                         static_cast<std::ptrdiff_t>(position));
  rebuild_chain(deployment);
  sdn_.reprogram_chain(deployment.splice);
  telemetry().add_event(deployment.attach_span, "box_removed",
                        deployment.boxes.size());
  return Status::ok();
}

}  // namespace storm::core
