// Tenant policies (paper §III-D): which VMs/volumes get middle-box
// services, each middle-box's service type and virtual resources, and how
// the boxes are chained per volume. Tenants submit these as text; the
// platform parses and deploys.
#pragma once

#include <cstdint>
#include <limits>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "common/status.hpp"

namespace storm::core {

/// How the middle-box intercepts the flow (paper §III-B).
enum class RelayMode {
  kForward,  // plain IP forwarding, no interception (the MB-FWD baseline)
  kPassive,  // per-packet kernel hook + user/kernel copies
  kActive,   // split-TCP with immediate ACK and NVRAM journal (default)
};

const char* to_string(RelayMode mode);

/// What the chain health manager does when this middle-box fails
/// (heartbeat deadline missed or TCP backoff exhausted). The tenant
/// declares it per service; the default is fail-closed.
enum class RecoveryPolicyKind {
  kFence,    // quiesce the deployment, error in-flight commands back to
             // the initiator — keeps data confidential (default, and the
             // only sound choice for ciphers/replication with no spare)
  kStandby,  // promote a warm standby relay: replay the failed relay's
             // NVRAM journal into it, re-dial its TCP legs, atomically
             // swap the SDN rules to the standby's MAC
  kBypass,   // fail-open: reroute flows around the box; legal only for
             // monitor-class services (rejected at deploy time when the
             // service is confidentiality-critical)
};

const char* to_string(RecoveryPolicyKind kind);

/// Quorum replication tuning (paper §V-B3 grown into W-of-N): a write is
/// acknowledged to the tenant once `write_quorum` copies (primary
/// included) hold it; the rebuild knobs pace the background copy machine
/// that re-silvers a lost replica from survivors. Disabled (the default)
/// keeps the legacy best-effort mirroring semantics.
struct QuorumSpec {
  bool enabled = false;
  /// Copies (primary + replicas) that must acknowledge before the write
  /// completes toward the tenant.
  unsigned write_quorum = 2;
  /// Copy-machine token-bucket rate/burst: rebuild traffic is shaped so
  /// it cannot starve foreground I/O.
  std::uint64_t rebuild_rate_bytes_per_sec = 64ull * 1024 * 1024;
  std::uint64_t rebuild_burst_bytes = 256 * 1024;
};

/// Replica set for one middle-box hop (elastic chain scale-out): the
/// platform keeps `count` active-relay instances of the service alive on
/// distinct hosts and consistent-hashes each spliced flow onto one of
/// them. The autoscaler may move `count` within [min_count, max_count]
/// at runtime; disabled (the default) keeps one instance per hop.
struct ReplicaSpec {
  bool enabled = false;
  unsigned count = 1;
  unsigned min_count = 1;
  unsigned max_count = 1;
};

struct ServiceSpec {
  std::string type;  // "noop" | "monitor" | "encryption" | "stream_cipher" |
                     // "replication" | ... (extensible via the registry)
  RelayMode relay = RelayMode::kActive;
  RecoveryPolicyKind recovery = RecoveryPolicyKind::kFence;
  unsigned vcpus = 2;
  /// Placement: compute-host index, or -1 to let the platform choose.
  int host_index = -1;
  /// W-of-N commit + copy-machine rebuild (replication services only).
  QuorumSpec quorum;
  /// Horizontal scale-out of this hop (replica-safe services only).
  ReplicaSpec replicas;
  /// Service-specific parameters, e.g. {"replicas", "vol2,vol3"}.
  std::map<std::string, std::string> params;

  std::string param(const std::string& key,
                    const std::string& fallback = "") const {
    auto it = params.find(key);
    return it == params.end() ? fallback : it->second;
  }
};

struct VolumePolicy {
  std::string vm;
  std::string volume;
  std::vector<ServiceSpec> chain;  // traversal order, VM side first
};

/// Per-tenant rate limit, enforced by a token bucket on the tenant's
/// ingress gateway so one tenant's burst cannot starve another's chain.
struct QosSpec {
  bool enabled = false;
  std::uint64_t rate_bytes_per_sec = 0;
  std::uint64_t burst_bytes = 0;
};

struct TenantPolicy {
  std::string tenant;
  QosSpec qos;
  std::vector<VolumePolicy> volumes;
};

/// Parse the tenant policy text format:
///
///   tenant alice
///   qos rate_mbps=800 burst_kb=256
///   volume vm1 vol1
///     service monitor relay=active vcpus=2
///     service encryption relay=active key=0011..ff
///   volume vm2 vol2
///     service replication replicas=vol2-r1,vol2-r2
///     quorum w=2 rebuild_mbps=64 rebuild_burst_kb=256
///   volume vm3 vol3
///     service stream_cipher relay=active
///     replicas 3 min=1 max=4
///
/// A `quorum` or `replicas` line applies to the service declared
/// immediately above it. (`replicas N` — the hop's instance count — is
/// distinct from the replication service's `replicas=<vol,...>` param,
/// which names its backup volumes.) Blank lines and '#' comments are
/// ignored.
Result<TenantPolicy> parse_policy(const std::string& text);

/// Strict decimal parse of a tenant-supplied number: digits only (no
/// sign, blanks or suffix), and the value times `scale` may not exceed
/// `max`. Returns the scaled value; nullopt for anything else, including
/// the empty string.
std::optional<std::uint64_t> parse_count(
    const std::string& text, std::uint64_t scale = 1,
    std::uint64_t max = std::numeric_limits<std::uint64_t>::max());

/// Validate structural rules (each volume has >= 1 service, plus
/// validate_chain on every chain).
Status validate_policy(const TenantPolicy& policy);

/// Validate each service spec of one chain (relay modes compatible with
/// service types and recovery policies, quorum and replicas stanzas,
/// vCPU counts). An empty chain is valid here; only a policy requires a
/// service per volume.
Status validate_chain(const std::vector<ServiceSpec>& chain);

}  // namespace storm::core
