// SDN flow steering (paper §III-A, Fig. 3): a centralized controller that
// installs mod_dst_mac rules in the OVS-style virtual switches so a
// spliced flow traverses its middle-box chain in order, in both
// directions, and supports adding/removing middle-boxes on demand.
#pragma once

#include <cstdint>
#include <map>
#include <string>

#include "cloud/cloud.hpp"
#include "core/splicer.hpp"

namespace storm::core {

/// Consistent-hash ring over middle-box replica labels (Stratos-style
/// network-aware flow distribution): each replica contributes a fixed
/// fan of virtual nodes, a flow's iSCSI 4-tuple hashes to a point on the
/// ring, and the first vnode clockwise owns the flow. Adding or removing
/// one replica moves only the flows whose arc changed hands (~1/N of
/// them) — the property that lets scale-out rebalance without a global
/// re-pinning storm. Deterministic: same labels + same flows => same
/// assignment.
class FlowHashRing {
 public:
  /// Vnodes per replica: enough to smooth the arcs to a few percent
  /// imbalance without bloating the map.
  static constexpr unsigned kVnodes = 64;

  void add_node(const std::string& label);
  /// Removing an unknown label is a no-op.
  void remove_node(const std::string& label);
  bool contains(const std::string& label) const;
  std::size_t node_count() const { return nodes_; }
  bool empty() const { return ring_.empty(); }

  /// The replica owning `flow_hash`; empty string on an empty ring.
  const std::string& assign(std::uint64_t flow_hash) const;

  /// Deterministic 4-tuple hash (the iSCSI flow identity: compute-host
  /// storage IP + pinned source port -> target IP + iSCSI port).
  static std::uint64_t flow_key(net::Ipv4Addr src_ip, std::uint16_t src_port,
                                net::Ipv4Addr dst_ip, std::uint16_t dst_port);

 private:
  static std::uint64_t mix(std::uint64_t x);

  std::map<std::uint64_t, std::string> ring_;  // vnode point -> label
  std::size_t nodes_ = 0;
};

class SdnController {
 public:
  explicit SdnController(cloud::Cloud& cloud) : cloud_(cloud) {}

  /// Compute the full steering rule set for the chain (forward rules +
  /// reverse-segment rules), tagged with the context's cookie. Pure —
  /// nothing is installed.
  std::vector<net::FlowRule> build_chain_rules(const SpliceContext& ctx) const;

  /// Compute and install steering rules for the chain, tagged with the
  /// context's cookie. Idempotent per cookie only if removed first.
  void install_chain_rules(const SpliceContext& ctx);

  /// Remove all steering rules tagged with the cookie.
  std::size_t remove_chain_rules(std::uint64_t cookie);

  /// Reprogram the switches for an updated chain with a per-switch
  /// atomic swap (old rules and new rules exchanged in one table
  /// update, so live traffic is steered by one complete rule set or the
  /// other — never a half-installed mix). Used by on-demand scaling and
  /// by standby failover, where the rules re-point at the spare's MAC
  /// under active retransmission.
  void reprogram_chain(const SpliceContext& ctx);

  /// Completed atomic reprogram operations (scaling + failover swaps).
  std::uint64_t rule_swaps() const { return rule_swaps_; }

 private:
  void add_rule_everywhere(net::FlowRule rule);

  cloud::Cloud& cloud_;
  std::uint64_t rule_swaps_ = 0;
};

}  // namespace storm::core
