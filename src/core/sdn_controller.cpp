#include "core/sdn_controller.hpp"

#include <functional>

#include "common/log.hpp"
#include "iscsi/pdu.hpp"

namespace storm::core {

// ------------------------------------------------------------ FlowHashRing

std::uint64_t FlowHashRing::mix(std::uint64_t x) {
  // splitmix64 finalizer: cheap, deterministic, avalanche-complete —
  // identical assignment on every platform.
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

std::uint64_t FlowHashRing::flow_key(net::Ipv4Addr src_ip,
                                     std::uint16_t src_port,
                                     net::Ipv4Addr dst_ip,
                                     std::uint16_t dst_port) {
  std::uint64_t k = (static_cast<std::uint64_t>(src_ip.value) << 32) |
                    dst_ip.value;
  k = mix(k);
  k ^= (static_cast<std::uint64_t>(src_port) << 16) | dst_port;
  return mix(k);
}

void FlowHashRing::add_node(const std::string& label) {
  if (contains(label)) return;
  std::uint64_t point = std::hash<std::string>{}(label);
  for (unsigned v = 0; v < kVnodes; ++v) {
    point = mix(point + v + 1);
    ring_.emplace(point, label);
  }
  ++nodes_;
}

void FlowHashRing::remove_node(const std::string& label) {
  if (!contains(label)) return;
  std::erase_if(ring_, [&](const auto& entry) {
    return entry.second == label;
  });
  --nodes_;
}

bool FlowHashRing::contains(const std::string& label) const {
  for (const auto& [point, node] : ring_) {
    if (node == label) return true;
  }
  return false;
}

const std::string& FlowHashRing::assign(std::uint64_t flow_hash) const {
  static const std::string empty;
  if (ring_.empty()) return empty;
  auto it = ring_.lower_bound(mix(flow_hash));
  if (it == ring_.end()) it = ring_.begin();  // wrap the ring
  return it->second;
}

// ------------------------------------------------------------ SdnController

void SdnController::add_rule_everywhere(net::FlowRule rule) {
  // The controller programs every virtual switch; rules only trigger
  // where the flow actually passes (matches carry the previous hop's MAC
  // and the flow's ports, so they are inert elsewhere).
  for (net::FlowSwitch* fs : cloud_.flow_switches()) fs->add_rule(rule);
}

std::vector<net::FlowRule> SdnController::build_chain_rules(
    const SpliceContext& ctx) const {
  std::vector<net::FlowRule> out;
  if (ctx.chain.empty()) return out;

  const net::Ipv4Addr egw_ip = ctx.gateways.egress_instance_ip();
  const net::Ipv4Addr igw_ip = ctx.gateways.ingress_instance_ip();
  const net::MacAddr igw_mac = ctx.gateways.ingress->nic_mac(1);
  const net::MacAddr egw_mac = ctx.gateways.egress->nic_mac(1);

  // --- forward direction -------------------------------------------------
  // Hop list: ingress gateway, then every middle-box. Packets always
  // carry dst_ip = egress gateway; each rule matches the previous hop's
  // source MAC and rewrites the destination MAC to the next middle-box
  // (paper Fig. 3). The final hop needs no rule: ARP resolves the egress
  // gateway naturally.
  net::MacAddr prev_mac = igw_mac;
  for (const Hop& hop : ctx.chain) {
    net::FlowRule rule;
    rule.priority = 100;
    rule.cookie = ctx.cookie;
    rule.match.src_mac = prev_mac;
    rule.match.dst_ip = egw_ip;
    rule.match.src_port = ctx.vm_port;
    rule.actions = {net::FlowAction::set_dst_mac(hop.vm->mac()),
                    net::FlowAction::normal()};
    out.push_back(rule);
    prev_mac = hop.vm->mac();
  }

  // --- reverse direction -------------------------------------------------
  // Split the chain into TCP segments at active relays (each terminates
  // the byte stream and re-originates it). Within one segment
  // [A, inner..., B], replies travel B -> inner(reversed) -> A with
  // dst_ip = A's address, so inner packet-level hops need mirror rules.
  struct Endpoint {
    net::Ipv4Addr ip;
    net::MacAddr mac;
  };
  Endpoint segment_a{igw_ip, igw_mac};
  std::vector<Hop> inner;
  auto flush_segment = [&](Endpoint segment_b) {
    net::MacAddr prev = segment_b.mac;
    for (auto it = inner.rbegin(); it != inner.rend(); ++it) {
      net::FlowRule rule;
      rule.priority = 100;
      rule.cookie = ctx.cookie;
      rule.match.src_mac = prev;
      rule.match.dst_ip = segment_a.ip;
      rule.match.dst_port = ctx.vm_port;
      rule.actions = {net::FlowAction::set_dst_mac(it->vm->mac()),
                      net::FlowAction::normal()};
      out.push_back(rule);
      prev = it->vm->mac();
    }
    inner.clear();
  };
  for (const Hop& hop : ctx.chain) {
    if (hop.relay == RelayMode::kActive) {
      flush_segment(Endpoint{hop.vm->ip(), hop.vm->mac()});
      segment_a = Endpoint{hop.vm->ip(), hop.vm->mac()};
    } else {
      inner.push_back(hop);
    }
  }
  flush_segment(Endpoint{egw_ip, egw_mac});
  return out;
}

void SdnController::install_chain_rules(const SpliceContext& ctx) {
  for (const net::FlowRule& rule : build_chain_rules(ctx)) {
    add_rule_everywhere(rule);
  }
  if (!ctx.chain.empty()) {
    log_info("sdn") << "installed steering rules for flow port "
                    << ctx.vm_port << " through " << ctx.chain.size()
                    << " middle-box(es)";
  }
}

std::size_t SdnController::remove_chain_rules(std::uint64_t cookie) {
  std::size_t removed = 0;
  for (net::FlowSwitch* fs : cloud_.flow_switches()) {
    removed += fs->remove_rules_by_cookie(cookie);
  }
  return removed;
}

void SdnController::reprogram_chain(const SpliceContext& ctx) {
  // One swap per switch: each table goes old-rules -> new-rules in a
  // single update, so no packet is ever steered by a partial rule set.
  std::vector<net::FlowRule> rules = build_chain_rules(ctx);
  for (net::FlowSwitch* fs : cloud_.flow_switches()) {
    fs->swap_rules_by_cookie(ctx.cookie, rules);
  }
  ++rule_swaps_;
  log_info("sdn") << "reprogrammed steering for flow port " << ctx.vm_port
                  << " (" << rules.size() << " rules per switch, "
                  << ctx.chain.size() << " middle-box(es))";
}

}  // namespace storm::core
