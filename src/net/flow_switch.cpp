#include "net/flow_switch.hpp"

#include <algorithm>

#include "obs/registry.hpp"

namespace storm::net {

bool FlowMatch::matches(int in_port_arg, const Packet& pkt) const {
  if (in_port && *in_port != in_port_arg) return false;
  if (src_mac && *src_mac != pkt.eth.src) return false;
  if (dst_mac && *dst_mac != pkt.eth.dst) return false;
  if (src_ip && *src_ip != pkt.ip.src) return false;
  if (dst_ip && *dst_ip != pkt.ip.dst) return false;
  if (src_port && *src_port != pkt.tcp.src_port) return false;
  if (dst_port && *dst_port != pkt.tcp.dst_port) return false;
  return true;
}

void FlowSwitch::add_rule(FlowRule rule) {
  auto pos = std::find_if(rules_.begin(), rules_.end(),
                          [&](const FlowRule& existing) {
                            return existing.priority < rule.priority;
                          });
  rules_.insert(pos, std::move(rule));
  invalidate_cache();
}

std::size_t FlowSwitch::remove_rules_by_cookie(std::uint64_t cookie) {
  auto removed = std::erase_if(
      rules_, [cookie](const FlowRule& r) { return r.cookie == cookie; });
  invalidate_cache();
  return removed;
}

std::size_t FlowSwitch::swap_rules_by_cookie(std::uint64_t cookie,
                                             std::vector<FlowRule> rules) {
  // The simulator is single-threaded and this runs between packets, so
  // remove+insert here really is one indivisible table update. The
  // remove/add helpers each clear the memo wholesale; the revalidation
  // pass afterwards rebuilds every entry against the committed table, so
  // no packet forwarded off the cache can land on a rule the swap
  // removed — and flows the swap never touched keep their fast path
  // (the per-flow exact-match hit rate survives scale-out rebalances).
  auto cache = std::move(flow_cache_);
  std::size_t removed = remove_rules_by_cookie(cookie);
  for (auto& rule : rules) add_rule(std::move(rule));
  flow_cache_ = std::move(cache);
  revalidate_cache();
  return removed;
}

std::size_t FlowSwitch::scan_rules(int in_port, const Packet& pkt) const {
  for (std::size_t i = 0; i < rules_.size(); ++i) {
    if (rules_[i].match.matches(in_port, pkt)) return i;
  }
  return kNoRule;
}

void FlowSwitch::revalidate_cache() {
  for (auto& [key, idx] : flow_cache_) {
    Packet pkt;
    pkt.eth.src = MacAddr{key.src_mac};
    pkt.eth.dst = MacAddr{key.dst_mac};
    pkt.ip.src = Ipv4Addr{key.src_ip};
    pkt.ip.dst = Ipv4Addr{key.dst_ip};
    pkt.tcp.src_port = key.src_port;
    pkt.tcp.dst_port = key.dst_port;
    idx = scan_rules(key.in_port, pkt);
  }
}

void FlowSwitch::ensure_telemetry() {
  if (telemetry_ready_) return;
  telemetry_ready_ = true;
  obs::Registry& reg = sim_.telemetry();
  tel_total_rule_hits_ = &reg.counter("net.flow.rule_hits");
  tel_rule_hits_ = &reg.counter("net.flow." + name() + ".rule_hits");
  tel_cache_hits_ = &reg.counter("net.flow.cache_hits");
  tel_cache_misses_ = &reg.counter("net.flow.cache_misses");
}

void FlowSwitch::process(int in_port, Packet pkt) {
  ensure_telemetry();
  // Exact-match fast path: the memo stores the winning rule *index* (or
  // kNoRule), and the full action path — rule hit counters included — is
  // re-executed on every hit, so a cached packet is handled identically
  // to one that took the linear scan.
  const FlowCacheKey key{in_port,        pkt.eth.src.value,
                         pkt.eth.dst.value, pkt.ip.src.value,
                         pkt.ip.dst.value,  pkt.tcp.src_port,
                         pkt.tcp.dst_port};
  std::size_t idx = kNoRule;
  auto cached = flow_cache_.find(key);
  if (cached != flow_cache_.end()) {
    ++cache_hits_;
    tel_cache_hits_->add();
    idx = cached->second;
  } else {
    ++cache_misses_;
    tel_cache_misses_->add();
    idx = scan_rules(in_port, pkt);
    flow_cache_.emplace(key, idx);
  }
  if (idx == kNoRule) {
    forward_normal(in_port, std::move(pkt));
    return;
  }
  FlowRule& rule = rules_[idx];
  ++rule.hits;
  tel_total_rule_hits_->add();
  tel_rule_hits_->add();
  for (const auto& action : rule.actions) {
    switch (action.type) {
      case FlowActionType::kSetDstMac:
        pkt.eth.dst = action.mac;
        break;
      case FlowActionType::kOutput:
        output(action.port, std::move(pkt));
        return;
      case FlowActionType::kNormal:
        forward_normal(in_port, std::move(pkt));
        return;
      case FlowActionType::kDrop:
        return;
    }
  }
  // Rules whose action list only rewrites headers continue to NORMAL,
  // matching how StorM's mod_dst_mac steering rules behave in OVS.
  forward_normal(in_port, std::move(pkt));
}

}  // namespace storm::net
