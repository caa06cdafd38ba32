#include <gtest/gtest.h>

#include "net/flow_switch.hpp"
#include "net/link.hpp"
#include "net/nat.hpp"
#include "net/node.hpp"
#include "net/packet.hpp"
#include "net/qos.hpp"
#include "net/switch.hpp"
#include "testutil.hpp"

namespace storm::net {
namespace {

using testutil::ip;
using testutil::mac;

Packet make_packet(Ipv4Addr src, std::uint16_t sport, Ipv4Addr dst,
                   std::uint16_t dport, std::size_t payload = 0) {
  Packet pkt;
  pkt.ip.src = src;
  pkt.ip.dst = dst;
  pkt.tcp.src_port = sport;
  pkt.tcp.dst_port = dport;
  pkt.payload = Bytes(payload, 0x5A);
  // Raw injected packets need a valid checksum or every stack drops them.
  pkt.tcp.checksum = tcp_checksum(pkt);
  return pkt;
}

TEST(Packet, WireSizeIsHeadersPlusPayload) {
  Packet pkt = make_packet(ip("1.1.1.1"), 1, ip("2.2.2.2"), 2, 1000);
  EXPECT_EQ(pkt.wire_size(), 14u + 20u + 20u + 1000u);
}

// --- addresses ----------------------------------------------------------------

TEST(Addr, Ipv4StringRoundTrip) {
  auto a = Ipv4Addr::from_string("192.168.1.42");
  EXPECT_EQ(to_string(a), "192.168.1.42");
  EXPECT_THROW(Ipv4Addr::from_string("256.0.0.1"), std::invalid_argument);
  EXPECT_THROW(Ipv4Addr::from_string("junk"), std::invalid_argument);
}

TEST(Addr, SubnetContains) {
  Subnet net{ip("10.1.0.0"), 16};
  EXPECT_TRUE(net.contains(ip("10.1.200.3")));
  EXPECT_FALSE(net.contains(ip("10.2.0.1")));
  Subnet all{ip("0.0.0.0"), 0};
  EXPECT_TRUE(all.contains(ip("1.2.3.4")));
}

TEST(Addr, MacFormatting) {
  EXPECT_EQ(to_string(mac(0x0102030405ff)), "01:02:03:04:05:ff");
  EXPECT_TRUE(MacAddr::broadcast().is_broadcast());
}

// --- link --------------------------------------------------------------------

TEST(Link, DeliversWithSerializationAndPropagation) {
  sim::Simulator sim;
  // 1 Gbps, 100us propagation.
  Link link(sim, 1'000'000'000ull, sim::microseconds(100));
  sim::Time delivered_at = 0;
  link.connect(1, [&](Packet) { delivered_at = sim.now(); });
  Packet pkt = make_packet(ip("1.1.1.1"), 1, ip("2.2.2.2"), 2, 946);
  // wire = 54 + 946 = 1000 bytes = 8000 bits -> 8us serialization.
  link.send(0, pkt);
  sim.run();
  EXPECT_EQ(delivered_at, sim::microseconds(108));
}

TEST(Link, QueuesBackToBackPackets) {
  sim::Simulator sim;
  Link link(sim, 1'000'000'000ull, 0);
  std::vector<sim::Time> deliveries;
  link.connect(1, [&](Packet) { deliveries.push_back(sim.now()); });
  Packet pkt = make_packet(ip("1.1.1.1"), 1, ip("2.2.2.2"), 2, 946);
  link.send(0, pkt);
  link.send(0, pkt);
  sim.run();
  ASSERT_EQ(deliveries.size(), 2u);
  EXPECT_EQ(deliveries[0], sim::microseconds(8));
  EXPECT_EQ(deliveries[1], sim::microseconds(16));  // serialized behind #1
}

TEST(Link, FullDuplexDirectionsDoNotInterfere) {
  sim::Simulator sim;
  Link link(sim, 1'000'000'000ull, 0);
  std::vector<sim::Time> t0, t1;
  link.connect(0, [&](Packet) { t0.push_back(sim.now()); });
  link.connect(1, [&](Packet) { t1.push_back(sim.now()); });
  Packet pkt = make_packet(ip("1.1.1.1"), 1, ip("2.2.2.2"), 2, 946);
  link.send(0, pkt);
  link.send(1, pkt);
  sim.run();
  ASSERT_EQ(t0.size(), 1u);
  ASSERT_EQ(t1.size(), 1u);
  EXPECT_EQ(t0[0], t1[0]);  // same serialization delay, no contention
}

TEST(Link, DropsWhenDown) {
  sim::Simulator sim;
  Link link(sim, 1'000'000'000ull, 0);
  int got = 0;
  link.connect(1, [&](Packet) { ++got; });
  link.set_down(true);
  link.send(0, make_packet(ip("1.1.1.1"), 1, ip("2.2.2.2"), 2));
  sim.run();
  EXPECT_EQ(got, 0);
  link.set_down(false);
  link.send(0, make_packet(ip("1.1.1.1"), 1, ip("2.2.2.2"), 2));
  sim.run();
  EXPECT_EQ(got, 1);
}

TEST(L2Switch, LearnsAndForwards) {
  sim::Simulator sim;
  L2Switch sw(sim, "sw");
  Link la(sim, 1'000'000'000ull, 0), lb(sim, 1'000'000'000ull, 0),
      lc(sim, 1'000'000'000ull, 0);
  int got_a = 0, got_b = 0, got_c = 0;
  la.connect(0, [&](Packet) { ++got_a; });
  lb.connect(0, [&](Packet) { ++got_b; });
  lc.connect(0, [&](Packet) { ++got_c; });
  sw.attach(la, 1);
  sw.attach(lb, 1);
  sw.attach(lc, 1);

  // A (mac 0xA) sends to B (mac 0xB): unknown -> flood to B and C.
  Packet a_to_b = make_packet(ip("1.1.1.1"), 1, ip("2.2.2.2"), 2);
  a_to_b.eth.src = mac(0xA);
  a_to_b.eth.dst = mac(0xB);
  la.send(0, a_to_b);
  sim.run();
  EXPECT_EQ(got_b, 1);
  EXPECT_EQ(got_c, 1);  // flooded
  EXPECT_EQ(got_a, 0);

  // B replies: A's port is learned -> unicast.
  Packet b_to_a = make_packet(ip("2.2.2.2"), 2, ip("1.1.1.1"), 1);
  b_to_a.eth.src = mac(0xB);
  b_to_a.eth.dst = mac(0xA);
  lb.send(0, b_to_a);
  sim.run();
  EXPECT_EQ(got_a, 1);
  EXPECT_EQ(got_c, 1);  // not flooded again

  // A sends again: B now learned -> no flood to C.
  la.send(0, a_to_b);
  sim.run();
  EXPECT_EQ(got_b, 2);
  EXPECT_EQ(got_c, 1);
}

// --- flow switch (OVS-style) ----------------------------------------------------

TEST(FlowSwitch, ModDstMacSteersToMiddlebox) {
  // Reproduces the paper's Fig. 3 steering primitive: traffic to the
  // egress gateway MAC is rewritten toward the middle-box MAC.
  sim::Simulator sim;
  FlowSwitch sw(sim, "ovs");
  Link l_src(sim, 1'000'000'000ull, 0), l_mb(sim, 1'000'000'000ull, 0),
      l_gw(sim, 1'000'000'000ull, 0);
  int got_mb = 0, got_gw = 0;
  MacAddr mb_mac = mac(0xB1);
  MacAddr gw_mac = mac(0xE1);
  MacAddr last_mb_dst{};
  l_mb.connect(0, [&](Packet p) {
    ++got_mb;
    last_mb_dst = p.eth.dst;
  });
  l_gw.connect(0, [&](Packet) { ++got_gw; });
  sw.attach(l_src, 1);
  int port_mb = sw.attach(l_mb, 1);
  int port_gw = sw.attach(l_gw, 1);

  // Pre-teach MAC table so NORMAL forwarding is deterministic.
  FlowRule teach_mb;
  teach_mb.priority = 0;
  (void)port_mb;
  (void)port_gw;

  FlowRule steer;
  steer.priority = 10;
  steer.match.dst_mac = gw_mac;
  steer.match.src_port = 49152;
  steer.actions = {FlowAction::set_dst_mac(mb_mac),
                   FlowAction::output(port_mb)};
  steer.cookie = 42;
  sw.add_rule(steer);

  Packet pkt = make_packet(ip("10.2.0.1"), 49152, ip("10.2.0.9"), 3260);
  pkt.eth.src = mac(0xA1);
  pkt.eth.dst = gw_mac;
  l_src.send(0, pkt);
  sim.run();
  EXPECT_EQ(got_mb, 1);
  EXPECT_EQ(last_mb_dst, mb_mac) << "dst MAC must be rewritten";
  EXPECT_EQ(got_gw, 0);

  // Non-matching source port falls through to NORMAL (floods, since the
  // gateway MAC was never learned).
  Packet other = make_packet(ip("10.2.0.1"), 50000, ip("10.2.0.9"), 3260);
  other.eth.src = mac(0xA1);
  other.eth.dst = gw_mac;
  l_src.send(0, other);
  sim.run();
  EXPECT_EQ(got_gw, 1);
  EXPECT_EQ(got_mb, 2);  // flooded copy
}

TEST(FlowSwitch, PriorityOrderAndCookieRemoval) {
  sim::Simulator sim;
  FlowSwitch sw(sim, "ovs");
  Link l_in(sim, 1'000'000'000ull, 0), l_a(sim, 1'000'000'000ull, 0),
      l_b(sim, 1'000'000'000ull, 0);
  int got_a = 0, got_b = 0;
  l_a.connect(0, [&](Packet) { ++got_a; });
  l_b.connect(0, [&](Packet) { ++got_b; });
  sw.attach(l_in, 1);
  int pa = sw.attach(l_a, 1);
  int pb = sw.attach(l_b, 1);

  FlowRule low;
  low.priority = 1;
  low.actions = {FlowAction::output(pa)};
  low.cookie = 1;
  FlowRule high;
  high.priority = 5;
  high.actions = {FlowAction::output(pb)};
  high.cookie = 2;
  sw.add_rule(low);
  sw.add_rule(high);

  Packet pkt = make_packet(ip("1.1.1.1"), 1, ip("2.2.2.2"), 2);
  pkt.eth.src = mac(0xA);
  pkt.eth.dst = mac(0xB);
  l_in.send(0, pkt);
  sim.run();
  EXPECT_EQ(got_b, 1);
  EXPECT_EQ(got_a, 0);

  EXPECT_EQ(sw.remove_rules_by_cookie(2), 1u);
  l_in.send(0, pkt);
  sim.run();
  EXPECT_EQ(got_a, 1);
  EXPECT_EQ(got_b, 1);
}

TEST(FlowSwitch, DropActionDiscards) {
  sim::Simulator sim;
  FlowSwitch sw(sim, "ovs");
  Link l_in(sim, 1'000'000'000ull, 0), l_out(sim, 1'000'000'000ull, 0);
  int got = 0;
  l_out.connect(0, [&](Packet) { ++got; });
  sw.attach(l_in, 1);
  sw.attach(l_out, 1);
  FlowRule drop;
  drop.priority = 10;
  drop.match.dst_port = 3260;
  drop.actions = {FlowAction::drop()};
  sw.add_rule(drop);

  Packet pkt = make_packet(ip("1.1.1.1"), 1, ip("2.2.2.2"), 3260);
  pkt.eth.src = mac(0xA);
  pkt.eth.dst = mac(0xB);
  l_in.send(0, pkt);
  sim.run();
  EXPECT_EQ(got, 0);
}

TEST(FlowMatch, FieldsAreAndedWildcardsIgnored) {
  FlowMatch match;
  match.src_ip = ip("10.0.0.1");
  match.dst_port = 3260;
  Packet hit = make_packet(ip("10.0.0.1"), 999, ip("10.0.0.2"), 3260);
  Packet miss1 = make_packet(ip("10.0.0.3"), 999, ip("10.0.0.2"), 3260);
  Packet miss2 = make_packet(ip("10.0.0.1"), 999, ip("10.0.0.2"), 80);
  EXPECT_TRUE(match.matches(0, hit));
  EXPECT_FALSE(match.matches(0, miss1));
  EXPECT_FALSE(match.matches(0, miss2));
}

// --- NAT -------------------------------------------------------------------------

TEST(Nat, DnatRewritesAndConntracksReplies) {
  NatEngine nat;
  NatRule rule;
  rule.match_dst_ip = ip("10.1.0.9");
  rule.match_dst_port = 3260;
  rule.dnat_ip = ip("10.2.0.5");
  nat.add_rule(rule);

  Packet fwd = make_packet(ip("10.1.0.1"), 49152, ip("10.1.0.9"), 3260);
  EXPECT_TRUE(nat.translate(fwd));
  EXPECT_EQ(fwd.ip.dst, ip("10.2.0.5"));
  EXPECT_EQ(fwd.tcp.dst_port, 3260);
  EXPECT_EQ(fwd.ip.src, ip("10.1.0.1"));

  // Reply comes back from the translated destination.
  Packet reply = make_packet(ip("10.2.0.5"), 3260, ip("10.1.0.1"), 49152);
  EXPECT_TRUE(nat.translate(reply));
  EXPECT_EQ(reply.ip.src, ip("10.1.0.9")) << "reply must be un-DNATed";
  EXPECT_EQ(reply.ip.dst, ip("10.1.0.1"));
}

TEST(Nat, SnatAndDnatCombined) {
  // The paper's Fig. 3 host rule: SNAT src -> ovs1_ip, DNAT dst -> ovs2_ip.
  NatEngine nat;
  NatRule rule;
  rule.match_dst_ip = ip("10.1.0.9");
  rule.match_dst_port = 3260;
  rule.snat_ip = ip("10.2.0.11");
  rule.dnat_ip = ip("10.2.0.22");
  nat.add_rule(rule);

  Packet fwd = make_packet(ip("10.1.0.1"), 49152, ip("10.1.0.9"), 3260);
  EXPECT_TRUE(nat.translate(fwd));
  EXPECT_EQ(fwd.ip.src, ip("10.2.0.11"));
  EXPECT_EQ(fwd.ip.dst, ip("10.2.0.22"));
  EXPECT_EQ(fwd.tcp.src_port, 49152) << "port preserved (vm1_port)";

  Packet reply = make_packet(ip("10.2.0.22"), 3260, ip("10.2.0.11"), 49152);
  EXPECT_TRUE(nat.translate(reply));
  EXPECT_EQ(reply.ip.src, ip("10.1.0.9"));
  EXPECT_EQ(reply.ip.dst, ip("10.1.0.1"));
}

TEST(Nat, EstablishedFlowsSurviveRuleRemoval) {
  // The property StorM's atomic volume attachment depends on (§III-A).
  NatEngine nat;
  NatRule rule;
  rule.match_dst_port = 3260;
  rule.dnat_ip = ip("10.2.0.5");
  rule.cookie = 7;
  nat.add_rule(rule);

  Packet first = make_packet(ip("10.1.0.1"), 49152, ip("10.1.0.9"), 3260);
  EXPECT_TRUE(nat.translate(first));

  EXPECT_EQ(nat.remove_rules_by_cookie(7), 1u);
  EXPECT_EQ(nat.rule_count(), 0u);

  Packet next = make_packet(ip("10.1.0.1"), 49152, ip("10.1.0.9"), 3260);
  EXPECT_TRUE(nat.translate(next)) << "conntrack entry must persist";
  EXPECT_EQ(next.ip.dst, ip("10.2.0.5"));

  // A brand-new flow after removal is untouched.
  Packet fresh = make_packet(ip("10.1.0.1"), 50000, ip("10.1.0.9"), 3260);
  EXPECT_FALSE(nat.translate(fresh));
  EXPECT_EQ(fresh.ip.dst, ip("10.1.0.9"));
}

TEST(Nat, FlowOntoAHeldReplyTupleSupersedesTheOldFlow) {
  // Two relays take turns dialing the same target through one SNAT rule
  // (a flow handed off and back): both translate to the same tuple, so
  // the newest flow must own the replies, and a flow that returns must
  // win them back instead of riding its stale entry.
  NatEngine nat;
  NatRule rule;
  rule.match_dst_port = 3260;
  rule.snat_ip = ip("10.1.2.2");
  nat.add_rule(rule);
  const auto dial = [&](const char* relay) {
    Packet syn = make_packet(ip(relay), 40000, ip("10.1.1.1"), 3260);
    nat.translate(syn);
    Packet reply = make_packet(ip("10.1.1.1"), 3260, ip("10.1.2.2"), 40000);
    EXPECT_TRUE(nat.translate(reply));
    return reply.ip.dst;
  };
  EXPECT_EQ(dial("10.2.1.1"), ip("10.2.1.1"));
  EXPECT_EQ(dial("10.2.1.2"), ip("10.2.1.2"));
  EXPECT_EQ(dial("10.2.1.1"), ip("10.2.1.1"));
  EXPECT_EQ(nat.conntrack_size(), 1u);
}

TEST(Nat, FirstMatchingRuleWins) {
  NatEngine nat;
  NatRule r1;
  r1.match_dst_port = 3260;
  r1.dnat_ip = ip("10.2.0.1");
  NatRule r2;
  r2.match_dst_port = 3260;
  r2.dnat_ip = ip("10.2.0.2");
  nat.add_rule(r1);
  nat.add_rule(r2);
  Packet pkt = make_packet(ip("10.1.0.1"), 1, ip("10.1.0.9"), 3260);
  nat.translate(pkt);
  EXPECT_EQ(pkt.ip.dst, ip("10.2.0.1"));
}

TEST(Nat, NoMatchNoTranslation) {
  NatEngine nat;
  Packet pkt = make_packet(ip("10.1.0.1"), 1, ip("10.1.0.9"), 80);
  EXPECT_FALSE(nat.translate(pkt));
  EXPECT_EQ(nat.conntrack_size(), 0u);
}

// --- NetNode forwarding ------------------------------------------------------------

TEST(NetNode, ForwardsAcrossSubnetsWhenEnabled) {
  // a (10.0.0.1) -- gw (10.0.0.254 / 10.1.0.254) -- b (10.1.0.2)
  sim::Simulator sim;
  auto arp = std::make_shared<ArpRegistry>();
  Link l1(sim, 1'000'000'000ull, 0), l2(sim, 1'000'000'000ull, 0);
  NetNode a(sim, "a", arp), gw(sim, "gw", arp), b(sim, "b", arp);
  Subnet s0{ip("10.0.0.0"), 24}, s1{ip("10.1.0.0"), 24};
  a.add_nic(mac(0xA), ip("10.0.0.1"), s0, l1, 0);
  gw.add_nic(mac(0xF0), ip("10.0.0.254"), s0, l1, 1);
  gw.add_nic(mac(0xF1), ip("10.1.0.254"), s1, l2, 0);
  b.add_nic(mac(0xB), ip("10.1.0.2"), s1, l2, 1);
  gw.set_ip_forward(true);
  a.set_default_gateway(ip("10.0.0.254"));
  b.set_default_gateway(ip("10.1.0.254"));

  // A raw packet addressed to b must transit the gateway. b's stack then
  // answers the unknown segment with a RST, which the gateway also
  // forwards — hence two forwarded packets.
  Packet pkt = make_packet(ip("10.0.0.1"), 1234, ip("10.1.0.2"), 80, 10);
  a.send_ip(pkt);
  sim.run();
  EXPECT_EQ(b.packets_received(), 1u);
  EXPECT_EQ(gw.packets_forwarded(), 2u);
}

TEST(NetNode, DropsWhenForwardingDisabled) {
  sim::Simulator sim;
  auto arp = std::make_shared<ArpRegistry>();
  Link l1(sim, 1'000'000'000ull, 0), l2(sim, 1'000'000'000ull, 0);
  NetNode a(sim, "a", arp), gw(sim, "gw", arp), b(sim, "b", arp);
  Subnet s0{ip("10.0.0.0"), 24}, s1{ip("10.1.0.0"), 24};
  a.add_nic(mac(0xA), ip("10.0.0.1"), s0, l1, 0);
  gw.add_nic(mac(0xF0), ip("10.0.0.254"), s0, l1, 1);
  gw.add_nic(mac(0xF1), ip("10.1.0.254"), s1, l2, 0);
  b.add_nic(mac(0xB), ip("10.1.0.2"), s1, l2, 1);
  a.set_default_gateway(ip("10.0.0.254"));

  a.send_ip(make_packet(ip("10.0.0.1"), 1234, ip("10.1.0.2"), 80));
  sim.run();
  EXPECT_EQ(gw.packets_forwarded(), 0u);
  EXPECT_EQ(b.packets_received(), 0u);
}

TEST(NetNode, ForwardHookCanConsumeAndReinject) {
  sim::Simulator sim;
  auto arp = std::make_shared<ArpRegistry>();
  Link l1(sim, 1'000'000'000ull, 0), l2(sim, 1'000'000'000ull, 0);
  NetNode a(sim, "a", arp), mb(sim, "mb", arp), b(sim, "b", arp);
  Subnet s0{ip("10.0.0.0"), 24}, s1{ip("10.1.0.0"), 24};
  a.add_nic(mac(0xA), ip("10.0.0.1"), s0, l1, 0);
  mb.add_nic(mac(0xF0), ip("10.0.0.254"), s0, l1, 1);
  mb.add_nic(mac(0xF1), ip("10.1.0.254"), s1, l2, 0);
  b.add_nic(mac(0xB), ip("10.1.0.2"), s1, l2, 1);
  mb.set_ip_forward(true);
  a.set_default_gateway(ip("10.0.0.254"));

  int hooked = 0;
  mb.set_forward_hook([&](Packet& pkt) {
    ++hooked;
    // Delay reinjection, modeling userspace processing.
    Packet copy = pkt;
    sim.schedule_in(sim::microseconds(100),
              [&mb, copy]() mutable { mb.emit_forward(std::move(copy)); });
    return true;
  });

  a.send_ip(make_packet(ip("10.0.0.1"), 1234, ip("10.1.0.2"), 80));
  sim.run();
  EXPECT_EQ(hooked, 1);
  EXPECT_EQ(b.packets_received(), 1u);
}

TEST(NetNode, DownNodeDropsTraffic) {
  testutil::TwoNodeNet net;
  net.b.set_down(true);
  net.a.send_ip(make_packet(ip("10.0.0.1"), 1, ip("10.0.0.2"), 2));
  net.sim.run();
  EXPECT_EQ(net.b.packets_received(), 0u);
}

TEST(Nat, DetachFlushesConntrackByCookie) {
  // The flip side of EstablishedFlowsSurviveRuleRemoval: a full detach
  // must not leave ghost translations behind, and the flush is scoped by
  // cookie so one tenant's teardown can't break another's live flows.
  NatEngine nat;
  NatRule r7;
  r7.match_dst_port = 3260;
  r7.match_dst_ip = ip("10.1.0.9");
  r7.dnat_ip = ip("10.2.0.5");
  r7.cookie = 7;
  NatRule r8;
  r8.match_dst_port = 3260;
  r8.match_dst_ip = ip("10.1.0.10");
  r8.dnat_ip = ip("10.2.0.6");
  r8.cookie = 8;
  nat.add_rule(r7);
  nat.add_rule(r8);

  Packet f7 = make_packet(ip("10.1.0.1"), 49152, ip("10.1.0.9"), 3260);
  Packet f8 = make_packet(ip("10.1.0.2"), 49152, ip("10.1.0.10"), 3260);
  EXPECT_TRUE(nat.translate(f7));
  EXPECT_TRUE(nat.translate(f8));
  EXPECT_EQ(nat.conntrack_size(), 2u);

  // Detach tenant 7: rule AND its conntrack entries go.
  EXPECT_EQ(nat.remove_rules_by_cookie(7, /*flush_conntrack=*/true), 1u);
  EXPECT_EQ(nat.conntrack_size(), 1u);
  Packet again7 = make_packet(ip("10.1.0.1"), 49152, ip("10.1.0.9"), 3260);
  EXPECT_FALSE(nat.translate(again7)) << "ghost conntrack entry survived";
  EXPECT_EQ(again7.ip.dst, ip("10.1.0.9"));

  // Tenant 8's established flow is untouched by 7's flush — and still
  // survives its own rule removal (atomic-attachment semantics).
  EXPECT_EQ(nat.remove_rules_by_cookie(8), 1u);
  Packet again8 = make_packet(ip("10.1.0.2"), 49152, ip("10.1.0.10"), 3260);
  EXPECT_TRUE(nat.translate(again8));
  EXPECT_EQ(again8.ip.dst, ip("10.2.0.6"));

  // A later explicit flush clears the remaining flow.
  EXPECT_EQ(nat.flush_conntrack_by_cookie(8), 1u);
  EXPECT_EQ(nat.conntrack_size(), 0u);
}

// --- TokenBucket (tenant QoS) ------------------------------------------------------

TEST(TokenBucket, BurstPassesImmediatelyThenPacesToRate) {
  sim::Simulator sim;
  TokenBucket bucket(sim, 1'000'000, 10'000);  // 1 MB/s, 10 KB burst
  int released = 0;
  for (int i = 0; i < 100; ++i) {
    bucket.admit(10'000, [&] { ++released; });
  }
  EXPECT_GE(released, 1) << "burst credit admits synchronously";
  EXPECT_LT(released, 100);
  EXPECT_GT(bucket.queued_bytes(), 0u);
  sim.run();
  EXPECT_EQ(released, 100) << "pacing delays, never drops";
  EXPECT_TRUE(bucket.idle());
  EXPECT_EQ(bucket.admitted_bytes(), 1'000'000u);
  EXPECT_GT(bucket.throttled_bytes(), 0u);
  // 1 MB minus the burst at 1 MB/s: ~0.99 s, not line rate.
  EXPECT_NEAR(sim::to_seconds(sim.now()), 0.99, 0.05);
}

TEST(TokenBucket, OversizedPacketBorrowsAgainstFutureCredit) {
  // Deficit model: a packet larger than the whole burst is admitted with
  // a negative balance (never deadlocked), and the debt is repaid before
  // anything else passes.
  sim::Simulator sim;
  TokenBucket bucket(sim, 1'000'000, 1'000);
  bool big = false, small = false;
  bucket.admit(5'000, [&] { big = true; });
  EXPECT_TRUE(big);
  bucket.admit(1'000, [&] { small = true; });
  EXPECT_FALSE(small) << "queued behind the deficit";
  sim.run();
  EXPECT_TRUE(small);
  EXPECT_NEAR(sim::to_seconds(sim.now()), 0.004, 0.001)
      << "released once the 4 KB debt is repaid";

  // Unconfigured bucket (rate 0) is a pass-through.
  TokenBucket open(sim, 0, 0);
  bool passed = false;
  open.admit(1'000'000, [&] { passed = true; });
  EXPECT_TRUE(passed);
}

TEST(TokenBucket, SetRateRepricesQueuedBacklogWithoutDropping) {
  // Regression for the autoscaler's in-place re-pricing: a backlog
  // queued under the old rate must drain at the new rate — FIFO, nothing
  // dropped, nothing double-admitted.
  sim::Simulator sim;
  TokenBucket bucket(sim, 1'000'000, 10'000);  // 1 MB/s, 10 KB burst
  int released = 0;
  for (int i = 0; i < 30; ++i) {
    bucket.admit(10'000, [&] { ++released; });
  }
  ASSERT_LT(released, 30);
  ASSERT_GT(bucket.queued_bytes(), 0u);

  // Capacity doubles mid-drain (a second replica came online).
  bucket.set_rate(2'000'000, 20'000);
  EXPECT_EQ(bucket.rate_bytes_per_sec(), 2'000'000u);
  EXPECT_EQ(bucket.burst_bytes(), 20'000u);
  sim.run();
  EXPECT_EQ(released, 30) << "re-pricing must not drop queued traffic";
  EXPECT_TRUE(bucket.idle());
  EXPECT_EQ(bucket.admitted_bytes(), 300'000u);
  // 300 KB at the old rate alone takes ~290 ms past the burst; the
  // doubled rate must finish measurably sooner, but not at line rate.
  EXPECT_LT(sim::to_seconds(sim.now()), 0.29);
  EXPECT_GT(sim::to_seconds(sim.now()), 0.10);
}

TEST(TokenBucket, SetRateClampsBankedCreditToTheNewBurst) {
  // Regression: tokens banked under a large old burst must be clamped
  // when the cap shrinks — otherwise the first packets after a
  // scale-down are admitted against credit the new configuration never
  // granted.
  sim::Simulator sim;
  TokenBucket bucket(sim, 1'000'000, 100'000);  // starts full at 100 KB
  bucket.set_rate(1'000'000, 10'000);
  EXPECT_EQ(bucket.burst_bytes(), 10'000u);

  // 20 KB against the clamped 10 KB balance leaves a 10 KB debt, so the
  // next packet queues. Without the clamp the stale 100 KB bank would
  // cover both instantly.
  int released = 0;
  bucket.admit(20'000, [&] { ++released; });
  bucket.admit(10'000, [&] { ++released; });
  EXPECT_EQ(released, 1)
      << "banked credit above the new burst must not leak through";
  sim.run();
  EXPECT_EQ(released, 2);
  // The queued packet waited for the 10 KB debt to refill at 1 MB/s.
  EXPECT_NEAR(sim::to_seconds(sim.now()), 0.01, 0.002);
}

TEST(TokenBucket, SetRateReschedulesPendingDrainAtTheNewRate) {
  // A drain scheduled under a slow rate has a far-future ETA; raising
  // the rate must re-derive it, not leave the queue waiting on the old
  // clock.
  sim::Simulator sim;
  TokenBucket bucket(sim, 10'000, 1'000);  // 10 KB/s: glacial
  int released = 0;
  bucket.admit(2'000, [&] { ++released; });   // burns into a 1 KB debt
  bucket.admit(10'000, [&] { ++released; });  // ~0.1 s away at 10 KB/s
  ASSERT_EQ(released, 1);

  bucket.set_rate(10'000'000);  // 10 MB/s, burst unchanged
  EXPECT_EQ(bucket.burst_bytes(), 1'000u) << "zero burst keeps the cap";
  sim.run();
  EXPECT_EQ(released, 2);
  EXPECT_LT(sim::to_seconds(sim.now()), 0.01)
      << "pending drain must be repriced at the new rate";
}

TEST(NetNode, PerPacketCostDelaysDelivery) {
  sim::Simulator sim;
  auto arp = std::make_shared<ArpRegistry>();
  Link link(sim, 1'000'000'000ull, 0);
  NetNode a(sim, "a", arp), b(sim, "b", arp);
  Subnet subnet{ip("10.0.0.0"), 24};
  a.add_nic(mac(0xA), ip("10.0.0.1"), subnet, link, 0);
  b.add_nic(mac(0xB), ip("10.0.0.2"), subnet, link, 1);
  sim::Cpu cpu(sim, "bcpu", 1);
  b.set_packet_processing(&cpu, sim::microseconds(50), 0.0);

  a.send_ip(make_packet(ip("10.0.0.1"), 1, ip("10.0.0.2"), 2, 0));
  sim.run();
  // b charges 50us to receive the segment and 50us to transmit the RST
  // its stack generates for the unknown connection.
  EXPECT_EQ(cpu.busy_time(), sim::microseconds(100));
}

}  // namespace
}  // namespace storm::net
