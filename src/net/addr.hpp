// L2/L3 addressing primitives for the simulated fabrics.
#pragma once

#include <cstdint>
#include <string>

namespace storm::net {

/// 48-bit Ethernet MAC address stored in the low bits of a u64.
struct MacAddr {
  std::uint64_t value = 0;

  static constexpr MacAddr broadcast() { return {0xFFFFFFFFFFFFull}; }

  bool is_broadcast() const { return value == 0xFFFFFFFFFFFFull; }
  auto operator<=>(const MacAddr&) const = default;
};

std::string to_string(MacAddr mac);

/// IPv4 address in host byte order.
struct Ipv4Addr {
  std::uint32_t value = 0;

  static Ipv4Addr from_string(const std::string& dotted);
  auto operator<=>(const Ipv4Addr&) const = default;
};

std::string to_string(Ipv4Addr ip);

/// CIDR subnet, e.g. {10.1.0.0, 16}.
struct Subnet {
  Ipv4Addr network;
  int prefix_len = 24;

  bool contains(Ipv4Addr ip) const {
    if (prefix_len <= 0) return true;
    std::uint32_t mask = prefix_len >= 32
                             ? 0xFFFFFFFFu
                             : ~((1u << (32 - prefix_len)) - 1);
    return (ip.value & mask) == (network.value & mask);
  }
};

/// TCP/UDP endpoint.
struct SocketAddr {
  Ipv4Addr ip;
  std::uint16_t port = 0;

  auto operator<=>(const SocketAddr&) const = default;
};

/// Connection 4-tuple as used by NAT conntrack and connection attribution.
struct FourTuple {
  SocketAddr src;
  SocketAddr dst;

  auto operator<=>(const FourTuple&) const = default;
};

}  // namespace storm::net
