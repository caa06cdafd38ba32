// Packet model: Ethernet/IPv4/TCP headers plus a real payload. The fabric
// passes structured packets; they never take a wire form, and the modeled
// wire size is the canonical header sizes plus the payload.
#pragma once

#include <cstdint>
#include <string>

#include "common/buf.hpp"
#include "common/bytes.hpp"
#include "net/addr.hpp"

namespace storm::net {

enum class EtherType : std::uint16_t { kIpv4 = 0x0800 };

struct EthernetHeader {
  MacAddr dst;
  MacAddr src;
  EtherType type = EtherType::kIpv4;

  static constexpr std::size_t kWireSize = 14;
};

enum class IpProto : std::uint8_t { kTcp = 6 };

struct Ipv4Header {
  Ipv4Addr src;
  Ipv4Addr dst;
  IpProto proto = IpProto::kTcp;
  std::uint8_t ttl = 64;

  static constexpr std::size_t kWireSize = 20;
};

// TCP flags (combinable).
inline constexpr std::uint8_t kTcpFin = 0x01;
inline constexpr std::uint8_t kTcpSyn = 0x02;
inline constexpr std::uint8_t kTcpRst = 0x04;
inline constexpr std::uint8_t kTcpAck = 0x10;

struct TcpHeader {
  std::uint16_t src_port = 0;
  std::uint16_t dst_port = 0;
  // seq/ack are 64-bit in this simulation so multi-gigabyte benchmark
  // transfers need no 32-bit wraparound logic. The *modeled* wire size
  // stays at the canonical 20 bytes.
  std::uint64_t seq = 0;
  std::uint64_t ack = 0;
  std::uint8_t flags = 0;
  std::uint32_t window = 0;  // receive window in bytes (no scaling games)
  // Segment checksum (CRC-based, see tcp_checksum). Covers only fields NAT
  // never rewrites — seq/ack/flags/window/payload — so address and port
  // translation doesn't have to recompute it (and therefore can't mask
  // in-flight corruption).
  std::uint32_t checksum = 0;

  static constexpr std::size_t kWireSize = 20;
};

struct Packet {
  EthernetHeader eth;
  Ipv4Header ip;
  TcpHeader tcp;
  // Refcounted view: copying a Packet (switch flood, link duplication,
  // retransmit queues) shares the payload bytes instead of cloning them.
  Buf payload;

  std::size_t wire_size() const {
    return EthernetHeader::kWireSize + Ipv4Header::kWireSize +
           TcpHeader::kWireSize + payload.size();
  }

  FourTuple four_tuple() const {
    return FourTuple{{ip.src, tcp.src_port}, {ip.dst, tcp.dst_port}};
  }

  std::string summary() const;
};

/// Checksum over the NAT-invariant TCP fields (seq, ack, flags, window)
/// and the payload. Computed by TcpStack::transmit, validated on receive;
/// any middle-box that rewrites the payload must recompute it.
std::uint32_t tcp_checksum(const Packet& pkt);

}  // namespace storm::net
