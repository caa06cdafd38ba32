#include "net/packet.hpp"

#include <sstream>

#include "common/hash.hpp"

namespace storm::net {

std::uint32_t tcp_checksum(const Packet& pkt) {
  std::uint64_t h = 0x9E3779B97F4A7C15ull;
  auto mix = [&h](std::uint64_t v) {
    h ^= v;
    h *= 0x100000001B3ull;
    h ^= h >> 32;
  };
  mix(pkt.tcp.seq);
  mix(pkt.tcp.ack);
  mix(pkt.tcp.flags);
  mix(pkt.tcp.window);
  mix(pkt.payload.size());
  if (!pkt.payload.empty()) mix(crc32(pkt.payload));
  return static_cast<std::uint32_t>(h ^ (h >> 32));
}

std::string Packet::summary() const {
  std::ostringstream out;
  out << to_string(ip.src) << ":" << tcp.src_port << " -> "
      << to_string(ip.dst) << ":" << tcp.dst_port << " [";
  if (tcp.flags & kTcpSyn) out << "S";
  if (tcp.flags & kTcpFin) out << "F";
  if (tcp.flags & kTcpRst) out << "R";
  if (tcp.flags & kTcpAck) out << ".";
  out << "] seq=" << tcp.seq << " ack=" << tcp.ack
      << " len=" << payload.size();
  return out.str();
}

}  // namespace storm::net
