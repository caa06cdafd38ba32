#include "net/addr.hpp"

#include <cstdio>
#include <stdexcept>

namespace storm::net {

std::string to_string(MacAddr mac) {
  char buf[18];
  std::snprintf(buf, sizeof(buf), "%02x:%02x:%02x:%02x:%02x:%02x",
                static_cast<unsigned>((mac.value >> 40) & 0xFF),
                static_cast<unsigned>((mac.value >> 32) & 0xFF),
                static_cast<unsigned>((mac.value >> 24) & 0xFF),
                static_cast<unsigned>((mac.value >> 16) & 0xFF),
                static_cast<unsigned>((mac.value >> 8) & 0xFF),
                static_cast<unsigned>(mac.value & 0xFF));
  return buf;
}

Ipv4Addr Ipv4Addr::from_string(const std::string& dotted) {
  unsigned a = 0, b = 0, c = 0, d = 0;
  if (std::sscanf(dotted.c_str(), "%u.%u.%u.%u", &a, &b, &c, &d) != 4 ||
      a > 255 || b > 255 || c > 255 || d > 255) {
    throw std::invalid_argument("bad IPv4 literal: " + dotted);
  }
  return Ipv4Addr{(a << 24) | (b << 16) | (c << 8) | d};
}

std::string to_string(Ipv4Addr ip) {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "%u.%u.%u.%u", (ip.value >> 24) & 0xFF,
                (ip.value >> 16) & 0xFF, (ip.value >> 8) & 0xFF,
                ip.value & 0xFF);
  return buf;
}

}  // namespace storm::net
