// Shared helpers for building small simulated topologies in tests.
#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/bytes.hpp"
#include "net/link.hpp"
#include "net/node.hpp"
#include "net/tcp.hpp"
#include "sim/simulator.hpp"

namespace storm::testutil {

inline net::MacAddr mac(std::uint64_t n) { return net::MacAddr{n}; }

inline net::Ipv4Addr ip(const std::string& dotted) {
  return net::Ipv4Addr::from_string(dotted);
}

inline Bytes pattern_bytes(std::size_t n, std::uint8_t seed = 1) {
  Bytes out(n);
  std::uint8_t v = seed;
  for (auto& b : out) {
    b = v;
    v = static_cast<std::uint8_t>(v * 31 + 7);
  }
  return out;
}

/// Byte-for-byte equality that, on a mismatch, reports the two sizes and
/// the first differing offset instead of dumping both buffers:
///   EXPECT_TRUE(testutil::same_bytes(got, want));
inline ::testing::AssertionResult same_bytes(
    std::span<const std::uint8_t> got, std::span<const std::uint8_t> want) {
  const auto [g, w] = std::mismatch(got.begin(), got.end(), want.begin(),
                                    want.end());
  if (g == got.end() && w == want.end()) {
    return ::testing::AssertionSuccess();
  }
  auto failure = ::testing::AssertionFailure();
  failure << "got " << got.size() << " bytes, want " << want.size()
          << "; first difference at offset " << (g - got.begin());
  if (g != got.end() && w != want.end()) {
    failure << " (got 0x" << to_hex({&*g, 1}) << ", want 0x"
            << to_hex({&*w, 1}) << ")";
  }
  return failure;
}

/// Two nodes on one subnet joined by a single full-duplex link.
struct TwoNodeNet {
  sim::Simulator sim;
  std::shared_ptr<net::ArpRegistry> arp = std::make_shared<net::ArpRegistry>();
  net::Link link;
  net::NetNode a;
  net::NetNode b;

  explicit TwoNodeNet(std::uint64_t bps = 1'000'000'000ull,
                      sim::Duration delay = sim::microseconds(50))
      : link(sim, bps, delay),
        a(sim, "a", arp),
        b(sim, "b", arp) {
    net::Subnet subnet{ip("10.0.0.0"), 24};
    a.add_nic(mac(0xA), ip("10.0.0.1"), subnet, link, 0);
    b.add_nic(mac(0xB), ip("10.0.0.2"), subnet, link, 1);
  }
};

}  // namespace storm::testutil
