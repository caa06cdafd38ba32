#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "net/node.hpp"
#include "net/tcp.hpp"
#include "obs/registry.hpp"
#include "testutil.hpp"

namespace storm::net {
namespace {

using testutil::ip;
using testutil::TwoNodeNet;

TEST(Tcp, HandshakeEstablishesBothSides) {
  TwoNodeNet net;
  bool server_accepted = false, client_established = false;
  TcpConnection* server_conn = nullptr;
  net.b.tcp().listen(3260, [&](TcpConnection& conn) {
    server_accepted = true;
    server_conn = &conn;
  });
  TcpConnection& client = net.a.tcp().connect(
      SocketAddr{ip("10.0.0.2"), 3260}, [&] { client_established = true; });
  net.sim.run();
  EXPECT_TRUE(client_established);
  EXPECT_TRUE(server_accepted);
  ASSERT_NE(server_conn, nullptr);
  EXPECT_EQ(client.state(), TcpConnection::State::kEstablished);
  EXPECT_EQ(server_conn->state(), TcpConnection::State::kEstablished);
  EXPECT_EQ(server_conn->remote().port, client.local().port);
}

TEST(Tcp, SynToClosedPortGetsRst) {
  TwoNodeNet net;
  bool established = false;
  TcpConnection& client = net.a.tcp().connect(
      SocketAddr{ip("10.0.0.2"), 9999}, [&] { established = true; });
  Status closed_status = Status::ok();
  bool closed = false;
  client.set_on_closed([&](Status s) {
    closed = true;
    closed_status = s;
  });
  net.sim.run();
  EXPECT_FALSE(established);
  EXPECT_TRUE(closed);
  EXPECT_EQ(closed_status.code(), ErrorCode::kConnectionFailed);
}

TEST(Tcp, TransfersDataBothWays) {
  TwoNodeNet net;
  Bytes server_got, client_got;
  net.b.tcp().listen(80, [&](TcpConnection& conn) {
    conn.set_on_data([&server_got, &conn](Buf data) {
      server_got.insert(server_got.end(), data.begin(), data.end());
      conn.send(to_bytes("pong"));
    });
  });
  TcpConnection& client =
      net.a.tcp().connect(SocketAddr{ip("10.0.0.2"), 80}, [] {});
  client.set_on_data([&](Buf data) {
    client_got.insert(client_got.end(), data.begin(), data.end());
  });
  client.send(to_bytes("ping"));
  net.sim.run();
  EXPECT_EQ(std::string(server_got.begin(), server_got.end()), "ping");
  EXPECT_EQ(std::string(client_got.begin(), client_got.end()), "pong");
}

TEST(Tcp, LargeTransferPreservesBytes) {
  TwoNodeNet net;
  const Bytes payload = testutil::pattern_bytes(1'000'000);
  Bytes received;
  net.b.tcp().listen(80, [&](TcpConnection& conn) {
    conn.set_on_data([&](Buf data) {
      received.insert(received.end(), data.begin(), data.end());
    });
  });
  TcpConnection& client =
      net.a.tcp().connect(SocketAddr{ip("10.0.0.2"), 80}, [] {});
  client.send(payload);
  net.sim.run();
  ASSERT_EQ(received.size(), payload.size());
  EXPECT_TRUE(testutil::same_bytes(received, payload));
}

// Every ACK that advances snd_una cancels and re-arms the 200 ms
// retransmission timer, so a 4 MiB transfer disarms thousands of timers
// long before they are due. Cancelling removes the event at once, so the
// queue holds only live events: about one link delivery per segment in
// the 64 KiB window plus the timer. The peak measures 46; with cancelled
// timers left queued until due it was 2,883 and grew with the transfer.
TEST(Tcp, CancelledRetransmitTimersLeaveTheQueue) {
  TwoNodeNet net;
  const Bytes payload = testutil::pattern_bytes(4 << 20);
  std::size_t received = 0;
  net.b.tcp().listen(80, [&](TcpConnection& conn) {
    conn.set_on_data([&](Buf data) { received += data.size(); });
  });
  TcpConnection& client =
      net.a.tcp().connect(SocketAddr{ip("10.0.0.2"), 80}, [] {});
  client.send(payload);
  std::size_t peak = 0;
  while (received < payload.size() && net.sim.now() < sim::seconds(1)) {
    net.sim.run_until(net.sim.now() + sim::microseconds(100));
    peak = std::max(peak, net.sim.pending());
  }
  ASSERT_EQ(received, payload.size());
  EXPECT_LE(peak, 64u);
}

TEST(Tcp, SendBeforeEstablishedIsBuffered) {
  TwoNodeNet net;
  Bytes received;
  net.b.tcp().listen(80, [&](TcpConnection& conn) {
    conn.set_on_data([&](Buf data) {
      received.insert(received.end(), data.begin(), data.end());
    });
  });
  TcpConnection& client =
      net.a.tcp().connect(SocketAddr{ip("10.0.0.2"), 80}, [] {});
  client.send(to_bytes("early"));  // handshake not done yet
  net.sim.run();
  EXPECT_EQ(std::string(received.begin(), received.end()), "early");
}

TEST(Tcp, WindowLimitsInFlightBytes) {
  // With a 64 KB window and 1 ms RTT, a 1 MB transfer cannot finish faster
  // than ~16 round trips. Throughput must be window-bound, not line-rate.
  TwoNodeNet net(1'000'000'000ull, sim::microseconds(500));  // 1ms RTT
  const std::size_t total = 1'000'000;
  Bytes received;
  net.b.tcp().listen(80, [&](TcpConnection& conn) {
    conn.set_on_data([&](Buf data) {
      received.insert(received.end(), data.begin(), data.end());
    });
  });
  TcpConnection& client =
      net.a.tcp().connect(SocketAddr{ip("10.0.0.2"), 80}, [] {});
  client.send(testutil::pattern_bytes(total));
  net.sim.run();
  ASSERT_EQ(received.size(), total);
  double elapsed = sim::to_seconds(net.sim.now());
  double min_round_trips = static_cast<double>(total) / kDefaultWindow;
  EXPECT_GT(elapsed, min_round_trips * 0.001 * 0.9)
      << "transfer finished faster than the window bound allows";
}

TEST(Tcp, BiggerWindowIsFaster) {
  auto run_with_window = [](std::uint32_t window) {
    TwoNodeNet net(1'000'000'000ull, sim::microseconds(500));
    net.a.tcp().set_default_window(window);
    net.b.tcp().set_default_window(window);
    std::size_t received = 0;
    net.b.tcp().listen(80, [&](TcpConnection& conn) {
      conn.set_on_data([&](Buf data) { received += data.size(); });
    });
    TcpConnection& client =
        net.a.tcp().connect(SocketAddr{ip("10.0.0.2"), 80}, [] {});
    client.send(testutil::pattern_bytes(2'000'000));
    net.sim.run();
    EXPECT_EQ(received, 2'000'000u);
    return net.sim.now();
  };
  auto slow = run_with_window(16 * 1024);
  auto fast = run_with_window(256 * 1024);
  EXPECT_LT(fast, slow / 2);
}

TEST(Tcp, AdvertisedWindowCapsSender) {
  // Server advertises a small window; client caps in-flight accordingly
  // even though its own cap is large.
  TwoNodeNet net(1'000'000'000ull, sim::microseconds(500));
  net.b.tcp().set_default_window(8 * 1024);    // receiver advertises 8 KB
  net.a.tcp().set_default_window(1024 * 1024); // sender cap huge
  std::size_t received = 0;
  net.b.tcp().listen(80, [&](TcpConnection& conn) {
    conn.set_on_data([&](Buf data) { received += data.size(); });
  });
  TcpConnection& client =
      net.a.tcp().connect(SocketAddr{ip("10.0.0.2"), 80}, [] {});
  client.send(testutil::pattern_bytes(200'000));
  // Sample in-flight bytes during the transfer.
  std::uint64_t max_unacked = 0;
  for (int t = 1; t < 400; ++t) {
    net.sim.run_until(sim::milliseconds(static_cast<std::uint64_t>(t)));
    max_unacked = std::max(max_unacked, client.unacked());
  }
  net.sim.run();
  EXPECT_EQ(received, 200'000u);
  EXPECT_LE(max_unacked, 8u * 1024u + kTcpMss);
}

TEST(Tcp, GracefulCloseDeliversFinAfterData) {
  TwoNodeNet net;
  Bytes received;
  bool server_closed = false;
  Status server_status = error(ErrorCode::kIoError, "unset");
  net.b.tcp().listen(80, [&](TcpConnection& conn) {
    conn.set_on_data([&](Buf data) {
      received.insert(received.end(), data.begin(), data.end());
    });
    conn.set_on_closed([&](Status s) {
      server_closed = true;
      server_status = s;
    });
  });
  TcpConnection& client =
      net.a.tcp().connect(SocketAddr{ip("10.0.0.2"), 80}, [] {});
  client.send(testutil::pattern_bytes(100'000));
  client.close();
  net.sim.run();
  EXPECT_EQ(received.size(), 100'000u);
  EXPECT_TRUE(server_closed);
  EXPECT_TRUE(server_status.is_ok()) << server_status.to_string();
  EXPECT_EQ(client.state(), TcpConnection::State::kClosed);
}

TEST(Tcp, AbortSendsRstToPeer) {
  TwoNodeNet net;
  TcpConnection* server_conn = nullptr;
  bool server_closed = false;
  Status server_status = Status::ok();
  net.b.tcp().listen(80, [&](TcpConnection& conn) {
    server_conn = &conn;
    conn.set_on_closed([&](Status s) {
      server_closed = true;
      server_status = s;
    });
  });
  TcpConnection& client =
      net.a.tcp().connect(SocketAddr{ip("10.0.0.2"), 80}, [] {});
  net.sim.run();
  ASSERT_NE(server_conn, nullptr);
  client.abort();
  net.sim.run();
  EXPECT_TRUE(server_closed);
  EXPECT_EQ(server_status.code(), ErrorCode::kConnectionFailed);
}

TEST(Tcp, SendAfterCloseIsIgnored) {
  TwoNodeNet net;
  Bytes received;
  net.b.tcp().listen(80, [&](TcpConnection& conn) {
    conn.set_on_data([&](Buf data) {
      received.insert(received.end(), data.begin(), data.end());
    });
  });
  TcpConnection& client =
      net.a.tcp().connect(SocketAddr{ip("10.0.0.2"), 80}, [] {});
  client.send(to_bytes("ok"));
  client.close();
  client.send(to_bytes("dropped"));
  net.sim.run();
  EXPECT_EQ(std::string(received.begin(), received.end()), "ok");
}

TEST(Tcp, ManyConcurrentConnections) {
  TwoNodeNet net;
  int accepted = 0;
  std::size_t total_received = 0;
  net.b.tcp().listen(80, [&](TcpConnection& conn) {
    ++accepted;
    conn.set_on_data([&](Buf data) { total_received += data.size(); });
  });
  constexpr int kConns = 20;
  for (int i = 0; i < kConns; ++i) {
    TcpConnection& c =
        net.a.tcp().connect(SocketAddr{ip("10.0.0.2"), 80}, [] {});
    c.send(testutil::pattern_bytes(1000, static_cast<std::uint8_t>(i + 1)));
  }
  net.sim.run();
  EXPECT_EQ(accepted, kConns);
  EXPECT_EQ(total_received, static_cast<std::size_t>(kConns) * 1000u);
}

TEST(Tcp, ExhaustedRetryBudgetClosesTheConnectionWithAnError) {
  // A peer that goes silent is only ever reported by the close: every
  // retransmission times out until the retry budget is gone, then the
  // connection fails with kConnectionFailed, once.
  TwoNodeNet net;
  net.b.tcp().listen(80, [](TcpConnection&) {});
  TcpConnection& client =
      net.a.tcp().connect(SocketAddr{ip("10.0.0.2"), 80}, [] {});
  std::vector<Status> closes;
  client.set_on_closed([&](Status s) { closes.push_back(s); });
  net.sim.run();
  ASSERT_EQ(client.state(), TcpConnection::State::kEstablished);
  ASSERT_TRUE(closes.empty());

  net.b.set_down(true);
  client.send(testutil::pattern_bytes(1000));
  net.sim.run();

  ASSERT_EQ(closes.size(), 1u);
  EXPECT_EQ(closes[0].code(), ErrorCode::kConnectionFailed);
  EXPECT_EQ(client.retransmits(), kTcpMaxRetries);
  EXPECT_EQ(client.state(), TcpConnection::State::kClosed);
}

TEST(Tcp, ZeroWindowStallProbesAndReopensOnConsume) {
  // Credit-based receiver that never consumes: the advertised window
  // closes after one window's worth of data, the sender enters
  // zero-window persist (counted once, probing on a backed-off timer),
  // and an explicit consume() reopens the window and completes the
  // transfer with the stream intact.
  TwoNodeNet net;
  net.b.tcp().set_default_window(8 * 1024);
  const Bytes payload = testutil::pattern_bytes(32 * 1024);
  Bytes got;
  TcpConnection* server_conn = nullptr;
  net.b.tcp().listen(80, [&](TcpConnection& conn) {
    server_conn = &conn;
    conn.set_credit_based(true);
    conn.set_on_data([&](Buf data) {
      got.insert(got.end(), data.begin(), data.end());
    });
  });
  TcpConnection& client =
      net.a.tcp().connect(SocketAddr{ip("10.0.0.2"), 80}, [] {});
  client.send(payload);
  net.sim.run_until(sim::milliseconds(900));

  ASSERT_NE(server_conn, nullptr);
  EXPECT_EQ(got.size(), 8u * 1024u) << "delivery must stop at the window";
  EXPECT_EQ(server_conn->recv_buffered(), 8u * 1024u);
  EXPECT_EQ(server_conn->advertised_window(), 0u);
  EXPECT_EQ(client.send_backlog(), 24u * 1024u);
  EXPECT_EQ(net.a.tcp().window_stalls(), 1u) << "one stall episode";
  EXPECT_GE(client.zero_window_probes(), 1u);
  EXPECT_LE(client.zero_window_probes(), 3u) << "probes must back off";
  EXPECT_EQ(net.sim.telemetry().counter("tcp.window_stalls").value(), 1u);
  EXPECT_GE(net.sim.telemetry().counter("tcp.zero_window_probes").value(),
            1u);

  // Release the credit: the window-update ACK restarts the sender even
  // though it has nothing in flight to clock an ACK back.
  server_conn->set_credit_based(false);
  server_conn->consume(server_conn->recv_buffered());
  net.sim.run();
  ASSERT_EQ(got.size(), payload.size());
  EXPECT_EQ(got, payload) << "probe bytes must not corrupt the stream";
  EXPECT_EQ(client.bytes_acked(), payload.size());
  EXPECT_EQ(client.state(), TcpConnection::State::kEstablished)
      << "a flow-controlled peer is alive, not dead";
}

TEST(Tcp, ReceiverDropsBytesBeyondAdvertisedWindowEdge) {
  // A sender that ignores flow control cannot overrun the receive
  // buffer: in-order payload past the advertised right edge is trimmed
  // un-ACKed and counted, never buffered.
  TwoNodeNet net;
  net.b.tcp().set_default_window(2048);
  Bytes got;
  TcpConnection* server_conn = nullptr;
  net.b.tcp().listen(80, [&](TcpConnection& conn) {
    server_conn = &conn;
    conn.set_credit_based(true);
    conn.set_on_data([&](Buf data) {
      got.insert(got.end(), data.begin(), data.end());
    });
  });
  TcpConnection& client =
      net.a.tcp().connect(SocketAddr{ip("10.0.0.2"), 80}, [] {});
  net.sim.run();
  ASSERT_NE(server_conn, nullptr);

  // Forge one in-order segment far larger than the 2 KiB window the
  // server ever advertised (a well-behaved stack cannot emit this).
  Packet pkt;
  pkt.ip.src = ip("10.0.0.1");
  pkt.ip.dst = ip("10.0.0.2");
  pkt.tcp.src_port = client.local().port;
  pkt.tcp.dst_port = 80;
  pkt.tcp.seq = 1;  // first payload byte after the SYN
  pkt.tcp.ack = 1;
  pkt.tcp.flags = kTcpAck;
  pkt.tcp.window = kDefaultWindow;
  pkt.payload = Buf(testutil::pattern_bytes(5000));
  pkt.tcp.checksum = tcp_checksum(pkt);
  net.a.send_ip(pkt);
  net.sim.run();

  EXPECT_EQ(got.size(), 2048u) << "only the advertised window is accepted";
  EXPECT_EQ(server_conn->bytes_received(), 2048u);
  EXPECT_EQ(server_conn->recv_buffered(), 2048u);
  EXPECT_EQ(server_conn->advertised_window(), 0u);
  EXPECT_EQ(net.b.tcp().window_overrun_drops(), 5000u - 2048u);
  EXPECT_EQ(
      net.sim.telemetry().counter("tcp.window_overrun_drops").value(),
      5000u - 2048u);
  EXPECT_EQ(client.state(), TcpConnection::State::kEstablished)
      << "the clamped ACK must not desync the real sender";

  // Releasing the credit reopens exactly the configured window.
  server_conn->consume(2048);
  EXPECT_EQ(server_conn->advertised_window(), 2048u);
}

TEST(Tcp, PendingRxIsBoundedByReceiveWindow) {
  // No data sink registered: arrivals park in pending_rx_, which the
  // window bounds — the sender stalls instead of growing the buffer.
  TwoNodeNet net;
  net.b.tcp().set_default_window(4096);
  const Bytes payload = testutil::pattern_bytes(16 * 1024);
  TcpConnection* server_conn = nullptr;
  net.b.tcp().listen(80,
                     [&](TcpConnection& conn) { server_conn = &conn; });
  TcpConnection& client =
      net.a.tcp().connect(SocketAddr{ip("10.0.0.2"), 80}, [] {});
  client.send(payload);
  net.sim.run_until(sim::milliseconds(500));

  ASSERT_NE(server_conn, nullptr);
  EXPECT_EQ(server_conn->bytes_received(), 4096u)
      << "pending_rx_ must stop growing at the window";
  EXPECT_EQ(server_conn->recv_buffered(), 4096u);
  EXPECT_EQ(server_conn->advertised_window(), 0u);
  EXPECT_GE(net.a.tcp().window_stalls(), 1u);

  // Registering the sink flushes and (auto-consume) reopens the window.
  Bytes got;
  server_conn->set_on_data([&](Buf data) {
    got.insert(got.end(), data.begin(), data.end());
  });
  net.sim.run();
  ASSERT_EQ(got.size(), payload.size());
  EXPECT_EQ(got, payload);
  EXPECT_EQ(server_conn->recv_buffered(), 0u);
}

TEST(Tcp, LastConnectPortIsExposed) {
  // StorM's connection attribution reads this (modified iSCSI login).
  TwoNodeNet net;
  net.b.tcp().listen(3260, [](TcpConnection&) {});
  TcpConnection& c =
      net.a.tcp().connect(SocketAddr{ip("10.0.0.2"), 3260}, [] {});
  EXPECT_EQ(net.a.tcp().last_connect_port(), c.local().port);
}

}  // namespace
}  // namespace storm::net
