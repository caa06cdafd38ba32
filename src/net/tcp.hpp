// TCP-lite: a connection-oriented, windowed, in-order byte stream over the
// simulated fabric.
//
// Modeled faithfully enough for StorM's purposes:
//   * three-way handshake, FIN close, RST abort,
//   * MSS segmentation,
//   * sliding sender window = min(local cap, peer-advertised window),
//   * cumulative ACKs generated immediately on data receipt,
//   * loss recovery: retransmission timeout with exponential backoff,
//     go-back-N resend, fast retransmit on three duplicate ACKs,
//   * checksum-based rejection of corrupted segments (see tcp_checksum).
// The sender window is what makes the paper's active-relay result emerge:
// a relay that terminates TCP and ACKs locally collapses the ACK RTT from
// the whole VM->gateway->MBs->gateway->target path to a single hop, so the
// source never stalls on the middle-box's processing or downstream hops.
//
// Loss, corruption, duplication and reordering are injected by the fault
// subsystem (sim::FaultPlan consulted per packet by net::Link); a segment
// that keeps failing retransmission eventually fails the connection with
// kConnectionFailed, which is how node-down blackholes become visible to
// the iSCSI layer. SACK is not modeled — go-back-N is enough at the loss
// rates the chaos tests inject.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <string>

#include "common/buf.hpp"
#include "common/bytes.hpp"
#include "common/status.hpp"
#include "net/packet.hpp"
#include "obs/metrics.hpp"
#include "sim/simulator.hpp"

namespace storm::net {

class NetNode;
class TcpStack;

inline constexpr std::size_t kTcpMss = 1460;
inline constexpr std::uint32_t kDefaultWindow = 64 * 1024;

// Retransmission timing. The initial RTO is deliberately generous (the
// simulated fabric has sub-millisecond RTTs) so spurious retransmission
// never happens on a clean path; backoff doubles up to the cap, and the
// timeout after kTcpMaxRetries consecutive ones closes the connection
// with kConnectionFailed. That close is the stack's only failure report:
// middle-box liveness is the chain health manager's heartbeat.
inline constexpr sim::Duration kTcpInitialRto = sim::milliseconds(200);
inline constexpr sim::Duration kTcpMaxRto = sim::seconds(10);
inline constexpr unsigned kTcpMaxRetries = 8;

class TcpConnection {
 public:
  using DataCallback = std::function<void(Buf)>;
  using EstablishedCallback = std::function<void()>;
  using ClosedCallback = std::function<void(Status)>;

  enum class State {
    kSynSent,
    kSynReceived,
    kEstablished,
    kFinSent,
    kClosed,
  };

  ~TcpConnection() {
    cancel_rto();
    persist_token_.cancel();
  }

  /// Queue bytes for transmission. No-op after close()/abort(). The Buf
  /// is adopted by reference — no copy until (and unless) a segment
  /// straddles a chunk boundary.
  void send(Buf data);
  void send(Bytes data) { send(Buf(std::move(data))); }
  /// Queue a chunked wire message; all chunks are enqueued before the
  /// send window is pumped, so segmentation on the wire is identical to
  /// sending the flattened message.
  void send(BufChain chunks);

  /// Register the in-order data sink. Bytes arriving before registration
  /// are buffered and flushed on registration.
  void set_on_data(DataCallback cb);

  /// Fires once when the connection ends: OK for graceful FIN, an error
  /// status for RST, local abort or retransmission timeout.
  void set_on_closed(ClosedCallback cb) { on_closed_ = std::move(cb); }

  /// Fires whenever the peer acknowledges new bytes (bytes_acked()
  /// advanced). Used by the active relay to trim its NVRAM journal.
  void set_on_ack(std::function<void()> cb) { on_ack_ = std::move(cb); }

  /// Graceful close: FIN goes out after the send buffer drains.
  void close();

  /// Immediate RST teardown.
  void abort();

  State state() const { return state_; }
  SocketAddr local() const { return local_; }
  SocketAddr remote() const { return remote_; }
  FourTuple four_tuple() const { return FourTuple{local_, remote_}; }

  // --- receive-side flow control ------------------------------------
  /// Credit-based delivery: bytes handed to the data callback stay
  /// charged against the advertised receive window until the
  /// application releases them with consume(). Off by default, where
  /// delivery itself frees the buffer and the window only closes while
  /// data waits in pending_rx_ for set_on_data.
  void set_credit_based(bool enabled) { credit_based_ = enabled; }

  /// Release receive-buffer credit. When the release reopens a window
  /// that was advertised closed, a window-update ACK goes out
  /// immediately — the peer may be idle in zero-window persist with
  /// nothing in flight to clock an ACK back to it.
  void consume(std::size_t bytes);

  /// Receive window currently advertised to the peer.
  std::uint32_t advertised_window() const {
    return rcv_buffered_ >= recv_window_
               ? 0
               : recv_window_ - static_cast<std::uint32_t>(rcv_buffered_);
  }
  /// Delivered-or-pending bytes not yet released with consume().
  std::size_t recv_buffered() const { return rcv_buffered_; }
  /// One-byte window probes sent while the peer's window was closed.
  std::uint64_t zero_window_probes() const { return zero_window_probes_; }

  std::uint64_t bytes_received() const { return bytes_received_; }
  std::uint64_t retransmits() const { return retransmits_; }

  /// Payload bytes the peer has cumulatively acknowledged (the SYN's
  /// sequence slot is excluded). The active relay trims its NVRAM journal
  /// against this watermark.
  std::uint64_t bytes_acked() const {
    return snd_una_ > 0 ? snd_una_ - 1 : 0;
  }
  /// Bytes queued locally and not yet acknowledged (sent or unsent).
  std::size_t send_backlog() const { return send_size_; }
  std::uint64_t unacked() const { return snd_nxt_ - snd_una_; }

 private:
  friend class TcpStack;

  TcpConnection(TcpStack& stack, SocketAddr local, SocketAddr remote,
                bool initiator, std::uint32_t window);

  void handle_segment(const Packet& pkt);
  void pump();
  void emit(std::uint8_t flags, Buf payload, std::uint64_t seq);
  /// View of send-buffer bytes [offset, offset+len) relative to snd_una_.
  /// O(1) zero-copy slice when the range lies within one chunk; a counted
  /// gather copy when a segment straddles chunk boundaries.
  Buf slice_send(std::size_t offset, std::size_t len) const;
  void send_ack();
  void send_syn() { emit(kTcpSyn, {}, 0); }
  void send_synack() { emit(kTcpSyn | kTcpAck, {}, 0); }
  void enter_closed(Status status);

  // Loss recovery.
  void arm_rto();
  void cancel_rto() { rto_token_.cancel(); }
  void restart_rto();
  void on_rto();
  void rewind_and_resend();

  // Zero-window persist (sender side).
  void maybe_arm_persist();
  void on_persist();

  TcpStack& stack_;
  SocketAddr local_;
  SocketAddr remote_;
  State state_;

  // Sender state. send_chunks_ holds every payload byte from snd_una_ on
  // — both unsent bytes and sent-but-unacknowledged bytes (the
  // retransmission buffer); the sent prefix has length snd_nxt_ - snd_una_.
  // The buffer is an offset-indexed deque of refcounted chunks:
  // chunk_head_ bytes of the front chunk are already acknowledged, so an
  // ACK trim advances chunk_head_ / pops whole chunks — amortized O(1),
  // no memmove — and segmentation slices views out of the chunks.
  std::uint64_t snd_una_ = 0;  // oldest unacknowledged
  std::uint64_t snd_nxt_ = 0;  // next to send
  std::deque<Buf> send_chunks_;
  std::size_t chunk_head_ = 0;  // acked bytes of send_chunks_.front()
  std::size_t send_size_ = 0;   // unacked bytes buffered, across chunks
  std::uint32_t send_window_cap_;
  std::uint32_t peer_window_;
  bool fin_pending_ = false;
  bool fin_sent_ = false;

  // Retransmission state.
  std::uint64_t max_seq_sent_ = 0;  // highest seq ever emitted (new data)
  int dup_acks_ = 0;
  // Fast-retransmit recovery point: no further dup-ACK-triggered resends
  // until the cumulative ACK passes it. Without this, every retransmitted
  // window spawns a fresh burst of duplicate ACKs which each trigger
  // another full-window resend — an amplification loop that melts the
  // link under loss + reordering (go-back-N's classic failure mode).
  std::uint64_t fast_recovery_until_ = 0;
  sim::Duration rto_ = kTcpInitialRto;
  unsigned retries_ = 0;
  sim::CancelToken rto_token_;
  std::uint64_t retransmits_ = 0;

  // Receiver state.
  std::uint64_t rcv_nxt_ = 0;
  std::uint32_t recv_window_;
  std::size_t rcv_buffered_ = 0;  // delivered/pending, not yet consumed
  // Highest receive-window right edge ever advertised. In-order payload
  // beyond it was never permitted by any ACK we sent, so those bytes
  // are trimmed un-ACKed: a sender that ignores our window cannot
  // overrun the receive buffer, and pending_rx_ stays bounded by
  // recv_window_.
  std::uint64_t rcv_window_edge_ = 0;
  bool advertised_closed_ = false;  // last emitted window was zero
  bool credit_based_ = false;
  std::vector<Buf> pending_rx_;  // buffered until set_on_data

  // Zero-window persist: when the peer closes its window with data
  // still queued here and nothing in flight, probe with one byte on a
  // backed-off timer so a lost window update cannot deadlock the
  // connection. Probes never touch retries_ — a flow-controlled peer is
  // alive, not dead.
  sim::CancelToken persist_token_;
  sim::Duration persist_backoff_ = kTcpInitialRto;
  bool window_stalled_ = false;  // one window_stalls count per episode
  std::uint64_t zero_window_probes_ = 0;

  DataCallback on_data_;
  EstablishedCallback on_established_;
  ClosedCallback on_closed_;
  std::function<void()> on_ack_;
  // Listener callback held until the handshake completes.
  std::function<void(TcpConnection&)> accept_pending_;

  std::uint64_t bytes_received_ = 0;

  // RTT sampling, Karn's algorithm: one probe in flight at a time, the
  // sample discarded if any retransmission happens before the probe's
  // target is acknowledged (a retransmitted segment's ACK is ambiguous).
  bool rtt_probe_armed_ = false;
  std::uint64_t rtt_probe_seq_ = 0;
  sim::Time rtt_probe_sent_ = 0;
};

class TcpStack {
 public:
  using AcceptCallback = std::function<void(TcpConnection&)>;

  explicit TcpStack(NetNode& node) : node_(node) {}

  TcpStack(const TcpStack&) = delete;
  TcpStack& operator=(const TcpStack&) = delete;

  /// Register a listener; each established inbound connection is handed to
  /// `on_accept` (fired after the three-way handshake completes).
  void listen(std::uint16_t port, AcceptCallback on_accept);
  void stop_listening(std::uint16_t port) { listeners_.erase(port); }

  /// Open a connection to `remote`. `on_established` fires when the
  /// handshake completes; `on_failed` on RST during connect.
  TcpConnection& connect(SocketAddr remote,
                         TcpConnection::EstablishedCallback on_established,
                         std::uint16_t local_port = 0);

  /// Demux an inbound segment (called by NetNode).
  void handle_segment(Packet pkt);

  /// Power-off semantics: destroy every connection and listener without
  /// firing callbacks or emitting RSTs — a crashed node cannot say
  /// goodbye. Peers discover the loss via retransmission timeout or via
  /// the RSTs this stack sends for unknown segments after restart.
  void reset();

  /// Default advertised/receive and send window for new connections.
  void set_default_window(std::uint32_t bytes) { default_window_ = bytes; }

  NetNode& node() { return node_; }

  std::uint16_t allocate_ephemeral_port() { return next_ephemeral_++; }

  /// The source port of the most recently initiated outbound connection.
  /// StorM's connection attribution patches the iSCSI login path to report
  /// this (paper: "modified the iSCSI Login Session code to expose TCP
  /// connection information").
  std::uint16_t last_connect_port() const { return last_connect_port_; }

  /// Segments discarded because their checksum didn't match (in-flight
  /// corruption injected by the fault subsystem).
  std::uint64_t checksum_drops() const { return checksum_drops_; }
  /// Total segments retransmitted by connections of this stack.
  std::uint64_t retransmits() const { return retransmits_; }
  /// Send-side stall episodes: a connection entered zero-window persist.
  std::uint64_t window_stalls() const { return window_stalls_; }
  /// In-order payload bytes dropped (un-ACKed) for landing beyond the
  /// advertised receive-window edge.
  std::uint64_t window_overrun_drops() const {
    return window_overrun_drops_;
  }

 private:
  friend class TcpConnection;

  void transmit(Packet pkt);
  void ensure_telemetry();
  void note_window_stall();
  void note_zero_window_probe();
  void note_window_overrun(std::size_t bytes);

  NetNode& node_;
  std::map<FourTuple, std::unique_ptr<TcpConnection>> connections_;
  std::map<std::uint16_t, AcceptCallback> listeners_;
  std::uint16_t next_ephemeral_ = 49152;
  std::uint16_t last_connect_port_ = 0;
  std::uint32_t default_window_ = kDefaultWindow;
  std::uint64_t checksum_drops_ = 0;
  std::uint64_t retransmits_ = 0;
  std::uint64_t window_stalls_ = 0;
  std::uint64_t window_overrun_drops_ = 0;
  // Cached cluster-wide tcp.* metrics (stable registry addresses).
  bool telemetry_ready_ = false;
  obs::Counter* tel_segments_tx_ = nullptr;
  obs::Counter* tel_segments_rx_ = nullptr;
  obs::Counter* tel_checksum_drops_ = nullptr;
  obs::Counter* tel_retransmits_ = nullptr;
  obs::Counter* tel_fast_retransmits_ = nullptr;
  obs::Counter* tel_rto_fired_ = nullptr;
  obs::Counter* tel_window_stalls_ = nullptr;
  obs::Counter* tel_zero_window_probes_ = nullptr;
  obs::Counter* tel_window_overrun_drops_ = nullptr;
  obs::Histogram* tel_rtt_ = nullptr;
};

}  // namespace storm::net
