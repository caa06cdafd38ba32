#include "net/tcp.hpp"

#include <algorithm>

#include "common/log.hpp"
#include "net/node.hpp"
#include "obs/registry.hpp"

namespace storm::net {

// ---------------------------------------------------------------- TcpStack

void TcpStack::ensure_telemetry() {
  if (telemetry_ready_) return;
  telemetry_ready_ = true;
  obs::Registry& reg = node_.executor().telemetry();
  tel_segments_tx_ = &reg.counter("tcp.segments_tx");
  tel_segments_rx_ = &reg.counter("tcp.segments_rx");
  tel_checksum_drops_ = &reg.counter("tcp.checksum_drops");
  tel_retransmits_ = &reg.counter("tcp.retransmits");
  tel_fast_retransmits_ = &reg.counter("tcp.fast_retransmits");
  tel_rto_fired_ = &reg.counter("tcp.rto_fired");
  tel_window_stalls_ = &reg.counter("tcp.window_stalls");
  tel_zero_window_probes_ = &reg.counter("tcp.zero_window_probes");
  tel_window_overrun_drops_ = &reg.counter("tcp.window_overrun_drops");
  tel_rtt_ = &reg.histogram("tcp.rtt_ns");
}

void TcpStack::note_window_stall() {
  ++window_stalls_;
  ensure_telemetry();
  tel_window_stalls_->add();
}

void TcpStack::note_zero_window_probe() {
  ensure_telemetry();
  tel_zero_window_probes_->add();
}

void TcpStack::note_window_overrun(std::size_t bytes) {
  window_overrun_drops_ += bytes;
  ensure_telemetry();
  tel_window_overrun_drops_->add(static_cast<std::int64_t>(bytes));
}

void TcpStack::listen(std::uint16_t port, AcceptCallback on_accept) {
  listeners_[port] = std::move(on_accept);
}

TcpConnection& TcpStack::connect(
    SocketAddr remote, TcpConnection::EstablishedCallback on_established,
    std::uint16_t local_port) {
  if (local_port == 0) local_port = allocate_ephemeral_port();
  last_connect_port_ = local_port;

  // Local IP: the NIC that routes toward the destination (standard source
  // address selection). NAT may rewrite the flow on the way out, but the
  // socket is keyed by its pre-NAT tuple, as on a real host.
  SocketAddr local{node_.source_ip_for(remote.ip), local_port};
  auto conn = std::unique_ptr<TcpConnection>(new TcpConnection(
      *this, local, remote, /*initiator=*/true, default_window_));
  conn->on_established_ = std::move(on_established);
  TcpConnection& ref = *conn;
  connections_[FourTuple{local, remote}] = std::move(conn);

  ref.send_syn();
  ref.arm_rto();
  return ref;
}

void TcpStack::handle_segment(Packet pkt) {
  ensure_telemetry();
  tel_segments_rx_->add();
  // Corrupted in flight? Discard before any state can be touched — a
  // flipped bit must never tear down a connection (e.g. by forging RST).
  if (pkt.tcp.checksum != tcp_checksum(pkt)) {
    ++checksum_drops_;
    tel_checksum_drops_->add();
    log_debug("tcp") << "checksum mismatch, dropping " << pkt.summary();
    return;
  }

  const FourTuple key{{pkt.ip.dst, pkt.tcp.dst_port},
                      {pkt.ip.src, pkt.tcp.src_port}};
  auto it = connections_.find(key);
  if (it != connections_.end()) {
    TcpConnection& existing = *it->second;
    const bool fresh_syn =
        (pkt.tcp.flags & kTcpSyn) && !(pkt.tcp.flags & kTcpAck);
    // A retransmitted or duplicated copy of the SYN that created the
    // current incarnation: let the connection handle (ignore/re-ACK) it.
    const bool dup_of_current =
        fresh_syn && existing.state() != TcpConnection::State::kClosed &&
        pkt.tcp.seq + 1 == existing.rcv_nxt_;
    if (!fresh_syn || dup_of_current) {
      existing.handle_segment(pkt);
      return;
    }
    // A genuinely new SYN re-using the 4-tuple supersedes the old
    // connection: port reuse after RST, or a peer that crashed without
    // saying goodbye and is now re-dialing (the active relay's recovery
    // path does both). The close callback may touch this stack, so
    // re-look-up by key before erasing.
    if (existing.state() != TcpConnection::State::kClosed) {
      existing.enter_closed(error(ErrorCode::kConnectionFailed,
                                  "superseded by new connection"));
    }
    connections_.erase(key);
  }
  auto lit = listeners_.end();
  if ((pkt.tcp.flags & kTcpSyn) && !(pkt.tcp.flags & kTcpAck)) {
    lit = listeners_.find(pkt.tcp.dst_port);
  }
  if (lit != listeners_.end()) {
    auto conn = std::unique_ptr<TcpConnection>(
        new TcpConnection(*this, key.src, key.dst, /*initiator=*/false,
                          default_window_));
    TcpConnection& ref = *conn;
    ref.peer_window_ = pkt.tcp.window;
    ref.rcv_nxt_ = pkt.tcp.seq + 1;  // consume the SYN
    connections_[key] = std::move(conn);

    ref.accept_pending_ = lit->second;
    ref.send_synack();
    ref.arm_rto();
    return;
  }
  // Segment for an unknown connection: answer with RST (unless it is one).
  if (!(pkt.tcp.flags & kTcpRst)) {
    Packet rst;
    rst.ip.src = pkt.ip.dst;
    rst.ip.dst = pkt.ip.src;
    rst.tcp.src_port = pkt.tcp.dst_port;
    rst.tcp.dst_port = pkt.tcp.src_port;
    rst.tcp.flags = kTcpRst;
    transmit(std::move(rst));
  }
}

void TcpStack::reset() {
  // Destructors cancel pending retransmission timers; no callbacks fire.
  connections_.clear();
  listeners_.clear();
}

void TcpStack::transmit(Packet pkt) {
  ensure_telemetry();
  tel_segments_tx_->add();
  pkt.tcp.checksum = tcp_checksum(pkt);
  node_.send_ip(std::move(pkt));
}

// ----------------------------------------------------------- TcpConnection

TcpConnection::TcpConnection(TcpStack& stack, SocketAddr local,
                             SocketAddr remote, bool initiator,
                             std::uint32_t window)
    : stack_(stack), local_(local), remote_(remote),
      state_(initiator ? State::kSynSent : State::kSynReceived),
      send_window_cap_(window), peer_window_(window), recv_window_(window) {}

void TcpConnection::send(Buf data) {
  if (state_ == State::kClosed || fin_pending_) return;
  if (!data.empty()) {
    send_size_ += data.size();
    send_chunks_.push_back(std::move(data));
  }
  if (state_ == State::kEstablished) pump();
}

void TcpConnection::send(BufChain chunks) {
  if (state_ == State::kClosed || fin_pending_) return;
  for (Buf& chunk : chunks) {
    if (chunk.empty()) continue;
    send_size_ += chunk.size();
    send_chunks_.push_back(std::move(chunk));
  }
  if (state_ == State::kEstablished) pump();
}

void TcpConnection::set_on_data(DataCallback cb) {
  on_data_ = std::move(cb);
  if (!pending_rx_.empty() && on_data_) {
    std::vector<Buf> buffered;
    buffered.swap(pending_rx_);
    for (Buf& chunk : buffered) {
      const std::size_t n = chunk.size();
      on_data_(std::move(chunk));
      // Without credit-based delivery the handoff itself frees the
      // buffer — and may reopen a window pending_rx_ had closed.
      if (!credit_based_) consume(n);
    }
  }
}

void TcpConnection::consume(std::size_t bytes) {
  rcv_buffered_ -= std::min(bytes, rcv_buffered_);
  if (state_ == State::kClosed) return;
  // Reopening a window that was advertised closed: push the update —
  // the sender may be idle in persist with nothing in flight to clock
  // an ACK back to us.
  if (advertised_closed_ && advertised_window() > 0) send_ack();
}

void TcpConnection::close() {
  if (state_ == State::kClosed || fin_pending_) return;
  fin_pending_ = true;
  if (state_ == State::kEstablished) pump();
}

void TcpConnection::abort() {
  if (state_ == State::kClosed) return;
  emit(kTcpRst, {}, snd_nxt_);
  enter_closed(error(ErrorCode::kConnectionFailed, "local abort"));
}

void TcpConnection::emit(std::uint8_t flags, Buf payload,
                         std::uint64_t seq) {
  Packet pkt;
  pkt.ip.src = local_.ip;
  pkt.ip.dst = remote_.ip;
  pkt.tcp.src_port = local_.port;
  pkt.tcp.dst_port = remote_.port;
  pkt.tcp.flags = flags;
  pkt.tcp.seq = seq;
  pkt.tcp.ack = rcv_nxt_;
  const std::uint32_t window = advertised_window();
  pkt.tcp.window = window;
  pkt.payload = std::move(payload);
  // Every segment ACKs rcv_nxt_, so it (re)advertises the right edge
  // rcv_nxt_ + window; remember the furthest edge ever granted — that,
  // not the instantaneous window, is what receive() may accept up to.
  if (rcv_nxt_ + window > rcv_window_edge_) {
    rcv_window_edge_ = rcv_nxt_ + window;
  }
  advertised_closed_ = window == 0;
  stack_.transmit(std::move(pkt));
}

void TcpConnection::send_ack() { emit(kTcpAck, {}, snd_nxt_); }

Buf TcpConnection::slice_send(std::size_t offset, std::size_t len) const {
  std::size_t skip = chunk_head_ + offset;
  std::size_t i = 0;
  while (skip >= send_chunks_[i].size()) {
    skip -= send_chunks_[i].size();
    ++i;
  }
  const Buf& first = send_chunks_[i];
  if (first.size() - skip >= len) {
    // Common case: the whole segment lies inside one chunk — a refcounted
    // view, no bytes move (retransmits re-slice the same storage).
    return first.slice(skip, len);
  }
  // Segment straddles a chunk boundary: gather into fresh storage.
  Bytes out;
  out.reserve(len);
  std::size_t need = len;
  for (std::size_t off = skip; need > 0; ++i, off = 0) {
    const Buf& chunk = send_chunks_[i];
    const std::size_t take = std::min(need, chunk.size() - off);
    out.insert(out.end(), chunk.begin() + off, chunk.begin() + off + take);
    need -= take;
  }
  bufstats::add_bytes_copied(len);
  return Buf(std::move(out));
}

void TcpConnection::pump() {
  if (state_ != State::kEstablished && state_ != State::kFinSent) return;
  const std::uint32_t window = std::min(send_window_cap_, peer_window_);
  while (true) {
    const std::uint64_t in_flight = snd_nxt_ - snd_una_;
    if (in_flight >= window) break;
    if (in_flight >= send_size_) break;  // nothing unsent
    const std::size_t offset = static_cast<std::size_t>(in_flight);
    const std::size_t len =
        std::min({kTcpMss, send_size_ - offset,
                  static_cast<std::size_t>(window - in_flight)});
    if (len == 0) break;
    emit(kTcpAck, slice_send(offset, len), snd_nxt_);
    snd_nxt_ += len;
    if (snd_nxt_ > max_seq_sent_) {
      max_seq_sent_ = snd_nxt_;
      // Karn RTT probe: one fresh-data segment timed at a time; the
      // sample completes when the cumulative ACK covers its end.
      if (!rtt_probe_armed_) {
        rtt_probe_armed_ = true;
        rtt_probe_seq_ = snd_nxt_;
        rtt_probe_sent_ = stack_.node().executor().now();
      }
    }
    arm_rto();
  }
  if (fin_pending_ && !fin_sent_ && send_size_ == 0 &&
      snd_una_ == snd_nxt_) {
    emit(kTcpFin | kTcpAck, {}, snd_nxt_);
    snd_nxt_ += 1;  // FIN consumes a sequence number
    fin_sent_ = true;
    state_ = State::kFinSent;
    arm_rto();
  }
  maybe_arm_persist();
}

void TcpConnection::maybe_arm_persist() {
  // Persist applies only when the peer's window is shut with data still
  // queued and nothing in flight: no outstanding segment means no ACK
  // will ever come back to re-open us, so a timer has to.
  const bool blocked = state_ == State::kEstablished && send_size_ > 0 &&
                       snd_una_ == snd_nxt_ &&
                       std::min(send_window_cap_, peer_window_) == 0;
  if (!blocked) {
    persist_token_.cancel();
    persist_backoff_ = kTcpInitialRto;
    window_stalled_ = false;
    return;
  }
  if (!window_stalled_) {
    window_stalled_ = true;
    stack_.note_window_stall();
  }
  if (!persist_token_.armed()) {
    persist_token_ = stack_.node().executor().schedule_in(
        persist_backoff_, [this] { on_persist(); });
  }
}

void TcpConnection::on_persist() {
  persist_token_.cancel();  // the fired token would otherwise read as armed
  if (state_ != State::kEstablished) return;
  if (send_size_ == 0 || snd_una_ != snd_nxt_ ||
      std::min(send_window_cap_, peer_window_) != 0) {
    pump();  // window opened while the timer was pending
    return;
  }
  // One-byte window probe into the closed window. The receiver trims it
  // at its window edge and answers with a duplicate ACK carrying the
  // current window; if the window reopened and the update ACK was lost,
  // the probe's byte is accepted and the cumulative ACK reopens us.
  // Either way progress resumes — probes are never counted as retries,
  // so a flow-controlled peer can stall us indefinitely without the
  // connection being declared dead.
  ++zero_window_probes_;
  stack_.note_zero_window_probe();
  emit(kTcpAck, slice_send(0, 1), snd_nxt_);
  persist_backoff_ =
      std::min<sim::Duration>(persist_backoff_ * 2, kTcpMaxRto);
  persist_token_ = stack_.node().executor().schedule_in(
      persist_backoff_, [this] { on_persist(); });
}

void TcpConnection::arm_rto() {
  if (rto_token_.armed()) return;
  rto_token_ = stack_.node().executor().schedule_in(
      rto_, [this] { on_rto(); });
}

void TcpConnection::restart_rto() {
  cancel_rto();
  arm_rto();
}

void TcpConnection::on_rto() {
  rto_token_.cancel();  // the fired token would otherwise read as armed
  if (state_ == State::kClosed) return;
  const bool outstanding = snd_nxt_ > snd_una_ ||
                           state_ == State::kSynSent ||
                           state_ == State::kSynReceived;
  if (!outstanding) return;
  if (retries_ >= kTcpMaxRetries) {
    enter_closed(error(ErrorCode::kConnectionFailed,
                       "retransmission timeout"));
    return;
  }
  ++retries_;
  ++retransmits_;
  ++stack_.retransmits_;
  stack_.ensure_telemetry();
  stack_.tel_rto_fired_->add();
  stack_.tel_retransmits_->add();
  rto_ = std::min<sim::Duration>(rto_ * 2, kTcpMaxRto);
  rewind_and_resend();
  arm_rto();
}

void TcpConnection::rewind_and_resend() {
  // Karn: any retransmission makes the in-flight RTT probe ambiguous
  // (the eventual ACK could match either transmission) — discard it.
  rtt_probe_armed_ = false;
  switch (state_) {
    case State::kSynSent:
      send_syn();
      return;
    case State::kSynReceived:
      send_synack();
      return;
    default:
      break;
  }
  // Go-back-N: rewind to the oldest unacknowledged byte and let pump()
  // resend the window (and the FIN, if it was already out).
  snd_nxt_ = snd_una_;
  fin_sent_ = false;
  pump();
}

void TcpConnection::handle_segment(const Packet& pkt) {
  if (state_ == State::kClosed) {
    if (pkt.tcp.flags & kTcpRst) return;
    if ((pkt.tcp.flags & kTcpFin) && pkt.tcp.seq < rcv_nxt_) {
      // Retransmitted FIN we already consumed — our final ACK was lost.
      emit(kTcpAck, {}, snd_nxt_);
      return;
    }
    emit(kTcpRst, {}, snd_nxt_);
    return;
  }

  if (pkt.tcp.flags & kTcpRst) {
    enter_closed(error(ErrorCode::kConnectionFailed, "connection reset"));
    return;
  }

  peer_window_ = pkt.tcp.window;

  // Handshake.
  if (state_ == State::kSynSent) {
    if ((pkt.tcp.flags & (kTcpSyn | kTcpAck)) == (kTcpSyn | kTcpAck)) {
      rcv_nxt_ = pkt.tcp.seq + 1;
      snd_una_ = snd_nxt_ = pkt.tcp.ack;  // our SYN consumed seq 0
      state_ = State::kEstablished;
      retries_ = 0;
      rto_ = kTcpInitialRto;
      cancel_rto();
      send_ack();
      if (on_established_) on_established_();
      pump();
    }
    return;
  }
  if (state_ == State::kSynReceived) {
    if (pkt.tcp.flags & kTcpAck) {
      snd_una_ = snd_nxt_ = pkt.tcp.ack;
      state_ = State::kEstablished;
      retries_ = 0;
      rto_ = kTcpInitialRto;
      cancel_rto();
      if (accept_pending_) {
        auto cb = std::move(accept_pending_);
        accept_pending_ = nullptr;
        cb(*this);
      }
      // Fall through: the handshake ACK may carry data (a client that
      // sends immediately after establishing).
    } else {
      return;  // duplicate SYN: our SYN-ACK retransmission covers it
    }
  }

  // A retransmitted SYN-ACK after we're established means our handshake
  // ACK was lost: re-ACK so the server completes too.
  if (pkt.tcp.flags & kTcpSyn) {
    send_ack();
    return;
  }

  // ACK processing.
  if (pkt.tcp.flags & kTcpAck) {
    if (pkt.tcp.ack > snd_una_) {
      const std::uint64_t limit = std::min(pkt.tcp.ack, snd_nxt_);
      // O(1) trim: advance the head offset, popping (refcount-dropping)
      // whole chunks as they fully fall below the ACK watermark. No byte
      // is touched.
      std::size_t pop = static_cast<std::size_t>(
          std::min<std::uint64_t>(limit - snd_una_, send_size_));
      send_size_ -= pop;
      while (pop > 0) {
        const std::size_t avail = send_chunks_.front().size() - chunk_head_;
        if (pop >= avail) {
          pop -= avail;
          send_chunks_.pop_front();
          chunk_head_ = 0;
        } else {
          chunk_head_ += pop;
          pop = 0;
        }
      }
      snd_una_ = limit;
      if (rtt_probe_armed_ && snd_una_ >= rtt_probe_seq_) {
        rtt_probe_armed_ = false;
        stack_.ensure_telemetry();
        stack_.tel_rtt_->record(static_cast<std::int64_t>(
            stack_.node().executor().now() - rtt_probe_sent_));
      }
      dup_acks_ = 0;
      retries_ = 0;
      rto_ = kTcpInitialRto;
      if (snd_una_ == snd_nxt_) {
        cancel_rto();
      } else {
        restart_rto();
      }
      if (on_ack_) on_ack_();
    } else if (pkt.tcp.ack == snd_una_ && snd_nxt_ > snd_una_ &&
               pkt.payload.empty() && !(pkt.tcp.flags & kTcpFin)) {
      // Duplicate ACK: the receiver saw a gap. Three in a row trigger
      // fast retransmit without waiting for the RTO — but at most once
      // per loss event: further duplicates (echoes of our own resent
      // window) are ignored until the ACK passes the recovery point.
      if (++dup_acks_ >= 3) {
        dup_acks_ = 0;
        if (snd_una_ >= fast_recovery_until_) {
          fast_recovery_until_ = snd_nxt_;
          ++retransmits_;
          ++stack_.retransmits_;
          stack_.ensure_telemetry();
          stack_.tel_fast_retransmits_->add();
          stack_.tel_retransmits_->add();
          rewind_and_resend();
          restart_rto();
        }
      }
    }
  }
  if (state_ == State::kClosed) return;  // on_ack_ may have aborted us

  bool should_ack = false;

  // Data. Every payload-bearing segment triggers an ACK: a cumulative one
  // when it advances rcv_nxt_, a duplicate ACK when it's a repeat or a
  // gap (go-back-N sender interprets the duplicates as loss).
  if (!pkt.payload.empty()) {
    should_ack = true;
    const std::uint64_t seg_end = pkt.tcp.seq + pkt.payload.size();
    if (pkt.tcp.seq <= rcv_nxt_ && seg_end > rcv_nxt_) {
      // In-order, possibly partially duplicate — a go-back-N resend
      // overlapping bytes we already accepted, or a full segment resent
      // after we trimmed its tail at the window edge, or a zero-window
      // probe's byte racing our window update. Accept the fresh suffix.
      Buf fresh = pkt.payload.slice(
          static_cast<std::size_t>(rcv_nxt_ - pkt.tcp.seq));
      // Window enforcement: bytes past the furthest right edge we ever
      // advertised were never permitted — trim them off un-ACKed. The
      // sender retransmits them once consume() reopens the window.
      if (rcv_nxt_ + fresh.size() > rcv_window_edge_) {
        const std::size_t fit = static_cast<std::size_t>(
            rcv_window_edge_ > rcv_nxt_ ? rcv_window_edge_ - rcv_nxt_ : 0);
        stack_.note_window_overrun(fresh.size() - fit);
        fresh = fresh.slice(0, fit);
      }
      if (!fresh.empty()) {
        const std::size_t n = fresh.size();
        rcv_nxt_ += n;
        bytes_received_ += n;
        rcv_buffered_ += n;
        if (on_data_) {
          on_data_(std::move(fresh));  // refcounted share, not a byte copy
          // Without credit-based delivery the handoff frees the buffer;
          // the ACK below advertises the refreshed window.
          if (!credit_based_) rcv_buffered_ -= std::min(n, rcv_buffered_);
        } else {
          pending_rx_.push_back(std::move(fresh));
        }
        if (state_ == State::kClosed) return;  // on_data_ may have closed us
      }
    } else if (seg_end <= rcv_nxt_) {
      // Fully duplicate segment: re-ACK only.
    } else {
      log_debug("tcp") << "out-of-order segment (seq=" << pkt.tcp.seq
                       << " expected=" << rcv_nxt_ << "), dup-ACKing";
    }
  }

  // FIN processing: consumed only when it lands exactly at rcv_nxt_
  // (after any in-segment payload); an out-of-order FIN is re-ACKed so
  // the peer retransmits the missing bytes first.
  if (pkt.tcp.flags & kTcpFin) {
    if (pkt.tcp.seq + pkt.payload.size() == rcv_nxt_) {
      rcv_nxt_ += 1;
      send_ack();
      enter_closed(Status::ok());
      return;
    }
    should_ack = true;
  }

  if (should_ack) send_ack();
  if (state_ == State::kEstablished || state_ == State::kFinSent) pump();

  // Our FIN fully acknowledged: done.
  if (state_ == State::kFinSent && snd_una_ == snd_nxt_) {
    enter_closed(Status::ok());
  }
}

void TcpConnection::enter_closed(Status status) {
  if (state_ == State::kClosed) return;
  state_ = State::kClosed;
  cancel_rto();
  if (on_closed_) on_closed_(status);
}

}  // namespace storm::net
