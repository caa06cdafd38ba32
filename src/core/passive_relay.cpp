#include "core/passive_relay.hpp"

#include <cstring>

#include "common/log.hpp"
#include "net/node.hpp"

namespace storm::core {

namespace {

/// Kernel hook + syscall + context switch, per packet.
constexpr sim::Duration kHookPerPacket = sim::microseconds(2);
/// Two user/kernel copies per payload byte (in and out).
constexpr double kCopyNsPerByte = 0.6;

}  // namespace

PassiveRelay::PassiveRelay(cloud::Vm& mb_vm, StorageService& service,
                           std::string volume)
    : vm_(mb_vm), service_(service), volume_(std::move(volume)),
      scope_(mb_vm.node().executor().telemetry().scope("relay." +
                                                        mb_vm.name() + ".")),
      stamper_(mb_vm.node().executor().telemetry(), mb_vm.name()),
      ctx_(std::make_unique<HookContext>(*this)) {
  // No NVRAM on a packet-level relay: the service gets the executor and
  // scope but must keep recovery state elsewhere.
  service_.bind_host(ServiceHost{vm_.node().executor(), scope_, nullptr});
}

PassiveRelay::~PassiveRelay() {
  // Pending pump callbacks capture `this`; clear the hook so no new
  // packets are captured after teardown (chain rollback destroys boxes).
  vm_.node().set_forward_hook(nullptr);
}

void PassiveRelay::start() {
  vm_.node().set_forward_hook(
      [this](net::Packet& pkt) { return on_packet(pkt); });
}

bool PassiveRelay::on_packet(net::Packet& pkt) {
  obs::cached(tel_packets_hooked_, scope_, "packets_hooked").add();
  obs::cached(tel_copied_bytes_, scope_, "copied_bytes")
      .add(2 * pkt.payload.size());
  // Pure ACKs / control segments: pay the hook cost, then continue on
  // their way. Reordering a bare ACK ahead of held data is harmless.
  if (pkt.payload.empty()) {
    net::Packet copy = pkt;
    vm_.cpu().run(kHookPerPacket, [this, copy]() mutable {
      vm_.node().emit_forward(std::move(copy));
    });
    return true;
  }

  const net::FourTuple key = pkt.four_tuple();
  StreamState& state = streams_[key];
  state.held.push_back(pkt);
  account_inbox(static_cast<std::ptrdiff_t>(pkt.payload.size()));
  state.inbox.push_back(pkt.payload);
  pump(key);
  return true;
}

void PassiveRelay::account_inbox(std::ptrdiff_t delta) {
  inbox_bytes_ = static_cast<std::size_t>(
      static_cast<std::ptrdiff_t>(inbox_bytes_) + delta);
  if (inbox_bytes_ > peak_inbox_bytes_) {
    peak_inbox_bytes_ = inbox_bytes_;
    obs::cached(tel_queue_peak_, scope_, "queue_bytes_peak")
        .set(static_cast<std::int64_t>(inbox_bytes_));
  }
  obs::cached(tel_queue_bytes_, scope_, "queue_bytes")
      .set(static_cast<std::int64_t>(inbox_bytes_));
}

void PassiveRelay::pump(const net::FourTuple& key) {
  auto it = streams_.find(key);
  if (it == streams_.end()) return;
  StreamState& state = it->second;
  if (state.busy || state.inbox.empty()) return;
  state.busy = true;
  Buf payload = std::move(state.inbox.front());
  state.inbox.pop_front();
  account_inbox(-static_cast<std::ptrdiff_t>(payload.size()));

  Direction dir = key.dst.port == iscsi::kIscsiPort
                      ? Direction::kToTarget
                      : Direction::kToInitiator;
  // Hook + two per-byte copies, then reassembly + services. Serialized
  // per stream so parser feeds keep arrival order even with >1 vCPU.
  sim::Duration cost =
      kHookPerPacket +
      static_cast<sim::Duration>(kCopyNsPerByte *
                                 static_cast<double>(payload.size()));
  vm_.cpu().run(cost, [this, key, dir, payload = std::move(payload)]() mutable {
    auto sit = streams_.find(key);
    if (sit == streams_.end()) return;
    StreamState& st = sit->second;
    std::vector<iscsi::Pdu> pdus;
    Status status = st.parser.feed(std::move(payload), pdus);
    if (!status.is_ok()) {
      log_warn("passive-relay") << vm_.name() << ": parse error: "
                                << status.to_string() << "; flushing raw";
      // Fail open: forward the held packets untransformed.
      for (auto& held : st.held) vm_.node().emit_forward(std::move(held));
      st.held.clear();
      st.busy = false;
      pump(key);
      return;
    }
    sim::Duration service_cost = 0;
    for (auto& pdu : pdus) {
      ++pdus_;
      obs::cached(tel_pdus_processed_, scope_, "pdus_processed").add();
      // The flow's preserved source port sits on the initiator side of
      // the four-tuple.
      stamper_.stamp(
          dir == Direction::kToTarget ? key.src.port : key.dst.port, dir,
          pdu, streams_.size());
      std::size_t before = iscsi::serialized_size(pdu);
      service_cost += service_.on_pdu(*ctx_, dir, pdu).cpu_cost;
      Bytes wire = iscsi::serialize(pdu);
      if (wire.size() != before) {
        throw std::logic_error("passive relay service changed PDU size");
      }
      st.transformed.insert(st.transformed.end(), wire.begin(), wire.end());
    }
    auto finish = [this, key] {
      auto fit = streams_.find(key);
      if (fit == streams_.end()) return;
      drain(fit->second);
      fit->second.busy = false;
      pump(key);
    };
    if (service_cost > 0) {
      vm_.cpu().run(service_cost, finish);
    } else {
      finish();
    }
  });
}

void PassiveRelay::drain(StreamState& state) {
  // Emit held packets whose payload is fully covered by transformed
  // stream bytes, preserving the original packet boundaries (sizes are
  // unchanged, so TCP sequence bookkeeping stays intact end-to-end).
  while (!state.held.empty() &&
         state.transformed.size() >= state.held.front().payload.size()) {
    net::Packet pkt = std::move(state.held.front());
    state.held.pop_front();
    // COW: the inbox and any queued duplicates still reference the
    // original payload bytes; rewriting gets this packet its own copy.
    std::span<std::uint8_t> dst = pkt.payload.mutable_span();
    std::memcpy(dst.data(), state.transformed.data(), dst.size());
    state.transformed.erase(
        state.transformed.begin(),
        state.transformed.begin() +
            static_cast<std::ptrdiff_t>(pkt.payload.size()));
    // The payload just changed under the TCP checksum: recompute it, or
    // every transformed segment would be discarded as corrupt downstream.
    pkt.tcp.checksum = net::tcp_checksum(pkt);
    vm_.node().emit_forward(std::move(pkt));
  }
}

}  // namespace storm::core
