#include "net/link.hpp"

#include <utility>

#include "obs/registry.hpp"

namespace storm::net {

void Link::ensure_telemetry() {
  if (tel_ready_) return;
  tel_ready_ = true;
  obs::Registry& reg = exec_.telemetry();
  tel_total_packets_ = &reg.counter("net.link.packets");
  tel_total_bytes_ = &reg.counter("net.link.bytes");
  tel_faults_ = &reg.counter("net.link.faults");
  tel_queue_wait_ = &reg.histogram("net.link.queue_wait_ns");
  if (!label_.empty()) {
    tel_packets_ = &reg.counter("net.link." + label_ + ".packets");
    tel_bytes_ = &reg.counter("net.link." + label_ + ".bytes");
  } else {
    tel_packets_ = nullptr;
    tel_bytes_ = nullptr;
  }
}

void Link::send(int from_end, Packet pkt) {
  if (is_down()) return;
  const int to_end = 1 - from_end;
  auto& receiver = receivers_.at(static_cast<std::size_t>(to_end));
  if (!receiver) return;
  ensure_telemetry();
  sim::Time& next_free = next_free_[static_cast<std::size_t>(from_end)];

  sim::PacketFaultDecision fault;
  if (fault_ && fault_profile_.enabled()) {
    fault = fault_->decide(fault_profile_, fault_label_);
    if (fault.drop) {
      tel_faults_->add();
      return;
    }
    if (fault.corrupt) {
      tel_faults_->add();
      if (!pkt.payload.empty()) {
        // COW: a duplicated/retransmitted sibling of this packet keeps
        // its clean bytes; only this in-flight copy is corrupted.
        fault_->flip_random_bit(pkt.payload.mutable_span());
      } else {
        // Header-only segment: flip a bit in a checksum-covered field so
        // the corruption is detectable, as on a real wire.
        pkt.tcp.seq ^= 1ull << fault_->rng().below(64);
      }
    }
    if (fault.duplicate || fault.extra_delay > 0) {
      tel_faults_->add();
    }
  }

  const int copies = fault.duplicate ? 2 : 1;
  for (int copy = 0; copy < copies; ++copy) {
    const std::uint64_t bits = pkt.wire_size() * 8ull;
    const auto ser =
        static_cast<sim::Duration>(bits * 1'000'000'000ull / bps_);

    // FIFO through the per-direction serializer (a duplicate occupies a
    // second slot, like a real dupe on the wire).
    const sim::Time now = exec_.now();
    sim::Time start = std::max(now, next_free);
    tel_queue_wait_->record(static_cast<std::int64_t>(start - now));
    next_free = start + ser;
    sim::Time deliver_at = next_free + prop_ + fault.extra_delay;

    tel_total_packets_->add();
    tel_total_bytes_->add(pkt.wire_size());
    if (tel_packets_ != nullptr) {
      tel_packets_->add();
      tel_bytes_->add(pkt.wire_size());
    }
    Packet p = (copy + 1 < copies) ? pkt : std::move(pkt);
    exec_.schedule(deliver_at, [this, to_end, p = std::move(p)]() mutable {
      if (is_down()) return;  // went down while in flight
      receivers_[static_cast<std::size_t>(to_end)](std::move(p));
    });
  }
}

}  // namespace storm::net
