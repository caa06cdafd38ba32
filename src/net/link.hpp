// Point-to-point full-duplex link with bandwidth (serialization delay plus
// FIFO queueing) and propagation delay. Supports failure injection.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <string>

#include "net/packet.hpp"
#include "obs/metrics.hpp"
#include "sim/fault.hpp"
#include "sim/simulator.hpp"

namespace storm::net {

class Link {
 public:
  using Receiver = std::function<void(Packet)>;

  Link(sim::Executor executor, std::uint64_t bits_per_second,
       sim::Duration propagation_delay)
      : exec_(executor), bps_(bits_per_second), prop_(propagation_delay) {}

  Link(const Link&) = delete;
  Link& operator=(const Link&) = delete;

  /// Attach the receive callback for `end` (0 or 1).
  void connect(int end, Receiver receiver) {
    receivers_.at(static_cast<std::size_t>(end)) = std::move(receiver);
  }

  /// Transmit from `from_end`; delivered at the opposite end after
  /// queueing + serialization + propagation. Dropped if the link is down.
  void send(int from_end, Packet pkt);

  void set_down(bool down) { down_ = down; }
  bool is_down() const { return down_; }

  /// Attach a fault plan: every packet crossing this link consults it with
  /// `profile`. `label` names the link in the plan's event trace. Pass
  /// nullptr to detach.
  void set_fault(sim::FaultPlan* plan, sim::PacketFaultProfile profile,
                 std::string label) {
    fault_ = plan;
    fault_profile_ = profile;
    fault_label_ = std::move(label);
  }

  /// Name this link for telemetry ("host0.storage", "vm.web1", ...):
  /// labeled links get per-link packet/byte counters next to the
  /// aggregate net.link.* metrics. Wired from Cloud::register_link.
  void set_label(std::string label) {
    label_ = std::move(label);
    tel_ready_ = false;  // re-resolve under the new name
  }
  const std::string& label() const { return label_; }

 private:
  void ensure_telemetry();

  sim::Executor exec_;
  std::uint64_t bps_;
  sim::Duration prop_;
  bool down_ = false;
  std::array<Receiver, 2> receivers_{};
  // Per-direction serializer, keyed by the sending end: when it is next
  // free.
  std::array<sim::Time, 2> next_free_{};
  sim::FaultPlan* fault_ = nullptr;
  sim::PacketFaultProfile fault_profile_;
  std::string fault_label_;
  std::string label_;
  // Cached metric pointers (stable for the registry's lifetime).
  bool tel_ready_ = false;
  obs::Counter* tel_total_packets_ = nullptr;
  obs::Counter* tel_total_bytes_ = nullptr;
  obs::Counter* tel_faults_ = nullptr;
  obs::Counter* tel_packets_ = nullptr;  // per-link, only when labeled
  obs::Counter* tel_bytes_ = nullptr;
  obs::Histogram* tel_queue_wait_ = nullptr;
};

}  // namespace storm::net
