#include "net/switch.hpp"

#include <utility>

#include "common/log.hpp"

namespace storm::net {

namespace {

/// Forwarding latency of every switch, per packet.
constexpr sim::Duration kPerPacketLatency = sim::microseconds(2);

}  // namespace

int L2Switch::attach(Link& link, int end) {
  int port = static_cast<int>(ports_.size());
  ports_.push_back(Port{&link, end});
  link.connect(end, [this, port](Packet pkt) { on_receive(port, pkt); });
  return port;
}

void L2Switch::on_receive(int in_port, Packet pkt) {
  // Model the switch's forwarding latency, then run the data path.
  sim_.schedule_in(kPerPacketLatency, [this, in_port, p = std::move(pkt)]() mutable {
    process(in_port, std::move(p));
  });
}

void L2Switch::process(int in_port, Packet pkt) {
  forward_normal(in_port, std::move(pkt));
}

void L2Switch::forward_normal(int in_port, Packet&& pkt) {
  mac_table_[pkt.eth.src.value] = in_port;
  if (!pkt.eth.dst.is_broadcast()) {
    auto it = mac_table_.find(pkt.eth.dst.value);
    if (it != mac_table_.end()) {
      if (it->second != in_port) output(it->second, std::move(pkt));
      return;
    }
  }
  // Flood: copy for every egress port but the last, which takes the
  // original by move. (Packet copies share the payload storage anyway;
  // this avoids the header copy and the refcount churn.)
  int last = -1;
  for (int port = port_count() - 1; port >= 0; --port) {
    if (port != in_port) {
      last = port;
      break;
    }
  }
  for (int port = 0; port < last; ++port) {
    if (port == in_port) continue;
    output(port, Packet(pkt));
  }
  if (last >= 0) output(last, std::move(pkt));
}

void L2Switch::output(int port, Packet&& pkt) {
  if (port < 0 || port >= port_count()) {
    log_warn("switch") << name_ << ": drop to invalid port " << port;
    return;
  }
  Port& p = ports_[static_cast<std::size_t>(port)];
  p.link->send(p.end, std::move(pkt));
}

}  // namespace storm::net
