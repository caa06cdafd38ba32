// L2 learning switch: MAC table learned from source addresses, flooding
// for unknown/broadcast destinations. Base for the OVS-style FlowSwitch.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "net/link.hpp"
#include "net/packet.hpp"
#include "sim/simulator.hpp"

namespace storm::net {

class L2Switch {
 public:
  L2Switch(sim::Executor executor, std::string name)
      : sim_(executor), name_(std::move(name)) {}

  virtual ~L2Switch() = default;
  L2Switch(const L2Switch&) = delete;
  L2Switch& operator=(const L2Switch&) = delete;

  /// Wire `link` end `end` into this switch; returns the port number.
  int attach(Link& link, int end);

  int port_count() const { return static_cast<int>(ports_.size()); }
  const std::string& name() const { return name_; }

 protected:
  /// Default data path: learn + forward. FlowSwitch overrides.
  virtual void process(int in_port, Packet pkt);

  /// L2 learn/forward used both directly and as OVS "NORMAL" action.
  void forward_normal(int in_port, Packet&& pkt);

  /// Emit on a specific port.
  void output(int port, Packet&& pkt);

  sim::Executor sim_;

 private:
  void on_receive(int in_port, Packet pkt);

  struct Port {
    Link* link;
    int end;
  };

  std::string name_;
  std::vector<Port> ports_;
  std::map<std::uint64_t, int> mac_table_;  // MAC value -> port
};

}  // namespace storm::net
