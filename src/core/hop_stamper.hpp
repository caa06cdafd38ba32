// One middle-box's stamps on SCSI command traces, shared by both relay
// modes: an event on the command's root span each time the command or
// its final response crosses the box, and a "relay.<mb-vm>" child span
// covering the command's dwell inside it.
#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>

#include "core/service.hpp"
#include "iscsi/pdu.hpp"
#include "obs/registry.hpp"

namespace storm::core {

class HopStamper {
 public:
  HopStamper(obs::Registry& registry, const std::string& mb_vm);

  /// Stamps `pdu` if it is a SCSI command or response of a traced
  /// command. `source_port` is the flow's preserved initiator port;
  /// `value` is the relay's load figure at arrival (event value).
  void stamp(std::uint16_t source_port, Direction dir, const iscsi::Pdu& pdu,
             std::uint64_t value);

  /// Ends every open child span: the box crashed, and the commands in
  /// flight inside it died with it. A re-issued command opens a new span.
  void end_all();

 private:
  obs::Registry& registry_;
  const std::string cmd_label_;  // "mb.<mb-vm>.cmd"
  const std::string rsp_label_;  // "mb.<mb-vm>.rsp"
  const std::string span_name_;  // "relay.<mb-vm>"
  // Open child spans by command; closed when the final SCSI response
  // passes back toward the initiator.
  std::unordered_map<obs::TraceId, obs::SpanId> open_;
};

}  // namespace storm::core
