#include "core/hop_stamper.hpp"

namespace storm::core {

HopStamper::HopStamper(obs::Registry& registry, const std::string& mb_vm)
    : registry_(registry),
      cmd_label_("mb." + mb_vm + ".cmd"),
      rsp_label_("mb." + mb_vm + ".rsp"),
      span_name_("relay." + mb_vm) {}

void HopStamper::stamp(std::uint16_t source_port, Direction dir,
                       const iscsi::Pdu& pdu, std::uint64_t value) {
  const bool command = dir == Direction::kToTarget &&
                       pdu.opcode == iscsi::Opcode::kScsiCommand;
  const bool response = dir == Direction::kToInitiator &&
                        pdu.opcode == iscsi::Opcode::kScsiResponse &&
                        pdu.is_final();
  if (!command && !response) return;
  const obs::TraceId trace = obs::trace_id(source_port, pdu.task_tag);
  const obs::SpanId root = registry_.lookup(trace);
  if (root == 0) return;
  if (command) {
    registry_.add_event(root, cmd_label_, value);
    open_[trace] = registry_.begin_span(span_name_, root);
    return;
  }
  registry_.add_event(root, rsp_label_, value);
  auto it = open_.find(trace);
  if (it != open_.end()) {
    registry_.end_span(it->second);
    open_.erase(it);
  }
}

void HopStamper::end_all() {
  for (const auto& [trace, span] : open_) registry_.end_span(span);
  open_.clear();
}

}  // namespace storm::core
