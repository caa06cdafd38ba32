#include "services/monitor.hpp"

namespace storm::services {

namespace {

/// Per-access analysis cost (hash lookups + log append).
constexpr sim::Duration kCostPerAccess = sim::nanoseconds(400);
constexpr std::size_t kMaxLogEntries = 100'000;

}  // namespace

MonitorService::MonitorService(
    std::unique_ptr<core::SemanticsReconstructor> reconstructor)
    : recon_(std::move(reconstructor)) {}

void MonitorService::watch(const std::string& path_prefix) {
  watches_.push_back(path_prefix);
}

core::ServiceVerdict MonitorService::on_pdu(core::ServiceContext& ctx,
                                            core::Direction dir,
                                            iscsi::Pdu& pdu) {
  core::ServiceVerdict verdict;
  if (dir == core::Direction::kToTarget) {
    if (pdu.opcode == iscsi::Opcode::kScsiCommand && pdu.is_read()) {
      // Classification of reads happens at command time: the geometry is
      // enough, the view is not changed by a read.
      record(recon_->on_read(pdu.lba, pdu.transfer_length));
      ctx.scope().counter("monitor.accesses").add();
      verdict.cpu_cost += kCostPerAccess;
      return verdict;
    }
    if (auto burst = tracker_.on_to_target(&ctx, pdu)) {
      // Update + Analysis: the completed write carries the content that
      // keeps the filesystem view current.
      record(recon_->on_write(burst->lba, burst->data));
      ctx.scope().counter("monitor.accesses").add();
      verdict.cpu_cost += kCostPerAccess;
    }
  }
  return verdict;
}

void MonitorService::record(std::vector<core::FileOp> ops) {
  for (auto& op : ops) {
    LogEntry entry{next_sequence_++, std::move(op)};
    for (const std::string& watch : watches_) {
      bool hit = watch.ends_with("/")
                     ? entry.op.path.starts_with(watch)
                     : entry.op.path == watch;
      if (hit) {
        alerts_.push_back(entry);
        break;
      }
    }
    log_.push_back(std::move(entry));
    if (log_.size() > kMaxLogEntries) log_.pop_front();
  }
}

}  // namespace storm::services
