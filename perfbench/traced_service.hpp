// StorageService decorator for traced runs: delegates every virtual call
// (and name()) to a built-in service and records the host time of each
// on_pdu as a `service.on_pdu` span tagged with the request id of the
// block I/O the PDU belongs to. Registered under the built-in's own type
// name, so the platform deploys it exactly where the built-in would go.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/service.hpp"
#include "spans.hpp"

namespace perfbench {

class TracedService final : public storm::core::StorageService {
 public:
  TracedService(std::unique_ptr<storm::core::StorageService> inner,
                Trace& trace)
      : inner_(std::move(inner)), trace_(trace), log_(trace.new_log()) {}

  storm::core::StorageService& inner() { return *inner_; }
  /// Host ns of each on_pdu call made during the measured phase.
  const std::vector<std::int64_t>& on_pdu_ns() const { return on_pdu_ns_; }

  std::string name() const override { return inner_->name(); }

  storm::core::ServiceVerdict on_pdu(storm::core::ServiceContext& ctx,
                                     storm::core::Direction dir,
                                     storm::iscsi::Pdu& pdu) override {
    std::uint64_t request = 0;
    if (pdu.opcode == storm::iscsi::Opcode::kScsiCommand) {
      request = trace_.requests().get(ctx.volume(), pdu.lba);
      tags_[pdu.task_tag] = request;
    } else if (auto it = tags_.find(pdu.task_tag); it != tags_.end()) {
      request = it->second;
      if (pdu.opcode == storm::iscsi::Opcode::kScsiResponse) tags_.erase(it);
    }
    const std::int64_t start = host_ns();
    storm::core::ServiceVerdict verdict = inner_->on_pdu(ctx, dir, pdu);
    const std::int64_t end = host_ns();
    const std::uint64_t slice = trace_.slice.load(std::memory_order_relaxed);
    log_.add("service.on_pdu", slice, request, start, end);
    if (slice != 0) on_pdu_ns_.push_back(end - start);
    return verdict;
  }

  bool requires_active_relay() const override {
    return inner_->requires_active_relay();
  }
  bool confidentiality_critical() const override {
    return inner_->confidentiality_critical();
  }
  bool replica_safe() const override { return inner_->replica_safe(); }
  void initialize(std::function<void(storm::Status)> ready) override {
    inner_->initialize(std::move(ready));
  }
  void on_flow_closed(storm::Status status) override {
    inner_->on_flow_closed(std::move(status));
  }
  void bind_host(const storm::core::ServiceHost& host) override {
    inner_->bind_host(host);
  }
  void on_health_probe(storm::sim::Time now) override {
    inner_->on_health_probe(now);
  }
  void on_host_crashed() override { inner_->on_host_crashed(); }
  void on_host_recovered() override { inner_->on_host_recovered(); }

 private:
  std::unique_ptr<storm::core::StorageService> inner_;
  Trace& trace_;
  SpanLog& log_;
  std::map<std::uint32_t, std::uint64_t> tags_;  // task tag -> request id
  std::vector<std::int64_t> on_pdu_ns_;
};

}  // namespace perfbench
