#include "sim/simulator.hpp"

#include <utility>

#include "obs/registry.hpp"

namespace storm::sim {

Simulator::Simulator(ParallelConfig config)
    : lookahead_(config.lookahead == 0 ? 1 : config.lookahead),
      // Created now so the registry's buffer-copy baseline is this
      // simulator's construction.
      telemetry_(std::make_unique<obs::Registry>(Executor(*this))) {}

Simulator::~Simulator() = default;

std::string Simulator::telemetry_json(bool include_spans) {
  return telemetry_->to_json(include_spans);
}

bool Simulator::fire_next() {
  // Move-extract the top event: the comparator only reads when/seq,
  // which moving leaves intact, so hollowing out fn before pop is safe
  // and skips a std::function deep copy per event.
  Event ev = std::move(const_cast<Event&>(queue_.top()));
  queue_.pop();
  if (slot_gen_[ev.slot] != ev.gen) return false;  // cancelled
  ++slot_gen_[ev.slot];
  now_ = ev.when;
  ev.fn();
  free_slots_.push_back(ev.slot);
  return true;
}

std::size_t Simulator::run() {
  std::size_t count = 0;
  while (!queue_.empty()) {
    if (fire_next()) ++count;
  }
  return count;
}

std::size_t Simulator::run_until(Time deadline) {
  std::size_t count = 0;
  while (!queue_.empty() && queue_.top().when <= deadline) {
    if (fire_next()) ++count;
  }
  if (now_ < deadline) now_ = deadline;
  return count;
}

}  // namespace storm::sim
