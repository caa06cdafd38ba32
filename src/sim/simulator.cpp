#include "sim/simulator.hpp"

#include <algorithm>
#include <utility>

#include "obs/registry.hpp"

namespace storm::sim {

Simulator::Simulator(ParallelConfig config)
    : lookahead_(config.lookahead == 0 ? 1 : config.lookahead),
      // Created now so the registry's buffer-copy baseline is this
      // simulator's construction.
      telemetry_(std::make_unique<obs::Registry>(Executor(*this))) {}

Simulator::~Simulator() {
  // Drop pending events one at a time while the slab is intact: a
  // closure's destructor may cancel another token.
  while (!heap_.empty()) cancel_slot(heap_.back().slot);
}

std::string Simulator::telemetry_json(bool include_spans) {
  return telemetry_->to_json(include_spans);
}

void Simulator::sift_up(std::size_t i) {
  const Key key = heap_[i];
  while (i > 0) {
    const std::size_t parent = (i - 1) / kArity;
    if (!before(key, heap_[parent])) break;
    place(i, heap_[parent]);
    i = parent;
  }
  place(i, key);
}

void Simulator::sift_down(std::size_t i) {
  const Key key = heap_[i];
  const std::size_t n = heap_.size();
  for (;;) {
    const std::size_t first = i * kArity + 1;
    if (first >= n) break;
    const std::size_t end = std::min(first + kArity, n);
    std::size_t least = first;
    for (std::size_t c = first + 1; c < end; ++c) {
      if (before(heap_[c], heap_[least])) least = c;
    }
    if (!before(heap_[least], key)) break;
    place(i, heap_[least]);
    i = least;
  }
  place(i, key);
}

void Simulator::remove_at(std::size_t i) {
  const Key last = heap_.back();
  heap_.pop_back();
  if (i == heap_.size()) return;
  heap_[i] = last;
  if (i > 0 && before(last, heap_[(i - 1) / kArity])) {
    sift_up(i);
  } else {
    sift_down(i);
  }
}

void Simulator::cancel_slot(std::uint32_t slot) {
  Slot& s = slots_[slot];
  ++s.gen;
  remove_at(s.pos);
  free_slots_.push_back(slot);
  // Destroyed only now that the heap is consistent: a closure's
  // destructor may schedule or cancel.
  Callback dead = std::exchange(s.fn, nullptr);
}

void Simulator::fire_next() {
  const Key top = heap_.front();
  remove_at(0);
  Slot& s = slots_[top.slot];
  ++s.gen;  // a token cancelled from its own callback is a no-op
  // Moved out of the slab: the callback may schedule, which can grow
  // slots_ or reuse this slot.
  Callback fn = std::exchange(s.fn, nullptr);
  free_slots_.push_back(top.slot);
  now_ = top.when;
  fn();
}

std::size_t Simulator::run() {
  std::size_t count = 0;
  for (; !heap_.empty(); ++count) fire_next();
  return count;
}

std::size_t Simulator::run_until(Time deadline) {
  std::size_t count = 0;
  for (; !heap_.empty() && heap_.front().when <= deadline; ++count) {
    fire_next();
  }
  if (now_ < deadline) now_ = deadline;
  return count;
}

}  // namespace storm::sim
