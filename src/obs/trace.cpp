#include "obs/trace.hpp"

namespace storm::obs {

SpanId Tracer::begin_span(std::string name, sim::Time now, SpanId parent) {
  SpanId id = next_id_++;
  if (spans_.size() >= max_retained_) {
    ++dropped_;
    return id;
  }
  Span span;
  span.id = id;
  span.parent = parent;
  span.name = std::move(name);
  span.start = now;
  spans_.push_back(std::move(span));
  return id;
}

Span* Tracer::find(SpanId id) { return const_cast<Span*>(span(id)); }

void Tracer::add_event(SpanId id, std::string label, sim::Time now,
                       std::uint64_t value) {
  if (Span* span = find(id)) {
    span->events.push_back(SpanEvent{std::move(label), now, value});
  }
}

void Tracer::end_span(SpanId id, sim::Time now) {
  if (Span* span = find(id)) {
    span->end = now;
    span->ended = true;
  }
}

SpanId Tracer::lookup(TraceId trace) const {
  auto it = bindings_.find(trace);
  return it == bindings_.end() ? 0 : it->second;
}

// Ids are sequential and only the first max_retained_ spans are stored,
// so span `id` sits at spans_[id - 1].
const Span* Tracer::span(SpanId id) const {
  return id >= 1 && id <= spans_.size() ? &spans_[id - 1] : nullptr;
}

std::vector<const Span*> Tracer::spans_named(const std::string& name) const {
  std::vector<const Span*> out;
  for (const Span& span : spans_) {
    if (span.name == name) out.push_back(&span);
  }
  return out;
}

std::vector<const Span*> Tracer::children_of(SpanId parent) const {
  std::vector<const Span*> out;
  for (const Span& span : spans_) {
    if (span.parent == parent) out.push_back(&span);
  }
  return out;
}

}  // namespace storm::obs
