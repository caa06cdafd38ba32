#include "obs/registry.hpp"

#include <cstdio>

#include "common/buf.hpp"
#include "common/hash.hpp"
#include "sim/simulator.hpp"

namespace storm::obs {

namespace {

void append_escaped(std::string& out, const std::string& s) {
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
}

void append_json_string(std::string& out, const std::string& s) {
  out += '"';
  append_escaped(out, s);
  out += '"';
}

void append_double(std::string& out, double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.6g", v);
  out += buf;
}

}  // namespace

Counter& Scope::counter(const std::string& name) const {
  static Counter null_counter;
  if (registry_ == nullptr) return null_counter;
  return registry_->counter(prefix_ + name);
}

Gauge& Scope::gauge(const std::string& name) const {
  static Gauge null_gauge;
  if (registry_ == nullptr) return null_gauge;
  return registry_->gauge(prefix_ + name);
}

Histogram& Scope::histogram(const std::string& name) const {
  static Histogram null_histogram;
  if (registry_ == nullptr) return null_histogram;
  return registry_->histogram(prefix_ + name);
}

Registry::Registry(sim::Executor executor)
    : exec_(executor),
      copy_baseline_(bufstats::bytes_copied()),
      digest_baseline_(hashstats::bytes_digested()) {
  // Pre-register so the counters appear (as 0) even in dumps taken
  // before any payload byte was copied or digested.
  counter("net.bytes_copied");
  counter("net.bytes_digested");
}

Counter& Registry::counter(const std::string& name) {
  auto& slot = counters_[name];
  if (!slot) slot = std::make_unique<Counter>();
  return *slot;
}

Gauge& Registry::gauge(const std::string& name) {
  auto& slot = gauges_[name];
  if (!slot) slot = std::make_unique<Gauge>();
  return *slot;
}

Histogram& Registry::histogram(const std::string& name) {
  auto& slot = histograms_[name];
  if (!slot) slot = std::make_unique<Histogram>();
  return *slot;
}

sim::Time Registry::now() const { return exec_.now(); }

SpanId Registry::begin_span(std::string name, SpanId parent) {
  return tracer_.begin_span(std::move(name), exec_.now(), parent);
}

void Registry::add_event(SpanId id, std::string label, std::uint64_t value) {
  tracer_.add_event(id, std::move(label), exec_.now(), value);
}

void Registry::end_span(SpanId id) { tracer_.end_span(id, exec_.now()); }

void Registry::record_event(std::string what) {
  recorder_.record(exec_.now(), std::move(what));
}

std::string Registry::to_json(bool include_spans) {
  // Sync the process-wide copy and digest tallies: counters only add, so
  // bring each exported counter up to its current delta.
  auto sync = [this](const char* name, std::uint64_t delta) {
    Counter& c = counter(name);
    if (delta > c.value()) c.add(delta - c.value());
  };
  sync("net.bytes_copied", bufstats::bytes_copied() - copy_baseline_);
  sync("net.bytes_digested", hashstats::bytes_digested() - digest_baseline_);

  std::string out;
  out += "{\n  \"sim_time_ns\": " + std::to_string(exec_.now());

  out += ",\n  \"counters\": {";
  bool first = true;
  for (const auto& [name, counter_ptr] : counters_) {
    out += first ? "\n    " : ",\n    ";
    first = false;
    append_json_string(out, name);
    out += ": " + std::to_string(counter_ptr->value());
  }
  out += first ? "}" : "\n  }";

  out += ",\n  \"gauges\": {";
  first = true;
  for (const auto& [name, gauge] : gauges_) {
    out += first ? "\n    " : ",\n    ";
    first = false;
    append_json_string(out, name);
    out += ": " + std::to_string(gauge->value());
  }
  out += first ? "}" : "\n  }";

  out += ",\n  \"histograms\": {";
  first = true;
  for (const auto& [name, hist] : histograms_) {
    out += first ? "\n    " : ",\n    ";
    first = false;
    append_json_string(out, name);
    out += ": {\"count\": " + std::to_string(hist->count());
    out += ", \"sum\": " + std::to_string(hist->sum());
    out += ", \"min\": " + std::to_string(hist->min());
    out += ", \"max\": " + std::to_string(hist->max());
    out += ", \"mean\": ";
    append_double(out, hist->mean());
    for (double p : {50.0, 90.0, 99.0}) {
      out += ", \"p" + std::to_string(static_cast<int>(p)) + "\": ";
      append_double(out, hist->percentile(p));
    }
    out += "}";
  }
  out += first ? "}" : "\n  }";

  out += ",\n  \"flight_recorder\": [";
  first = true;
  for (const auto& event : recorder_.events()) {
    out += first ? "\n    " : ",\n    ";
    first = false;
    out += "{\"at\": " + std::to_string(event.at) + ", \"what\": ";
    append_json_string(out, event.what);
    out += "}";
  }
  out += first ? "]" : "\n  ]";

  if (include_spans) {
    out += ",\n  \"spans\": [";
    first = true;
    for (const Span& span : tracer_.spans()) {
      out += first ? "\n    " : ",\n    ";
      first = false;
      out += "{\"id\": " + std::to_string(span.id);
      out += ", \"parent\": " + std::to_string(span.parent);
      out += ", \"name\": ";
      append_json_string(out, span.name);
      out += ", \"start\": " + std::to_string(span.start);
      out +=
          ", \"end\": " + std::to_string(span.ended ? span.end : span.start);
      out += ", \"ended\": ";
      out += span.ended ? "true" : "false";
      out += ", \"events\": [";
      bool first_event = true;
      for (const SpanEvent& event : span.events) {
        out += first_event ? "" : ", ";
        first_event = false;
        out += "{\"label\": ";
        append_json_string(out, event.label);
        out += ", \"at\": " + std::to_string(event.at);
        out += ", \"value\": " + std::to_string(event.value) + "}";
      }
      out += "]}";
    }
    out += first ? "]" : "\n  ]";
  }

  out += "\n}\n";
  return out;
}

}  // namespace storm::obs
