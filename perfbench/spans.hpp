// Host-time spans the benchmark records around its own calls into the
// simulator (traced runs only). Spans stay in memory and are written out
// once, when the benchmark ends.
//
// Every recording site owns one SpanLog, so sites on different worker
// threads of the partitioned kernel never share a buffer. Span ids carry
// their log's source number in the high bits and are unique per process.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

inline std::int64_t host_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Span {
  const char* name;
  std::uint64_t id;
  std::uint64_t parent;   // 0 = root
  std::uint64_t request;  // shared by every span of one I/O; 0 = none
  std::int64_t start_ns;
  std::int64_t end_ns;
};

class SpanLog {
 public:
  explicit SpanLog(std::uint32_t source)
      : next_(static_cast<std::uint64_t>(source) << 40) {}

  /// Reserve an id for a span whose children are recorded before it ends.
  std::uint64_t next_id() { return ++next_; }

  void add(std::uint64_t id, const char* name, std::uint64_t parent,
           std::uint64_t request, std::int64_t start_ns,
           std::int64_t end_ns) {
    spans_.push_back(Span{name, id, parent, request, start_ns, end_ns});
  }
  std::uint64_t add(const char* name, std::uint64_t parent,
                    std::uint64_t request, std::int64_t start_ns,
                    std::int64_t end_ns) {
    const std::uint64_t id = next_id();
    add(id, name, parent, request, start_ns, end_ns);
    return id;
  }

  const std::vector<Span>& spans() const { return spans_; }

 private:
  std::uint64_t next_;
  std::vector<Span> spans_;
};

/// Maps an in-flight block request (volume, lba) to its request id, so the
/// service decorator on the middle-box can tag the PDUs of that I/O. The
/// two sides may run on different partitions, hence the lock.
class RequestIds {
 public:
  void put(const std::string& volume, std::uint64_t lba, std::uint64_t id) {
    std::lock_guard<std::mutex> lock(mu_);
    ids_[{volume, lba}] = id;
  }
  std::uint64_t get(const std::string& volume, std::uint64_t lba) const {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = ids_.find({volume, lba});
    return it == ids_.end() ? 0 : it->second;
  }

 private:
  mutable std::mutex mu_;
  std::map<std::pair<std::string, std::uint64_t>, std::uint64_t> ids_;
};

/// Everything a traced round records into.
class Trace {
 public:
  Trace() : main_(0) {}

  SpanLog& main() { return main_; }
  /// A fresh log for one recording site (one decorator instance).
  SpanLog& new_log() {
    logs_.push_back(std::make_unique<SpanLog>(
        static_cast<std::uint32_t>(logs_.size() + 1)));
    return *logs_.back();
  }
  RequestIds& requests() { return requests_; }

  /// The `sim.slice` span the driving thread is currently running; the
  /// parent of spans opened by simulated events. Written only between
  /// slices, read by workers during one.
  std::atomic<std::uint64_t> slice{0};

  template <typename Fn>
  void for_each_span(Fn fn) const {
    for (const Span& s : main_.spans()) fn(s);
    for (const auto& log : logs_) {
      for (const Span& s : log->spans()) fn(s);
    }
  }

 private:
  SpanLog main_;
  std::vector<std::unique_ptr<SpanLog>> logs_;
  RequestIds requests_;
};

}  // namespace perfbench
