// Value-type metric primitives for the obs:: telemetry layer.
//
// Histogram is HDR-style: log2 buckets with 64 linear sub-buckets each,
// so any recorded value lands in a bucket whose width is at most ~1.6%
// of its magnitude. That bounds percentile error while keeping record()
// O(1): the counts live in a flat array indexed by bucket, grown on
// demand up to the largest bucket recorded (at most 3,712 slots, 29 KiB,
// for INT64_MAX), not a sample vector. count/min/max are exact; sum and
// mean are exact until the sum passes INT64_MAX, where it wraps mod 2^64.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <vector>

namespace storm::obs {

class Counter {
 public:
  void add(std::uint64_t n = 1) { value_ += n; }
  std::uint64_t value() const { return value_; }

 private:
  std::uint64_t value_ = 0;
};

class Gauge {
 public:
  void set(std::int64_t v) { value_ = v; }
  void add(std::int64_t d) { value_ += d; }
  std::int64_t value() const { return value_; }

 private:
  std::int64_t value_ = 0;
};

class Histogram {
 public:
  /// Record one non-negative sample (negatives clamp to 0).
  void record(std::int64_t value);

  std::size_t count() const { return count_; }
  std::int64_t sum() const { return sum_; }
  std::int64_t min() const { return count_ ? min_ : 0; }
  std::int64_t max() const { return count_ ? max_ : 0; }
  double mean() const;

  /// p in [0,100]; nearest-rank over the buckets. p=0 and p=100 return
  /// the exact min/max; interior percentiles return the representative
  /// (midpoint) of the bucket holding that rank, within ~1.6% of the
  /// exact order statistic. Throws std::invalid_argument outside [0,100].
  double percentile(double p) const;

  void clear();

  /// Occupied buckets as (representative value -> count), ascending.
  /// Exposed for JSON export.
  std::map<std::int64_t, std::uint64_t> buckets() const;

 private:
  static std::uint32_t bucket_index(std::uint64_t v);
  static std::int64_t bucket_representative(std::uint32_t index);

  std::vector<std::uint64_t> buckets_;  // count per bucket index
  std::size_t count_ = 0;
  std::int64_t sum_ = 0;
  std::int64_t min_ = 0;
  std::int64_t max_ = 0;
};

}  // namespace storm::obs
