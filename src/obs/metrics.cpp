#include "obs/metrics.hpp"

#include <bit>
#include <cmath>
#include <stdexcept>

namespace storm::obs {

namespace {
// 64 linear sub-buckets per power of two: values below 64 are exact,
// larger values quantize to a bucket of width 2^(msb-6).
constexpr std::uint32_t kSubBuckets = 64;
constexpr std::uint32_t kSubBucketBits = 6;
}  // namespace

std::uint32_t Histogram::bucket_index(std::uint64_t v) {
  if (v < kSubBuckets) return static_cast<std::uint32_t>(v);
  const int msb = 63 - std::countl_zero(v);
  const int shift = msb - static_cast<int>(kSubBucketBits);
  const std::uint64_t top = v >> shift;  // in [64, 127]
  return static_cast<std::uint32_t>((shift + 1) * kSubBuckets +
                                    (top - kSubBuckets));
}

std::int64_t Histogram::bucket_representative(std::uint32_t index) {
  if (index < kSubBuckets) return static_cast<std::int64_t>(index);
  const std::uint32_t shift = index / kSubBuckets - 1;
  const std::uint64_t top = kSubBuckets + index % kSubBuckets;
  const std::uint64_t low = top << shift;
  const std::uint64_t high = low + ((1ull << shift) - 1);
  return static_cast<std::int64_t>((low + high) / 2);
}

void Histogram::record(std::int64_t value) {
  if (value < 0) value = 0;
  if (count_ == 0 || value < min_) min_ = value;
  if (count_ == 0 || value > max_) max_ = value;
  ++count_;
  sum_ = static_cast<std::int64_t>(static_cast<std::uint64_t>(sum_) +
                                   static_cast<std::uint64_t>(value));
  const std::uint32_t index = bucket_index(static_cast<std::uint64_t>(value));
  if (index >= buckets_.size()) buckets_.resize(index + 1);
  ++buckets_[index];
}

double Histogram::mean() const {
  if (count_ == 0) return 0.0;
  return static_cast<double>(sum_) / static_cast<double>(count_);
}

double Histogram::percentile(double p) const {
  if (p < 0.0 || p > 100.0) throw std::invalid_argument("percentile range");
  if (count_ == 0) return 0.0;
  if (p == 0.0) return static_cast<double>(min_);
  if (p == 100.0) return static_cast<double>(max_);
  const auto target = static_cast<std::uint64_t>(
      std::ceil(p / 100.0 * static_cast<double>(count_)));
  std::uint64_t seen = 0;
  for (std::uint32_t index = 0; index < buckets_.size(); ++index) {
    seen += buckets_[index];
    if (seen >= target) {
      // Clamp the representative into the observed range so percentiles
      // never stray outside [min, max].
      std::int64_t rep = bucket_representative(index);
      if (rep < min_) rep = min_;
      if (rep > max_) rep = max_;
      return static_cast<double>(rep);
    }
  }
  return static_cast<double>(max_);
}

void Histogram::clear() {
  buckets_.clear();
  count_ = 0;
  sum_ = 0;
  min_ = 0;
  max_ = 0;
}

std::map<std::int64_t, std::uint64_t> Histogram::buckets() const {
  std::map<std::int64_t, std::uint64_t> out;
  for (std::uint32_t index = 0; index < buckets_.size(); ++index) {
    const std::uint64_t n = buckets_[index];
    if (n != 0) out[bucket_representative(index)] += n;
  }
  return out;
}

}  // namespace storm::obs
