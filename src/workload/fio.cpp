#include "workload/fio.hpp"

#include <stdexcept>

namespace storm::workload {

FioRunner::FioRunner(sim::Executor executor, block::BlockDevice& device,
                     FioConfig config)
    : sim_(executor), dev_(device), config_(config), rng_(config.seed) {
  if (config_.request_bytes == 0 ||
      config_.request_bytes % block::kSectorSize != 0 ||
      config_.request_bytes / block::kSectorSize > dev_.num_sectors()) {
    throw std::invalid_argument(
        "FioRunner: request_bytes must be a nonzero sector multiple no "
        "larger than the device");
  }
}

void FioRunner::start(std::function<void(FioResult)> done) {
  done_ = std::move(done);
  started_ = sim_.now();
  deadline_ = sim_.now() + config_.duration;
  jobs_running_ = config_.jobs;
  for (unsigned job = 0; job < config_.jobs; ++job) {
    job_loop(job);
  }
}

void FioRunner::job_loop(unsigned job_index) {
  if (sim_.now() >= deadline_) {
    --jobs_running_;
    finish_if_done();
    return;
  }
  const std::uint32_t sectors = config_.request_bytes / block::kSectorSize;
  // The constructor checked sectors <= num_sectors(). Random offsets pick
  // a whole slot below max_lba, sequential ones wrap at max_lba; with
  // nothing to pick, the request goes to lba 0.
  const std::uint64_t max_lba = dev_.num_sectors() - sectors;
  std::uint64_t lba = 0;
  if (config_.random_offsets) {
    // Sector-size aligned random offsets, as fio does by default.
    const std::uint64_t slots = max_lba / sectors;
    if (slots > 0) lba = rng_.below(slots) * sectors;
  } else if (max_lba > 0) {
    lba = (reads_ + writes_) * sectors % max_lba;
  }

  sim::Time issued = sim_.now();
  auto complete = [this, job_index, issued](Status status) {
    if (status.is_ok()) {
      latency_ns_.record(static_cast<std::int64_t>(sim_.now() - issued));
    }
    job_loop(job_index);
  };

  if (rng_.next_double() < config_.write_ratio) {
    ++writes_;
    Bytes data(config_.request_bytes);
    std::uint32_t fill = rng_.next_u32();
    for (std::size_t i = 0; i < data.size(); ++i) {
      data[i] = static_cast<std::uint8_t>(fill >> (8 * (i % 4)));
    }
    dev_.write(lba, std::move(data), complete);
  } else {
    ++reads_;
    dev_.read(lba, sectors,
              [complete](Status status, Bytes) { complete(status); });
  }
}

void FioRunner::finish_if_done() {
  if (jobs_running_ > 0) return;
  FioResult result;
  result.read_ops = reads_;
  result.write_ops = writes_;
  result.total_ops = latency_ns_.count();
  double elapsed_s = sim::to_seconds(sim_.now() - started_);
  if (elapsed_s > 0) {
    result.iops = static_cast<double>(result.total_ops) / elapsed_s;
    result.throughput_mb_s =
        result.iops * config_.request_bytes / (1024.0 * 1024.0);
  }
  result.mean_latency_ms = latency_ns_.mean() / 1e6;
  result.p99_latency_ms = latency_ns_.percentile(99) / 1e6;
  done_(result);
}

}  // namespace storm::workload
