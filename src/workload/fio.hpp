// Fio-like micro-benchmark: N jobs issue synchronous block I/O in a
// closed loop against a BlockDevice, sweeping request size, parallelism
// and read/write mix — the knobs of the paper's Figures 4-9 runs.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>

#include "block/block_device.hpp"
#include "common/rng.hpp"
#include "obs/metrics.hpp"
#include "sim/simulator.hpp"

namespace storm::workload {

struct FioConfig {
  std::uint32_t request_bytes = 4096;  // per-I/O size (sector multiple)
  unsigned jobs = 1;                   // parallel workers ("threads")
  double write_ratio = 0.5;            // 0..1, paper uses 50/50
  bool random_offsets = true;
  sim::Duration duration = sim::seconds(10);
  std::uint64_t seed = 42;
};

struct FioResult {
  std::uint64_t total_ops = 0;
  std::uint64_t read_ops = 0;
  std::uint64_t write_ops = 0;
  double iops = 0;
  double throughput_mb_s = 0;
  double mean_latency_ms = 0;
  double p99_latency_ms = 0;
};

class FioRunner {
 public:
  /// `executor` is where the job loops run; converts implicitly from
  /// Simulator&.
  FioRunner(sim::Executor executor, block::BlockDevice& device,
            FioConfig config);

  /// Start all jobs; `done` fires when the run duration elapses (jobs
  /// retire in-flight requests first).
  void start(std::function<void(FioResult)> done);

 private:
  void job_loop(unsigned job_index);
  void finish_if_done();

  sim::Executor sim_;
  block::BlockDevice& dev_;
  FioConfig config_;
  Rng rng_;
  sim::Time deadline_ = 0;
  unsigned jobs_running_ = 0;
  std::uint64_t reads_ = 0;
  std::uint64_t writes_ = 0;
  obs::Histogram latency_ns_;
  sim::Time started_ = 0;
  std::function<void(FioResult)> done_;
};

}  // namespace storm::workload
