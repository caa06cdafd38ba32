// PostMark-like small-file workload (the paper's Figure 11 application):
// creates a pool of small files across subdirectories, then runs a
// transaction mix of whole-file reads, appends, creations and deletions,
// reporting per-operation-class rates.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "fs/simext.hpp"
#include "sim/simulator.hpp"

namespace storm::workload {

struct PostmarkConfig {
  unsigned directories = 10;
  unsigned initial_files = 100;
  unsigned transactions = 500;
  std::uint32_t min_file_bytes = 512;
  std::uint32_t max_file_bytes = 16 * 1024;
  std::uint32_t append_bytes = 4096;
  std::uint64_t seed = 7;
};

struct PostmarkResult {
  double read_ops_per_s = 0;
  double append_ops_per_s = 0;
  double create_ops_per_s = 0;
  double delete_ops_per_s = 0;
  double read_mb_per_s = 0;
  double write_mb_per_s = 0;
  std::uint64_t errors = 0;
  double elapsed_s = 0;
};

class PostmarkRunner {
 public:
  /// `executor` drives the filesystem (converts implicitly from
  /// Simulator&).
  PostmarkRunner(sim::Executor executor, fs::SimExt& filesystem,
                 PostmarkConfig config);

  void run(std::function<void(PostmarkResult)> done);

  /// Observe every transaction's completion latency (e.g. foreground
  /// p99 while a replica rebuild competes for the data path). Called
  /// once per transaction, in issue order.
  void set_latency_sink(std::function<void(sim::Duration)> sink) {
    latency_sink_ = std::move(sink);
  }

 private:
  void setup_dirs(unsigned index);
  void create_initial(unsigned index);
  void transaction(unsigned index);
  void finish();

  std::string random_existing();
  std::string fresh_name();

  sim::Executor sim_;
  fs::SimExt& fs_;
  PostmarkConfig config_;
  Rng rng_;
  std::vector<std::string> files_;
  std::uint64_t next_file_id_ = 0;

  sim::Time phase_start_ = 0;
  std::uint64_t reads_ = 0, appends_ = 0, creates_ = 0, deletes_ = 0;
  std::uint64_t bytes_read_ = 0, bytes_written_ = 0, errors_ = 0;
  std::function<void(PostmarkResult)> done_;
  std::function<void(sim::Duration)> latency_sink_;
};

}  // namespace storm::workload
