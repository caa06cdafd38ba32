// SimDisk: a latency/throughput-modeled disk over a MemDisk store.
// Service time = base latency + size/bandwidth, FIFO-queued, mimicking
// the single SATA volume host in the paper's testbed.
#pragma once

#include <memory>

#include "block/block_device.hpp"
#include "sim/simulator.hpp"

namespace storm::block {

struct DiskProfile {
  sim::Duration base_latency = sim::microseconds(100);
  std::uint64_t bytes_per_second = 400ull * 1024 * 1024;
  unsigned queue_depth = 8;  // concurrent in-service operations
};

class SimDisk : public BlockDevice {
 public:
  SimDisk(sim::Executor executor, std::uint64_t sectors,
          DiskProfile profile = {})
      : sim_(executor), store_(std::make_unique<MemDisk>(sectors)),
        profile_(profile), slot_free_(profile.queue_depth, 0) {}

  void read(std::uint64_t lba, std::uint32_t count, ReadCallback done) override;
  void write(std::uint64_t lba, Bytes data, WriteCallback done) override;
  std::uint64_t num_sectors() const override { return store_->num_sectors(); }
  /// Scatter-gather write (the iSCSI target's write path): the chunks are
  /// stored consecutively from `lba`; their total size must be
  /// sector-aligned. Each chunk is copied straight into the store at
  /// completion, so a burst assembled from wire segments never needs an
  /// intermediate contiguous buffer.
  void write_gather(std::uint64_t lba, BufChain chunks, WriteCallback done);

  /// Direct access to the backing store (mkfs, test inspection).
  MemDisk& store() { return *store_; }
  const MemDisk& store() const { return *store_; }

  std::uint64_t reads() const { return reads_; }
  std::uint64_t writes() const { return writes_; }

 private:
  /// Completion time for an op of `bytes`, honoring queue_depth slots.
  sim::Time schedule(std::uint64_t bytes);

  sim::Executor sim_;
  std::unique_ptr<MemDisk> store_;
  DiskProfile profile_;
  std::vector<sim::Time> slot_free_;
  std::uint64_t reads_ = 0;
  std::uint64_t writes_ = 0;
};

}  // namespace storm::block
