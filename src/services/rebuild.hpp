// Background copy machine for replica rebuild (ROADMAP item 4;
// cortx-motr's cm/ SNS-repair is the structural exemplar, shrunk to one
// replica set). When the replication service declares a replica dead —
// or a fresh spare is attached — the copy machine streams the replica's
// dirty extents from a surviving up-to-date copy while foreground I/O
// continues. Every chunk is admitted through a dedicated
// net::TokenBucket, so rebuild traffic is shaped like any tenant flow
// and cannot starve foreground p99. Progress is reported per chunk; the
// owner journals the cursor, which is what makes a rebuild resumable
// across a relay power failure.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <utility>

#include "block/block_device.hpp"
#include "net/qos.hpp"
#include "sim/simulator.hpp"

namespace storm::services {

/// Sorted, coalesced set of [begin, end) sector ranges — the "what this
/// copy missed" bookkeeping behind degraded replicas and rebuilds.
class ExtentSet {
 public:
  /// Insert [begin, end), merging with any overlapping/adjacent extents.
  void add(std::uint64_t begin, std::uint64_t end);
  /// Remove [begin, end) wherever present (may split extents).
  void remove(std::uint64_t begin, std::uint64_t end);
  /// True when [begin, end) overlaps any held extent.
  bool intersects(std::uint64_t begin, std::uint64_t end) const;

  bool empty() const { return extents_.empty(); }
  std::size_t count() const { return extents_.size(); }
  std::uint64_t sectors() const;
  void clear() { extents_.clear(); }

  /// Lowest-addressed chunk of at most `max_sectors`, removed from the
  /// set. Returns {0, 0} when empty.
  std::pair<std::uint64_t, std::uint64_t> take_front(
      std::uint64_t max_sectors);

  const std::map<std::uint64_t, std::uint64_t>& ranges() const {
    return extents_;
  }

 private:
  std::map<std::uint64_t, std::uint64_t> extents_;  // begin -> end
};

/// Streams one rebuilding replica's dirty extents from a survivor to the
/// target device, lowest LBA first, one throttled chunk at a time.
/// Owned via shared_ptr: in-flight token-bucket grants and device
/// completions hold the machine alive across halt()/teardown.
class CopyMachine : public std::enable_shared_from_this<CopyMachine> {
 public:
  struct Hooks {
    /// Read `sectors` sectors at `lba` from an up-to-date copy. The owner
    /// picks the source each call (a live replica's device, or the primary
    /// through the relay's data path). Complete with an error status when
    /// no source is available right now — the machine re-plans the chunk
    /// and stalls until the next kick().
    std::function<void(std::uint64_t lba, std::uint32_t sectors,
                       block::BlockDevice::ReadCallback done)>
        read_source;
    /// One chunk landed on the target: journal the cursor, update
    /// progress gauges.
    std::function<void(std::uint64_t lba, std::uint64_t sectors)> on_chunk;
    /// The dirty set drained with nothing in flight — the owner runs its
    /// version-map match and returns the replica to rotation.
    std::function<void()> on_drained;
    /// The *target* failed mid-copy: the replica died again.
    std::function<void(Status)> on_target_error;
  };

  CopyMachine(sim::Executor executor, net::TokenBucket& pacer,
              block::BlockDevice* target, ExtentSet& dirty, Hooks hooks);

  CopyMachine(const CopyMachine&) = delete;
  CopyMachine& operator=(const CopyMachine&) = delete;

  /// Start (or resume after a stall) pulling extents. Idempotent while a
  /// chunk is already in flight.
  void kick();

  /// Stop dead: in-flight completions and queued token grants from
  /// before the halt are dropped (relay crash, replica death). The
  /// dirty set is left as-is for the owner to re-plan.
  void halt();

  bool halted() const { return halted_; }
  bool in_flight() const { return in_flight_; }
  /// The [begin, end) sector range currently being copied; {0, 0} when
  /// nothing is in flight. Foreground writes overlapping this range must
  /// be re-added to the dirty set instead of written through — the
  /// in-flight chunk carries pre-write bytes and would clobber them.
  std::pair<std::uint64_t, std::uint64_t> active_chunk() const {
    return in_flight_ ? std::make_pair(active_begin_, active_end_)
                      : std::make_pair(std::uint64_t{0}, std::uint64_t{0});
  }
  /// Highest sector copied so far — the resumable rebuild cursor.
  std::uint64_t cursor() const { return cursor_; }
  std::uint64_t bytes_copied() const { return bytes_copied_; }

 private:
  /// Sectors per copy op (64 KiB at 512-byte sectors).
  static constexpr std::uint32_t kChunkSectors = 128;

  void step();
  void copy_chunk(std::uint64_t begin, std::uint64_t end);

  sim::Executor sim_;
  net::TokenBucket& pacer_;
  block::BlockDevice* target_;
  ExtentSet& dirty_;
  Hooks hooks_;

  bool halted_ = false;
  bool in_flight_ = false;
  // Bumped by halt(): completions from the dead incarnation compare
  // epochs and drop themselves.
  std::uint64_t epoch_ = 0;
  std::uint64_t active_begin_ = 0;
  std::uint64_t active_end_ = 0;
  std::uint64_t cursor_ = 0;
  std::uint64_t bytes_copied_ = 0;
};

}  // namespace storm::services
