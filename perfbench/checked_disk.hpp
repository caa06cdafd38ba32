// Read-back oracle: a BlockDevice decorator between a workload (fio or
// SimExt) and a tenant's virtual disk.
//
// The device is cut into fixed slots (the workload's I/O unit). For every
// slot a write fully covered, the decorator keeps a digest of the last
// acknowledged bytes. A read of such a slot is checked against that
// digest when no write to the slot was in flight at any time while the
// read ran; a slot written by overlapping writes, by a partial write or
// by a failed write becomes unknown until the next clean write.
//
// It also times each request on the simulated clock (issue to
// completion) and, in traced runs, records the host time spent inside
// the wrapped device's read/write call as a `block.read`/`block.write`
// span.
#pragma once

#include <cstdint>
#include <cstring>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "block/block_device.hpp"
#include "iscsi/pdu.hpp"
#include "sim/simulator.hpp"
#include "spans.hpp"

namespace perfbench {

/// Four-lane multiply-xorshift digest; independent of the simulator's
/// own CRC so the oracle does not share code with what it checks.
inline std::uint64_t digest(const std::uint8_t* data, std::size_t n) {
  std::uint64_t lane[4] = {0x243F6A8885A308D3ull, 0x13198A2E03707344ull,
                           0xA4093822299F31D0ull, 0x082EFA98EC4E6C89ull};
  std::size_t i = 0;
  for (; i + 32 <= n; i += 32) {
    for (int k = 0; k < 4; ++k) {
      std::uint64_t w;
      std::memcpy(&w, data + i + 8 * k, 8);
      lane[k] = (lane[k] ^ w) * 0x9E3779B97F4A7C15ull;
      lane[k] ^= lane[k] >> 29;
    }
  }
  std::uint64_t h = n;
  for (; i < n; ++i) h = (h ^ data[i]) * 0x100000001B3ull;
  for (std::uint64_t l : lane) h = (h ^ l) * 0xBF58476D1CE4E5B9ull;
  return h ^ (h >> 31);
}

struct DiskCounts {
  std::uint64_t attempted = 0;   // requests issued
  std::uint64_t completed = 0;   // requests acknowledged OK
  std::uint64_t measured = 0;    // ... of those issued after the warm-up
  std::uint64_t errors = 0;      // requests acknowledged with an error
  std::uint64_t verified = 0;    // slot reads checked against a digest
  std::uint64_t mismatches = 0;  // ... that differed
  std::uint64_t bytes = 0;       // payload bytes requested
  std::uint64_t data_pdus = 0;   // data PDUs one TCP leg carries for them
};

class CheckedDisk final : public storm::block::BlockDevice {
 public:
  /// `executor`: the partition the workload runs on. `trace` may be null.
  CheckedDisk(storm::sim::Executor executor, storm::block::BlockDevice& inner,
              std::uint32_t slot_sectors, std::string volume, Trace* trace)
      : exec_(executor), inner_(inner), slot_sectors_(slot_sectors),
        volume_(std::move(volume)), trace_(trace),
        log_(trace != nullptr ? &trace->new_log() : nullptr) {}

  void read(std::uint64_t lba, std::uint32_t count,
            ReadCallback done) override {
    ++counts_.attempted;
    const storm::sim::Time issued = exec_.now();
    std::vector<Watch> watches;
    for_each_full_slot(lba, count, [&](std::uint64_t slot) {
      auto it = slots_.find(slot);
      if (it != slots_.end() && it->second.known &&
          it->second.in_flight == 0) {
        watches.push_back(Watch{slot, it->second.generation});
      }
    });
    const std::uint64_t request =
        begin_request(lba, std::uint64_t{count} * storm::block::kSectorSize);
    auto on_done = [this, lba, issued, watches = std::move(watches),
                    done = std::move(done)](storm::Status status,
                                            storm::Bytes data) mutable {
      if (finish(status, issued)) check(lba, watches, data);
      done(status, std::move(data));
    };
    submit("block.read", request,
           [&] { inner_.read(lba, count, std::move(on_done)); });
  }

  void write(std::uint64_t lba, storm::Bytes data,
             WriteCallback done) override {
    ++counts_.attempted;
    const storm::sim::Time issued = exec_.now();
    const std::uint32_t count =
        static_cast<std::uint32_t>(data.size() / storm::block::kSectorSize);
    for_each_touched_slot(lba, count, [&](std::uint64_t slot) {
      SlotState& state = slots_[slot];
      ++state.generation;
      if (state.in_flight++ > 0) state.overlapped = true;
    });
    // Digests of the fully covered slots; a slot touched only in part has
    // none and becomes unknown.
    std::vector<std::pair<std::uint64_t, std::uint64_t>> digests;
    for_each_full_slot(lba, count, [&](std::uint64_t slot) {
      const std::size_t off =
          (slot * slot_sectors_ - lba) * storm::block::kSectorSize;
      digests.emplace_back(
          slot, digest(data.data() + off,
                       slot_sectors_ * storm::block::kSectorSize));
    });
    const std::uint64_t request = begin_request(lba, data.size());
    auto on_done = [this, lba, count, issued, digests = std::move(digests),
                    done = std::move(done)](storm::Status status) {
      const bool ok = finish(status, issued);
      std::size_t next = 0;
      for_each_touched_slot(lba, count, [&](std::uint64_t slot) {
        SlotState& state = slots_[slot];
        ++state.generation;
        const bool full = next < digests.size() && digests[next].first == slot;
        const std::uint64_t d = full ? digests[next++].second : 0;
        if (--state.in_flight > 0) {
          state.known = false;
          return;
        }
        // Overlapping writes may land in either order: unknowable.
        state.known = ok && full && !state.overlapped;
        state.digest = d;
        state.overlapped = false;
      });
      done(status);
    };
    submit("block.write", request, [&] {
      inner_.write(lba, std::move(data), std::move(on_done));
    });
  }

  std::uint64_t num_sectors() const override { return inner_.num_sectors(); }

  /// Requests issued before `t` are warm-up: they are checked and counted
  /// but left out of `measured` and of the latencies.
  void measure_from(storm::sim::Time t) { measure_from_ = t; }

  const DiskCounts& counts() const { return counts_; }
  /// Simulated issue-to-completion latency of every acknowledged request
  /// issued after the warm-up.
  const std::vector<std::int64_t>& latencies_ns() const { return latency_; }
  /// Host ns spent inside the wrapped read/write calls during the
  /// measured phase (traced runs).
  const std::vector<std::int64_t>& submit_ns() const { return submit_; }

 private:
  struct SlotState {
    std::uint64_t digest = 0;
    std::uint64_t generation = 0;  // bumped at every write issue/completion
    std::uint32_t in_flight = 0;
    bool known = false;
    bool overlapped = false;  // writes to the slot overlapped in time
  };
  struct Watch {
    std::uint64_t slot;
    std::uint64_t generation;
  };

  template <typename Fn>
  void for_each_full_slot(std::uint64_t lba, std::uint32_t count, Fn fn) {
    const std::uint64_t first = (lba + slot_sectors_ - 1) / slot_sectors_;
    for (std::uint64_t s = first; (s + 1) * slot_sectors_ <= lba + count;
         ++s) {
      fn(s);
    }
  }

  template <typename Fn>
  void for_each_touched_slot(std::uint64_t lba, std::uint32_t count, Fn fn) {
    for (std::uint64_t s = lba / slot_sectors_; s * slot_sectors_ < lba + count;
         ++s) {
      fn(s);
    }
  }

  /// Count the request's bytes and the data PDUs that carry them over one
  /// TCP leg (data is streamed in kMaxDataSegment chunks).
  std::uint64_t begin_request(std::uint64_t lba, std::uint64_t bytes) {
    counts_.bytes += bytes;
    counts_.data_pdus += (bytes + storm::iscsi::kMaxDataSegment - 1) /
                         storm::iscsi::kMaxDataSegment;
    if (trace_ == nullptr) return 0;
    const std::uint64_t request = log_->next_id();
    trace_->requests().put(volume_, lba, request);
    return request;
  }

  template <typename Call>
  void submit(const char* name, std::uint64_t request, Call call) {
    if (trace_ == nullptr) {
      call();
      return;
    }
    const std::int64_t start = host_ns();
    call();
    const std::int64_t end = host_ns();
    const std::uint64_t slice = trace_->slice.load(std::memory_order_relaxed);
    log_->add(name, slice, request, start, end);
    if (slice != 0) submit_.push_back(end - start);
  }

  /// Count the completion; true when it succeeded.
  bool finish(const storm::Status& status, storm::sim::Time issued) {
    if (!status.is_ok()) {
      ++counts_.errors;
      return false;
    }
    ++counts_.completed;
    if (issued >= measure_from_) {
      ++counts_.measured;
      latency_.push_back(static_cast<std::int64_t>(exec_.now() - issued));
    }
    return true;
  }

  void check(std::uint64_t lba, const std::vector<Watch>& watches,
             const storm::Bytes& data) {
    for (const Watch& w : watches) {
      const SlotState& state = slots_[w.slot];
      if (state.generation != w.generation || !state.known) continue;
      const std::size_t off =
          (w.slot * slot_sectors_ - lba) * storm::block::kSectorSize;
      const std::size_t len = slot_sectors_ * storm::block::kSectorSize;
      ++counts_.verified;
      if (off + len > data.size() ||
          digest(data.data() + off, len) != state.digest) {
        ++counts_.mismatches;
      }
    }
  }

  storm::sim::Executor exec_;
  storm::block::BlockDevice& inner_;
  std::uint32_t slot_sectors_;
  std::string volume_;
  Trace* trace_;
  SpanLog* log_;
  std::unordered_map<std::uint64_t, SlotState> slots_;
  DiskCounts counts_;
  storm::sim::Time measure_from_ = 0;
  std::vector<std::int64_t> latency_;
  std::vector<std::int64_t> submit_;
};

}  // namespace perfbench
