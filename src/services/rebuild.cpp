#include "services/rebuild.hpp"

#include <algorithm>

namespace storm::services {

// ----------------------------------------------------------- ExtentSet

void ExtentSet::add(std::uint64_t begin, std::uint64_t end) {
  if (begin >= end) return;
  // Fold in every extent overlapping or touching [begin, end).
  auto it = extents_.upper_bound(begin);
  if (it != extents_.begin()) {
    auto prev = std::prev(it);
    if (prev->second >= begin) it = prev;
  }
  while (it != extents_.end() && it->first <= end) {
    begin = std::min(begin, it->first);
    end = std::max(end, it->second);
    it = extents_.erase(it);
  }
  extents_[begin] = end;
}

void ExtentSet::remove(std::uint64_t begin, std::uint64_t end) {
  if (begin >= end) return;
  auto it = extents_.upper_bound(begin);
  if (it != extents_.begin()) {
    auto prev = std::prev(it);
    if (prev->second > begin) it = prev;
  }
  while (it != extents_.end() && it->first < end) {
    const std::uint64_t e_begin = it->first;
    const std::uint64_t e_end = it->second;
    it = extents_.erase(it);
    if (e_begin < begin) extents_[e_begin] = begin;
    if (e_end > end) {
      extents_[end] = e_end;
      break;
    }
  }
}

bool ExtentSet::intersects(std::uint64_t begin, std::uint64_t end) const {
  if (begin >= end) return false;
  auto it = extents_.upper_bound(begin);
  if (it != extents_.begin()) {
    auto prev = std::prev(it);
    if (prev->second > begin) return true;
  }
  return it != extents_.end() && it->first < end;
}

std::uint64_t ExtentSet::sectors() const {
  std::uint64_t total = 0;
  for (const auto& [begin, end] : extents_) total += end - begin;
  return total;
}

std::pair<std::uint64_t, std::uint64_t> ExtentSet::take_front(
    std::uint64_t max_sectors) {
  if (extents_.empty() || max_sectors == 0) return {0, 0};
  auto it = extents_.begin();
  const std::uint64_t begin = it->first;
  const std::uint64_t end = std::min(it->second, begin + max_sectors);
  if (end == it->second) {
    extents_.erase(it);
  } else {
    const std::uint64_t rest = it->second;
    extents_.erase(it);
    extents_[end] = rest;
  }
  return {begin, end};
}

// --------------------------------------------------------- CopyMachine

CopyMachine::CopyMachine(sim::Executor executor, net::TokenBucket& pacer,
                         block::BlockDevice* target, ExtentSet& dirty,
                         Hooks hooks)
    : sim_(executor), pacer_(pacer), target_(target), dirty_(dirty),
      hooks_(std::move(hooks)) {}

void CopyMachine::kick() {
  if (halted_ || in_flight_) return;
  step();
}

void CopyMachine::halt() {
  halted_ = true;
  in_flight_ = false;
  ++epoch_;
}

void CopyMachine::step() {
  if (halted_) return;
  if (dirty_.empty()) {
    if (hooks_.on_drained) hooks_.on_drained();
    return;
  }
  auto [begin, end] = dirty_.take_front(kChunkSectors);
  in_flight_ = true;
  active_begin_ = begin;
  active_end_ = end;
  const std::uint64_t epoch = epoch_;
  const std::size_t bytes =
      static_cast<std::size_t>(end - begin) * block::kSectorSize;
  auto self = shared_from_this();
  pacer_.admit(bytes, [self, epoch, begin = begin, end = end] {
    if (self->halted_ || epoch != self->epoch_) return;
    self->copy_chunk(begin, end);
  });
}

void CopyMachine::copy_chunk(std::uint64_t begin, std::uint64_t end) {
  const std::uint64_t epoch = epoch_;
  auto self = shared_from_this();
  hooks_.read_source(
      begin, static_cast<std::uint32_t>(end - begin),
      [self, epoch, begin, end](Status status, Bytes data) {
        if (self->halted_ || epoch != self->epoch_) return;
        if (!status.is_ok()) {
          // No up-to-date source right now, or the one we used dropped
          // out mid-read: re-plan the chunk and stall; the owner kicks
          // again from its next health probe.
          self->dirty_.add(begin, end);
          self->in_flight_ = false;
          return;
        }
        self->target_->write(
            begin, std::move(data),
            [self, epoch, begin, end](Status write_status) {
              if (self->halted_ || epoch != self->epoch_) return;
              self->in_flight_ = false;
              if (!write_status.is_ok()) {
                self->dirty_.add(begin, end);
                if (self->hooks_.on_target_error) {
                  self->hooks_.on_target_error(write_status);
                }
                return;
              }
              const std::uint64_t sectors = end - begin;
              self->cursor_ = std::max(self->cursor_, end);
              self->bytes_copied_ += sectors * block::kSectorSize;
              if (self->hooks_.on_chunk) self->hooks_.on_chunk(begin, sectors);
              // Yield to the event loop between chunks: foreground I/O
              // interleaves even when the bucket has tokens banked.
              self->sim_.schedule_in(0, [self, epoch] {
                if (self->halted_ || epoch != self->epoch_) return;
                if (!self->in_flight_) self->step();
              });
            });
      });
}

}  // namespace storm::services
