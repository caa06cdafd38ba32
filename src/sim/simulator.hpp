// Discrete-event simulation kernel: one (when, seq) event queue, run on
// the calling thread. Events at equal timestamps run in scheduling order
// (FIFO tie-break), so identically seeded runs are byte-identical.
//
// The queue is an indexed 4-ary min-heap of small {when, seq, slot} keys;
// callbacks live in a slab indexed by the slot, which also records where
// its key sits in the heap. Cancelling removes the key at once, so the
// heap holds live events only: a TCP connection re-arms its 200 ms
// retransmission timer on every advancing ACK, and a queue that kept the
// cancelled timers until their time came was almost all dead entries.
//
// Components schedule through an Executor handle:
//
//   sim::Executor exec = simulator;                    // or executor()
//   sim::CancelToken t = exec.schedule(when, fn);      // absolute
//   sim::CancelToken t = exec.schedule_in(delay, fn);  // relative
//
// An Executor converts implicitly from Simulator&, so code that holds a
// handle and code that passes the simulator around mix freely.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "sim/time.hpp"

namespace storm::obs {
class Registry;
}

namespace storm::sim {

class Simulator;

/// Handle for a scheduled event. Cancelling removes the event from the
/// queue and destroys its callback, so abandoned timers (e.g. a TCP
/// retransmission timer disarmed by an ACK) leave no trace in the
/// simulated clock or in pending(). A token names a slot in the
/// simulator's slot pool plus the generation it was armed under: slots
/// are recycled, so arming a cancellable timer (every TCP RTO) allocates
/// nothing in steady state, and the generation check makes stale tokens
/// harmless after their slot has moved on to a newer event.
class CancelToken {
 public:
  CancelToken() = default;

  /// Removes the event if it is still pending. Idempotent; a token whose
  /// event already fired (or is firing) is a no-op.
  void cancel();

  bool armed() const;

 private:
  friend class Simulator;
  CancelToken(Simulator* sim, std::uint32_t slot, std::uint64_t gen)
      : sim_(sim), slot_(slot), gen_(gen) {}

  Simulator* sim_ = nullptr;
  std::uint32_t slot_ = 0;
  std::uint64_t gen_ = 0;
};

/// The scheduling handle components hold instead of a Simulator&.
/// Copyable, one word, converts implicitly from Simulator&. All
/// scheduling goes through schedule(when) / schedule_in(delay), both
/// returning a CancelToken.
class Executor {
 public:
  using Callback = std::function<void()>;

  Executor() = default;
  Executor(Simulator& simulator)  // NOLINT(google-explicit-constructor)
      : sim_(&simulator) {}

  /// Schedule `fn` at absolute time `when` (clamped to now).
  CancelToken schedule(Time when, Callback fn) const;
  /// Schedule `fn` `delay` ns from now; schedule_in(0, fn) posts to the
  /// end of the current tick.
  CancelToken schedule_in(Duration delay, Callback fn) const;

  Time now() const;
  obs::Registry& telemetry() const;
  Simulator& simulator() const { return *sim_; }
  bool valid() const { return sim_ != nullptr; }

 private:
  Simulator* sim_ = nullptr;
};

/// Construction options. Kept for callers that still size a threaded
/// run: the kernel is serial, so `threads` and `auto_lookahead` are
/// accepted and ignored; `lookahead` is only read back through
/// Simulator::lookahead().
struct ParallelConfig {
  std::uint32_t threads = 1;
  Duration lookahead = microseconds(10);
  bool auto_lookahead = false;
};

class Simulator {
 public:
  using Callback = Executor::Callback;

  Simulator() : Simulator(ParallelConfig{}) {}
  explicit Simulator(ParallelConfig config);
  ~Simulator();

  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  /// Schedule `fn` at absolute time `when` (clamped to now).
  CancelToken schedule(Time when, Callback fn) {
    if (when < now_) when = now_;
    const std::uint32_t slot = acquire_slot();
    slots_[slot].fn = std::move(fn);
    heap_.push_back(Key{when, next_seq_++, slot});
    sift_up(heap_.size() - 1);
    return CancelToken(this, slot, slots_[slot].gen);
  }
  /// Schedule `fn` `delay` ns from now; schedule_in(0, fn) posts to the
  /// end of the current tick.
  CancelToken schedule_in(Duration delay, Callback fn) {
    return schedule(now_ + delay, std::move(fn));
  }

  /// A scheduling handle. Every component shares the one queue; the
  /// partition argument is accepted for older callers and ignored.
  Executor executor(std::uint32_t /*partition*/ = 0) { return *this; }
  std::uint32_t partition_count() const { return 1; }
  /// The configured ParallelConfig::lookahead (never 0); the serial
  /// kernel does not use it.
  Duration lookahead() const { return lookahead_; }

  Time now() const { return now_; }

  /// Run until the queue is empty. now() ends at the last executed
  /// event. Returns the number of events run.
  std::size_t run();

  /// Run events with time <= deadline; advances now() to the deadline.
  std::size_t run_until(Time deadline);

  std::size_t run_for(Duration d) { return run_until(now() + d); }

  /// True when no live event is left.
  bool empty() const { return heap_.empty(); }
  /// Live (scheduled, not yet fired or cancelled) events.
  std::size_t pending() const { return heap_.size(); }

  /// The simulation's telemetry hub, created with the simulator.
  obs::Registry& telemetry() { return *telemetry_; }

  /// Deterministic telemetry dump (Registry::to_json). Its
  /// net.bytes_copied and net.bytes_digested count the buffer copies and
  /// CRC32 bytes since this simulator was constructed.
  std::string telemetry_json(bool include_spans = false);

 private:
  friend class CancelToken;

  // Heap key: the (when, seq) order plus the slot holding the callback.
  struct Key {
    Time when;
    std::uint64_t seq;  // FIFO tie-break for equal timestamps
    std::uint32_t slot;
  };
  // Slab entry. `gen` is bumped when the slot's event fires or is
  // cancelled; `pos` is the slot's key index in heap_ while it is queued.
  struct Slot {
    Callback fn;
    std::uint64_t gen = 0;
    std::uint32_t pos = 0;
  };
  static constexpr std::size_t kArity = 4;

  static bool before(const Key& a, const Key& b) {
    return a.when != b.when ? a.when < b.when : a.seq < b.seq;
  }

  std::uint32_t acquire_slot() {
    if (free_slots_.empty()) {
      slots_.emplace_back();
      return static_cast<std::uint32_t>(slots_.size() - 1);
    }
    const std::uint32_t slot = free_slots_.back();
    free_slots_.pop_back();
    return slot;
  }

  void place(std::size_t i, const Key& key) {
    heap_[i] = key;
    slots_[key.slot].pos = static_cast<std::uint32_t>(i);
  }
  void sift_up(std::size_t i);
  void sift_down(std::size_t i);
  /// Removes heap_[i], keeping the heap consistent.
  void remove_at(std::size_t i);
  /// CancelToken::cancel() of a still-armed token.
  void cancel_slot(std::uint32_t slot);

  /// Pop the earliest event and run it.
  void fire_next();

  Time now_ = 0;
  std::uint64_t next_seq_ = 0;
  std::vector<Key> heap_;
  std::vector<Slot> slots_;
  std::vector<std::uint32_t> free_slots_;
  Duration lookahead_;
  std::unique_ptr<obs::Registry> telemetry_;
};

inline bool CancelToken::armed() const {
  return sim_ != nullptr && sim_->slots_[slot_].gen == gen_;
}

inline void CancelToken::cancel() {
  // Disarm first: the callback's destructor, run by cancel_slot, may
  // destroy this token.
  const bool live = armed();
  Simulator* sim = std::exchange(sim_, nullptr);
  if (live) sim->cancel_slot(slot_);
}

inline CancelToken Executor::schedule(Time when, Callback fn) const {
  return sim_->schedule(when, std::move(fn));
}

inline CancelToken Executor::schedule_in(Duration delay, Callback fn) const {
  return sim_->schedule_in(delay, std::move(fn));
}

inline Time Executor::now() const { return sim_->now(); }

inline obs::Registry& Executor::telemetry() const {
  return sim_->telemetry();
}

}  // namespace storm::sim
