// Discrete-event simulation kernel, sharded for parallel execution.
//
// The simulation is split into one or more Partitions (simulated host
// groups / fabric cuts). Each partition owns its own event queue, clock
// and cancel-slot pool, and — in parallel runs — executes on a worker
// thread. Partitions synchronize with conservative lookahead windows
// derived from the minimum cross-partition link propagation delay: all
// partitions run their events in [t, t + lookahead) concurrently, then
// meet at a barrier where cross-partition events (posted into the
// destination's inbox as mailbox messages) are merged in
// (when, src_partition, src_seq) order — never wall-clock order — so
// identically seeded runs produce byte-identical results at any thread
// count. Within a partition, events at equal timestamps run in
// scheduling order (FIFO tie-break), exactly as the classic
// single-threaded kernel did.
//
// Components schedule through a partition-local Executor handle:
//
//   sim::Executor exec = simulator.executor(partition_id);
//   sim::CancelToken t = exec.schedule(when, fn);      // absolute
//   sim::CancelToken t = exec.schedule_in(delay, fn);  // relative
//
// An Executor converts implicitly from Simulator& (partition 0), so
// single-partition code keeps passing the simulator around. Control-plane
// code that must read or mutate state across partitions defers itself to
// the next window barrier with Simulator::at_barrier(fn): barrier
// callbacks run on the coordinator thread while every partition is
// quiescent, in a (when, src_partition, seq) total order, so they are
// race-free and thread-count-deterministic by construction.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <limits>
#include <memory>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

#include "sim/time.hpp"

namespace storm::obs {
class Registry;
}

namespace storm::sim {

class Partition;
class Simulator;
class Executor;

/// Time value meaning "no pending event".
inline constexpr Time kNever = std::numeric_limits<Time>::max();

/// Generation-counted cancellation slot. One atomic per armed event,
/// recycled through its home partition's pool, so arming a cancellable
/// timer (every TCP RTO) allocates nothing in steady state. The
/// generation check makes stale tokens harmless after the slot has been
/// recycled to a newer event.
struct CancelSlot {
  std::atomic<std::uint64_t> gen{0};
  Partition* home = nullptr;
};

/// Handle for a scheduled event. Cancelling marks the event dead; the
/// run loop discards dead events without advancing now(), so abandoned
/// timers (e.g. a TCP retransmission timer disarmed by an ACK) leave no
/// trace in the simulated clock. Tokens are cheap value types: a slot
/// pointer plus the generation it was armed under.
class CancelToken {
 public:
  CancelToken() = default;

  /// Idempotent; a token whose event already fired is a no-op.
  void cancel();

  bool armed() const {
    return slot_ != nullptr &&
           slot_->gen.load(std::memory_order_acquire) == gen_;
  }

 private:
  friend class Partition;
  CancelToken(CancelSlot* slot, std::uint64_t gen)
      : slot_(slot), gen_(gen) {}

  CancelSlot* slot_ = nullptr;
  std::uint64_t gen_ = 0;
};

/// One shard of the simulation: an event queue, a clock, a cancel-slot
/// pool and a cross-partition inbox. Created and owned by the Simulator;
/// components touch it only through Executor handles.
class Partition {
 public:
  using Callback = std::function<void()>;

  Time now() const { return now_; }
  std::uint32_t id() const { return id_; }
  Simulator& simulator() { return *owner_; }

  /// This partition's telemetry registry (created on first use).
  /// Per-partition registries keep hot-path metric updates
  /// thread-confined; Simulator::telemetry_json() merges them in
  /// partition-id order for one deterministic cluster-wide dump.
  obs::Registry& telemetry();

  Partition(const Partition&) = delete;
  Partition& operator=(const Partition&) = delete;
  ~Partition();

  /// RAII marker for "this thread is currently executing this
  /// partition" — the signal Executor::schedule uses to route
  /// cross-partition calls through the mailbox.
  struct ScopedCurrent {
    explicit ScopedCurrent(Partition* p) : prev(s_current) { s_current = p; }
    ~ScopedCurrent() { s_current = prev; }
    ScopedCurrent(const ScopedCurrent&) = delete;
    ScopedCurrent& operator=(const ScopedCurrent&) = delete;
    Partition* prev;
  };

 private:
  friend class Simulator;
  friend class Executor;
  friend class CancelToken;

  struct Event {
    Time when;
    std::uint64_t seq;  // FIFO tie-break for equal timestamps
    Callback fn;
    CancelSlot* slot;
    std::uint64_t gen;
  };
  struct Later {
    bool operator()(const Event& a, const Event& b) const {
      if (a.when != b.when) return a.when > b.when;
      return a.seq > b.seq;
    }
  };
  /// A cross-partition event waiting for the destination's next window.
  /// (src, src_seq) make the merge order a total order independent of
  /// which worker thread appended first.
  struct Mail {
    Time when;
    std::uint32_t src;
    std::uint64_t src_seq;
    Callback fn;
    CancelSlot* slot;
    std::uint64_t gen;
  };

  Partition(Simulator& owner, std::uint32_t id);  // defined in .cpp:
  // members include unique_ptr<obs::Registry>, incomplete here.

  // --- cancel-slot pool ---
  // acquire is only ever called by the thread legally running this
  // partition (its window worker, or the coordinator thread outside a
  // run), so the local free list needs no lock. Frees coming from other
  // partitions' threads (a mailbox event firing remotely, a
  // cross-partition cancel) go through the mutex-guarded remote list.
  CancelSlot* acquire_slot() {
    if (free_local_.empty()) {
      std::lock_guard<std::mutex> lock(pool_mu_);
      if (free_remote_.empty()) {
        slots_.emplace_back();
        slots_.back().home = this;
        return &slots_.back();
      }
      free_local_.swap(free_remote_);
    }
    CancelSlot* slot = free_local_.back();
    free_local_.pop_back();
    return slot;
  }
  void recycle_slot(CancelSlot* slot) {
    if (s_current == this || s_current == nullptr) {
      free_local_.push_back(slot);
    } else {
      std::lock_guard<std::mutex> lock(pool_mu_);
      free_remote_.push_back(slot);
    }
  }

  void enqueue(Time when, Callback fn, CancelSlot* slot, std::uint64_t gen) {
    queue_.push(Event{when, next_seq_++, std::move(fn), slot, gen});
  }

  CancelToken schedule_local(Time when, Callback fn) {
    if (when < now_) when = now_;
    CancelSlot* slot = acquire_slot();
    const std::uint64_t gen = slot->gen.load(std::memory_order_relaxed);
    enqueue(when, std::move(fn), slot, gen);
    return CancelToken(slot, gen);
  }

  /// Post a cross-partition event from *this* (the partition the calling
  /// thread is running) toward `dst`. Appends to the thread-confined
  /// per-destination outbox; the whole outbox is flushed into `dst`'s
  /// inbox with one lock acquisition at the end of this partition's
  /// window (mailbox batching). (src, src_seq) are stamped at append
  /// time, so the barrier merge order is exactly what per-message posts
  /// produced.
  CancelToken send_to(Partition& dst, Time when, Callback fn);

  /// Flush every non-empty per-destination outbox into its inbox — one
  /// inbox_mu_ acquisition per (src, dst) pair per window instead of one
  /// per message. Runs on this partition's window thread at the end of
  /// run_window, before the round is reported done, so the coordinator's
  /// barrier observes every send of the round.
  void flush_outboxes();

  /// Sort the inbox by (when, src, src_seq) and feed it into the local
  /// queue. Runs at the window barrier, in partition-id order.
  void drain_inbox();

  /// Run all events with when <= limit; advances now() to limit. The
  /// limit is the window end, never the caller's deadline, so an idle
  /// partition can never outrun the global lookahead window.
  std::size_t run_window(Time limit);

  Time next_event_time() const {
    return queue_.empty() ? kNever : queue_.top().when;
  }

  /// Move-extract the top event (the comparator only reads when/seq,
  /// which moving leaves intact, so hollowing out fn before pop is safe
  /// and skips a std::function deep copy per event).
  Event pop_event() {
    Event ev = std::move(const_cast<Event&>(queue_.top()));
    queue_.pop();
    return ev;
  }

  /// True if popped event was cancelled; winner of the generation CAS
  /// owns the slot recycle.
  bool claim_fire(const Event& ev) {
    std::uint64_t expected = ev.gen;
    return ev.slot->gen.compare_exchange_strong(expected, ev.gen + 1,
                                                std::memory_order_acq_rel);
  }

  static inline thread_local constinit Partition* s_current = nullptr;

  /// A control-plane callback deferred to the next window barrier
  /// (Simulator::at_barrier). Buffered thread-confined on the posting
  /// partition; the coordinator collects and sorts across partitions.
  struct BarrierReq {
    Time when;          // poster's clock at the call
    std::uint32_t src;  // posting partition id
    std::uint64_t seq;  // per-partition monotonic tie-break
    Callback fn;
  };

  Simulator* owner_;
  std::uint32_t id_;
  Time now_ = 0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t mail_seq_ = 0;  // outgoing cross-partition send counter
  std::priority_queue<Event, std::vector<Event>, Later> queue_;
  std::unique_ptr<obs::Registry> telemetry_;
  std::size_t last_window_events_ = 0;

  // Per-destination outboxes (index = destination partition id), written
  // only by the thread running this partition's window. Flushed by
  // flush_outboxes at the end of each window.
  std::vector<std::vector<Mail>> outbox_;
  std::uint64_t mailbox_batches_ = 0;  // non-empty (src,dst) flushes
  std::uint64_t mailbox_posts_ = 0;    // messages carried by them

  // at_barrier requests raised while this partition's window ran.
  std::vector<BarrierReq> barrier_reqs_;
  std::uint64_t barrier_seq_ = 0;

  // Slot pool: slots_ gives stable addresses; the free lists recycle.
  std::deque<CancelSlot> slots_;
  std::vector<CancelSlot*> free_local_;
  std::mutex pool_mu_;
  std::vector<CancelSlot*> free_remote_;

  std::mutex inbox_mu_;
  std::vector<Mail> inbox_;
};

/// The partition-local scheduling facade components hold instead of a
/// Simulator&. Copyable, two words, converts implicitly from Simulator&
/// (partition 0). All scheduling goes through the two-call surface:
/// schedule(when) / schedule_in(delay), both returning a CancelToken.
class Executor {
 public:
  using Callback = Partition::Callback;

  Executor() = default;
  Executor(Simulator& simulator);  // NOLINT(google-explicit-constructor)

  /// Schedule `fn` at absolute time `when` (clamped to the target
  /// partition's now). Cross-partition calls are routed through the
  /// destination's mailbox; `when` must then be at least one lookahead
  /// ahead of the caller's clock (links guarantee this via propagation
  /// delay; violations are clamped and counted).
  CancelToken schedule(Time when, Callback fn) const {
    Partition* cur = Partition::s_current;
    if (cur == nullptr || cur == part_) {
      return part_->schedule_local(when, std::move(fn));
    }
    return cur->send_to(*part_, when, std::move(fn));
  }

  /// Schedule `fn` `delay` ns from the calling context's clock.
  /// schedule_in(0, fn) posts to the end of the current tick.
  CancelToken schedule_in(Duration delay, Callback fn) const {
    Partition* cur = Partition::s_current;
    const Time base = (cur != nullptr) ? cur->now_ : part_->now_;
    return schedule(base + delay, std::move(fn));
  }

  /// This partition's clock. Only meaningful from the partition's own
  /// execution context (or between runs).
  Time now() const { return part_->now_; }

  obs::Registry& telemetry() const { return part_->telemetry(); }
  std::uint32_t partition_id() const { return part_->id(); }
  Simulator& simulator() const { return *part_->owner_; }
  bool valid() const { return part_ != nullptr; }

 private:
  friend class Simulator;
  friend class Partition;
  explicit Executor(Partition* partition) : part_(partition) {}

  Partition* part_ = nullptr;
};

/// Sharding configuration. The defaults give the classic single-threaded
/// kernel: one partition, run inline on the calling thread.
struct ParallelConfig {
  /// Number of partitions (simulated host groups). Fixed per topology:
  /// determinism holds across *thread* counts for a fixed partition
  /// count, because mailbox merge order depends only on partition ids.
  std::uint32_t partitions = 1;
  /// Worker threads executing partition windows. 0 = one per partition.
  /// Clamped to the partition count; 1 runs windows serially inline.
  std::uint32_t threads = 1;
  /// Conservative lookahead: the minimum cross-partition event delay.
  /// Every window runs [t, t + lookahead) in parallel, so this must be
  /// <= the smallest propagation delay of any partition-spanning link.
  Duration lookahead = microseconds(10);
  /// Derive the lookahead from the wired topology instead: at run start
  /// it becomes the minimum propagation delay across all
  /// partition-spanning links (reported via note_span_delay, which
  /// net::Link calls when an end is rebound to another partition). When
  /// no spanning link was noted, `lookahead` above is the fallback and a
  /// warning is logged once — the topology either needs no lookahead or
  /// was wired through a side channel the derivation cannot see.
  bool auto_lookahead = false;
};

/// Coordinator owning the partitions, the worker pool and the global
/// window loop. For partitions == 1 every run_* call degenerates to the
/// classic inline event loop with identical semantics (and identical
/// seeded telemetry) to the historical single-threaded kernel.
class Simulator {
 public:
  using Callback = Partition::Callback;

  Simulator() : Simulator(ParallelConfig{}) {}
  explicit Simulator(ParallelConfig config);
  ~Simulator();

  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  // --- redesigned scheduling surface (partition 0) ---

  /// Schedule `fn` at absolute time `when` (clamped to now).
  CancelToken schedule(Time when, Callback fn) {
    return executor().schedule(when, std::move(fn));
  }
  /// Schedule `fn` `delay` ns from now; schedule_in(0, fn) posts to the
  /// end of the current tick.
  CancelToken schedule_in(Duration delay, Callback fn) {
    return executor().schedule_in(delay, std::move(fn));
  }

  /// The scheduling handle for one partition. Components hold this.
  Executor executor(std::uint32_t partition = 0) {
    return Executor(parts_[partition].get());
  }
  std::uint32_t partition_count() const {
    return static_cast<std::uint32_t>(parts_.size());
  }
  Duration lookahead() const { return lookahead_; }
  std::uint32_t threads() const { return threads_; }

  /// A partition-spanning edge with propagation delay `prop` was wired
  /// (net::Link::set_end_executor). With auto_lookahead, the smallest
  /// such delay becomes the window lookahead at the next run start.
  void note_span_delay(Duration prop) {
    if (prop <= 0) return;
    if (!span_seen_ || prop < min_span_delay_) {
      span_seen_ = true;
      min_span_delay_ = prop;
      lookahead_resolved_ = false;
    }
  }
  bool span_delay_seen() const { return span_seen_; }

  /// Global clock: with one partition, that partition's clock; with
  /// several, the coordinator's window floor (all partition clocks are
  /// >= a window start and < its end while running).
  Time now() const {
    return parts_.size() == 1 ? parts_[0]->now() : now_;
  }

  /// Defer `fn` to the next window barrier. Barrier callbacks run on the
  /// coordinator thread while every partition is quiescent (all clocks at
  /// the window end), so they may read and mutate any partition's state
  /// race-free — the control channel for cloud attach/detach, health
  /// probes and chaos injection on a partitioned topology. Callbacks
  /// collected from all partitions execute in (when, src_partition, seq)
  /// order, so the schedule is thread-count-deterministic. Runs `fn`
  /// inline when that is already safe: a single-partition simulator, a
  /// call from outside any partition (coordinator between runs), or a
  /// call from within another barrier callback.
  void at_barrier(Callback fn) {
    Partition* cur = Partition::s_current;
    if (parts_.size() == 1 || cur == nullptr) {
      fn();
      return;
    }
    cur->barrier_reqs_.push_back(Partition::BarrierReq{
        cur->now_, cur->id_, cur->barrier_seq_++, std::move(fn)});
  }

  /// True when the calling thread is executing a partition window (as
  /// opposed to the coordinator thread between rounds, inside a barrier
  /// callback, or outside a run) — the cue for control-plane entry
  /// points that must defer themselves with at_barrier.
  static bool in_partition_context() { return Partition::s_current != nullptr; }

  /// Mailbox batching telemetry: non-empty (src, dst) outbox flushes and
  /// the cross-partition messages they carried. Deterministic for a fixed
  /// partition count. Also exported as sim.mailbox.* gauges in
  /// telemetry_json().
  std::uint64_t mailbox_batches() const;
  std::uint64_t mailbox_posts() const;

  /// Run until every queue is empty. Returns number of events run.
  std::size_t run();

  /// Run events with time <= deadline; advances now() to the deadline.
  /// Partition clocks advance window by window — an idle partition never
  /// jumps past the global lookahead window while others still run.
  std::size_t run_until(Time deadline);

  std::size_t run_for(Duration d) { return run_until(now() + d); }

  bool empty() const;
  std::size_t pending() const;

  /// Partition 0's telemetry hub (the whole cluster's, for
  /// single-partition simulations — the historical behavior).
  obs::Registry& telemetry();

  /// Deterministic cluster-wide telemetry dump: all partition registries
  /// merged in partition-id order (counters/gauges sum, histograms merge
  /// bucket-wise, flight-recorder entries interleave by sim-time, spans
  /// concatenate with ids remapped). Byte-identical for identically
  /// seeded runs at any thread count.
  std::string telemetry_json(bool include_spans = false);

  /// Cross-partition events that arrived at or before the destination's
  /// window (sender broke the lookahead contract). They are clamped to
  /// the window barrier; a nonzero count means the configured lookahead
  /// exceeds some link's real propagation delay.
  std::uint64_t lookahead_violations() const {
    return lookahead_violations_.load(std::memory_order_relaxed);
  }

 private:
  friend class Partition;

  std::size_t run_windowed(Time deadline, bool until_empty);
  /// Collect, order and execute pending at_barrier callbacks (coordinator
  /// thread, all partitions quiescent at `limit`).
  void run_barrier_reqs(Time limit);
  /// End-of-run lookahead accounting: warn once if any violation was
  /// clamped during this simulator's lifetime.
  void warn_on_violations();
  void run_round(Time limit);
  void work_round();
  void worker_loop();
  /// Apply auto_lookahead at run start (topology-derived, see
  /// ParallelConfig::auto_lookahead).
  void resolve_lookahead();

  std::vector<std::unique_ptr<Partition>> parts_;
  Duration lookahead_;
  bool auto_lookahead_ = false;
  bool span_seen_ = false;
  bool lookahead_resolved_ = false;
  bool warned_no_span_ = false;
  Duration min_span_delay_ = 0;
  std::uint32_t threads_;
  Time now_ = 0;
  std::uint64_t copy_baseline_ = 0;  // bufstats tally at construction
  std::atomic<std::uint64_t> lookahead_violations_{0};
  bool warned_violations_ = false;

  // Worker pool (spawned only for partitions > 1 && threads > 1).
  // Round protocol: the coordinator publishes round_sig_/round_limit_,
  // workers claim partitions via next_part_ and report through
  // parts_done_; acquire/release on the two signal atomics carries the
  // happens-before edges for all partition state.
  std::vector<std::thread> workers_;
  std::mutex pool_mu_;
  std::condition_variable cv_work_;
  std::mutex done_mu_;
  std::condition_variable cv_done_;
  std::atomic<std::uint64_t> round_sig_{0};
  bool shutdown_ = false;
  Time round_limit_ = 0;
  std::atomic<std::uint32_t> next_part_{0};
  std::atomic<std::uint32_t> parts_done_{0};
};

inline Executor::Executor(Simulator& simulator)
    : part_(simulator.executor(0).part_) {}

inline void CancelToken::cancel() {
  if (slot_ == nullptr) return;
  std::uint64_t expected = gen_;
  if (slot_->gen.compare_exchange_strong(expected, gen_ + 1,
                                         std::memory_order_acq_rel)) {
    slot_->home->recycle_slot(slot_);
  }
  slot_ = nullptr;
}

}  // namespace storm::sim
