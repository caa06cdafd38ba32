#include "sim/simulator.hpp"

#include <algorithm>
#include <utility>

#include "common/buf.hpp"
#include "common/log.hpp"
#include "obs/registry.hpp"

namespace storm::sim {

Partition::Partition(Simulator& owner, std::uint32_t id)
    : owner_(&owner), id_(id) {}

Partition::~Partition() = default;

obs::Registry& Partition::telemetry() {
  if (!telemetry_) {
    telemetry_ = std::make_unique<obs::Registry>(Executor(this));
  }
  return *telemetry_;
}

CancelToken Partition::send_to(Partition& dst, Time when, Callback fn) {
  CancelSlot* slot = acquire_slot();
  const std::uint64_t gen = slot->gen.load(std::memory_order_relaxed);
  outbox_[dst.id_].push_back(
      Mail{when, id_, mail_seq_++, std::move(fn), slot, gen});
  return CancelToken(slot, gen);
}

void Partition::flush_outboxes() {
  for (std::size_t d = 0; d < outbox_.size(); ++d) {
    std::vector<Mail>& out = outbox_[d];
    if (out.empty()) continue;
    Partition& dst = *owner_->parts_[d];
    {
      std::lock_guard<std::mutex> lock(dst.inbox_mu_);
      std::move(out.begin(), out.end(), std::back_inserter(dst.inbox_));
    }
    mailbox_posts_ += out.size();
    ++mailbox_batches_;
    out.clear();
  }
}

void Partition::drain_inbox() {
  std::vector<Mail> mail;
  {
    std::lock_guard<std::mutex> lock(inbox_mu_);
    if (inbox_.empty()) return;
    mail.swap(inbox_);
  }
  // The deterministic merge rule: mailbox messages are ordered among
  // themselves by (when, src_partition, src_seq) — a total order that
  // does not depend on which worker thread appended first — and receive
  // local FIFO sequence numbers in that order, i.e. after every event
  // the destination had already scheduled by the barrier.
  std::sort(mail.begin(), mail.end(), [](const Mail& a, const Mail& b) {
    if (a.when != b.when) return a.when < b.when;
    if (a.src != b.src) return a.src < b.src;
    return a.src_seq < b.src_seq;
  });
  for (Mail& m : mail) {
    Time when = m.when;
    if (when <= now_) {
      // The sender broke the lookahead contract (a partition-spanning
      // interaction faster than the configured lookahead). Clamp to the
      // barrier so time never regresses, and count it: a nonzero
      // counter means the topology's minimum cross-partition delay is
      // smaller than ParallelConfig::lookahead.
      owner_->lookahead_violations_.fetch_add(1, std::memory_order_relaxed);
      when = now_;
    }
    enqueue(when, std::move(m.fn), m.slot, m.gen);
  }
}

std::size_t Partition::run_window(Time limit) {
  ScopedCurrent guard(this);
  std::size_t count = 0;
  while (!queue_.empty() && queue_.top().when <= limit) {
    Event ev = pop_event();
    if (!claim_fire(ev)) continue;  // cancelled: don't advance now_
    now_ = ev.when;
    ev.fn();
    recycle_slot(ev.slot);
    ++count;
  }
  // Advance to the window end — and no further. An idle partition moves
  // in lockstep with the global window so a cross-partition event landing
  // in a later window can never be in its past.
  if (now_ < limit) now_ = limit;
  // Batched mailbox flush: every cross-partition send of this window goes
  // out under one lock per destination, before the round is reported done.
  flush_outboxes();
  return count;
}

Simulator::Simulator(ParallelConfig config)
    : lookahead_(config.lookahead == 0 ? 1 : config.lookahead),
      auto_lookahead_(config.auto_lookahead),
      copy_baseline_(bufstats::bytes_copied()) {
  const std::uint32_t n = config.partitions == 0 ? 1 : config.partitions;
  parts_.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    parts_.emplace_back(new Partition(*this, i));
  }
  for (auto& p : parts_) p->outbox_.resize(n);
  const std::uint32_t threads = config.threads == 0 ? n : config.threads;
  threads_ = std::min(threads, n);
  if (parts_.size() > 1 && threads_ > 1) {
    workers_.reserve(threads_ - 1);
    for (std::uint32_t i = 0; i + 1 < threads_; ++i) {
      workers_.emplace_back([this] { worker_loop(); });
    }
  }
}

Simulator::~Simulator() {
  if (!workers_.empty()) {
    {
      std::lock_guard<std::mutex> lock(pool_mu_);
      shutdown_ = true;
    }
    cv_work_.notify_all();
    for (std::thread& worker : workers_) worker.join();
  }
}

obs::Registry& Simulator::telemetry() { return parts_[0]->telemetry(); }

std::uint64_t Simulator::mailbox_batches() const {
  std::uint64_t total = 0;
  for (const auto& p : parts_) total += p->mailbox_batches_;
  return total;
}

std::uint64_t Simulator::mailbox_posts() const {
  std::uint64_t total = 0;
  for (const auto& p : parts_) total += p->mailbox_posts_;
  return total;
}

std::string Simulator::telemetry_json(bool include_spans) {
  if (parts_.size() > 1) {
    // Kernel health gauges, partition 0's registry: a nonzero
    // sim.lookahead.violations means some partition-spanning interaction
    // is faster than the window lookahead and was clamped (timing skew);
    // the mailbox gauges size the batching win. All three are
    // deterministic for a fixed partition count, so they are safe inside
    // byte-identity-gated dumps.
    obs::Registry& reg = telemetry();
    reg.gauge("sim.lookahead.violations")
        .set(static_cast<std::int64_t>(lookahead_violations()));
    reg.gauge("sim.mailbox.batches")
        .set(static_cast<std::int64_t>(mailbox_batches()));
    reg.gauge("sim.mailbox.posts")
        .set(static_cast<std::int64_t>(mailbox_posts()));
  }
  std::vector<obs::Registry*> registries;
  for (auto& p : parts_) {
    if (p->telemetry_) registries.push_back(p->telemetry_.get());
  }
  const std::uint64_t copied = bufstats::bytes_copied() - copy_baseline_;
  return obs::Registry::merged_json(registries, now(), copied, include_spans);
}

bool Simulator::empty() const {
  for (const auto& p : parts_) {
    if (!p->queue_.empty()) return false;
  }
  return true;
}

std::size_t Simulator::pending() const {
  std::size_t total = 0;
  for (const auto& p : parts_) total += p->queue_.size();
  return total;
}

std::size_t Simulator::run() {
  if (parts_.size() == 1) {
    // Classic inline loop: now() ends at the last *executed* event, and
    // a cancelled tail event leaves the clock untouched.
    Partition& p = *parts_[0];
    Partition::ScopedCurrent guard(&p);
    std::size_t count = 0;
    while (!p.queue_.empty()) {
      Partition::Event ev = p.pop_event();
      if (!p.claim_fire(ev)) continue;
      p.now_ = ev.when;
      ev.fn();
      p.recycle_slot(ev.slot);
      ++count;
    }
    return count;
  }
  return run_windowed(kNever, /*until_empty=*/true);
}

std::size_t Simulator::run_until(Time deadline) {
  if (parts_.size() == 1) return parts_[0]->run_window(deadline);
  return run_windowed(deadline, /*until_empty=*/false);
}

void Simulator::resolve_lookahead() {
  if (!auto_lookahead_ || lookahead_resolved_) return;
  lookahead_resolved_ = true;
  if (span_seen_) {
    lookahead_ = min_span_delay_ == 0 ? 1 : min_span_delay_;
    return;
  }
  if (!warned_no_span_) {
    warned_no_span_ = true;
    log_warn("sim") << "auto lookahead: no partition-spanning link was "
                       "wired; falling back to the configured lookahead of "
                    << lookahead_ << "ns";
  }
}

std::size_t Simulator::run_windowed(Time deadline, bool until_empty) {
  resolve_lookahead();
  std::size_t total = 0;
  for (;;) {
    Time floor = kNever;
    for (auto& p : parts_) floor = std::min(floor, p->next_event_time());
    if (floor == kNever) break;
    if (!until_empty && floor > deadline) break;
    Time limit = (floor >= kNever - lookahead_) ? kNever - 1
                                                : floor + lookahead_ - 1;
    if (!until_empty && limit > deadline) limit = deadline;
    run_round(limit);
    for (auto& p : parts_) total += p->last_window_events_;
    // Barrier: merge cross-partition mail, in partition-id order.
    for (auto& p : parts_) p->drain_inbox();
    // All partitions quiescent at `limit`: run the control-plane
    // callbacks the window raised (Simulator::at_barrier). They may
    // schedule fresh events anywhere, so the floor is recomputed next
    // iteration.
    run_barrier_reqs(limit);
  }
  if (until_empty) {
    Time max_now = 0;
    for (auto& p : parts_) max_now = std::max(max_now, p->now_);
    now_ = std::max(now_, max_now);
  } else {
    for (auto& p : parts_) p->now_ = std::max(p->now_, deadline);
    now_ = std::max(now_, deadline);
  }
  warn_on_violations();
  return total;
}

void Simulator::run_barrier_reqs(Time limit) {
  std::vector<Partition::BarrierReq> reqs;
  for (auto& p : parts_) {
    if (p->barrier_reqs_.empty()) continue;
    std::move(p->barrier_reqs_.begin(), p->barrier_reqs_.end(),
              std::back_inserter(reqs));
    p->barrier_reqs_.clear();
  }
  if (reqs.empty()) return;
  // Total order independent of worker scheduling: poster's clock, then
  // poster's partition id, then per-partition posting sequence.
  std::sort(reqs.begin(), reqs.end(),
            [](const Partition::BarrierReq& a, const Partition::BarrierReq& b) {
              if (a.when != b.when) return a.when < b.when;
              if (a.src != b.src) return a.src < b.src;
              return a.seq < b.seq;
            });
  now_ = std::max(now_, limit);
  for (Partition::BarrierReq& r : reqs) r.fn();
}

void Simulator::warn_on_violations() {
  if (warned_violations_) return;
  const std::uint64_t v = lookahead_violations();
  if (v == 0) return;
  warned_violations_ = true;
  log_warn("sim") << v
                  << " lookahead violation(s) were clamped to window "
                     "barriers: some partition-spanning interaction is "
                     "faster than the derived lookahead of "
                  << lookahead_ << "ns (check placement and link delays)";
}

void Simulator::run_round(Time limit) {
  if (workers_.empty()) {
    // Serial rounds, partition-id order: byte-identical to any parallel
    // schedule because partitions only interact at the barrier.
    round_limit_ = limit;
    for (auto& p : parts_) p->last_window_events_ = p->run_window(limit);
    return;
  }
  const auto n = static_cast<std::uint32_t>(parts_.size());
  // Order matters: limit and parts_done_ are published by the release
  // store to next_part_; a (possibly stale) worker's first claim
  // acquires it and therefore sees this round's state.
  round_limit_ = limit;
  parts_done_.store(0, std::memory_order_relaxed);
  next_part_.store(0, std::memory_order_release);
  {
    std::lock_guard<std::mutex> lock(pool_mu_);
    round_sig_.fetch_add(1, std::memory_order_release);
  }
  cv_work_.notify_all();
  work_round();  // the coordinator thread pulls its weight too
  if (parts_done_.load(std::memory_order_acquire) != n) {
    std::unique_lock<std::mutex> lock(done_mu_);
    cv_done_.wait(lock, [&] {
      return parts_done_.load(std::memory_order_acquire) == n;
    });
  }
}

void Simulator::work_round() {
  const auto n = static_cast<std::uint32_t>(parts_.size());
  for (;;) {
    const std::uint32_t i = next_part_.fetch_add(1, std::memory_order_acq_rel);
    if (i >= n) break;
    // Read the limit only after a successful claim: the claim's acquire
    // pairs with run_round's release, and the round cannot end (and the
    // limit cannot change) while this claim's parts_done_ increment is
    // outstanding.
    const Time limit = round_limit_;
    parts_[i]->last_window_events_ = parts_[i]->run_window(limit);
    if (parts_done_.fetch_add(1, std::memory_order_acq_rel) + 1 == n) {
      std::lock_guard<std::mutex> lock(done_mu_);
      cv_done_.notify_all();
    }
  }
}

void Simulator::worker_loop() {
  std::uint64_t seen = 0;
  for (;;) {
    std::uint64_t sig = round_sig_.load(std::memory_order_acquire);
    for (int spins = 0; sig == seen && spins < 4096; ++spins) {
      std::this_thread::yield();
      sig = round_sig_.load(std::memory_order_acquire);
    }
    if (sig == seen) {
      std::unique_lock<std::mutex> lock(pool_mu_);
      cv_work_.wait(lock, [&] {
        return shutdown_ ||
               round_sig_.load(std::memory_order_acquire) != seen;
      });
      if (shutdown_) return;
      sig = round_sig_.load(std::memory_order_acquire);
    }
    seen = sig;
    work_round();
  }
}

}  // namespace storm::sim
