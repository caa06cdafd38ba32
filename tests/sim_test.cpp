#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "obs/metrics.hpp"
#include "obs/registry.hpp"
#include "sim/cpu.hpp"
#include "sim/simulator.hpp"
#include "sim/time.hpp"

namespace storm::sim {
namespace {

TEST(Simulator, RunsEventsInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule(30, [&] { order.push_back(3); });
  sim.schedule(10, [&] { order.push_back(1); });
  sim.schedule(20, [&] { order.push_back(2); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.now(), 30u);
}

TEST(Simulator, FifoTieBreakAtEqualTimestamps) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    sim.schedule(5, [&order, i] { order.push_back(i); });
  }
  sim.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<size_t>(i)], i);
}

TEST(Simulator, CallbacksCanScheduleMoreEvents) {
  Simulator sim;
  int fired = 0;
  sim.schedule(1, [&] {
    ++fired;
    sim.schedule_in(9, [&] { ++fired; });
  });
  sim.run();
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(sim.now(), 10u);
}

TEST(Simulator, RunUntilStopsAtDeadline) {
  Simulator sim;
  int fired = 0;
  sim.schedule(10, [&] { ++fired; });
  sim.schedule(100, [&] { ++fired; });
  sim.run_until(50);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.now(), 50u);
  sim.run();
  EXPECT_EQ(fired, 2);
}

TEST(Simulator, PastEventsClampToNow) {
  Simulator sim;
  sim.schedule(100, [] {});
  sim.run();
  int fired = 0;
  sim.schedule(5, [&] { ++fired; });  // in the past; must still run
  sim.run();
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.now(), 100u);
}

TEST(Time, UnitConversions) {
  EXPECT_EQ(microseconds(1), 1000u);
  EXPECT_EQ(milliseconds(1), 1'000'000u);
  EXPECT_EQ(seconds(2), 2'000'000'000u);
  EXPECT_DOUBLE_EQ(to_seconds(seconds(3)), 3.0);
  EXPECT_DOUBLE_EQ(to_millis(milliseconds(7)), 7.0);
}

// --- the redesigned scheduling surface ---

TEST(ExecutorApi, ScheduleReturnsWorkingCancelToken) {
  Simulator sim;
  int fired = 0;
  Executor exec = sim.executor();
  CancelToken keep = exec.schedule(10, [&] { ++fired; });
  CancelToken drop = exec.schedule(20, [&] { ++fired; });
  EXPECT_TRUE(keep.armed());
  EXPECT_TRUE(drop.armed());
  drop.cancel();
  EXPECT_FALSE(drop.armed());
  sim.run();
  EXPECT_EQ(fired, 1);
  EXPECT_FALSE(keep.armed());  // fired tokens read as disarmed
  EXPECT_EQ(sim.now(), 10u);   // cancelled tail never advanced the clock
}

TEST(ExecutorApi, ScheduleInZeroPostsToEndOfCurrentTick) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule(5, [&] {
    order.push_back(1);
    sim.schedule_in(0, [&] { order.push_back(3); });
    order.push_back(2);
  });
  sim.schedule(5, [&] { order.push_back(10); });
  sim.run();
  // The posted callback runs at t=5 but after everything already queued.
  EXPECT_EQ(order, (std::vector<int>{1, 2, 10, 3}));
  EXPECT_EQ(sim.now(), 5u);
}

TEST(ExecutorApi, ImplicitConversionFromSimulator) {
  Simulator sim;
  Executor exec = sim;  // the migration path for Simulator&-taking ctors
  EXPECT_TRUE(exec.valid());
  EXPECT_EQ(&exec.simulator(), &sim);
  int fired = 0;
  exec.schedule_in(7, [&] { fired = 1; });
  sim.run();
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(exec.now(), 7u);
}

TEST(ExecutorApi, ScheduleSurfaceCoversTheOldShims) {
  // The deprecated at/after/post shims are gone; the two-call Executor
  // surface expresses every pattern they covered.
  Simulator sim;
  std::vector<int> order;
  sim.schedule(10, [&] { order.push_back(1); });
  CancelToken a = sim.schedule(20, [&] { order.push_back(2); });
  sim.schedule_in(30, [&] { order.push_back(3); });
  CancelToken b = sim.schedule_in(40, [&] { order.push_back(4); });
  sim.schedule_in(0, [&] { order.push_back(0); });
  b.cancel();
  EXPECT_TRUE(a.armed());
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
}

// --- generation-counted cancel slots ---

TEST(CancelSlot, StaleTokenAfterSlotReuseIsHarmless) {
  Simulator sim;
  int first = 0;
  int second = 0;
  CancelToken stale = sim.schedule(10, [&] { ++first; });
  stale.cancel();  // slot goes back to the pool
  // The very next schedule reuses the recycled slot under a new
  // generation; the stale token must not be able to touch it.
  CancelToken fresh = sim.schedule(20, [&] { ++second; });
  EXPECT_FALSE(stale.armed());
  EXPECT_TRUE(fresh.armed());
  stale.cancel();  // double-cancel of a dead token: no-op
  sim.run();
  EXPECT_EQ(first, 0);
  EXPECT_EQ(second, 1);
}

TEST(CancelSlot, TokensRecycleWithoutGrowingThePool) {
  Simulator sim;
  int fired = 0;
  for (int i = 0; i < 10'000; ++i) {
    CancelToken t = sim.schedule(static_cast<Time>(i + 1), [&] { ++fired; });
    if (i % 2 == 0) t.cancel();
    sim.run();
  }
  EXPECT_EQ(fired, 5'000);
}

TEST(Simulator, RunCountsExecutedEventsOnly) {
  Simulator sim;
  for (int i = 0; i < 5; ++i) {
    sim.schedule(static_cast<Time>(i * 100), [] {});
  }
  CancelToken dead = sim.schedule(50, [] {});
  EXPECT_EQ(sim.pending(), 6u);
  dead.cancel();
  EXPECT_EQ(sim.pending(), 5u);  // cancelling removes the event at once
  EXPECT_FALSE(sim.empty());
  EXPECT_EQ(sim.run(), 5u);
  EXPECT_TRUE(sim.empty());
}

TEST(CancelSlot, ClosureDestructorMayScheduleAndCancel) {
  Simulator sim;
  int fired = 0;
  CancelToken victim = sim.schedule(30, [&] { ++fired; });
  struct OnDestroy {
    std::function<void()> fn;
    ~OnDestroy() { fn(); }
  };
  auto hook = std::make_shared<OnDestroy>();
  hook->fn = [&] {
    victim.cancel();
    sim.schedule(40, [&] { fired += 10; });
  };
  CancelToken doomed = sim.schedule(20, [hook] {});
  hook.reset();     // the queued closure holds the last reference
  doomed.cancel();  // destroying it cancels `victim` and schedules anew
  EXPECT_EQ(sim.pending(), 1u);
  EXPECT_EQ(sim.run(), 1u);
  EXPECT_EQ(fired, 10);
  EXPECT_EQ(sim.now(), 40u);
}

// --- reference model ---

// Drives the kernel through seeded random interleavings of schedule,
// schedule_in(0), equal timestamps, times in the past, cancels of
// pending, fired, cancelled and stale tokens, and schedules and cancels
// issued from inside callbacks. A (when, seq) map is the reference: each
// firing must be its earliest live event, no cancelled event may fire,
// and pending() must equal its live count after every step.
class KernelModel {
 public:
  explicit KernelModel(std::uint64_t seed) : rng_(seed) {}

  void run(int steps) {
    for (int i = 0; i < steps; ++i) {
      switch (rng_.below(10)) {
        case 0:
        case 1:
        case 2:
        case 3:
          schedule_random();
          break;
        case 4:
        case 5:
          cancel_random();
          break;
        case 6:
        case 7:
          run_until(sim_.now() + rng_.below(6));
          break;
        case 8:
          if (!live_.empty()) run_until(live_.begin()->first.first);
          break;
        default: {
          // A timer armed and disarmed before it is due (a TCP RTO).
          CancelToken t = sim_.schedule_in(
              1000, [this] { check(false, "a disarmed timer fired"); });
          ++seq_;
          check(sim_.pending() == live_.size() + 1, "pending with a timer");
          t.cancel();
          break;
        }
      }
      check_pending();
    }
    const std::size_t before = fired_.size();
    const std::size_t ran = sim_.run();
    check(ran == fired_.size() - before, "run() count");
    check(live_.empty(), "model drained");
    check_pending();
  }

  int failures() const { return failures_; }
  const std::string& first_failure() const { return first_failure_; }
  std::size_t fired() const { return fired_.size(); }
  std::size_t cancelled() const { return cancelled_.size(); }

 private:
  using Key = std::pair<Time, std::uint64_t>;
  struct Issued {
    CancelToken token;
    int id;
  };

  void check(bool ok, const char* what) {
    if (ok) return;
    if (failures_++ == 0) {
      first_failure_ = std::string(what) + " at t=" +
                       std::to_string(sim_.now()) + " after " +
                       std::to_string(fired_.size()) + " firings";
    }
  }
  void check_pending() {
    check(sim_.pending() == live_.size(), "pending() == live count");
    check(sim_.empty() == live_.empty(), "empty() == no live event");
  }

  void schedule_random() {
    const int id = next_id_++;
    const Time now = sim_.now();
    Time when = now;
    CancelToken token;
    switch (rng_.below(4)) {
      case 0:
        token = sim_.schedule_in(0, [this, id] { on_fire(id); });
        break;
      case 1: {  // in the past: clamps to now
        const Time back = rng_.below(5);
        token = sim_.schedule(now >= back ? now - back : 0,
                              [this, id] { on_fire(id); });
        break;
      }
      default:  // a narrow window, so equal timestamps are common
        when = now + rng_.below(8);
        token = sim_.schedule(when, [this, id] { on_fire(id); });
        break;
    }
    const Key key{when, seq_++};
    live_.emplace(key, id);
    key_of_.emplace(id, key);
    issued_.push_back(Issued{token, id});
  }

  void cancel_random() {
    if (issued_.empty()) return;
    // Half the picks among the newest tokens, which are mostly pending.
    const std::size_t n = issued_.size();
    Issued& pick = issued_[rng_.chance(0.5)
                               ? n - 1 - rng_.below(std::min<std::size_t>(n, 8))
                               : rng_.below(n)];
    const auto key = key_of_.find(pick.id);
    const bool live = key != key_of_.end() && live_.count(key->second) > 0;
    check(pick.token.armed() == live, "armed() == model liveness");
    pick.token.cancel();
    if (live) {
      live_.erase(key->second);
      cancelled_.insert(pick.id);
    }
  }

  void run_until(Time deadline) {
    const std::size_t before = fired_.size();
    const Time start = sim_.now();
    const std::size_t ran = sim_.run_until(deadline);
    check(ran == fired_.size() - before, "run_until() count");
    check(sim_.now() == std::max(start, deadline), "run_until() clock");
    check(live_.empty() || live_.begin()->first.first > deadline,
          "run_until() left a due event");
  }

  void on_fire(int id) {
    check(cancelled_.count(id) == 0, "a cancelled event fired");
    check(!live_.empty() && live_.begin()->second == id,
          "fired out of (when, seq) order");
    const auto key = key_of_.find(id);
    check(key != key_of_.end() && sim_.now() == key->second.first,
          "fired at the wrong time");
    if (key != key_of_.end()) live_.erase(key->second);
    fired_.push_back(id);
    check_pending();
    // Nested work: on average half an event scheduled per firing, so
    // the run terminates.
    for (std::uint64_t n = rng_.below(3); n > 0; --n) {
      if (rng_.chance(0.5)) {
        schedule_random();
      } else {
        cancel_random();
      }
      check_pending();
    }
  }

  Simulator sim_;
  Rng rng_;
  std::uint64_t seq_ = 0;
  int next_id_ = 0;
  std::map<Key, int> live_;
  std::map<int, Key> key_of_;
  std::set<int> cancelled_;
  std::vector<Issued> issued_;
  std::vector<int> fired_;
  int failures_ = 0;
  std::string first_failure_;
};

TEST(KernelModel, RandomInterleavingsMatchTheReferenceOrder) {
  std::size_t fired = 0;
  std::size_t cancelled = 0;
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    KernelModel model(seed);
    model.run(2'000);
    EXPECT_EQ(model.failures(), 0)
        << "seed " << seed << ": " << model.first_failure();
    fired += model.fired();
    cancelled += model.cancelled();
  }
  // The interleavings exercised both paths in earnest.
  EXPECT_GT(fired, 10'000u);
  EXPECT_GT(cancelled, 2'000u);
}

// --- seeded determinism ---

// One seeded scenario: actors burn counters/histograms, record
// flight-recorder events and reschedule themselves with seeded jitter.
// Returns the telemetry dump — the byte-identity probe.
std::string run_seeded_scenario(std::uint64_t seed) {
  Simulator sim;
  struct Actor {
    Rng rng;
    int budget = 40;
  };
  auto actors = std::make_shared<std::vector<Actor>>();
  for (std::uint32_t a = 0; a < 4; ++a) {
    actors->push_back(Actor{Rng(seed * 1000003u + a), 40});
  }

  auto step = std::make_shared<std::function<void(std::uint32_t)>>();
  *step = [&sim, actors, step](std::uint32_t a) {
    Actor& actor = (*actors)[a];
    obs::Registry& reg = sim.telemetry();
    reg.counter("test.steps").add();
    reg.histogram("test.draw").record(
        static_cast<std::int64_t>(actor.rng.below(1000)));
    if (actor.rng.chance(0.25)) {
      reg.record_event("a" + std::to_string(a) + " step");
    }
    if (--actor.budget <= 0) return;
    const Duration jitter = actor.rng.between(0, microseconds(5));
    sim.schedule_in(1 + jitter, [step, a] { (*step)(a); });
  };
  for (std::uint32_t a = 0; a < 4; ++a) {
    sim.schedule(microseconds(1) * (a + 1), [step, a] { (*step)(a); });
  }
  sim.run();
  *step = nullptr;  // break the step's reference to itself
  return sim.telemetry_json(/*include_spans=*/true);
}

TEST(Determinism, DistinctSeedsProduceDistinctTelemetry) {
  // Guard against the scenario degenerating into seed-independent output
  // (which would make same-seed identity vacuous).
  std::set<std::string> dumps;
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    dumps.insert(run_seeded_scenario(seed));
  }
  EXPECT_EQ(dumps.size(), 5u);
  EXPECT_EQ(run_seeded_scenario(3), run_seeded_scenario(3));
}

TEST(Cpu, SingleCoreSerializesTasks) {
  Simulator sim;
  Cpu cpu(sim, "c", 1);
  std::vector<Time> done_at;
  cpu.run(100, [&] { done_at.push_back(sim.now()); });
  cpu.run(100, [&] { done_at.push_back(sim.now()); });
  sim.run();
  ASSERT_EQ(done_at.size(), 2u);
  EXPECT_EQ(done_at[0], 100u);
  EXPECT_EQ(done_at[1], 200u);  // queued behind the first
  EXPECT_EQ(cpu.busy_time(), 200u);
}

TEST(Cpu, MultiCoreRunsInParallel) {
  Simulator sim;
  Cpu cpu(sim, "c", 2);
  std::vector<Time> done_at;
  cpu.run(100, [&] { done_at.push_back(sim.now()); });
  cpu.run(100, [&] { done_at.push_back(sim.now()); });
  cpu.run(100, [&] { done_at.push_back(sim.now()); });
  sim.run();
  ASSERT_EQ(done_at.size(), 3u);
  EXPECT_EQ(done_at[0], 100u);
  EXPECT_EQ(done_at[1], 100u);
  EXPECT_EQ(done_at[2], 200u);
}

TEST(Cpu, BusyTimeAccumulates) {
  Simulator sim;
  Cpu cpu(sim, "c", 4);
  cpu.burn(50);
  cpu.burn(70);
  sim.run();
  EXPECT_EQ(cpu.busy_time(), 120u);
}

// sim::Stats was folded into obs::Histogram (one percentile
// implementation for workloads, benches and telemetry alike); these
// tests pin the behaviours the workload layer relies on.
TEST(Histogram, MeanMinMax) {
  obs::Histogram h;
  h.record(1);
  h.record(2);
  h.record(3);
  EXPECT_DOUBLE_EQ(h.mean(), 2.0);
  EXPECT_EQ(h.min(), 1);
  EXPECT_EQ(h.max(), 3);
  EXPECT_EQ(h.count(), 3u);
}

TEST(Histogram, Percentiles) {
  obs::Histogram h;
  for (int i = 1; i <= 100; ++i) h.record(i);
  // HDR buckets are exact below 64 and within ~1.6% above.
  EXPECT_NEAR(h.percentile(50), 50.0, 1.0);
  EXPECT_DOUBLE_EQ(h.percentile(0), 1.0);
  EXPECT_DOUBLE_EQ(h.percentile(100), 100.0);
  EXPECT_NEAR(h.percentile(99), 99.0, 2.0);
}

TEST(Histogram, PercentileRejectsOutOfRange) {
  obs::Histogram h;
  h.record(1);
  EXPECT_THROW(h.percentile(-1), std::invalid_argument);
  EXPECT_THROW(h.percentile(101), std::invalid_argument);
}

TEST(Histogram, ClearResets) {
  obs::Histogram h;
  h.record(5);
  h.clear();
  EXPECT_EQ(h.count(), 0u);
  EXPECT_DOUBLE_EQ(h.mean(), 0.0);
}

}  // namespace
}  // namespace storm::sim
