#include <gtest/gtest.h>

#include <functional>
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
  sim.schedule(50, [] {}).cancel();
  EXPECT_EQ(sim.pending(), 6u);  // the dead event waits to be popped
  EXPECT_FALSE(sim.empty());
  EXPECT_EQ(sim.run(), 5u);
  EXPECT_TRUE(sim.empty());
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
