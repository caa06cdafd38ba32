#include <gtest/gtest.h>

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

TEST(ExecutorApi, ImplicitConversionFromSimulatorIsPartitionZero) {
  Simulator sim;
  Executor exec = sim;  // the migration path for Simulator&-taking ctors
  EXPECT_TRUE(exec.valid());
  EXPECT_EQ(exec.partition_id(), 0u);
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

TEST(CancelSlot, CancelAfterMigrationAcrossPartitions) {
  // A cross-partition event can be cancelled after it has already been
  // drained into the destination's queue: the generation CAS on the
  // sender-homed slot wins, and the destination discards the dead event.
  ParallelConfig config;
  config.partitions = 2;
  config.threads = 2;
  config.lookahead = 100;
  Simulator sim(config);
  int fired = 0;
  CancelToken t;
  sim.executor(0).schedule(5, [&] {
    t = sim.executor(1).schedule(500, [&] { ++fired; });
  });
  // t=250 is past the first barrier, so the mail has migrated into
  // partition 1's queue — and still 250ns before it would fire.
  sim.executor(0).schedule(250, [&] {
    EXPECT_TRUE(t.armed());
    t.cancel();
    EXPECT_FALSE(t.armed());
  });
  // Keep partition 1 busy past the would-be firing time.
  sim.executor(1).schedule(600, [&] {});
  sim.run();
  EXPECT_EQ(fired, 0);
  EXPECT_EQ(sim.lookahead_violations(), 0u);
}

// --- partitioned execution ---

TEST(Partition, CrossPartitionEventsArriveAtTheirTimestamp) {
  ParallelConfig config;
  config.partitions = 2;
  config.threads = 1;
  config.lookahead = microseconds(10);
  Simulator sim(config);
  Executor p0 = sim.executor(0);
  Executor p1 = sim.executor(1);
  Time fired_at = 0;
  const Time send_at = microseconds(3);
  const Time arrive_at = microseconds(17);
  p0.schedule(send_at, [&, p1]() mutable {
    p1.schedule(arrive_at, [&] { fired_at = sim.executor(1).now(); });
  });
  sim.run();
  EXPECT_EQ(fired_at, arrive_at);
  EXPECT_EQ(sim.lookahead_violations(), 0u);
}

TEST(Partition, IdlePartitionDoesNotOutrunTheWindow) {
  // Regression: an empty-queue partition must advance in lockstep with
  // the global lookahead window, not jump to the caller's deadline —
  // otherwise a cross-partition event landing later would be in its past.
  ParallelConfig config;
  config.partitions = 2;
  config.threads = 1;
  config.lookahead = microseconds(10);
  Simulator sim(config);
  Time observed_now = kNever;
  const Time arrive_at = microseconds(25);
  sim.executor(0).schedule(microseconds(2), [&] {
    sim.executor(1).schedule(arrive_at,
                             [&] { observed_now = sim.executor(1).now(); });
  });
  // Partition 1 is idle until the mail lands. A distant deadline must
  // not have dragged its clock past the arrival time.
  sim.run_until(seconds(1));
  EXPECT_EQ(observed_now, arrive_at);
  EXPECT_EQ(sim.lookahead_violations(), 0u);
  EXPECT_EQ(sim.now(), seconds(1));
}

TEST(Partition, SameTimestampMailOrdersBySourcePartitionThenSeq) {
  // Three partitions all mail partition 0 for the same timestamp; the
  // merge rule (when, src_partition, src_seq) fixes the execution order
  // regardless of scheduling order here.
  ParallelConfig config;
  config.partitions = 4;
  config.threads = 1;
  config.lookahead = microseconds(10);
  Simulator sim(config);
  std::vector<int> order;
  const Time t0 = microseconds(1);
  const Time when = microseconds(15);
  // Schedule the senders in reverse partition order to prove the merge
  // ignores arrival order.
  for (int src = 3; src >= 1; --src) {
    sim.executor(static_cast<std::uint32_t>(src)).schedule(t0, [&, src] {
      Executor dest = sim.executor(0);
      dest.schedule(when, [&, src] { order.push_back(src * 10); });
      dest.schedule(when, [&, src] { order.push_back(src * 10 + 1); });
    });
  }
  sim.run();
  // src 1's two sends (in its send order), then src 2's, then src 3's.
  EXPECT_EQ(order, (std::vector<int>{10, 11, 20, 21, 30, 31}));
}

TEST(Partition, LocalFifoStillHoldsAcrossTheMailboxBoundary) {
  // A destination-local event and a same-timestamp mailbox event: the
  // local one was enqueued in an earlier window, so it runs first.
  ParallelConfig config;
  config.partitions = 2;
  config.threads = 1;
  config.lookahead = microseconds(10);
  Simulator sim(config);
  std::vector<std::string> order;
  const Time when = microseconds(15);
  sim.executor(0).schedule(when, [&] { order.push_back("local"); });
  sim.executor(1).schedule(microseconds(1), [&] {
    sim.executor(0).schedule(when, [&] { order.push_back("mail"); });
  });
  sim.run();
  EXPECT_EQ(order, (std::vector<std::string>{"local", "mail"}));
}

TEST(Partition, LookaheadViolationsAreClampedAndCounted) {
  ParallelConfig config;
  config.partitions = 2;
  config.threads = 1;
  config.lookahead = microseconds(10);
  Simulator sim(config);
  Time fired_at = 0;
  sim.executor(0).schedule(microseconds(5), [&] {
    // One nanosecond ahead: far inside the lookahead window. The mail
    // arrives after the destination's window already passed that time;
    // it must clamp (time never regresses) and be counted.
    sim.executor(1).schedule(microseconds(5) + 1,
                             [&] { fired_at = sim.executor(1).now(); });
  });
  sim.run();
  EXPECT_GE(fired_at, microseconds(5) + 1);
  EXPECT_EQ(sim.lookahead_violations(), 1u);
}

TEST(Partition, RunCountsEventsAcrossAllPartitions) {
  ParallelConfig config;
  config.partitions = 3;
  config.threads = 1;
  Simulator sim(config);
  for (std::uint32_t p = 0; p < 3; ++p) {
    for (int i = 0; i < 5; ++i) {
      sim.executor(p).schedule(static_cast<Time>(i * 100), [] {});
    }
  }
  EXPECT_EQ(sim.pending(), 15u);
  EXPECT_FALSE(sim.empty());
  EXPECT_EQ(sim.run(), 15u);
  EXPECT_TRUE(sim.empty());
}

// --- determinism across thread counts ---

// One seeded multi-partition scenario: per-partition actors burn
// counters/histograms, record flight-recorder events, and mail random
// partitions one lookahead (plus jitter) ahead. Returns the merged
// telemetry dump — the byte-identity probe.
std::string run_seeded_scenario(std::uint64_t seed, std::uint32_t threads) {
  ParallelConfig config;
  config.partitions = 4;
  config.threads = threads;
  config.lookahead = microseconds(10);
  Simulator sim(config);

  struct Actor {
    Rng rng;
    int budget = 40;
  };
  auto actors = std::make_shared<std::vector<Actor>>();
  for (std::uint32_t p = 0; p < 4; ++p) {
    actors->push_back(Actor{Rng(seed * 1000003u + p), 40});
  }

  // step(p) runs inside partition p, does seeded work, then either
  // reschedules locally or mails a random partition ahead of the window.
  auto step = std::make_shared<std::function<void(std::uint32_t)>>();
  *step = [&sim, actors, step](std::uint32_t p) {
    Actor& actor = (*actors)[p];
    Executor self = sim.executor(p);
    obs::Registry& reg = self.telemetry();
    reg.counter("test.steps").add();
    reg.histogram("test.draw").record(
        static_cast<std::int64_t>(actor.rng.below(1000)));
    if (actor.rng.chance(0.25)) {
      reg.record_event("p" + std::to_string(p) + " step");
    }
    if (--actor.budget <= 0) return;
    const auto target =
        static_cast<std::uint32_t>(actor.rng.below(4));
    const Duration jitter = actor.rng.between(0, microseconds(5));
    if (target == p) {
      self.schedule_in(1 + jitter, [step, p] { (*step)(p); });
    } else {
      // Cross-partition: at least one full lookahead ahead.
      sim.executor(target).schedule_in(
          microseconds(10) + jitter, [step, target] { (*step)(target); });
    }
  };
  for (std::uint32_t p = 0; p < 4; ++p) {
    sim.executor(p).schedule(microseconds(1) * (p + 1),
                             [step, p] { (*step)(p); });
  }
  sim.run();
  *step = nullptr;  // break the step's reference to itself
  EXPECT_EQ(sim.lookahead_violations(), 0u);
  return sim.telemetry_json(/*include_spans=*/true);
}

TEST(ParallelDeterminism, SeededRunsAreByteIdenticalAtAnyThreadCount) {
  for (std::uint64_t seed = 1; seed <= 50; ++seed) {
    const std::string one = run_seeded_scenario(seed, 1);
    const std::string four = run_seeded_scenario(seed, 4);
    const std::string eight = run_seeded_scenario(seed, 8);
    ASSERT_EQ(one, four) << "seed " << seed << ": 1-thread vs 4-thread";
    ASSERT_EQ(one, eight) << "seed " << seed << ": 1-thread vs 8-thread";
  }
}

TEST(ParallelDeterminism, DistinctSeedsProduceDistinctTelemetry) {
  // Guard against the scenario degenerating into seed-independent output
  // (which would make the identity assertion above vacuous).
  std::set<std::string> dumps;
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    dumps.insert(run_seeded_scenario(seed, 4));
  }
  EXPECT_EQ(dumps.size(), 5u);
}

TEST(ParallelDeterminism, MergedTelemetryMatchesSinglePartitionShape) {
  // merged_json must emit the same JSON shape as the classic to_json so
  // downstream tooling doesn't care how many partitions produced it.
  Simulator sim;
  sim.telemetry().counter("x").add(3);
  const std::string single = sim.telemetry().to_json();
  const std::string merged = sim.telemetry_json();
  EXPECT_EQ(single, merged);
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

TEST(Histogram, MergeMatchesRecordingOneStream) {
  obs::Histogram a;
  obs::Histogram b;
  obs::Histogram combined;
  Rng rng(7);
  for (int i = 0; i < 500; ++i) {
    const auto v = static_cast<std::int64_t>(rng.below(100'000));
    ((i % 2 == 0) ? a : b).record(v);
    combined.record(v);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), combined.count());
  EXPECT_EQ(a.sum(), combined.sum());
  EXPECT_EQ(a.min(), combined.min());
  EXPECT_EQ(a.max(), combined.max());
  for (double p : {50.0, 90.0, 99.0}) {
    EXPECT_DOUBLE_EQ(a.percentile(p), combined.percentile(p));
  }
}

}  // namespace
}  // namespace storm::sim
