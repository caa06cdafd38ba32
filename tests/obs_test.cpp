// Unit tests for the obs:: telemetry subsystem: registry metrics, scopes,
// trace spans with integer trace ids, the bounded flight recorder, and the
// deterministic JSON export.
#include <gtest/gtest.h>

#include <sstream>

#include "obs/recorder.hpp"
#include "obs/registry.hpp"
#include "obs/trace.hpp"
#include "sim/simulator.hpp"

namespace storm::obs {
namespace {

// ------------------------------------------------------------- metrics

TEST(Registry, MetricsAreNamedSingletonsWithStableAddresses) {
  sim::Simulator sim;
  Registry& reg = sim.telemetry();
  Counter& c = reg.counter("net.packets");
  c.add();
  c.add(4);
  EXPECT_EQ(reg.counter("net.packets").value(), 5u);
  EXPECT_EQ(&reg.counter("net.packets"), &c)
      << "hot paths cache metric pointers; addresses must be stable";

  Gauge& g = reg.gauge("queue.depth");
  g.set(7);
  g.add(-3);
  EXPECT_EQ(reg.gauge("queue.depth").value(), 4);

  Histogram& h = reg.histogram("lat");
  h.record(100);
  EXPECT_EQ(reg.histogram("lat").count(), 1u);
}

TEST(Registry, ScopePrefixesAndNullScopeDiscards) {
  sim::Simulator sim;
  Registry& reg = sim.telemetry();
  Scope scope = reg.scope("relay.mb-1.");
  scope.counter("pdus").add(3);
  EXPECT_EQ(reg.counter("relay.mb-1.pdus").value(), 3u);

  // A default-constructed Scope is a null object: writes vanish, reads
  // are safe, and nothing lands in any registry.
  Scope null_scope;
  null_scope.counter("pdus").add(42);
  null_scope.gauge("depth").set(9);
  null_scope.histogram("lat").record(1);
  EXPECT_EQ(reg.counter("pdus").value(), 0u);
}

TEST(Histogram, HdrBucketsBoundRelativeError) {
  Histogram h;
  // Exact below 64; bounded relative error above.
  for (std::int64_t v : {1, 2, 63}) {
    h.record(v);
  }
  EXPECT_EQ(h.min(), 1);
  EXPECT_EQ(h.max(), 63);
  h.clear();
  std::int64_t big = 1'000'000;
  h.record(big);
  EXPECT_EQ(h.count(), 1u);
  EXPECT_EQ(h.sum(), big);
  EXPECT_NEAR(h.percentile(50), static_cast<double>(big), 0.02 * big);
  // p0/p100 are the exact extremes regardless of bucketing.
  EXPECT_EQ(h.percentile(0), static_cast<double>(big));
  EXPECT_EQ(h.percentile(100), static_cast<double>(big));
  EXPECT_THROW(h.percentile(-1), std::invalid_argument);
  EXPECT_THROW(h.percentile(101), std::invalid_argument);

  auto buckets = h.buckets();
  ASSERT_EQ(buckets.size(), 1u);
  std::uint64_t total = 0;
  for (const auto& [rep, count] : buckets) total += count;
  EXPECT_EQ(total, h.count());
}

// The export pinned at the edges of the bucket range: a negative sample
// (clamped to 0), the last exact bucket, the first quantized one, and
// samples up to INT64_MAX (whose sum wraps). These figures are what the
// telemetry dumps carry, so the bucket store must not move them.
TEST(Histogram, ExportIsPinnedAcrossTheWholeRange) {
  Histogram h;
  for (std::int64_t v : {std::int64_t{-5}, std::int64_t{0}, std::int64_t{63},
                         std::int64_t{64}, std::int64_t{1'000'000},
                         std::int64_t{1} << 40, INT64_MAX}) {
    h.record(v);
  }
  EXPECT_EQ(h.count(), 7u);
  EXPECT_EQ(h.min(), 0);
  EXPECT_EQ(h.max(), INT64_MAX);
  EXPECT_EQ(h.sum(), -9223370937342147906);
  EXPECT_EQ(h.percentile(50), 64.0);
  EXPECT_EQ(h.percentile(99), 9187343239835811839.0);
  const std::map<std::int64_t, std::uint64_t> expect = {
      {0, 2},
      {63, 1},
      {64, 1},
      {1'003'519, 1},
      {1'108'101'562'367, 1},
      {9'187'343'239'835'811'839, 1}};
  EXPECT_EQ(h.buckets(), expect);

  h.clear();
  EXPECT_TRUE(h.buckets().empty());
  EXPECT_EQ(h.percentile(50), 0.0);
  h.record(7);
  EXPECT_EQ(h.buckets(), (std::map<std::int64_t, std::uint64_t>{{7, 1}}));
}

// -------------------------------------------------------------- tracing

TEST(Tracer, ParentChildSpansAndEvents) {
  sim::Simulator sim;
  Registry& reg = sim.telemetry();
  SpanId root = reg.begin_span("cmd.write");
  sim.schedule_in(sim::microseconds(5), [&] {
    reg.add_event(root, "mb.cmd", /*queue depth*/ 2);
    SpanId child = reg.begin_span("relay.mb-1", root);
    sim.schedule_in(sim::microseconds(3), [&, child] {
      reg.end_span(child);
      reg.add_event(root, "complete");
      reg.end_span(root);
    });
  });
  sim.run();

  const Tracer& tracer = reg.tracer();
  auto roots = tracer.spans_named("cmd.write");
  ASSERT_EQ(roots.size(), 1u);
  EXPECT_TRUE(roots[0]->ended);
  EXPECT_EQ(roots[0]->start, 0u);
  EXPECT_EQ(roots[0]->end, sim::microseconds(8));
  ASSERT_EQ(roots[0]->events.size(), 2u);
  EXPECT_EQ(roots[0]->events[0].label, "mb.cmd");
  EXPECT_EQ(roots[0]->events[0].at, sim::microseconds(5));
  EXPECT_EQ(roots[0]->events[0].value, 2u);

  auto children = tracer.children_of(root);
  ASSERT_EQ(children.size(), 1u);
  EXPECT_EQ(children[0]->name, "relay.mb-1");
  EXPECT_EQ(children[0]->parent, root);
  EXPECT_EQ(children[0]->start, sim::microseconds(5));
  EXPECT_EQ(children[0]->end, sim::microseconds(8));
}

TEST(Tracer, BindLookupUnbindCorrelationKeys) {
  sim::Simulator sim;
  Registry& reg = sim.telemetry();
  const TraceId trace = trace_id(40001, 7);
  EXPECT_EQ(reg.lookup(trace), 0u) << "unbound id must resolve to no span";

  SpanId id = reg.begin_span("cmd.read");
  reg.bind(trace, id);
  EXPECT_EQ(reg.lookup(trace), id);
  // Rebinding (tag reuse on a later command) replaces the mapping.
  SpanId id2 = reg.begin_span("cmd.read");
  reg.bind(trace, id2);
  EXPECT_EQ(reg.lookup(trace), id2);

  // Port and tag never alias: the same tag on another port, and the same
  // port with a tag that differs only above bit 16, are other commands.
  const TraceId other_port = trace_id(40002, 7);
  const TraceId high_tag = trace_id(40001, 7u | 1u << 16);
  EXPECT_NE(other_port, trace);
  EXPECT_NE(high_tag, trace);
  EXPECT_NE(high_tag, other_port);
  EXPECT_EQ(reg.lookup(other_port), 0u);
  EXPECT_EQ(reg.lookup(high_tag), 0u);
  SpanId id3 = reg.begin_span("cmd.write");
  reg.bind(high_tag, id3);
  EXPECT_EQ(reg.lookup(high_tag), id3);
  EXPECT_EQ(reg.lookup(trace), id2);

  reg.unbind(trace);
  EXPECT_EQ(reg.lookup(trace), 0u);
  EXPECT_EQ(reg.lookup(high_tag), id3);
}

TEST(Tracer, RetentionCapDropsSpanDetailNotIds) {
  Tracer tracer(/*max_retained=*/4);
  std::vector<SpanId> ids;
  for (int i = 0; i < 10; ++i) {
    ids.push_back(tracer.begin_span("s", /*now=*/i));
    tracer.add_event(ids.back(), "e", i, 0);
    tracer.end_span(ids.back(), i + 1);
  }
  EXPECT_EQ(tracer.spans_started(), 10u);
  EXPECT_EQ(tracer.spans_dropped(), 6u);
  EXPECT_EQ(tracer.spans().size(), 4u);
  // Ids remain unique and monotonic even past the cap.
  EXPECT_EQ(ids.back(), 10u);
  // Dropped spans are invisible to queries; retained ones intact.
  EXPECT_EQ(tracer.span(ids.back()), nullptr);
  ASSERT_NE(tracer.span(ids.front()), nullptr);
  EXPECT_TRUE(tracer.span(ids.front())->ended);
}

// ------------------------------------------------------ flight recorder

TEST(FlightRecorder, BoundedRingKeepsNewestOldestFirst) {
  FlightRecorder rec(/*capacity=*/3);
  for (int i = 0; i < 5; ++i) {
    rec.record(static_cast<sim::Time>(i), "event " + std::to_string(i));
  }
  EXPECT_EQ(rec.total_recorded(), 5u);
  auto events = rec.events();
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(events[0].what, "event 2");
  EXPECT_EQ(events[2].what, "event 4");
  EXPECT_LE(events[0].at, events[2].at);

  std::ostringstream out;
  rec.dump(out);
  EXPECT_NE(out.str().find("event 4"), std::string::npos);
  EXPECT_EQ(out.str().find("event 1"), std::string::npos);
}

// ------------------------------------------------------------ to_json

TEST(Registry, ToJsonIsDeterministicAcrossIdenticalRuns) {
  auto run = [] {
    sim::Simulator sim;
    Registry& reg = sim.telemetry();
    reg.counter("b").add(2);
    reg.counter("a").add(1);
    reg.gauge("depth").set(-3);
    reg.histogram("lat").record(1500);
    reg.record_event("attach vm:vol");
    SpanId id = reg.begin_span("cmd.write");
    reg.add_event(id, "issue", 4096);
    reg.end_span(id);
    return reg.to_json(/*include_spans=*/true);
  };
  std::string first = run();
  EXPECT_EQ(first, run());

  // Name-ordered keys, escaped strings, span payload present.
  EXPECT_LT(first.find("\"a\""), first.find("\"b\""));
  EXPECT_NE(first.find("\"sim_time_ns\""), std::string::npos);
  EXPECT_NE(first.find("\"attach vm:vol\""), std::string::npos);
  EXPECT_NE(first.find("\"cmd.write\""), std::string::npos);
  EXPECT_NE(first.find("\"p99\""), std::string::npos);

  // Without spans the trace section is omitted entirely.
  sim::Simulator sim;
  EXPECT_EQ(sim.telemetry().to_json().find("\"spans\""), std::string::npos);
}

TEST(Registry, ToJsonEscapesControlAndQuoteCharacters) {
  sim::Simulator sim;
  Registry& reg = sim.telemetry();
  reg.record_event("quote \" backslash \\ newline \n tab \t end");
  std::string json = reg.to_json();
  EXPECT_NE(json.find("quote \\\" backslash \\\\ newline \\n tab \\t end"),
            std::string::npos);
}

}  // namespace
}  // namespace storm::obs
