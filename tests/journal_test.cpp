// Journal engine suite: record framing, durable appends, checkpointing and
// segment reclaim — plus the crash-point harness sweeps (kill at every
// record boundary and mid-record) and the randomized crash property test
// that replays hundreds of seeded write/trim/checkpoint schedules.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "journal/checkpoint.hpp"
#include "journal/log.hpp"
#include "journal/segment.hpp"
#include "journal_testutil.hpp"
#include "sim/simulator.hpp"
#include "testutil.hpp"

namespace storm {
namespace {

using testutil::JournalHarness;
using testutil::KillPoint;

journal::Config small_segments() {
  journal::Config config;
  config.segment_bytes = 512;  // force frequent segment rolls
  config.checkpoint_dead_bytes = 0;  // explicit checkpoints only
  return config;
}

// ------------------------------------------------------------- framing

TEST(JournalSegment, ScanRoundTripsAppendedRecords) {
  journal::Segment seg(0, 4096);
  const Bytes a = testutil::pattern_bytes(100, 1);
  const Bytes b = testutil::pattern_bytes(37, 2);
  seg.append(1, 1, 100, journal::kBoundary, {Buf::copy(a)});
  seg.append(2, 2, 37, 0, {Buf::copy(b)});

  const journal::ScanResult scan = seg.scan();
  ASSERT_EQ(scan.records.size(), 2u);
  EXPECT_FALSE(scan.torn);
  EXPECT_EQ(scan.valid_bytes, seg.size());
  EXPECT_EQ(scan.records[0].stream, 1u);
  EXPECT_EQ(scan.records[0].seq, 1u);
  EXPECT_EQ(scan.records[0].watermark, 100u);
  EXPECT_TRUE(scan.records[0].boundary());
  EXPECT_EQ(Bytes(scan.records[0].payload.begin(),
                  scan.records[0].payload.end()),
            a);
  EXPECT_EQ(scan.records[1].stream, 2u);
  EXPECT_FALSE(scan.records[1].boundary());
  EXPECT_EQ(Bytes(scan.records[1].payload.begin(),
                  scan.records[1].payload.end()),
            b);
}

TEST(JournalSegment, TruncatedFrameScansAsTorn) {
  journal::Segment seg(0, 4096);
  const Bytes a = testutil::pattern_bytes(64);
  seg.append(1, 1, 64, journal::kBoundary, {Buf::copy(a)});
  const std::size_t full = seg.size();
  for (std::size_t cut = 1; cut < full; ++cut) {
    Bytes image(seg.bytes().begin(), seg.bytes().begin() + cut);
    const journal::ScanResult scan = journal::scan_image(image);
    EXPECT_TRUE(scan.records.empty()) << "cut=" << cut;
    EXPECT_TRUE(scan.torn) << "cut=" << cut;
    EXPECT_EQ(scan.valid_bytes, 0u) << "cut=" << cut;
  }
}

TEST(JournalCheckpoint, CodecRoundTrip) {
  journal::Checkpoint cp;
  cp.cursors[3] = 12345;
  cp.cursors[9] = 7;
  cp.dropped.insert(4);
  const Bytes encoded = journal::encode_checkpoint(cp);
  const journal::Checkpoint decoded = journal::decode_checkpoint(encoded);
  EXPECT_EQ(decoded.cursors, cp.cursors);
  EXPECT_EQ(decoded.dropped, cp.dropped);
  EXPECT_TRUE(decoded.covers(3, 12345));
  EXPECT_FALSE(decoded.covers(3, 12346));
  EXPECT_TRUE(decoded.covers(4, 1));  // dropped: any watermark
  EXPECT_FALSE(decoded.covers(5, 0));
}

// ------------------------------------------------------ durable appends

TEST(JournalDevice, AppendIsDurableBeforeTheCommitLatencyElapses) {
  // The early-ACK contract: a record is power-fail safe the moment
  // append() returns, without the simulator ever running.
  JournalHarness h(small_segments());
  const journal::StreamId s = h.open_stream();
  Rng rng(7);
  h.append_burst(s, rng, 3, 200);
  h.verify_recovery(h.device.export_image(), "crash right after append");
}

TEST(JournalDevice, AppendTrimAndCheckpointQueueNoEvent) {
  // The journal is byte-addressable NVRAM: append, trim and checkpoint
  // (explicit or automatic) store, index and return. None of them leaves
  // a simulator event behind.
  journal::Config config;
  config.segment_bytes = 512;
  config.checkpoint_dead_bytes = 1024;
  JournalHarness h(config);
  const journal::StreamId a = h.open_stream();
  const journal::StreamId b = h.open_stream();
  Rng rng(5);
  h.append_burst(a, rng, 3, 120);
  h.append_burst(b, rng, 2, 90);
  EXPECT_EQ(h.sim.pending(), 0u) << "after appends";
  h.trim(a, h.watermark(a));
  EXPECT_EQ(h.sim.pending(), 0u) << "after a trim";
  h.checkpoint();
  EXPECT_EQ(h.device.checkpoints_written(), 1u);
  EXPECT_EQ(h.sim.pending(), 0u) << "after an explicit checkpoint";
  for (int burst = 0; burst < 8; ++burst) {
    h.trim(b, h.append_burst(b, rng, 1, 256));
  }
  EXPECT_GT(h.device.checkpoints_written(), 1u) << "auto-checkpoint fired";
  EXPECT_EQ(h.sim.pending(), 0u) << "after auto-checkpoints";
  h.verify_recovery(h.device.export_image(), "no events");
}

// -------------------------------------------- checkpoint + segment churn

TEST(JournalDevice, CheckpointReclaimsDeadSegmentsAndSkipsOnReplay) {
  JournalHarness h(small_segments());
  const journal::StreamId s = h.open_stream();
  Rng rng(11);
  // Fill several segments, ack everything, checkpoint: the log should
  // shrink to (nearly) nothing, and replay must skip the acked records.
  std::uint64_t wm = 0;
  for (int burst = 0; burst < 12; ++burst) {
    wm = h.append_burst(s, rng, 2, 100);
  }
  const std::size_t before = h.device.segment_count();
  ASSERT_GT(before, 2u);
  h.trim(s, wm);
  h.checkpoint();
  EXPECT_LT(h.device.segment_count(), before) << "dead segments reclaimed";
  EXPECT_EQ(h.device.stream_bytes(s), 0u);

  // Replay the surviving image: every pre-checkpoint record is skipped.
  sim::Simulator sim2;
  journal::Device recovered(sim2, sim2.telemetry().scope("journal."),
                            h.config);
  const auto stats = recovered.load(h.device.export_image());
  EXPECT_EQ(stats.recovered, 0u);
  EXPECT_EQ(recovered.stream_bytes(s), 0u);
  EXPECT_TRUE(stats.clean());
}

TEST(JournalDevice, AutoCheckpointFiresOnDeadByteThreshold) {
  journal::Config config;
  config.segment_bytes = 512;
  config.checkpoint_dead_bytes = 1024;
  JournalHarness h(config);
  const journal::StreamId s = h.open_stream();
  Rng rng(13);
  std::uint64_t wm = 0;
  for (int burst = 0; burst < 10; ++burst) {
    wm = h.append_burst(s, rng, 1, 256);
    h.trim(s, wm);
  }
  EXPECT_GT(h.device.checkpoints_written(), 0u);
  // The harness mirrored every auto-checkpoint; recovery must agree.
  h.verify_recovery(h.device.export_image(), "auto-checkpoint");
}

TEST(JournalDevice, DroppedStreamIsNotResurrectedPastItsTombstone) {
  JournalHarness h(small_segments());
  const journal::StreamId a = h.open_stream();
  const journal::StreamId b = h.open_stream();
  Rng rng(17);
  h.append_burst(a, rng, 2, 80);
  h.append_burst(b, rng, 2, 80);
  h.drop_stream(a);
  h.checkpoint();  // tombstone becomes durable
  const auto stats = h.verify_recovery(h.device.export_image(), "tombstone");
  EXPECT_GT(stats.skipped, 0u) << "dropped stream's records skipped";

  // Without the checkpoint the drop is volatile: resurrection is the
  // documented at-least-once window, and the model expects it too.
  JournalHarness h2(small_segments());
  const journal::StreamId a2 = h2.open_stream();
  Rng rng2(17);
  h2.append_burst(a2, rng2, 2, 80);
  h2.drop_stream(a2);
  h2.verify_recovery(h2.device.export_image(), "volatile drop");
}

// ---------------------------------------------------- crash-point sweeps

TEST(JournalCrash, KillSweepAcrossScriptedScheduleRecoversExactPrefix) {
  // A scripted schedule touching every feature: multiple streams, torn
  // (non-boundary) tails, trims, a drop and a checkpoint — then kill at
  // every record boundary and twice inside every frame.
  JournalHarness h(small_segments());
  Rng rng(23);
  const journal::StreamId a = h.open_stream();
  const journal::StreamId b = h.open_stream();
  h.append_burst(a, rng, 3, 64);
  h.append_burst(b, rng, 1, 150);
  const std::uint64_t wm_a = h.append_burst(a, rng, 2, 100);
  h.trim(a, wm_a);
  h.append_burst(b, rng, 2, 90);
  h.checkpoint();
  const journal::StreamId c = h.open_stream();
  h.append_burst(c, rng, 2, 48);
  h.drop_stream(b);
  h.append_burst(a, rng, 1, 256);
  // Leave an open burst (torn tail) at the very end.
  h.append(a, testutil::pattern_bytes(40, 9), h.watermark(a) + 40,
           /*boundary=*/false);

  h.sweep_kill_points(/*mid_points=*/2);
}

TEST(JournalCrash, ZeroAcknowledgedBurstsLostAtAnyBoundaryKill) {
  // The acceptance bar stated directly: after a kill at any record
  // boundary, every fully-appended record (the committed prefix) is
  // recovered — nothing acknowledged is lost, nothing extra appears.
  JournalHarness h(small_segments());
  Rng rng(29);
  const journal::StreamId s = h.open_stream();
  for (int burst = 0; burst < 6; ++burst) {
    h.append_burst(s, rng, 2, 70);
  }
  const journal::Device::Image image = h.device.export_image();
  for (const KillPoint& kp :
       JournalHarness::enumerate_kill_points(image, /*mid_points=*/0)) {
    const auto cut = JournalHarness::truncate_image(image, kp);
    // Count records fully inside the cut: they must all come back.
    std::size_t kept = 0;
    for (const Bytes& seg : cut.segments) {
      kept += journal::scan_image(seg).records.size();
    }
    sim::Simulator sim2;
    journal::Device recovered(sim2, sim2.telemetry().scope("journal."),
                              h.config);
    const auto stats = recovered.load(cut);
    EXPECT_EQ(stats.recovered + stats.skipped, kept)
        << "seg=" << kp.segment << " keep=" << kp.keep_bytes;
    EXPECT_TRUE(stats.clean());
  }
}

// ------------------------------------- randomized crash property testing

/// One seeded random schedule (appends/trims/checkpoints/drops across a
/// few streams), then a random crash offset — including torn mid-frame
/// tails — verified byte-exact against the model. Returns a digest of
/// the device image so same-seed determinism is checkable end to end.
std::string run_random_crash_schedule(std::uint64_t seed) {
  Rng rng(seed);
  journal::Config config;
  config.segment_bytes = 256 + rng.below(1024);
  config.checkpoint_dead_bytes = rng.chance(0.5) ? 0 : 512 + rng.below(2048);
  JournalHarness h(config);

  std::vector<journal::StreamId> streams;
  for (std::size_t i = 0; i < 1 + rng.below(3); ++i) {
    streams.push_back(h.open_stream());
  }
  const std::size_t ops = 8 + rng.below(25);
  for (std::size_t op = 0; op < ops; ++op) {
    journal::StreamId s = streams[rng.below(streams.size())];
    const double roll = rng.next_double();
    if (roll < 0.6) {
      h.append_burst(s, rng, 1 + rng.below(4), 16 + rng.below(200));
    } else if (roll < 0.8) {
      // Ack a random point — sometimes mid-burst, sometimes beyond.
      const std::uint64_t wm = h.watermark(s);
      h.trim(s, wm == 0 ? 0 : rng.below(wm + wm / 4 + 1));
    } else if (roll < 0.92) {
      h.checkpoint();
    } else {
      h.drop_stream(s);
      streams.erase(std::find(streams.begin(), streams.end(), s));
      if (streams.empty()) streams.push_back(h.open_stream());
    }
  }
  // Maybe leave an open (torn) burst at the end.
  if (rng.chance(0.4)) {
    journal::StreamId s = streams[rng.below(streams.size())];
    h.append(s, testutil::pattern_bytes(32, static_cast<std::uint8_t>(seed)),
             h.watermark(s) + 32, /*boundary=*/false);
  }

  // Crash at a random byte offset across the whole image (mid-frame cuts
  // included), plus always the full image.
  const journal::Device::Image image = h.device.export_image();
  h.verify_recovery(image, "seed=" + std::to_string(seed) + " full");
  if (image.bytes() > 0) {
    std::size_t cut = rng.below(image.bytes() + 1);
    KillPoint kp;
    for (std::size_t s = 0; s < image.segments.size(); ++s) {
      if (cut <= image.segments[s].size()) {
        kp = KillPoint{s, cut, false};
        break;
      }
      cut -= image.segments[s].size();
    }
    h.verify_recovery(JournalHarness::truncate_image(image, kp),
                      "seed=" + std::to_string(seed) + " cut");
  }

  // Digest: image bytes + record count, for determinism comparison.
  std::string digest;
  for (const Bytes& seg : image.segments) {
    digest += std::to_string(seg.size()) + ":";
    std::uint64_t h64 = 1469598103934665603ull;
    for (std::uint8_t byte : seg) {
      h64 = (h64 ^ byte) * 1099511628211ull;
    }
    digest += std::to_string(h64) + ";";
  }
  return digest;
}

TEST(JournalCrash, RandomizedSchedulesRecoverTheCommittedPrefix) {
  for (std::uint64_t seed = 1; seed <= 200; ++seed) {
    run_random_crash_schedule(seed);
    if (::testing::Test::HasFailure()) {
      ADD_FAILURE() << "first failing seed: " << seed;
      return;
    }
  }
}

TEST(JournalCrash, SameSeedSchedulesAreByteIdentical) {
  for (std::uint64_t seed : {3ull, 47ull, 101ull}) {
    EXPECT_EQ(run_random_crash_schedule(seed),
              run_random_crash_schedule(seed))
        << "seed " << seed;
  }
}

// -------------------------------------------- multiplexing determinism

/// Two chains interleaving into one shared log: chain A's recovered
/// state must be a function of chain A's history alone, however chain
/// B's records interleave with it.
TEST(JournalMultiplex, RecoveredStreamStateIsIndependentOfInterleaving) {
  auto run = [](bool b_first, std::size_t b_chunk) {
    auto h = std::make_unique<JournalHarness>(small_segments());
    const journal::StreamId a = h->open_stream();
    const journal::StreamId b = h->open_stream();
    Rng rng_a(1001);  // chain A's payloads: identical across runs
    Rng rng_b(2002 + b_chunk);  // chain B varies freely
    for (int round = 0; round < 6; ++round) {
      if (b_first) h->append_burst(b, rng_b, 1 + b_chunk, 50);
      h->append_burst(a, rng_a, 2, 120);
      if (!b_first) h->append_burst(b, rng_b, 1 + b_chunk, 50);
    }
    const std::uint64_t wm_a = h->watermark(a);
    h->trim(a, wm_a / 2);

    sim::Simulator sim2;
    journal::Device recovered(sim2, sim2.telemetry().scope("journal."),
                              h->config);
    recovered.load(h->device.export_image());
    std::vector<Bytes> out;
    for (const BufChain& chain : recovered.stream_records(a)) {
      out.push_back(chain_to_bytes(chain));
    }
    return out;
  };

  const std::vector<Bytes> base = run(false, 0);
  ASSERT_FALSE(base.empty());
  EXPECT_EQ(run(true, 0), base) << "B-before-A interleaving changed A";
  EXPECT_EQ(run(false, 2), base) << "B burst size changed A";
  EXPECT_EQ(run(true, 3), base) << "both varied";
}

TEST(JournalMultiplex, SameSeedInterleavingExportsByteIdenticalTelemetry) {
  auto run = [] {
    JournalHarness h(small_segments());
    const journal::StreamId a = h.open_stream();
    const journal::StreamId b = h.open_stream();
    Rng rng(31337);
    for (int round = 0; round < 5; ++round) {
      h.append_burst(a, rng, 2, 64);
      h.append_burst(b, rng, 1, 200);
      if (round == 2) {
        h.trim(a, h.watermark(a));
        h.checkpoint();
      }
    }
    h.device.crash();
    h.device.recover();
    return h.sim.telemetry().to_json(/*include_spans=*/true);
  };
  const std::string first = run();
  EXPECT_EQ(first, run());
  EXPECT_NE(first.find("journal.replays"), std::string::npos);
  EXPECT_NE(first.find("journal.appends"), std::string::npos);
}

}  // namespace
}  // namespace storm
