// Deterministic crash-point harness for the journal engine.
//
// The harness drives a real journal::Device and, in parallel, a small
// independent reference model of the documented invariants (append order,
// burst-atomic trim cursors, checkpoint horizons). Crash points are
// enumerated from the device's own NVRAM image: every record boundary
// (the power fails exactly after a frame's last byte reaches NVRAM) and
// points inside a frame (a torn write). For each point the harness builds
// the truncated image a real power failure would leave behind, replays it
// into a fresh device, and verifies the recovered per-stream state is
// byte-exact against the model's replay of the same kept record prefix.
//
// The oracle is deliberately *not* the engine: the model re-derives the
// expected recovery from first principles (kept seq prefix + latest kept
// checkpoint horizon), so an engine bug cannot vouch for itself.
#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <deque>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "common/buf.hpp"
#include "common/bytes.hpp"
#include "common/rng.hpp"
#include "journal/log.hpp"
#include "sim/simulator.hpp"

namespace storm::testutil {

/// One crash point within a device image: keep segments [0, segment)
/// whole plus `keep_bytes` of segment `segment`; everything after is
/// lost. `mid_record` marks points that land inside a frame (the replay
/// scan must flag the tail as torn).
struct KillPoint {
  std::size_t segment = 0;
  std::size_t keep_bytes = 0;
  bool mid_record = false;
};

/// Expected post-recovery state of one stream, per the reference model.
struct ExpectedStream {
  std::vector<Bytes> payloads;  // live records, oldest first
  std::size_t bytes = 0;
  std::size_t torn_tail_bytes = 0;
};

class JournalHarness {
 public:
  explicit JournalHarness(journal::Config device_config = {},
                          std::string scope_prefix = "journal.")
      : config(device_config),
        device(sim, sim.telemetry().scope(scope_prefix), config) {}

  sim::Simulator sim;
  const journal::Config config;  // recovery devices are built alike
  journal::Device device;

  journal::StreamId open_stream() { return device.open_stream(); }

  /// Append to the device and mirror into the model history.
  std::uint64_t append(journal::StreamId stream, Bytes payload,
                       std::uint64_t watermark, bool boundary) {
    const std::uint64_t seq =
        device.append(stream, {Buf(Bytes(payload))}, watermark, boundary);
    history_.push_back(Record{stream, seq, watermark, boundary,
                              /*checkpoint=*/false, std::move(payload),
                              journal::Checkpoint{}});
    live_[stream].push_back(history_.size() - 1);
    watermarks_[stream] = std::max(watermarks_[stream], watermark);
    sync_checkpoints();
    return seq;
  }

  /// Convenience: append one burst of `pdus` records totalling
  /// `burst_bytes`, advancing the stream's cumulative watermark. Only the
  /// last record carries the boundary flag. Returns the new watermark.
  std::uint64_t append_burst(journal::StreamId stream, Rng& rng,
                             std::size_t pdus, std::size_t bytes_per_pdu) {
    for (std::size_t i = 0; i < pdus; ++i) {
      Bytes payload(bytes_per_pdu);
      for (auto& b : payload) b = static_cast<std::uint8_t>(rng.next_u32());
      watermarks_[stream] += payload.size();
      append(stream, std::move(payload), watermarks_[stream],
             /*boundary=*/i + 1 == pdus);
    }
    return watermarks_[stream];
  }

  /// Burst-atomic trim, mirrored: drop the model's live prefix up to the
  /// furthest boundary at or below `acked`, advancing the trim cursor.
  void trim(journal::StreamId stream, std::uint64_t acked) {
    device.trim(stream, acked);
    auto& live = live_[stream];
    std::size_t drop = 0;
    for (std::size_t i = 0; i < live.size(); ++i) {
      const Record& rec = history_[live[i]];
      if (rec.watermark > acked) break;
      if (rec.boundary) drop = i + 1;
    }
    if (drop > 0) {
      cursors_[stream] =
          std::max(cursors_[stream], history_[live[drop - 1]].watermark);
      live.erase(live.begin(), live.begin() + static_cast<long>(drop));
    }
    sync_checkpoints();
  }

  void drop_stream(journal::StreamId stream) {
    device.drop_stream(stream);
    dropped_.insert(stream);
    live_.erase(stream);
    sync_checkpoints();
  }

  void checkpoint() {
    device.checkpoint();
    sync_checkpoints();
  }

  std::uint64_t watermark(journal::StreamId stream) {
    return watermarks_[stream];
  }

  /// Highest live (untrimmed, undropped) record count in the model for
  /// `stream`.
  std::size_t model_live_entries(journal::StreamId stream) const {
    auto it = live_.find(stream);
    return it == live_.end() ? 0 : it->second.size();
  }

  // --- crash-point machinery ---

  /// Every record-boundary kill point in `image`, plus `mid_points`
  /// evenly spread interior points per frame (torn writes). Point (seg 0,
  /// keep 0) — "nothing ever reached NVRAM" — is included.
  static std::vector<KillPoint> enumerate_kill_points(
      const journal::Device::Image& image, std::size_t mid_points = 2) {
    std::vector<KillPoint> points;
    points.push_back(KillPoint{0, 0, false});
    for (std::size_t s = 0; s < image.segments.size(); ++s) {
      const journal::ScanResult scan = journal::scan_image(image.segments[s]);
      for (const journal::RecordView& view : scan.records) {
        for (std::size_t m = 1; m <= mid_points; ++m) {
          const std::size_t inside =
              view.offset + (view.frame_bytes * m) / (mid_points + 1);
          if (inside > view.offset && inside < view.offset + view.frame_bytes) {
            points.push_back(KillPoint{s, inside, true});
          }
        }
        points.push_back(KillPoint{s, view.offset + view.frame_bytes, false});
      }
    }
    return points;
  }

  /// The NVRAM image a power failure at `kp` leaves behind.
  static journal::Device::Image truncate_image(
      const journal::Device::Image& image, const KillPoint& kp) {
    journal::Device::Image out;
    for (std::size_t s = 0; s < image.segments.size() && s <= kp.segment;
         ++s) {
      if (s < kp.segment) {
        out.segments.push_back(image.segments[s]);
      } else {
        Bytes head(image.segments[s].begin(),
                   image.segments[s].begin() + static_cast<long>(kp.keep_bytes));
        out.segments.push_back(std::move(head));
      }
    }
    return out;
  }

  /// Reference-model recovery for a (possibly truncated) image: scan the
  /// image for the kept seq set, apply the latest kept checkpoint
  /// horizon, and return the expected live state per stream.
  std::map<journal::StreamId, ExpectedStream> expected_recovery(
      const journal::Device::Image& image) const {
    std::set<std::uint64_t> kept;
    for (const Bytes& seg : image.segments) {
      const journal::ScanResult scan = journal::scan_image(seg);
      for (const journal::RecordView& view : scan.records) {
        kept.insert(view.seq);
      }
    }
    journal::Checkpoint horizon;
    for (const Record& rec : history_) {
      if (rec.checkpoint && kept.count(rec.seq) != 0) horizon = rec.horizon;
    }
    std::map<journal::StreamId, ExpectedStream> out;
    for (const Record& rec : history_) {
      if (rec.checkpoint || kept.count(rec.seq) == 0) continue;
      if (horizon.covers(rec.stream, rec.watermark)) continue;
      ExpectedStream& st = out[rec.stream];
      st.bytes += rec.payload.size();
      st.torn_tail_bytes =
          rec.boundary ? 0 : st.torn_tail_bytes + rec.payload.size();
      st.payloads.push_back(rec.payload);
    }
    return out;
  }

  /// Load `image` into a fresh device (own simulator — recovery happens
  /// on a cold machine) and verify the recovered per-stream state is
  /// byte-exact against the model. Returns the replay stats for extra
  /// assertions (torn counts etc.).
  journal::Device::ReplayStats verify_recovery(
      const journal::Device::Image& image, const std::string& label) const {
    sim::Simulator recovery_sim;
    journal::Device recovered(recovery_sim,
                              recovery_sim.telemetry().scope("journal."),
                              config);
    const journal::Device::ReplayStats stats = recovered.load(image);

    const auto expected = expected_recovery(image);
    std::set<journal::StreamId> all_streams;
    for (const auto& [id, st] : expected) all_streams.insert(id);
    for (const Record& rec : history_) {
      if (!rec.checkpoint) all_streams.insert(rec.stream);
    }
    for (journal::StreamId id : all_streams) {
      auto it = expected.find(id);
      const ExpectedStream empty;
      const ExpectedStream& want = it == expected.end() ? empty : it->second;
      const std::vector<BufChain> got = recovered.stream_records(id);
      EXPECT_EQ(got.size(), want.payloads.size())
          << label << ": stream " << id << " record count";
      const std::size_t n = std::min(got.size(), want.payloads.size());
      for (std::size_t i = 0; i < n; ++i) {
        EXPECT_EQ(chain_to_bytes(got[i]), want.payloads[i])
            << label << ": stream " << id << " record " << i << " payload";
      }
      EXPECT_EQ(recovered.stream_bytes(id), want.bytes)
          << label << ": stream " << id << " bytes";
      EXPECT_EQ(recovered.stream_torn_tail_bytes(id), want.torn_tail_bytes)
          << label << ": stream " << id << " torn tail";
    }
    return stats;
  }

  /// Sweep every kill point of the device's current image.
  void sweep_kill_points(std::size_t mid_points = 2) {
    const journal::Device::Image image = device.export_image();
    const std::vector<KillPoint> points =
        enumerate_kill_points(image, mid_points);
    for (const KillPoint& kp : points) {
      const journal::Device::Image cut = truncate_image(image, kp);
      const std::string label =
          "kill seg=" + std::to_string(kp.segment) +
          " keep=" + std::to_string(kp.keep_bytes) +
          (kp.mid_record ? " (mid-record)" : " (boundary)");
      const journal::Device::ReplayStats stats = verify_recovery(cut, label);
      if (kp.mid_record) {
        EXPECT_EQ(stats.torn, 1u) << label;
      } else {
        EXPECT_TRUE(stats.clean()) << label;
      }
      if (::testing::Test::HasFailure()) return;  // first failing point
    }
  }

 private:
  struct Record {
    journal::StreamId stream = 0;
    std::uint64_t seq = 0;
    std::uint64_t watermark = 0;
    bool boundary = true;
    bool checkpoint = false;
    Bytes payload;
    journal::Checkpoint horizon;  // checkpoint records only
  };

  /// The device may auto-checkpoint inside trim()/drop_stream(); observe
  /// the checkpoint counter after every mirrored operation and record any
  /// new checkpoint with the model's current horizon (which must equal
  /// the device's, or recovery comparisons will say so).
  void sync_checkpoints() {
    while (model_checkpoints_ < device.checkpoints_written()) {
      ++model_checkpoints_;
      journal::Checkpoint horizon;
      horizon.cursors = cursors_;
      horizon.dropped = dropped_;
      // At most one checkpoint can be written per mirrored op, and it is
      // the op's last record, so its seq is the device's newest.
      history_.push_back(Record{journal::kMetaStream, device.appended_seq(),
                               0, true, /*checkpoint=*/true, Bytes{},
                               std::move(horizon)});
    }
  }

  std::vector<Record> history_;  // every record ever appended, seq order
  std::map<journal::StreamId, std::vector<std::size_t>> live_;  // -> history_
  std::map<journal::StreamId, std::uint64_t> cursors_;
  std::map<journal::StreamId, std::uint64_t> watermarks_;
  std::set<journal::StreamId> dropped_;
  std::uint64_t model_checkpoints_ = 0;
};

}  // namespace storm::testutil
