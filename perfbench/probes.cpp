#include "probes.hpp"

#include <algorithm>
#include <array>
#include <vector>

#include "common/buf.hpp"
#include "common/hash.hpp"
#include "common/rng.hpp"
#include "crypto/chacha20.hpp"
#include "iscsi/pdu.hpp"
#include "journal/log.hpp"
#include "spans.hpp"

namespace perfbench {

namespace {

constexpr int kRepetitions = 5;

/// Median over repetitions of (host ns of one `body(calls)` run) / calls.
template <typename Body>
double ns_per_call(std::uint64_t calls, Body body) {
  std::array<double, kRepetitions> samples{};
  for (double& sample : samples) {
    const std::int64_t start = host_ns();
    body(calls);
    sample = static_cast<double>(host_ns() - start) /
             static_cast<double>(calls);
  }
  std::sort(samples.begin(), samples.end());
  return samples[kRepetitions / 2];
}

storm::Bytes random_bytes(std::size_t n) {
  storm::Rng rng(0xB5C0FFEEull);
  storm::Bytes out(n);
  for (auto& b : out) b = static_cast<std::uint8_t>(rng.next_u32());
  return out;
}

/// Keeps the optimizer from discarding a result.
volatile std::uint64_t g_sink = 0;

}  // namespace

ProbeResults run_probes(std::uint32_t io_bytes,
                        std::optional<storm::sim::ParallelConfig> fleet,
                        unsigned threads) {
  namespace sim = storm::sim;
  ProbeResults out;
  const storm::Bytes io = random_bytes(io_bytes);
  // Data segments are streamed in chunks of at most kMaxDataSegment.
  const std::uint32_t segment_bytes =
      std::min<std::uint32_t>(io_bytes, storm::iscsi::kMaxDataSegment);
  const std::span<const std::uint8_t> segment(io.data(), segment_bytes);

  out.sim_noop_event_ns = ns_per_call(100'000, [](std::uint64_t n) {
    sim::Simulator simulator;
    for (std::uint64_t i = 0; i < n; ++i) {
      simulator.schedule(static_cast<sim::Time>(i), [] {});
    }
    simulator.run();
  });

  if (fleet) {
    // The Cloud derives its lookahead from the wired links, which all
    // carry link_delay, the configured fallback; a bare simulator has no
    // links to derive from, so it takes the fallback directly.
    sim::ParallelConfig config = *fleet;
    config.auto_lookahead = false;
    auto windows = [&config](std::uint64_t n) {
      sim::Simulator simulator(config);
      const sim::Duration window = simulator.lookahead();
      for (std::uint64_t w = 0; w < n; ++w) {
        const sim::Time at = static_cast<sim::Time>(w) * window + window / 2;
        for (std::uint32_t p = 0; p < simulator.partition_count(); ++p) {
          simulator.executor(p).schedule(at, [] {});
        }
      }
      simulator.run_until(static_cast<sim::Time>(n) * window);
    };
    out.sim_empty_window_ns = ns_per_call(2'000, windows);
    config.threads = threads;
    out.sim_empty_window_ns_threaded = ns_per_call(2'000, windows);
  }

  // Byte-proportional probes move about 4 MiB per repetition.
  const std::uint64_t io_calls = std::max<std::uint64_t>(1, (4u << 20) / io_bytes);
  const std::uint64_t segment_calls = (4u << 20) / segment_bytes;
  out.crc32_ns_per_kib =
      ns_per_call(io_calls, [&](std::uint64_t n) {
        for (std::uint64_t i = 0; i < n; ++i) g_sink = g_sink + storm::crc32(io);
      }) * 1024.0 / io_bytes;

  const storm::iscsi::Pdu pdu = storm::iscsi::make_data_out(
      7, 0, storm::Buf::copy(segment), true);
  out.pdu_serialize_ns = ns_per_call(segment_calls, [&](std::uint64_t n) {
    for (std::uint64_t i = 0; i < n; ++i) {
      storm::BufChain chain = storm::iscsi::serialize_chunks(pdu);
      g_sink = g_sink + chain.size();
    }
  });
  const storm::Bytes wire = storm::iscsi::serialize(pdu);
  const storm::Buf body =
      storm::Buf::copy(std::span<const std::uint8_t>(wire).subspan(4));
  out.pdu_parse_ns = ns_per_call(segment_calls, [&](std::uint64_t n) {
    for (std::uint64_t i = 0; i < n; ++i) {
      auto parsed = storm::iscsi::parse_pdu(body);
      g_sink = g_sink + (parsed.is_ok() ? parsed.value().data.size() : 0);
    }
  });

  out.journal_append_ns = ns_per_call(segment_calls, [&](std::uint64_t n) {
    sim::Simulator simulator;
    storm::journal::Device device(simulator, storm::obs::Scope{});
    const storm::journal::StreamId stream = device.open_stream();
    storm::BufChain payload;
    payload.push_back(storm::Buf::copy(segment));
    for (std::uint64_t i = 1; i <= n; ++i) {
      device.append(stream, payload, i, true);
      // Keep the log bounded the way the relay does: trim what the
      // target acknowledged and let group commit drain.
      if (i % 64 == 0) {
        device.trim(stream, i);
        simulator.run();
      }
    }
    simulator.run();
  });

  const std::array<std::uint8_t, 32> key{};
  const std::array<std::uint8_t, 12> nonce{};
  storm::Bytes sink(io_bytes);
  out.chacha20_ns_per_kib =
      ns_per_call(io_calls, [&](std::uint64_t n) {
        for (std::uint64_t i = 0; i < n; ++i) {
          storm::crypto::chacha20_crypt(key, nonce, static_cast<std::uint32_t>(i),
                                        io, sink);
        }
        g_sink = g_sink + sink[0];
      }) * 1024.0 / io_bytes;
  return out;
}

}  // namespace perfbench
