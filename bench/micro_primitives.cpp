// Real-time (wall-clock) microbenchmarks of the primitives on the StorM
// data path, via google-benchmark: ciphers, digests, the PDU codec, NAT
// translation and flow-table matching. These measure this
// host's actual throughput — the simulation's cost model constants
// (ns/byte, per-PDU) can be sanity-checked against them.
//
// After the google-benchmark suite, a datapath copy-efficiency bench runs
// the fig5 64 KiB sequential-write path (MB-ACTIVE-RELAY, stream cipher)
// and reports copied-bytes-per-delivered-byte from the net.bytes_copied
// ledger plus host wall-clock per op, written to BENCH_datapath.json.
// Pass --datapath-only to skip the google-benchmark suite (CI perf smoke).
#include <benchmark/benchmark.h>

#include <chrono>
#include <cstring>
#include <fstream>

#include "bench_common.hpp"
#include "common/buf.hpp"
#include "common/hash.hpp"
#include "crypto/aes.hpp"
#include "crypto/chacha20.hpp"
#include "iscsi/pdu.hpp"
#include "net/flow_switch.hpp"
#include "net/nat.hpp"
#include "net/packet.hpp"
#include "obs/registry.hpp"

namespace {

using namespace storm;

Bytes make_data(std::size_t n) {
  Bytes data(n);
  for (std::size_t i = 0; i < n; ++i) {
    data[i] = static_cast<std::uint8_t>(i * 131);
  }
  return data;
}

void BM_Aes256XtsEncryptSector(benchmark::State& state) {
  Bytes key(32, 0x24);
  crypto::AesXts xts(key, key);
  Bytes sector = make_data(512);
  Bytes out(512);
  std::uint64_t n = 0;
  for (auto _ : state) {
    xts.encrypt_sector(n++, sector, out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * 512);
}
BENCHMARK(BM_Aes256XtsEncryptSector);

void BM_ChaCha20Crypt(benchmark::State& state) {
  Bytes key(32, 0x42), nonce(12, 0);
  Bytes data = make_data(static_cast<std::size_t>(state.range(0)));
  Bytes out(data.size());
  for (auto _ : state) {
    crypto::chacha20_crypt(key, nonce, 0, data, out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_ChaCha20Crypt)->Arg(4096)->Arg(65536);

void BM_Crc32(benchmark::State& state) {
  Bytes data = make_data(65536);
  for (auto _ : state) {
    benchmark::DoNotOptimize(crc32(data));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          65536);
}
BENCHMARK(BM_Crc32);

void BM_PduSerializeParse(benchmark::State& state) {
  iscsi::Pdu pdu = iscsi::make_data_out(
      7, 0, make_data(static_cast<std::size_t>(state.range(0))), true);
  for (auto _ : state) {
    const Buf wire(iscsi::serialize(pdu));
    auto parsed = iscsi::parse_pdu(wire.slice(4, wire.size() - 4));
    benchmark::DoNotOptimize(parsed.is_ok());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_PduSerializeParse)
    ->Arg(4096)
    ->Arg(iscsi::kMaxDataSegment)
    ->Arg(65536);

void BM_NatTranslateConntrack(benchmark::State& state) {
  net::NatEngine nat;
  net::NatRule rule;
  rule.match_dst_port = 3260;
  rule.dnat_ip = net::Ipv4Addr::from_string("10.2.0.5");
  nat.add_rule(rule);
  net::Packet pkt;
  pkt.ip.src = net::Ipv4Addr::from_string("10.1.0.1");
  pkt.ip.dst = net::Ipv4Addr::from_string("10.1.1.1");
  pkt.tcp.src_port = 40000;
  pkt.tcp.dst_port = 3260;
  nat.translate(pkt);  // create the conntrack entry
  for (auto _ : state) {
    net::Packet p;
    p.ip.src = net::Ipv4Addr::from_string("10.1.0.1");
    p.ip.dst = net::Ipv4Addr::from_string("10.1.1.1");
    p.tcp.src_port = 40000;
    p.tcp.dst_port = 3260;
    benchmark::DoNotOptimize(nat.translate(p));
  }
}
BENCHMARK(BM_NatTranslateConntrack);

void BM_FlowMatch(benchmark::State& state) {
  net::FlowMatch match;
  match.src_ip = net::Ipv4Addr::from_string("10.2.0.1");
  match.dst_port = 3260;
  net::Packet pkt;
  pkt.ip.src = net::Ipv4Addr::from_string("10.2.0.1");
  pkt.ip.dst = net::Ipv4Addr::from_string("10.2.0.9");
  pkt.tcp.dst_port = 3260;
  for (auto _ : state) {
    benchmark::DoNotOptimize(match.matches(0, pkt));
  }
}
BENCHMARK(BM_FlowMatch);

void BM_BufSliceVsCopy(benchmark::State& state) {
  Buf whole(make_data(65536));
  for (auto _ : state) {
    Buf view = whole.slice(1024, 1460);
    benchmark::DoNotOptimize(view.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          1460);
}
BENCHMARK(BM_BufSliceVsCopy);

// The fig5 64 KiB sequential-write path, end to end: tenant VM ->
// gateway -> middle-box (active relay + stream cipher) -> gateway ->
// storage host. Reports copied payload bytes per delivered payload byte
// (from the net.bytes_copied ledger) and wall-clock per write op.
//
// The pre-zero-copy data path copied each payload byte ~18 times on this
// route (derivation in EXPERIMENTS.md "Datapath copy efficiency"); the
// acceptance bar is a >= 5x reduction, i.e. a measured ratio <= 3.6.
constexpr double kSeedCopiesPerByte = 18.0;

int run_datapath_bench() {
  bench::Testbed testbed(bench::PathMode::kActive);
  obs::Registry& reg = testbed.simulator().telemetry();

  // Sync and snapshot the exported copy counter, then run the workload.
  reg.to_json(false);
  const std::uint64_t copied_before = reg.counter("net.bytes_copied").value();

  workload::FioConfig config;
  config.request_bytes = 64 * 1024;
  config.jobs = 1;
  config.write_ratio = 1.0;
  config.random_offsets = false;
  config.duration = sim::seconds(2);
  const auto wall_start = std::chrono::steady_clock::now();
  workload::FioResult result = testbed.run_fio(config);
  const auto wall_end = std::chrono::steady_clock::now();

  reg.to_json(false);
  const std::uint64_t copied =
      reg.counter("net.bytes_copied").value() - copied_before;
  const std::uint64_t delivered = result.write_ops * 64ull * 1024;
  const double ratio =
      delivered ? static_cast<double>(copied) / static_cast<double>(delivered)
                : 0.0;
  const double wall_ns_per_op =
      result.total_ops
          ? static_cast<double>(
                std::chrono::duration_cast<std::chrono::nanoseconds>(
                    wall_end - wall_start)
                    .count()) /
                static_cast<double>(result.total_ops)
          : 0.0;
  const double reduction = ratio > 0 ? kSeedCopiesPerByte / ratio : 0.0;

  char json[512];
  std::snprintf(
      json, sizeof(json),
      "{\"bench\":\"datapath_64k_seq_write\",\"mode\":\"MB-ACTIVE-RELAY\","
      "\"write_ops\":%llu,\"delivered_bytes\":%llu,\"copied_bytes\":%llu,"
      "\"copies_per_delivered_byte\":%.3f,\"seed_copies_per_byte\":%.1f,"
      "\"reduction_factor\":%.2f,\"wall_ns_per_op\":%.0f}",
      static_cast<unsigned long long>(result.write_ops),
      static_cast<unsigned long long>(delivered),
      static_cast<unsigned long long>(copied), ratio, kSeedCopiesPerByte,
      reduction, wall_ns_per_op);
  bench::print_header("datapath copy efficiency (64 KiB sequential write)");
  std::printf("%s\n", json);
  std::ofstream("BENCH_datapath.json") << json << "\n";

  if (result.write_ops == 0 || reduction < 5.0) {
    std::fprintf(stderr,
                 "FAIL: copies/byte %.3f is less than a 5x reduction over "
                 "the seed's %.1f\n",
                 ratio, kSeedCopiesPerByte);
    return 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  bool datapath_only = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--datapath-only") == 0) datapath_only = true;
  }
  if (!datapath_only) {
    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
  }
  return run_datapath_bench();
}
