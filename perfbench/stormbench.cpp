// stormbench: measures how fast the simulator produces a tenant's storage
// service, on three closed-loop workloads (see README.md).
//
//   stormbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//              [--spans <file>]
//
// One round = build the scenario (set-up), then run one fixed simulated
// workload (the measured phase). Round r runs seed variant r mod
// kVariants, all derived from --seed, so rounds of one variant must
// reproduce the same simulated results exactly; the host cost of a round
// is what varies. The simulated metrics pool the first kVariants rounds.
// Rounds repeat until --seconds of host time have passed. With --trace 1,
// untraced and traced rounds alternate (a pair shares its variant), the
// traced ones recording host-time spans, and probes time single layer
// functions. The program prints one JSON document of raw per-round
// measurements; run.py turns it into the reported metrics.
#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "checked_disk.hpp"
#include "cloud/cloud.hpp"
#include "common/hash.hpp"
#include "core/platform.hpp"
#include "fs/simext.hpp"
#include "probes.hpp"
#include "services/monitor.hpp"
#include "services/registry.hpp"
#include "services/stream_cipher.hpp"
#include "spans.hpp"
#include "traced_service.hpp"
#include "workload/fio.hpp"
#include "workload/postmark.hpp"

namespace {

using namespace storm;
using perfbench::CheckedDisk;
using perfbench::host_ns;
using perfbench::Trace;
using perfbench::TracedService;

enum class Workload { kCipher, kFleet, kPostmark };

struct Options {
  Workload workload = Workload::kCipher;
  std::string name;
  std::uint64_t seed = 0;
  double seconds = 10;
  bool trace = false;
  std::string spans_path;
};

/// Distinct seed variants per run; also the fewest rounds a run makes,
/// whatever --seconds says, so every variant is measured at least once.
constexpr std::size_t kVariants = 8;
constexpr std::size_t kMaxRounds = 200;
/// Length of one Simulator::run_until slice of the workload.
constexpr sim::Duration kSlice = sim::milliseconds(1);
/// fio's first simulated milliseconds are a warm-up, left out of every
/// metric: all jobs start at once and their first requests collide, which
/// otherwise set p99 in short rounds.
constexpr sim::Duration kFioWarmup = sim::milliseconds(20);
/// A measured phase that has not finished after this much simulated time
/// is stuck.
constexpr sim::Duration kSimLimit = sim::seconds(120);

// Per-workload sizes. The simulated durations fix the work in one round
// (about a second of host time each on a 4-core x86 host).
constexpr std::uint64_t kBigVolumeSectors = 1ull << 20;  // 512 MiB
constexpr std::uint64_t kFleetVolumeSectors = 32'768;    // 16 MiB
constexpr unsigned kFleetTenants = 8;
// The fleet's partitioned kernel runs its windows on one worker thread.
// On a 4-vCPU VM with hypervisor steal, 4 workers made a round's wall
// time vary from 0.95 to 2.2 s (1 worker: 0.63 to 0.72 s), wider than any
// usable bound; the barrier cost of 4 workers is probed instead.
constexpr unsigned kFleetThreads = 1;
constexpr unsigned kProbeThreads = 4;
constexpr sim::Duration kCipherDuration = sim::milliseconds(150);
constexpr sim::Duration kFleetDuration = sim::milliseconds(400);
constexpr unsigned kPostmarkFiles = 60;
constexpr unsigned kPostmarkTransactions = 200;

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t salt) {
  std::uint64_t z = seed * 0x9E3779B97F4A7C15ull + salt + 1;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

std::int64_t process_cpu_ns() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  auto ns = [](const timeval& tv) {
    return static_cast<std::int64_t>(tv.tv_sec) * 1'000'000'000 +
           static_cast<std::int64_t>(tv.tv_usec) * 1'000;
  };
  return ns(usage.ru_utime) + ns(usage.ru_stime);
}

/// The paper's testbed (1 GbE, one SATA volume host, 2-vCPU VMs).
cloud::CloudConfig testbed_config() {
  cloud::CloudConfig config;
  config.link_delay = sim::microseconds(15);
  config.disk_profile.base_latency = sim::microseconds(2500);
  config.disk_profile.bytes_per_second = 800ull * 1024 * 1024;
  config.disk_profile.queue_depth = 64;
  return config;
}

cloud::CloudConfig fleet_config() {
  cloud::CloudConfig config = testbed_config();
  config.compute_hosts = kFleetTenants;
  config.storage_hosts = 2;
  return config;
}

/// Worker threads for the empty-window probe: never more than the host has.
unsigned probe_threads() {
  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  return std::min(kProbeThreads, hw);
}

std::uint32_t io_bytes(Workload w) {
  switch (w) {
    case Workload::kCipher: return 64 * 1024;
    case Workload::kFleet: return 4 * 1024;
    case Workload::kPostmark: return fs::kBlockSize;
  }
  return 4096;
}

/// The process's peak resident set so far.
std::int64_t max_rss_kb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<std::int64_t>(usage.ru_maxrss);
}

std::int64_t percentile(std::vector<std::int64_t> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const auto rank = std::clamp<std::size_t>(
      static_cast<std::size_t>(std::ceil(p / 100.0 * v.size())), 1, v.size());
  return v[rank - 1];
}

std::int64_t sum(const std::vector<std::int64_t>& v) {
  std::int64_t total = 0;
  for (std::int64_t x : v) total += x;
  return total;
}

struct RoundResult {
  bool traced = false;
  std::size_t variant = 0;
  // host
  std::int64_t setup_ns = 0;
  std::int64_t wall_ns = 0;
  std::int64_t cpu_ns = 0;
  std::int64_t export_ns = 0;
  // simulated and deterministic
  std::int64_t sim_ns = 0;
  std::uint64_t ops = 0;
  std::uint64_t attempted = 0;
  std::uint64_t errors = 0;
  std::uint64_t mismatches = 0;
  std::uint64_t workload_errors = 0;  // PostMark errors
  std::uint64_t verified = 0;
  // Measured phase only:
  std::uint64_t block_ios = 0;
  std::uint64_t block_bytes = 0;
  std::uint64_t leg_bytes = 0;    // block_bytes x TCP legs of the path
  std::uint64_t leg_data_pdus = 0;  // data PDUs x TCP legs of the path
  std::uint64_t flow_cache_hits = 0;
  std::uint64_t flow_cache_misses = 0;
  std::uint64_t events = 0;
  std::uint64_t monitor_log_entries = 0;
  std::uint64_t monitor_tracked_files = 0;
  std::size_t chains = 0;
  bool consistent = true;  // workload's own op count matches the oracle's
  std::string telemetry_start;  // at the start of the measured phase
  std::string telemetry;        // at its end
  std::uint64_t fingerprint = 0;
  std::vector<std::int64_t> latencies;  // simulated, per completed op
  // traced rounds only
  std::int64_t cloud_build_ns = 0;
  std::int64_t mkfs_ns = 0;
  std::int64_t attach_ns = 0;
  std::int64_t mount_ns = 0;
  std::int64_t slice_ns = 0;
  std::vector<std::int64_t> submit_ns;
  std::vector<std::int64_t> on_pdu_ns;
};

struct Tenant {
  cloud::Vm* vm = nullptr;
  std::string volume;
  core::RelayMode relay = core::RelayMode::kActive;
  std::string service;  // empty: LEGACY (no middle-box)
  std::unique_ptr<CheckedDisk> disk;
  std::unique_ptr<workload::FioRunner> fio;
  workload::FioResult result;
  sim::Time finished_at = 0;
};

/// Host time of one set-up phase: always accumulated into `total`, and
/// recorded as a span under the round when tracing.
class Phase {
 public:
  Phase(const char* name, Trace* trace, std::uint64_t parent,
        std::int64_t* total)
      : name_(name), trace_(trace), parent_(parent), total_(total),
        id_(trace != nullptr ? trace->main().next_id() : 0),
        start_(host_ns()) {}
  ~Phase() {
    const std::int64_t end = host_ns();
    *total_ += end - start_;
    if (trace_ != nullptr) {
      trace_->main().add(id_, name_, parent_, 0, start_, end);
    }
  }
  std::uint64_t id() const { return id_; }
  Phase(const Phase&) = delete;
  Phase& operator=(const Phase&) = delete;

 private:
  const char* name_;
  Trace* trace_;
  std::uint64_t parent_;
  std::int64_t* total_;
  std::uint64_t id_;
  std::int64_t start_;
};

class Round {
 public:
  Round(const Options& options, std::size_t variant, Trace* trace)
      : opt_(options), variant_(variant), trace_(trace) {}

  RoundResult run() {
    r_.traced = trace_ != nullptr;
    r_.variant = variant_;
    const std::int64_t round_start = host_ns();
    const std::uint64_t round_span =
        trace_ != nullptr ? trace_->main().next_id() : 0;
    {
      Phase setup("setup", trace_, round_span, &r_.setup_ns);
      const std::uint64_t setup_span = setup.id();
      {
        Phase build("setup.cloud", trace_, setup_span, &r_.cloud_build_ns);
        build_cloud();
      }
      if (opt_.workload == Workload::kPostmark) {
        Phase mkfs("setup.mkfs", trace_, setup_span, &r_.mkfs_ns);
        Status status = fs::SimExt::mkfs(volume_->disk().store());
        if (!status.is_ok()) fail("mkfs: " + status.to_string());
      }
      {
        Phase attach("setup.attach", trace_, setup_span, &r_.attach_ns);
        attach_all();
      }
      if (opt_.workload == Workload::kPostmark) {
        Phase mount("setup.mount", trace_, setup_span, &r_.mount_ns);
        mount_fs();
      }
    }
    measure(round_span);
    if (trace_ != nullptr) {
      trace_->main().add(round_span, "round", 0, 0, round_start, host_ns());
    }
    collect();
    return std::move(r_);
  }

 private:
  [[noreturn]] static void fail(const std::string& what) {
    throw std::runtime_error(what);
  }

  void build_cloud() {
    const bool fleet = opt_.workload == Workload::kFleet;
    const cloud::CloudConfig config = fleet ? fleet_config() : testbed_config();
    // Worker threads are requested only through the Cloud's own
    // ParallelConfig; the other workloads run the classic kernel.
    sim_ = std::make_unique<sim::Simulator>(
        fleet ? cloud::Cloud::parallel_config(config, kFleetThreads)
              : sim::ParallelConfig{});
    cloud_ = std::make_unique<cloud::Cloud>(*sim_, config);
    platform_ = std::make_unique<core::StormPlatform>(*cloud_);
    services::register_builtin_services(*platform_);
    if (trace_ != nullptr) register_traced_services();

    switch (opt_.workload) {
      case Workload::kCipher:
        add_tenant(0, kBigVolumeSectors, 0, core::RelayMode::kActive,
                   "stream_cipher");
        break;
      case Workload::kFleet:
        // Two tenants on each data path: LEGACY, MB-FWD,
        // MB-PASSIVE-RELAY and MB-ACTIVE-RELAY (both with the cipher).
        for (unsigned i = 0; i < kFleetTenants; ++i) {
          switch (i / 2) {
            case 0: add_tenant(i, kFleetVolumeSectors, i % 2,
                               core::RelayMode::kForward, ""); break;
            case 1: add_tenant(i, kFleetVolumeSectors, i % 2,
                               core::RelayMode::kForward, "noop"); break;
            case 2: add_tenant(i, kFleetVolumeSectors, i % 2,
                               core::RelayMode::kPassive, "stream_cipher");
              break;
            default: add_tenant(i, kFleetVolumeSectors, i % 2,
                                core::RelayMode::kActive, "stream_cipher");
          }
        }
        break;
      case Workload::kPostmark:
        add_tenant(0, kBigVolumeSectors, 0, core::RelayMode::kActive,
                   "monitor");
        break;
    }
  }

  void add_tenant(unsigned index, std::uint64_t sectors, unsigned storage,
                  core::RelayMode relay, std::string service) {
    Tenant t;
    t.vm = &cloud_->create_vm("vm" + std::to_string(index),
                              "tenant" + std::to_string(index), index, 2);
    t.volume = "vol" + std::to_string(index);
    auto volume = cloud_->create_volume(t.volume, sectors, storage);
    if (!volume.is_ok()) fail(volume.status().to_string());
    volume_ = volume.value();
    t.relay = relay;
    t.service = std::move(service);
    tenants_.push_back(std::move(t));
  }

  /// Re-register the chain services as decorators that time on_pdu.
  void register_traced_services() {
    platform_->register_service(
        "stream_cipher",
        [this](core::ServiceEnv&)
            -> Result<std::unique_ptr<core::StorageService>> {
          return wrap(std::make_unique<services::StreamCipherService>());
        });
    platform_->register_service(
        "monitor",
        [this](core::ServiceEnv& env)
            -> Result<std::unique_ptr<core::StorageService>> {
          // Same construction as the built-in registration: the initial
          // view comes from the volume's filesystem snapshot.
          auto recon = core::SemanticsReconstructor::from_snapshot(
              env.volume->disk().store());
          auto reconstructor =
              recon.is_ok() ? std::move(recon).take()
                            : core::SemanticsReconstructor::unformatted();
          return wrap(std::make_unique<services::MonitorService>(
              std::move(reconstructor)));
        });
  }

  std::unique_ptr<core::StorageService> wrap(
      std::unique_ptr<core::StorageService> inner) {
    auto traced = std::make_unique<TracedService>(std::move(inner), *trace_);
    traced_.push_back(traced.get());
    return traced;
  }

  void attach_all() {
    std::vector<Status> status(tenants_.size(),
                               error(ErrorCode::kIoError, "attach unfinished"));
    for (std::size_t i = 0; i < tenants_.size(); ++i) {
      Tenant& t = tenants_[i];
      if (t.service.empty()) {
        cloud_->attach_volume(*t.vm, t.volume,
                              [&status, i](Status s, cloud::Attachment) {
                                status[i] = s;
                              });
        continue;
      }
      core::ServiceSpec spec;
      spec.type = t.service;
      spec.relay = t.relay;
      ++r_.chains;
      platform_->attach_with_chain(
          t.vm->name(), t.volume, {spec},
          [this, &status, i](Result<core::DeploymentHandle> result) {
            status[i] = result.status();
            if (result.is_ok()) deployments_.push_back(result.value());
          });
    }
    sim_->run();
    for (const Status& s : status) {
      if (!s.is_ok()) fail("attach: " + s.to_string());
    }
    const std::uint32_t slot_sectors = io_bytes(opt_.workload) /
                                       block::kSectorSize;
    for (Tenant& t : tenants_) {
      t.disk = std::make_unique<CheckedDisk>(t.vm->node().executor(),
                                             *t.vm->disk(), slot_sectors,
                                             t.volume, trace_);
    }
  }

  void mount_fs() {
    Tenant& t = tenants_[0];
    fs_ = std::make_unique<fs::SimExt>(t.vm->node().executor(), *t.disk);
    Status status = error(ErrorCode::kIoError, "mount unfinished");
    fs_->mount([&status](Status s) { status = s; });
    sim_->run();
    if (!status.is_ok()) fail("mount: " + status.to_string());
  }

  /// Start the workload; returns the predicate "measured phase done".
  std::function<bool()> start_workload() {
    if (opt_.workload == Workload::kPostmark) {
      workload::PostmarkConfig config;
      config.directories = 10;
      config.initial_files = kPostmarkFiles;
      config.transactions = kPostmarkTransactions;
      config.min_file_bytes = 1024;
      config.max_file_bytes = 64 * 1024;
      config.append_bytes = 4096;
      config.seed = derive_seed(opt_.seed, variant_ * 64);
      Tenant& t = tenants_[0];
      postmark_ = std::make_unique<workload::PostmarkRunner>(
          t.vm->node().executor(), *fs_, config);
      const sim::Executor exec = t.vm->node().executor();
      postmark_->set_latency_sink(
          [this](sim::Duration d) { txn_latency_.push_back(d); });
      postmark_->run([this, exec](workload::PostmarkResult result) {
        postmark_result_ = result;
        tenants_[0].finished_at = exec.now();
        finished_.fetch_add(1, std::memory_order_relaxed);
      });
      return [this] { return finished_.load() == 1; };
    }
    workload::FioConfig config;
    if (opt_.workload == Workload::kCipher) {
      config.request_bytes = 64 * 1024;
      config.jobs = 4;
      config.write_ratio = 0.7;
      config.duration = kCipherDuration;
    } else {
      config.request_bytes = 4 * 1024;
      config.jobs = 2;
      config.write_ratio = 0.2;
      config.duration = kFleetDuration;
    }
    for (std::size_t i = 0; i < tenants_.size(); ++i) {
      Tenant& t = tenants_[i];
      config.seed = derive_seed(opt_.seed, variant_ * 64 + i);
      const sim::Executor exec = t.vm->node().executor();
      t.fio = std::make_unique<workload::FioRunner>(exec, *t.disk, config);
      // Each runner's callback runs on its tenant's partition and only
      // touches its own Tenant; the driving thread reads them after the
      // slice in which the last one finished.
      t.fio->start([this, &t, exec](workload::FioResult result) {
        t.result = result;
        t.finished_at = exec.now();
        finished_.fetch_add(1, std::memory_order_relaxed);
      });
    }
    const unsigned n = static_cast<unsigned>(tenants_.size());
    return [this, n] { return finished_.load() == n; };
  }

  void measure(std::uint64_t round_span) {
    start_ = sim_->now();
    const sim::Duration warmup =
        opt_.workload == Workload::kPostmark ? 0 : kFioWarmup;
    measure_start_ = start_ + warmup;
    for (Tenant& t : tenants_) t.disk->measure_from(measure_start_);
    const std::int64_t warm0 = host_ns();
    std::int64_t t0 = 0;
    std::int64_t cpu0 = 0;
    std::uint64_t measure_span = 0;
    bool measuring = false;
    const auto done = start_workload();
    while (!done()) {
      if (sim_->now() - start_ > kSimLimit || sim_->empty()) {
        fail("measured phase did not finish");
      }
      if (!measuring && sim_->now() >= measure_start_) {
        measuring = true;
        // Counters at the start, so per-op layer counts leave out set-up
        // and warm-up.
        r_.telemetry_start = sim_->telemetry_json();
        flow_start_ = cloud_->flow_cache_stats();
        for (const Tenant& t : tenants_) {
          start_counts_.push_back(t.disk->counts());
        }
        cpu0 = process_cpu_ns();
        t0 = host_ns();
        if (trace_ != nullptr) {
          if (warmup > 0) trace_->main().add("warmup", round_span, 0, warm0, t0);
          measure_span = trace_->main().next_id();
        }
      }
      const sim::Time until = sim_->now() + kSlice;
      if (!measuring) {
        sim_->run_until(until);
      } else if (trace_ == nullptr) {
        r_.events += sim_->run_until(until);
      } else {
        const std::uint64_t slice = trace_->main().next_id();
        trace_->slice.store(slice, std::memory_order_relaxed);
        const std::int64_t s0 = host_ns();
        r_.events += sim_->run_until(until);
        const std::int64_t s1 = host_ns();
        trace_->main().add(slice, "sim.slice", measure_span, 0, s0, s1);
        r_.slice_ns += s1 - s0;
      }
    }
    if (!measuring) fail("workload ended within its warm-up");
    const std::int64_t t1 = host_ns();
    r_.cpu_ns = process_cpu_ns() - cpu0;
    r_.wall_ns = t1 - t0;
    if (trace_ != nullptr) {
      trace_->slice.store(0, std::memory_order_relaxed);
      trace_->main().add(measure_span, "measure", round_span, 0, t0, t1);
    }
  }

  void collect() {
    sim::Time end = start_;
    std::vector<std::int64_t>& latencies = r_.latencies;
    std::uint64_t workload_ops = 0;
    std::uint64_t oracle_ops = 0;
    for (std::size_t i = 0; i < tenants_.size(); ++i) {
      const Tenant& t = tenants_[i];
      end = std::max(end, t.finished_at);
      const perfbench::DiskCounts& c = t.disk->counts();
      const perfbench::DiskCounts& before = start_counts_[i];
      r_.block_ios += c.attempted - before.attempted;
      // An active relay terminates TCP: its chain has two legs.
      const std::uint64_t legs =
          !t.service.empty() && t.relay == core::RelayMode::kActive ? 2 : 1;
      r_.block_bytes += c.bytes - before.bytes;
      r_.leg_bytes += (c.bytes - before.bytes) * legs;
      r_.leg_data_pdus += (c.data_pdus - before.data_pdus) * legs;
      r_.errors += c.errors;
      r_.mismatches += c.mismatches;
      r_.verified += c.verified;
      if (opt_.workload != Workload::kPostmark) {
        r_.attempted += c.attempted;
        r_.ops += c.measured;
        oracle_ops += c.completed;
        workload_ops += t.result.total_ops;
        latencies.insert(latencies.end(), t.disk->latencies_ns().begin(),
                         t.disk->latencies_ns().end());
      }
      r_.submit_ns.insert(r_.submit_ns.end(), t.disk->submit_ns().begin(),
                          t.disk->submit_ns().end());
    }
    if (opt_.workload == Workload::kPostmark) {
      r_.attempted = kPostmarkTransactions;
      r_.workload_errors = postmark_result_.errors;
      r_.ops = txn_latency_.size() - std::min<std::uint64_t>(
                                         txn_latency_.size(),
                                         postmark_result_.errors);
      r_.consistent = txn_latency_.size() == kPostmarkTransactions;
      latencies.assign(txn_latency_.begin(), txn_latency_.end());
      auto* service = deployments_.at(0).service(0);
      if (trace_ != nullptr) {
        service = &static_cast<TracedService*>(service)->inner();
      }
      auto* monitor = static_cast<services::MonitorService*>(service);
      r_.monitor_log_entries = monitor->log().size();
      r_.monitor_tracked_files = monitor->reconstructor().tracked_files();
    } else {
      r_.consistent = workload_ops == oracle_ops;
    }
    const cloud::Cloud::FlowCacheStats flow = cloud_->flow_cache_stats();
    r_.flow_cache_hits = flow.hits - flow_start_.hits;
    r_.flow_cache_misses = flow.misses - flow_start_.misses;
    r_.sim_ns = static_cast<std::int64_t>(end - measure_start_);
    for (const TracedService* s : traced_) {
      r_.on_pdu_ns.insert(r_.on_pdu_ns.end(), s->on_pdu_ns().begin(),
                          s->on_pdu_ns().end());
    }

    const std::int64_t e0 = host_ns();
    r_.telemetry = sim_->telemetry_json();
    r_.export_ns = host_ns() - e0;

    // Everything simulated that must repeat exactly for this seed.
    std::ostringstream key;
    key << r_.telemetry_start << '|' << r_.telemetry << '|' << r_.sim_ns
        << '|' << r_.ops << '|' << r_.attempted << '|' << r_.errors << '|'
        << r_.mismatches << '|' << r_.verified << '|' << r_.events << '|'
        << r_.block_ios << '|' << r_.block_bytes << '|' << r_.leg_data_pdus
        << '|' << r_.flow_cache_hits << '|' << r_.flow_cache_misses << '|'
        << r_.monitor_log_entries << '|' << r_.monitor_tracked_files << '|';
    for (std::int64_t l : latencies) key << l << ',';
    r_.fingerprint = fnv1a(key.str());
  }

  const Options& opt_;
  std::size_t variant_;
  Trace* trace_;
  RoundResult r_;

  // Declared so that destruction runs workloads, then platform, cloud and
  // simulator last.
  std::unique_ptr<sim::Simulator> sim_;
  std::unique_ptr<cloud::Cloud> cloud_;
  std::unique_ptr<core::StormPlatform> platform_;
  block::Volume* volume_ = nullptr;  // the last tenant's (postmark: mkfs)
  std::vector<core::DeploymentHandle> deployments_;
  std::vector<TracedService*> traced_;
  std::vector<Tenant> tenants_;
  // Oracle counts and flow-cache stats at the start of the measured phase.
  std::vector<perfbench::DiskCounts> start_counts_;
  cloud::Cloud::FlowCacheStats flow_start_;
  std::unique_ptr<fs::SimExt> fs_;
  std::unique_ptr<workload::PostmarkRunner> postmark_;
  workload::PostmarkResult postmark_result_;
  std::vector<std::int64_t> txn_latency_;
  std::atomic<unsigned> finished_{0};
  sim::Time start_ = 0;
  sim::Time measure_start_ = 0;  // end of the warm-up
};

// ---------------------------------------------------------------- output

class Json {
 public:
  Json& key(const char* k) {
    comma();
    out_ << '"' << k << "\":";
    fresh_ = true;
    return *this;
  }
  Json& open(char c) {
    comma();
    out_ << c;
    fresh_ = true;
    return *this;
  }
  Json& close(char c) {
    out_ << c;
    fresh_ = false;
    return *this;
  }
  Json& num(std::int64_t v) { return raw(std::to_string(v)); }
  Json& num(std::uint64_t v) { return raw(std::to_string(v)); }
  Json& num(double v) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return raw(buf);
  }
  Json& boolean(bool v) { return raw(v ? "true" : "false"); }
  Json& str(const std::string& v) { return raw('"' + v + '"'); }
  Json& raw(const std::string& v) {
    comma();
    out_ << v;
    fresh_ = false;
    return *this;
  }
  std::string text() const { return out_.str(); }

 private:
  void comma() {
    if (!fresh_) out_ << ',';
    fresh_ = false;
  }
  std::ostringstream out_;
  bool fresh_ = true;
};

void write_round(Json& j, const RoundResult& r, bool with_latencies) {
  char fp[32];
  std::snprintf(fp, sizeof fp, "%016llx",
                static_cast<unsigned long long>(r.fingerprint));
  j.open('{');
  j.key("traced").boolean(r.traced);
  j.key("variant").num(static_cast<std::uint64_t>(r.variant));
  j.key("setup_ns").num(r.setup_ns);
  j.key("wall_ns").num(r.wall_ns);
  j.key("cpu_ns").num(r.cpu_ns);
  j.key("export_ns").num(r.export_ns);
  j.key("telemetry_bytes").num(static_cast<std::uint64_t>(r.telemetry.size()));
  j.key("sim_ns").num(r.sim_ns);
  j.key("ops").num(r.ops);
  j.key("attempted").num(r.attempted);
  j.key("errors").num(r.errors);
  j.key("mismatches").num(r.mismatches);
  j.key("workload_errors").num(r.workload_errors);
  j.key("verified").num(r.verified);
  j.key("block_ios").num(r.block_ios);
  j.key("block_bytes").num(r.block_bytes);
  j.key("leg_bytes").num(r.leg_bytes);
  j.key("leg_data_pdus").num(r.leg_data_pdus);
  j.key("flow_cache_hits").num(r.flow_cache_hits);
  j.key("flow_cache_misses").num(r.flow_cache_misses);
  j.key("events").num(r.events);
  j.key("monitor_log_entries").num(r.monitor_log_entries);
  j.key("monitor_tracked_files").num(r.monitor_tracked_files);
  j.key("chains").num(static_cast<std::uint64_t>(r.chains));
  j.key("consistent").boolean(r.consistent);
  j.key("fingerprint").str(fp);
  j.key("max_rss_kb").num(max_rss_kb());
  if (with_latencies) {
    j.key("latencies_ns").open('[');
    for (std::int64_t l : r.latencies) j.num(l);
    j.close(']');
  }
  if (r.traced) {
    j.key("cloud_build_ns").num(r.cloud_build_ns);
    j.key("mkfs_ns").num(r.mkfs_ns);
    j.key("attach_ns").num(r.attach_ns);
    j.key("mount_ns").num(r.mount_ns);
    j.key("slice_ns").num(r.slice_ns);
    j.key("submit_calls").num(static_cast<std::uint64_t>(r.submit_ns.size()));
    j.key("submit_sum_ns").num(sum(r.submit_ns));
    j.key("submit_p50_ns").num(percentile(r.submit_ns, 50));
    j.key("submit_p99_ns").num(percentile(r.submit_ns, 99));
    j.key("on_pdu_calls").num(static_cast<std::uint64_t>(r.on_pdu_ns.size()));
    j.key("on_pdu_sum_ns").num(sum(r.on_pdu_ns));
    j.key("on_pdu_p50_ns").num(percentile(r.on_pdu_ns, 50));
    j.key("on_pdu_p99_ns").num(percentile(r.on_pdu_ns, 99));
  }
  j.close('}');
}

void write_spans(const Trace& trace, const std::string& path) {
  std::ofstream out(path);
  out << "{\"spans\":[";
  bool first = true;
  trace.for_each_span([&](const perfbench::Span& s) {
    out << (first ? "" : ",") << "\n{\"name\":\"" << s.name
        << "\",\"id\":" << s.id << ",\"parent\":" << s.parent
        << ",\"request\":" << s.request << ",\"start_ns\":" << s.start_ns
        << ",\"end_ns\":" << s.end_ns << '}';
    first = false;
  });
  out << "\n]}\n";
  if (!out) throw std::runtime_error("cannot write " + path);
}

Options parse(int argc, char** argv) {
  Options opt;
  bool have_workload = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      opt.name = value;
      have_workload = true;
      if (value == "cipher-64k-write") {
        opt.workload = Workload::kCipher;
      } else if (value == "fleet-4k-read") {
        opt.workload = Workload::kFleet;
      } else if (value == "postmark-monitor") {
        opt.workload = Workload::kPostmark;
      } else {
        throw std::invalid_argument("unknown workload " + value);
      }
    } else if (flag == "--seed") {
      opt.seed = std::stoull(value);
    } else if (flag == "--seconds") {
      opt.seconds = std::stod(value);
    } else if (flag == "--trace") {
      opt.trace = value == "1";
    } else if (flag == "--spans") {
      opt.spans_path = value;
    } else {
      throw std::invalid_argument("unknown flag " + flag);
    }
  }
  if (!have_workload) throw std::invalid_argument("--workload is required");
  return opt;
}

int run(const Options& opt) {
  Json j;
  j.open('{');
  j.key("workload").str(opt.name);
  j.key("seed").num(opt.seed);
  j.key("trace").boolean(opt.trace);
  j.key("threads").num(static_cast<std::uint64_t>(
      opt.workload == Workload::kFleet ? kFleetThreads : 1));

  std::unique_ptr<Trace> trace;
  if (opt.trace) {
    trace = std::make_unique<Trace>();
    std::optional<sim::ParallelConfig> fleet;
    if (opt.workload == Workload::kFleet) {
      fleet = cloud::Cloud::parallel_config(fleet_config(), kFleetThreads);
    }
    const perfbench::ProbeResults p = perfbench::run_probes(
        io_bytes(opt.workload), fleet, probe_threads());
    j.key("probes").open('{');
    j.key("sim_noop_event_ns").num(p.sim_noop_event_ns);
    j.key("sim_empty_window_ns").num(p.sim_empty_window_ns);
    j.key("sim_empty_window_ns_threaded").num(p.sim_empty_window_ns_threaded);
    j.key("probe_threads").num(static_cast<std::uint64_t>(probe_threads()));
    j.key("crc32_ns_per_kib").num(p.crc32_ns_per_kib);
    j.key("pdu_serialize_ns").num(p.pdu_serialize_ns);
    j.key("pdu_parse_ns").num(p.pdu_parse_ns);
    j.key("journal_append_ns").num(p.journal_append_ns);
    j.key("chacha20_ns_per_kib").num(p.chacha20_ns_per_kib);
    j.close('}');
    if (fleet) {
      j.key("lookahead_ns").num(static_cast<std::int64_t>(
          fleet_config().link_delay));
    }
  }

  const std::int64_t begin = host_ns();
  const auto elapsed_s = [&] { return (host_ns() - begin) / 1e9; };
  std::string telemetry_start;
  std::string telemetry;
  j.key("rounds").open('[');
  std::size_t rounds = 0;
  for (std::size_t pair = 0;
       (elapsed_s() < opt.seconds || rounds < kVariants) && rounds < kMaxRounds;
       ++pair) {
    const std::size_t variant = pair % kVariants;
    const RoundResult plain = Round(opt, variant, nullptr).run();
    write_round(j, plain, rounds < kVariants);
    ++rounds;
    if (trace) {
      const RoundResult traced = Round(opt, variant, trace.get()).run();
      if (telemetry.empty()) {
        telemetry_start = traced.telemetry_start;
        telemetry = traced.telemetry;
      }
      write_round(j, traced, false);
      ++rounds;
    }
  }
  j.close(']');
  if (trace) {
    j.key("telemetry_start").raw(telemetry_start);
    j.key("telemetry").raw(telemetry);
    if (!opt.spans_path.empty()) write_spans(*trace, opt.spans_path);
  }
  j.close('}');
  std::printf("%s\n", j.text().c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  // A fixed mmap threshold (it also disables glibc's dynamic one): volume
  // stores are always mapped fresh and faulted in, as in a new process,
  // instead of sometimes being recycled from the heap of the previous
  // round, which made set-up time bimodal. Smaller buffers, such as
  // journal segments, stay on the heap.
  mallopt(M_MMAP_THRESHOLD, 4 << 20);
  try {
    return run(parse(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "stormbench: %s\n", e.what());
    return 2;
  }
}
