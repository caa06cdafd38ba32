// Shared scaffolding for the paper-reproduction benchmarks: stands up a
// fresh simulated cloud per data point and runs fio through one of the
// four data-path configurations the paper compares:
//   LEGACY            direct VM -> storage (no StorM)
//   MB-FWD            spliced through a forwarding-only middle-box
//   MB-PASSIVE-RELAY  spliced + stream-cipher service, passive relay
//   MB-ACTIVE-RELAY   spliced + stream-cipher service, active relay
#pragma once

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "cloud/cloud.hpp"
#include "core/platform.hpp"
#include "services/registry.hpp"
#include "workload/fio.hpp"

namespace storm::bench {

enum class PathMode { kLegacy, kForward, kPassive, kActive };

inline const char* to_string(PathMode mode) {
  switch (mode) {
    case PathMode::kLegacy: return "LEGACY";
    case PathMode::kForward: return "MB-FWD";
    case PathMode::kPassive: return "MB-PASSIVE-RELAY";
    case PathMode::kActive: return "MB-ACTIVE-RELAY";
  }
  return "?";
}

/// Testbed defaults tuned to the paper's cluster: 1 GbE links, one SATA
/// volume host (high seek latency, deep NCQ + server page cache), 2-vCPU
/// tenant and middle-box VMs (§V).
inline cloud::CloudConfig testbed_config() {
  cloud::CloudConfig config;
  config.compute_hosts = 4;
  config.link_delay = sim::microseconds(15);
  config.disk_profile.base_latency = sim::microseconds(2500);
  config.disk_profile.bytes_per_second = 800ull * 1024 * 1024;
  config.disk_profile.queue_depth = 64;
  return config;
}

struct TestbedOptions {
  cloud::CloudConfig cloud = testbed_config();
  /// Middle-box / gateway placement: -1 = worst case (paper default:
  /// every hop on a different physical node).
  int mb_host = -1;
  /// Placement-ablation chains: when non-empty, the attach builds one
  /// box per entry (each entry that box's host_index, -1 = placer
  /// default) instead of the single-box chain `mb_host` describes.
  std::vector<int> chain_hosts;
  std::string service = "stream_cipher";  // for relay modes
  std::uint64_t volume_sectors = 1ull * 1024 * 1024;  // 512 MiB
};

/// One fully wired testbed: cloud, platform, one tenant VM, one volume,
/// attached through the requested path.
class Testbed {
 public:
  Testbed(PathMode mode, TestbedOptions options = {})
      : mode_(mode), options_(options), cloud_(sim_, options.cloud),
        platform_(cloud_) {
    services::register_builtin_services(platform_);
    vm_ = &cloud_.create_vm("tenant-vm", "tenant1", 0, 2);
    auto volume = cloud_.create_volume("vol1", options_.volume_sectors);
    if (!volume.is_ok()) {
      throw std::runtime_error(volume.status().to_string());
    }
    volume_ = volume.value();
    attach();
  }

  block::BlockDevice* disk() { return vm_->disk(); }
  cloud::Vm& vm() { return *vm_; }
  sim::Simulator& simulator() { return sim_; }
  cloud::Cloud& cloud() { return cloud_; }
  core::StormPlatform& platform() { return platform_; }
  core::DeploymentHandle deployment() { return deployment_; }
  block::Volume* volume() { return volume_; }

  workload::FioResult run_fio(workload::FioConfig config) {
    workload::FioRunner fio(vm_->node().executor(), *disk(), config);
    workload::FioResult result;
    bool done = false;
    fio.start([&](workload::FioResult r) {
      result = r;
      done = true;
    });
    sim_.run();
    if (!done) throw std::runtime_error("fio did not complete");
    return result;
  }

 private:
  void attach() {
    if (mode_ == PathMode::kLegacy) {
      Status status = error(ErrorCode::kIoError, "attach never finished");
      cloud_.attach_volume(*vm_, "vol1",
                           [&](Status s, cloud::Attachment) { status = s; });
      sim_.run();
      if (!status.is_ok()) throw std::runtime_error(status.to_string());
      return;
    }
    core::ServiceSpec spec;
    switch (mode_) {
      case PathMode::kForward:
        spec.type = "noop";
        spec.relay = core::RelayMode::kForward;
        break;
      case PathMode::kPassive:
        spec.type = options_.service;
        spec.relay = core::RelayMode::kPassive;
        break;
      case PathMode::kActive:
        spec.type = options_.service;
        spec.relay = core::RelayMode::kActive;
        break;
      default:
        break;
    }
    spec.host_index = options_.mb_host;
    std::vector<core::ServiceSpec> chain;
    if (options_.chain_hosts.empty()) {
      chain.push_back(spec);
    } else {
      for (int host : options_.chain_hosts) {
        chain.push_back(spec);
        chain.back().host_index = host;
      }
    }
    Status status = error(ErrorCode::kIoError, "attach never finished");
    platform_.attach_with_chain(
        "tenant-vm", "vol1", std::move(chain),
        [&](Result<core::DeploymentHandle> r) {
          status = r.status();
          if (r.is_ok()) deployment_ = r.value();
        });
    sim_.run();
    if (!status.is_ok()) throw std::runtime_error(status.to_string());
  }

  PathMode mode_;
  TestbedOptions options_;
  sim::Simulator sim_;
  cloud::Cloud cloud_;
  core::StormPlatform platform_;
  cloud::Vm* vm_ = nullptr;
  block::Volume* volume_ = nullptr;
  core::DeploymentHandle deployment_;
};

/// Run one fio data point on a fresh testbed.
inline workload::FioResult fio_point(PathMode mode,
                                     std::uint32_t request_bytes,
                                     unsigned jobs,
                                     sim::Duration duration = sim::seconds(8),
                                     TestbedOptions options = {}) {
  Testbed testbed(mode, options);
  workload::FioConfig config;
  config.request_bytes = request_bytes;
  config.jobs = jobs;
  config.duration = duration;
  return testbed.run_fio(config);
}

inline void print_header(const std::string& title) {
  std::printf("\n=== %s ===\n", title.c_str());
}

/// Dump a simulation's telemetry registry as JSON. Benches write these
/// next to their stdout tables; CI uploads telemetry/*.json as run
/// artifacts. Identically seeded runs produce byte-identical files.
inline void write_telemetry_json(sim::Simulator& sim, const std::string& path,
                                 bool include_spans = false) {
  std::ofstream out(path);
  out << sim.telemetry_json(include_spans) << "\n";
}

}  // namespace storm::bench
