// Reproduces paper Figure 11: PostMark component rates with encryption
// performed by the tenant VM vs by the storage middle-box. The paper
// reports the middle-box solution improving every component by 23-34%
// (1.34x read/append/create/delete ops, 1.29x read MB/s, 1.23x write
// MB/s) because outsourcing the cipher stops dm-crypt from blocking
// application threads in the guest.
#include <cstdio>
#include <memory>

#include "bench_common.hpp"
#include "fs/simext.hpp"
#include "services/encrypted_disk.hpp"
#include "workload/postmark.hpp"

using namespace storm;
using namespace storm::bench;

namespace {

workload::PostmarkResult run_case(bool tenant_side) {
  TestbedOptions options;
  options.service = "encryption";
  options.volume_sectors = 2ull * 1024 * 1024;
  // The mail-store volume is warmer than the fio volume (small working
  // set in the server cache): op latency is transport-dominated, which is
  // the regime where dm-crypt's blocking shows (paper §V-B2).
  options.cloud.disk_profile.base_latency = sim::microseconds(500);
  Testbed testbed(tenant_side ? PathMode::kLegacy : PathMode::kActive,
                  options);
  auto& sim = testbed.simulator();

  block::BlockDevice* disk = testbed.disk();
  std::unique_ptr<services::EncryptedDisk> dmcrypt;
  if (tenant_side) {
    // dm-crypt in the guest: cipher work contends with PostMark's
    // "application" on the 2 tenant vCPUs, and writes block on it.
    dmcrypt = std::make_unique<services::EncryptedDisk>(
        *testbed.disk(), testbed.vm().cpu(), Bytes(64, 0x24));
    disk = dmcrypt.get();
  }
  // Format through the data path.
  block::MemDisk image(options.volume_sectors);
  if (!fs::SimExt::mkfs(image).is_ok()) throw std::runtime_error("mkfs");
  const Bytes zero(fs::kBlockSize, 0);
  for (std::uint64_t block = 0;
       block < options.volume_sectors / fs::kSectorsPerBlock; ++block) {
    Bytes content =
        image.read_sync(block * fs::kSectorsPerBlock, fs::kSectorsPerBlock);
    if (content == zero) continue;
    bool ok = false;
    disk->write(block * fs::kSectorsPerBlock, std::move(content),
                [&](Status s) { ok = s.is_ok(); });
    sim.run();
    if (!ok) throw std::runtime_error("format write failed");
  }
  fs::SimExt fs(testbed.vm().node().executor(), *disk);
  fs.mount([](Status s) {
    if (!s.is_ok()) throw std::runtime_error("mount: " + s.to_string());
  });
  sim.run();

  // PostMark itself costs tenant CPU per transaction (the mail-server
  // "application work" the cipher competes with).
  workload::PostmarkConfig config;
  config.directories = 10;
  config.initial_files = 150;
  config.transactions = 1200;
  config.min_file_bytes = 8 * 1024;
  config.max_file_bytes = 128 * 1024;
  config.append_bytes = 32 * 1024;
  workload::PostmarkRunner postmark(testbed.vm().node().executor(), fs,
                                    config);
  workload::PostmarkResult result;
  bool done = false;
  postmark.run([&](workload::PostmarkResult r) {
    result = r;
    done = true;
  });
  sim.run();
  if (!done || result.errors > 0) {
    throw std::runtime_error("postmark failed (errors=" +
                             std::to_string(result.errors) + ")");
  }
  return result;
}

void run() {
  print_header("Figure 11: PostMark, tenant-VM vs middle-box encryption");
  workload::PostmarkResult vm_side = run_case(true);
  workload::PostmarkResult mb_side = run_case(false);

  auto row = [](const char* label, double vm_value, double mb_value) {
    std::printf("%-18s %12.1f %12.1f %10.2fx\n", label, vm_value, mb_value,
                mb_value / vm_value);
  };
  std::printf("%-18s %12s %12s %10s\n", "component", "by-VM", "by-MB",
              "speedup");
  row("read ops/s", vm_side.read_ops_per_s, mb_side.read_ops_per_s);
  row("append ops/s", vm_side.append_ops_per_s, mb_side.append_ops_per_s);
  row("create ops/s", vm_side.create_ops_per_s, mb_side.create_ops_per_s);
  row("delete ops/s", vm_side.delete_ops_per_s, mb_side.delete_ops_per_s);
  row("read MB/s", vm_side.read_mb_per_s, mb_side.read_mb_per_s);
  row("write MB/s", vm_side.write_mb_per_s, mb_side.write_mb_per_s);
  std::printf("\npaper Fig.11 speedups: 1.34 1.34 1.34 1.34 1.29 1.23\n");
}

}  // namespace

int main() {
  run();
  return 0;
}
