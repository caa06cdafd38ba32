#include <gtest/gtest.h>

#include "block/sim_disk.hpp"
#include "cloud/cloud.hpp"
#include "fs/simext.hpp"
#include "workload/fio.hpp"
#include "workload/ftp.hpp"
#include "workload/minidb.hpp"
#include "workload/postmark.hpp"
#include "testutil.hpp"

namespace storm::workload {
namespace {

// --- fio ---------------------------------------------------------------------

TEST(Fio, ReportsRatesForLocalDisk) {
  sim::Simulator sim;
  block::SimDisk disk(sim, 100'000);
  FioConfig config;
  config.request_bytes = 4096;
  config.jobs = 2;
  config.duration = sim::seconds(2);
  FioRunner fio(sim, disk, config);
  FioResult result;
  bool done = false;
  fio.start([&](FioResult r) {
    result = r;
    done = true;
  });
  sim.run();
  ASSERT_TRUE(done);
  EXPECT_GT(result.total_ops, 100u);
  EXPECT_GT(result.iops, 0.0);
  EXPECT_GT(result.mean_latency_ms, 0.0);
  EXPECT_GE(result.p99_latency_ms, result.mean_latency_ms - 1e-9);
  // 50/50 mix within generous bounds.
  double write_frac = static_cast<double>(result.write_ops) /
                      static_cast<double>(result.read_ops + result.write_ops);
  EXPECT_NEAR(write_frac, 0.5, 0.1);
}

TEST(Fio, MoreJobsMoreThroughputOnParallelDisk) {
  auto run_jobs = [](unsigned jobs) {
    sim::Simulator sim;
    block::DiskProfile profile;
    profile.queue_depth = 16;
    block::SimDisk disk(sim, 100'000, profile);
    FioConfig config;
    config.jobs = jobs;
    config.duration = sim::seconds(1);
    FioRunner fio(sim, disk, config);
    double iops = 0;
    fio.start([&](FioResult r) { iops = r.iops; });
    sim.run();
    return iops;
  };
  EXPECT_GT(run_jobs(8), run_jobs(1) * 3);
}

TEST(Fio, LargerRequestsLowerIopsHigherBandwidth) {
  auto run_size = [](std::uint32_t bytes) {
    sim::Simulator sim;
    block::SimDisk disk(sim, 1'000'000);
    FioConfig config;
    config.request_bytes = bytes;
    config.duration = sim::seconds(1);
    FioRunner fio(sim, disk, config);
    FioResult result;
    fio.start([&](FioResult r) { result = r; });
    sim.run();
    return result;
  };
  FioResult small = run_size(4096);
  FioResult big = run_size(256 * 1024);
  EXPECT_GT(small.iops, big.iops);
  EXPECT_GT(big.throughput_mb_s, small.throughput_mb_s);
}

/// A SimDisk that logs the lba of every request it is given.
class LbaLog : public block::BlockDevice {
 public:
  LbaLog(sim::Simulator& sim, std::uint64_t sectors) : disk_(sim, sectors) {}

  void read(std::uint64_t lba, std::uint32_t count,
            ReadCallback done) override {
    lbas.push_back(lba);
    disk_.read(lba, count, std::move(done));
  }
  void write(std::uint64_t lba, Bytes data, WriteCallback done) override {
    lbas.push_back(lba);
    disk_.write(lba, std::move(data), std::move(done));
  }
  std::uint64_t num_sectors() const override { return disk_.num_sectors(); }

  std::vector<std::uint64_t> lbas;

 private:
  block::SimDisk disk_;
};

std::vector<std::uint64_t> fio_lbas(std::uint64_t sectors,
                                    std::uint32_t request_bytes,
                                    bool random_offsets) {
  sim::Simulator sim;
  LbaLog disk(sim, sectors);
  FioConfig config;
  config.request_bytes = request_bytes;
  config.random_offsets = random_offsets;
  config.duration = sim::milliseconds(2);
  FioRunner fio(sim, disk, config);
  bool done = false;
  fio.start([&](FioResult) { done = true; });
  sim.run();
  EXPECT_TRUE(done);
  return disk.lbas;
}

TEST(Fio, RejectsZeroRequestBytes) {
  sim::Simulator sim;
  block::SimDisk disk(sim, 64);
  FioConfig config;
  config.request_bytes = 0;
  EXPECT_THROW(FioRunner(sim, disk, config), std::invalid_argument);
}

TEST(Fio, RejectsRequestBytesThatAreNotASectorMultiple) {
  sim::Simulator sim;
  block::SimDisk disk(sim, 64);
  FioConfig config;
  config.request_bytes = 4096 + 100;
  EXPECT_THROW(FioRunner(sim, disk, config), std::invalid_argument);
}

TEST(Fio, RejectsRequestsLargerThanTheDevice) {
  sim::Simulator sim;
  block::SimDisk disk(sim, 7);
  FioConfig config;
  config.request_bytes = 4096;  // 8 sectors
  EXPECT_THROW(FioRunner(sim, disk, config), std::invalid_argument);
}

TEST(Fio, DeviceHoldingExactlyOneRequestAlwaysUsesLbaZero) {
  for (bool random_offsets : {true, false}) {
    std::vector<std::uint64_t> lbas = fio_lbas(8, 4096, random_offsets);
    ASSERT_GT(lbas.size(), 3u) << "random_offsets=" << random_offsets;
    for (std::uint64_t lba : lbas) EXPECT_EQ(lba, 0u);
  }
}

TEST(Fio, RandomOffsetsOnADeviceShortOfTwoRequestsUseLbaZero) {
  // 12 sectors hold one 8-sector request and half of a second.
  std::vector<std::uint64_t> lbas = fio_lbas(12, 4096, true);
  ASSERT_GT(lbas.size(), 3u);
  for (std::uint64_t lba : lbas) EXPECT_EQ(lba, 0u);
}

TEST(Fio, LbaSequencesOfRoomyDevicesAreUnchanged) {
  // Pinned: a device with room for several requests draws exactly these
  // offsets, so the small-device guards move no fio-driven output.
  const std::vector<std::uint64_t> random = fio_lbas(64, 4096, true);
  ASSERT_GE(random.size(), 8u);
  EXPECT_EQ(std::vector<std::uint64_t>(random.begin(), random.begin() + 8),
            (std::vector<std::uint64_t>{40, 16, 16, 48, 40, 32, 40, 32}));
  const std::vector<std::uint64_t> sequential = fio_lbas(64, 4096, false);
  ASSERT_GE(sequential.size(), 8u);
  EXPECT_EQ(
      std::vector<std::uint64_t>(sequential.begin(), sequential.begin() + 8),
      (std::vector<std::uint64_t>{0, 8, 16, 24, 32, 40, 48, 0}));
}

// --- postmark ------------------------------------------------------------------

TEST(Postmark, RunsTransactionMixOverSimExt) {
  sim::Simulator sim;
  block::MemDisk raw(262'144);
  ASSERT_TRUE(fs::SimExt::mkfs(raw).is_ok());
  block::SimDisk disk(sim, 262'144);
  // Copy formatted image into the latency-modeled disk.
  disk.store().write_sync(0, raw.read_sync(0, 262'144));
  fs::SimExt fs(sim, disk);
  fs.mount([](Status s) { ASSERT_TRUE(s.is_ok()); });
  sim.run();

  PostmarkConfig config;
  config.initial_files = 40;
  config.transactions = 200;
  PostmarkRunner postmark(sim, fs, config);
  PostmarkResult result;
  bool done = false;
  postmark.run([&](PostmarkResult r) {
    result = r;
    done = true;
  });
  sim.run();
  ASSERT_TRUE(done);
  EXPECT_EQ(result.errors, 0u);
  EXPECT_GT(result.read_ops_per_s, 0.0);
  EXPECT_GT(result.append_ops_per_s, 0.0);
  EXPECT_GT(result.create_ops_per_s, 0.0);
  EXPECT_GT(result.delete_ops_per_s, 0.0);
  EXPECT_GT(result.read_mb_per_s, 0.0);
  EXPECT_GT(result.write_mb_per_s, 0.0);
}

// --- ftp ------------------------------------------------------------------------

class FtpTest : public ::testing::Test {
 protected:
  FtpTest() : cloud_(sim_, cloud::CloudConfig{}) {}

  void setup() {
    server_vm_ = &cloud_.create_vm("ftp-server", "alice", 0);
    client_vm_ = &cloud_.create_vm("ftp-client", "alice", 1);
    auto volume = cloud_.create_volume("vol1", 262'144);
    ASSERT_TRUE(volume.is_ok());
    ASSERT_TRUE(fs::SimExt::mkfs(volume.value()->disk().store()).is_ok());
    Status status = error(ErrorCode::kIoError, "unset");
    cloud_.attach_volume(*server_vm_, "vol1",
                         [&](Status s, cloud::Attachment) { status = s; });
    sim_.run();
    ASSERT_TRUE(status.is_ok());
    fs_ = std::make_unique<fs::SimExt>(sim_, *server_vm_->disk());
    fs_->mount([](Status s) { ASSERT_TRUE(s.is_ok()); });
    sim_.run();
    server_ = std::make_unique<FtpServer>(*server_vm_, *fs_);
    server_->start();
    client_ = std::make_unique<FtpClient>(
        *client_vm_, net::SocketAddr{server_vm_->ip(), 2121});
  }

  sim::Simulator sim_;
  cloud::Cloud cloud_;
  cloud::Vm* server_vm_ = nullptr;
  cloud::Vm* client_vm_ = nullptr;
  std::unique_ptr<fs::SimExt> fs_;
  std::unique_ptr<FtpServer> server_;
  std::unique_ptr<FtpClient> client_;
};

TEST_F(FtpTest, UploadThenDownloadRoundTrips) {
  setup();
  constexpr std::uint64_t kSize = 8 * 1024 * 1024;
  FtpTransferResult up;
  bool up_done = false;
  client_->upload("big.bin", kSize, [&](FtpTransferResult r) {
    up = r;
    up_done = true;
  });
  sim_.run();
  ASSERT_TRUE(up_done);
  EXPECT_TRUE(up.status.is_ok());
  EXPECT_GT(up.mb_per_s, 1.0);
  EXPECT_EQ(server_->bytes_stored(), kSize);

  FtpTransferResult down;
  bool down_done = false;
  client_->download("big.bin", [&](FtpTransferResult r) {
    down = r;
    down_done = true;
  });
  sim_.run();
  ASSERT_TRUE(down_done);
  EXPECT_EQ(down.bytes, kSize);
  EXPECT_GT(down.mb_per_s, 1.0);
}

// --- minidb -----------------------------------------------------------------------

TEST(MiniDb, TransactionsCommitAndTouchDisk) {
  sim::Simulator sim;
  block::SimDisk disk(sim, 40'000);
  MiniDb db(sim, disk);
  bool ready = false;
  db.init([&](Status s) {
    ASSERT_TRUE(s.is_ok());
    ready = true;
  });
  sim.run();
  ASSERT_TRUE(ready);

  Rng rng(1);
  int completed = 0;
  for (int i = 0; i < 50; ++i) {
    db.transaction(rng, [&](Status s) {
      ASSERT_TRUE(s.is_ok());
      ++completed;
    });
  }
  sim.run();
  EXPECT_EQ(completed, 50);
  EXPECT_EQ(db.committed(), 50u);
  EXPECT_GT(disk.writes(), 100u);  // WAL + data pages
  EXPECT_GT(disk.reads(), 100u);
}

TEST(MiniDb, OltpClientsDriveServerOverNetwork) {
  sim::Simulator sim;
  cloud::Cloud cloud(sim, cloud::CloudConfig{});
  cloud::Vm& db_vm = cloud.create_vm("db", "alice", 0);
  ASSERT_TRUE(cloud.create_volume("dbvol", 40'000).is_ok());
  Status status = error(ErrorCode::kIoError, "unset");
  cloud.attach_volume(db_vm, "dbvol",
                      [&](Status s, cloud::Attachment) { status = s; });
  sim.run();
  ASSERT_TRUE(status.is_ok());

  MiniDb db(sim, *db_vm.disk());
  db.init([](Status s) { ASSERT_TRUE(s.is_ok()); });
  sim.run();
  DbServer server(db_vm, db);
  server.start();

  cloud::Vm& c1 = cloud.create_vm("c1", "alice", 1);
  cloud::Vm& c2 = cloud.create_vm("c2", "alice", 2);
  OltpClient client1(c1, net::SocketAddr{db_vm.ip(), 3306}, 3);
  OltpClient client2(c2, net::SocketAddr{db_vm.ip(), 3306}, 3);
  int drained = 0;
  client1.start(sim.now() + sim::seconds(3), [&] { ++drained; });
  client2.start(sim.now() + sim::seconds(3), [&] { ++drained; });
  sim.run();
  EXPECT_EQ(drained, 2);
  EXPECT_GT(client1.total_commits(), 10u);
  EXPECT_GT(client2.total_commits(), 10u);
  EXPECT_EQ(client1.total_commits() + client2.total_commits(),
            server.requests_served());
  EXPECT_FALSE(client1.per_second_commits().empty());
}

}  // namespace
}  // namespace storm::workload
