#include <gtest/gtest.h>
#include <sys/resource.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <vector>

#include "block/block_device.hpp"
#include "block/sim_disk.hpp"
#include "block/volume.hpp"
#include "common/rng.hpp"
#include "sim/simulator.hpp"
#include "testutil.hpp"

namespace storm::block {
namespace {

TEST(MemDisk, ReadsBackWrites) {
  MemDisk disk(100);
  Bytes data = testutil::pattern_bytes(2 * kSectorSize);
  bool wrote = false;
  disk.write(10, data, [&](Status s) {
    wrote = true;
    EXPECT_TRUE(s.is_ok());
  });
  EXPECT_TRUE(wrote);
  bool read = false;
  disk.read(10, 2, [&](Status s, Bytes got) {
    read = true;
    ASSERT_TRUE(s.is_ok());
    EXPECT_EQ(got, data);
  });
  EXPECT_TRUE(read);
}

TEST(MemDisk, FreshDiskIsZeroed) {
  MemDisk disk(10);
  Bytes got = disk.read_sync(0, 10);
  EXPECT_EQ(got, Bytes(10 * kSectorSize, 0));
}

TEST(MemDisk, RejectsOutOfRange) {
  MemDisk disk(10);
  Status status = Status::ok();
  disk.read(8, 5, [&](Status s, Bytes) { status = s; });
  EXPECT_EQ(status.code(), ErrorCode::kInvalidArgument);

  disk.write(9, Bytes(3 * kSectorSize), [&](Status s) { status = s; });
  EXPECT_EQ(status.code(), ErrorCode::kInvalidArgument);
}

TEST(MemDisk, RejectsUnalignedWrite) {
  MemDisk disk(10);
  Status status = Status::ok();
  disk.write(0, Bytes(100), [&](Status s) { status = s; });
  EXPECT_EQ(status.code(), ErrorCode::kInvalidArgument);
}

TEST(MemDisk, SyncAccessRejectsRangesThatWrapPastTheLastLba) {
  MemDisk disk(100);
  const std::uint64_t near_end = std::numeric_limits<std::uint64_t>::max() - 1;
  EXPECT_THROW(disk.read_sync(near_end, 4), std::out_of_range);
  const Bytes four_sectors(4 * kSectorSize, 0xab);
  EXPECT_THROW(disk.write_sync(near_end, four_sectors), std::out_of_range);
  EXPECT_THROW(disk.write_sync_chain(near_end, {Buf::copy(four_sectors)}),
               std::out_of_range);
  EXPECT_THROW(disk.read_sync(98, 4), std::out_of_range);
  EXPECT_EQ(disk.read_sync(96, 4), Bytes(4 * kSectorSize, 0));
}

Bytes random_bytes(Rng& rng, std::size_t n) {
  Bytes out(n);
  for (auto& b : out) b = static_cast<std::uint8_t>(rng.next_u32());
  return out;
}

/// Cut `data` into a gather chain at random points: some at arbitrary
/// bytes, some at sector boundaries, with repeated cuts giving empty
/// chunks.
BufChain random_chain(Rng& rng, const Bytes& data) {
  std::vector<std::size_t> cuts = {0, data.size()};
  const std::size_t extra = rng.below(6);
  for (std::size_t i = 0; i < extra; ++i) {
    std::size_t at = rng.below(data.size() + 1);
    if (rng.chance(0.5)) at -= at % kSectorSize;
    cuts.push_back(at);
  }
  if (rng.chance(0.3)) cuts.push_back(cuts.back());  // an empty chunk
  std::sort(cuts.begin(), cuts.end());
  BufChain chain;
  for (std::size_t i = 0; i + 1 < cuts.size(); ++i) {
    chain.push_back(Buf::copy(
        std::span<const std::uint8_t>(data).subspan(cuts[i],
                                                    cuts[i + 1] - cuts[i])));
  }
  return chain;
}

TEST(MemDisk, RandomOpsMatchADenseReference) {
  // 8 sectors per 4 KiB page; 5 extra sectors leave a partial last page.
  constexpr std::uint64_t kSectors = 8 * 256 + 5;
  constexpr std::uint64_t kMaxRun = 24;  // up to 12 KiB: crosses pages
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    SCOPED_TRACE(seed);
    Rng rng(seed);
    MemDisk disk(kSectors);
    Bytes ref(kSectors * kSectorSize, 0);
    auto ref_range = [&](std::uint64_t lba, std::uint64_t count) {
      auto begin = ref.begin() + static_cast<std::ptrdiff_t>(lba * kSectorSize);
      return Bytes(begin,
                   begin + static_cast<std::ptrdiff_t>(count * kSectorSize));
    };
    for (int op = 0; op < 300; ++op) {
      // Most lbas are not page-aligned; a tenth land at the device's tail.
      const std::uint64_t lba = rng.chance(0.1)
                                    ? kSectors - 1 - rng.below(kMaxRun)
                                    : rng.below(kSectors);
      const std::uint64_t count =
          1 + rng.below(std::min(kMaxRun, kSectors - lba));
      switch (rng.below(4)) {
        case 0: {
          Bytes data = random_bytes(rng, count * kSectorSize);
          std::copy(data.begin(), data.end(),
                    ref.begin() + static_cast<std::ptrdiff_t>(lba * kSectorSize));
          bool done = false;
          disk.write(lba, std::move(data), [&](Status s) {
            done = true;
            EXPECT_TRUE(s.is_ok());
          });
          EXPECT_TRUE(done);
          break;
        }
        case 1: {
          Bytes data = random_bytes(rng, count * kSectorSize);
          std::copy(data.begin(), data.end(),
                    ref.begin() + static_cast<std::ptrdiff_t>(lba * kSectorSize));
          disk.write_sync_chain(lba, random_chain(rng, data));
          break;
        }
        case 2: {
          bool done = false;
          disk.read(lba, static_cast<std::uint32_t>(count),
                    [&](Status s, Bytes got) {
                      done = true;
                      ASSERT_TRUE(s.is_ok());
                      EXPECT_EQ(got, ref_range(lba, count))
                          << "read lba=" << lba << " count=" << count;
                    });
          EXPECT_TRUE(done);
          break;
        }
        default:
          EXPECT_EQ(disk.read_sync(lba, static_cast<std::uint32_t>(count)),
                    ref_range(lba, count))
              << "read_sync lba=" << lba << " count=" << count;
      }
    }
    // The whole device, then the partial last page on its own.
    EXPECT_EQ(disk.read_sync(0, kSectors), ref);
    EXPECT_EQ(disk.read_sync(kSectors - 5, 5), ref_range(kSectors - 5, 5));
    // The full read covered pages nothing was written to.
    const std::size_t page = 8 * kSectorSize;
    std::size_t untouched = 0;
    for (std::size_t off = 0; off + page <= ref.size(); off += page) {
      untouched += std::all_of(ref.begin() + static_cast<std::ptrdiff_t>(off),
                               ref.begin() +
                                   static_cast<std::ptrdiff_t>(off + page),
                               [](std::uint8_t b) { return b == 0; });
    }
    EXPECT_GT(untouched, 0u);
  }
}

TEST(MemDisk, TwoGiBVolumeStaysCheap) {
  // A dense store would hold 2048 MB; the page table holds 4 MiB of
  // pointers plus the pages that were written.
  constexpr std::uint64_t kSectors = (2ull << 30) / kSectorSize;
  MemDisk disk(kSectors);
  constexpr std::uint64_t kWrites = 256;  // 256 x 4 KiB = 1 MiB
  const Bytes data = testutil::pattern_bytes(4096, 7);
  for (std::uint64_t i = 0; i < kWrites; ++i) {
    disk.write_sync(i * (kSectors / kWrites) + 3, data);  // crosses a page
  }
  for (std::uint64_t i = 0; i < kWrites; ++i) {
    const std::uint64_t lba = i * (kSectors / kWrites) + 3;
    ASSERT_EQ(disk.read_sync(lba, 8), data) << "lba=" << lba;
    ASSERT_EQ(disk.read_sync(lba + 8, 8), Bytes(4096, 0)) << "lba=" << lba;
  }
  rusage usage{};
  ASSERT_EQ(getrusage(RUSAGE_SELF, &usage), 0);
  EXPECT_LT(usage.ru_maxrss, 128 * 1024) << "ru_maxrss in KiB";
}

TEST(SimDisk, CompletionIsDelayedByServiceTime) {
  sim::Simulator sim;
  DiskProfile profile;
  profile.base_latency = sim::microseconds(100);
  profile.bytes_per_second = 512 * 1000 * 1000;  // 512B in ~1us
  profile.queue_depth = 1;
  SimDisk disk(sim, 100, profile);
  sim::Time done_at = 0;
  disk.write(0, Bytes(kSectorSize, 1), [&](Status s) {
    EXPECT_TRUE(s.is_ok());
    done_at = sim.now();
  });
  EXPECT_EQ(done_at, 0u) << "completion must be asynchronous";
  sim.run();
  EXPECT_EQ(done_at, sim::microseconds(101));
}

TEST(SimDisk, QueueDepthLimitsConcurrency) {
  sim::Simulator sim;
  DiskProfile profile;
  profile.base_latency = sim::microseconds(100);
  profile.bytes_per_second = 1'000'000'000ull;
  profile.queue_depth = 2;
  SimDisk disk(sim, 1000, profile);
  std::vector<sim::Time> completions;
  for (int i = 0; i < 4; ++i) {
    disk.read(0, 1, [&](Status, Bytes) { completions.push_back(sim.now()); });
  }
  sim.run();
  ASSERT_EQ(completions.size(), 4u);
  // Two in service at once: completions pair up at ~t and ~2t.
  EXPECT_EQ(completions[0], completions[1]);
  EXPECT_EQ(completions[2], completions[3]);
  EXPECT_GT(completions[2], completions[0]);
}

TEST(SimDisk, DataPersistsThroughStore) {
  sim::Simulator sim;
  SimDisk disk(sim, 100);
  Bytes data = testutil::pattern_bytes(kSectorSize);
  disk.write(5, data, [](Status s) { ASSERT_TRUE(s.is_ok()); });
  sim.run();
  EXPECT_EQ(disk.store().read_sync(5, 1), data);
  EXPECT_EQ(disk.writes(), 1u);
}

// write_gather is the iSCSI target's only write path. A bad request
// errors back at once: no completion is scheduled and the store is
// untouched.
TEST(SimDisk, GatherWriteRejectsBadRequestsWithoutScheduling) {
  sim::Simulator sim;
  SimDisk disk(sim, 100);
  const Bytes data = testutil::pattern_bytes(2 * kSectorSize);
  auto chain = [&](std::size_t bytes) {
    const auto view = std::span<const std::uint8_t>(data).first(bytes);
    return BufChain{Buf::copy(view.first(bytes / 2)),
                    Buf::copy(view.subspan(bytes / 2))};
  };
  struct Case {
    const char* what;
    std::uint64_t lba;
    std::size_t bytes;
  };
  for (const Case& c : {Case{"unaligned size", 0, kSectorSize + 100},
                        Case{"past the last lba", 99, 2 * kSectorSize},
                        Case{"wrapping lba", UINT64_MAX, 2 * kSectorSize}}) {
    SCOPED_TRACE(c.what);
    bool called = false;
    Status status = Status::ok();
    disk.write_gather(c.lba, chain(c.bytes), [&](Status s) {
      called = true;
      status = s;
    });
    EXPECT_TRUE(called) << "a rejected write completes synchronously";
    EXPECT_EQ(status.code(), ErrorCode::kInvalidArgument);
    EXPECT_EQ(sim.pending(), 0u) << "no completion may be scheduled";
  }
  EXPECT_EQ(disk.writes(), 0u);
  EXPECT_EQ(disk.store().read_sync(98, 2), Bytes(2 * kSectorSize, 0));

  // A good request: the chunks land back to back at the modeled time.
  Status status = error(ErrorCode::kIoError, "unset");
  disk.write_gather(98, chain(data.size()), [&](Status s) { status = s; });
  EXPECT_EQ(sim.pending(), 1u);
  sim.run();
  EXPECT_TRUE(status.is_ok()) << status.to_string();
  EXPECT_EQ(disk.store().read_sync(98, 2), data);
  EXPECT_EQ(disk.writes(), 1u);
}

TEST(VolumeManager, CreatesVolumesWithUniqueIqns) {
  sim::Simulator sim;
  VolumeManager mgr(sim, "storage1", 1'000'000);
  auto v1 = mgr.create("vol1", 1000);
  auto v2 = mgr.create("vol2", 1000);
  ASSERT_TRUE(v1.is_ok());
  ASSERT_TRUE(v2.is_ok());
  EXPECT_NE(v1.value()->iqn(), v2.value()->iqn());
  EXPECT_TRUE(v1.value()->iqn().starts_with("iqn.2016-01.org.storm:storage1:"));
  EXPECT_EQ(mgr.volume_count(), 2u);
}

TEST(VolumeManager, FindsByIqnAndName) {
  sim::Simulator sim;
  VolumeManager mgr(sim, "s", 10'000);
  auto created = mgr.create("data", 100);
  ASSERT_TRUE(created.is_ok());
  EXPECT_TRUE(mgr.find_by_name("data").is_ok());
  EXPECT_TRUE(mgr.find_by_iqn(created.value()->iqn()).is_ok());
  EXPECT_EQ(mgr.find_by_name("nope").status().code(), ErrorCode::kNotFound);
  EXPECT_EQ(mgr.find_by_iqn("nope").status().code(), ErrorCode::kNotFound);
}

TEST(VolumeManager, RejectsDuplicatesAndExhaustion) {
  sim::Simulator sim;
  VolumeManager mgr(sim, "s", 1000);
  ASSERT_TRUE(mgr.create("a", 600).is_ok());
  EXPECT_EQ(mgr.create("a", 100).status().code(), ErrorCode::kAlreadyExists);
  EXPECT_EQ(mgr.create("b", 600).status().code(), ErrorCode::kOutOfSpace);
  EXPECT_EQ(mgr.create("c", 0).status().code(), ErrorCode::kInvalidArgument);
  EXPECT_EQ(mgr.free_sectors(), 400u);
}

TEST(VolumeManager, DestroyRespectsAttachment) {
  sim::Simulator sim;
  VolumeManager mgr(sim, "s", 1000);
  auto v = mgr.create("a", 100);
  ASSERT_TRUE(v.is_ok());
  v.value()->set_attached(true);
  EXPECT_EQ(mgr.destroy("a").code(), ErrorCode::kFailedPrecondition);
  v.value()->set_attached(false);
  EXPECT_TRUE(mgr.destroy("a").is_ok());
  EXPECT_EQ(mgr.free_sectors(), 1000u);
  EXPECT_EQ(mgr.destroy("a").code(), ErrorCode::kNotFound);
}

}  // namespace
}  // namespace storm::block
