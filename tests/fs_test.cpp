#include <gtest/gtest.h>

#include <string>

#include "block/block_device.hpp"
#include "fs/layout.hpp"
#include "fs/simext.hpp"
#include "sim/simulator.hpp"
#include "testutil.hpp"

namespace storm::fs {
namespace {

// 4096 blocks of 4 KB = 16 MB, 3 full groups of 1024 blocks.
constexpr std::uint64_t kTestSectors = 4096 * kSectorsPerBlock;

class SimExtTest : public ::testing::Test {
 protected:
  SimExtTest() : disk_(kTestSectors), fs_(sim_, disk_) {
    EXPECT_TRUE(SimExt::mkfs(disk_).is_ok());
    Status status = error(ErrorCode::kIoError, "unset");
    fs_.mount([&](Status s) { status = s; });
    sim_.run();
    EXPECT_TRUE(status.is_ok()) << status.to_string();
  }

  Status run(std::function<void(SimExt::DoneCb)> op) {
    Status status = error(ErrorCode::kIoError, "op never completed");
    bool done = false;
    op([&](Status s) {
      status = s;
      done = true;
    });
    sim_.run();
    EXPECT_TRUE(done);
    return status;
  }

  Status create(const std::string& path) {
    return run([&](SimExt::DoneCb cb) { fs_.create(path, cb); });
  }
  Status mkdir(const std::string& path) {
    return run([&](SimExt::DoneCb cb) { fs_.mkdir(path, cb); });
  }
  Status write(const std::string& path, std::uint64_t offset, Bytes data) {
    return run([&](SimExt::DoneCb cb) {
      fs_.write_file(path, offset, std::move(data), cb);
    });
  }
  std::pair<Status, Bytes> read(const std::string& path, std::uint64_t offset,
                                std::uint32_t length) {
    Status status = error(ErrorCode::kIoError, "unset");
    Bytes data;
    fs_.read_file(path, offset, length, [&](Status s, Bytes d) {
      status = s;
      data = std::move(d);
    });
    sim_.run();
    return {status, std::move(data)};
  }
  Status unlink(const std::string& path) {
    return run([&](SimExt::DoneCb cb) { fs_.unlink(path, cb); });
  }
  Status rename(const std::string& from, const std::string& to) {
    return run([&](SimExt::DoneCb cb) { fs_.rename(from, to, cb); });
  }
  std::pair<Status, std::vector<DirEntry>> readdir(const std::string& path) {
    Status status = error(ErrorCode::kIoError, "unset");
    std::vector<DirEntry> entries;
    fs_.readdir(path, [&](Status s, std::vector<DirEntry> e) {
      status = s;
      entries = std::move(e);
    });
    sim_.run();
    return {status, std::move(entries)};
  }
  std::pair<Status, StatInfo> stat(const std::string& path) {
    Status status = error(ErrorCode::kIoError, "unset");
    StatInfo info;
    fs_.stat(path, [&](Status s, StatInfo i) {
      status = s;
      info = i;
    });
    sim_.run();
    return {status, info};
  }

  sim::Simulator sim_;
  block::MemDisk disk_;
  SimExt fs_;
};

TEST_F(SimExtTest, MkfsProducesValidSuperblock) {
  EXPECT_EQ(fs_.superblock().total_blocks, 4096u);
  EXPECT_EQ(fs_.superblock().num_groups, 3u);
  EXPECT_EQ(fs_.superblock().inode_table_blocks(), 16u);
}

TEST_F(SimExtTest, CreateWriteReadRoundTrip) {
  ASSERT_TRUE(create("/hello.txt").is_ok());
  Bytes data = to_bytes("hello, SimExt!");
  ASSERT_TRUE(write("/hello.txt", 0, data).is_ok());
  auto [status, got] = read("/hello.txt", 0, 100);
  ASSERT_TRUE(status.is_ok()) << status.to_string();
  EXPECT_EQ(got, data);
}

TEST_F(SimExtTest, NestedDirectories) {
  ASSERT_TRUE(mkdir("/a").is_ok());
  ASSERT_TRUE(mkdir("/a/b").is_ok());
  ASSERT_TRUE(create("/a/b/file").is_ok());
  ASSERT_TRUE(write("/a/b/file", 0, to_bytes("deep")).is_ok());
  auto [status, got] = read("/a/b/file", 0, 10);
  ASSERT_TRUE(status.is_ok());
  EXPECT_EQ(got, to_bytes("deep"));

  auto [list_status, entries] = readdir("/a");
  ASSERT_TRUE(list_status.is_ok());
  ASSERT_EQ(entries.size(), 1u);
  EXPECT_EQ(entries[0].name, "b");
  EXPECT_EQ(entries[0].type, InodeType::kDirectory);
}

TEST_F(SimExtTest, StatReportsSizeAndType) {
  ASSERT_TRUE(create("/f").is_ok());
  ASSERT_TRUE(write("/f", 0, Bytes(5000, 0xAB)).is_ok());
  auto [status, info] = stat("/f");
  ASSERT_TRUE(status.is_ok());
  EXPECT_EQ(info.size, 5000u);
  EXPECT_EQ(info.type, InodeType::kFile);

  auto [root_status, root_info] = stat("/");
  ASSERT_TRUE(root_status.is_ok());
  EXPECT_EQ(root_info.type, InodeType::kDirectory);
  EXPECT_EQ(root_info.inode, kRootInode);
}

TEST_F(SimExtTest, OverwriteMiddleOfFile) {
  ASSERT_TRUE(create("/f").is_ok());
  ASSERT_TRUE(write("/f", 0, Bytes(10000, 0x11)).is_ok());
  ASSERT_TRUE(write("/f", 4000, Bytes(200, 0x22)).is_ok());
  auto [status, got] = read("/f", 0, 10000);
  ASSERT_TRUE(status.is_ok());
  ASSERT_EQ(got.size(), 10000u);
  EXPECT_EQ(got[3999], 0x11);
  EXPECT_EQ(got[4000], 0x22);
  EXPECT_EQ(got[4199], 0x22);
  EXPECT_EQ(got[4200], 0x11);
}

TEST_F(SimExtTest, SparseFileReadsZerosInHoles) {
  ASSERT_TRUE(create("/sparse").is_ok());
  // Write at 100 KB, leaving a hole at the start.
  ASSERT_TRUE(write("/sparse", 100 * 1024, Bytes(10, 0x77)).is_ok());
  auto [status, got] = read("/sparse", 0, 100 * 1024 + 10);
  ASSERT_TRUE(status.is_ok());
  ASSERT_EQ(got.size(), 100u * 1024 + 10);
  EXPECT_EQ(got[0], 0x00);
  EXPECT_EQ(got[50 * 1024], 0x00);
  EXPECT_EQ(got[100 * 1024], 0x77);
}

TEST_F(SimExtTest, ReadPastEndTruncates) {
  ASSERT_TRUE(create("/f").is_ok());
  ASSERT_TRUE(write("/f", 0, Bytes(100, 1)).is_ok());
  auto [status, got] = read("/f", 50, 1000);
  ASSERT_TRUE(status.is_ok());
  EXPECT_EQ(got.size(), 50u);
  auto [status2, got2] = read("/f", 200, 10);
  ASSERT_TRUE(status2.is_ok());
  EXPECT_TRUE(got2.empty());
  auto [status3, got3] = read("/f", 0, 0);
  ASSERT_TRUE(status3.is_ok());
  EXPECT_TRUE(got3.empty());
}

TEST_F(SimExtTest, LargeFileUsesIndirectBlocks) {
  // > 12 direct blocks (48 KB) and > indirect (48 KB + 4 MB would exceed
  // the test disk, so stay within indirect range): 200 KB.
  ASSERT_TRUE(create("/big").is_ok());
  Bytes data = testutil::pattern_bytes(200 * 1024);
  ASSERT_TRUE(write("/big", 0, data).is_ok());
  auto [status, got] = read("/big", 0, 200 * 1024);
  ASSERT_TRUE(status.is_ok());
  EXPECT_TRUE(testutil::same_bytes(got, data));
}

TEST_F(SimExtTest, SixtyFourMiBFileRoundTripsAtDefaultStack) {
  // Deep into the double-indirect range, on a device that completes every
  // I/O synchronously: the per-block loops must not grow the stack.
  constexpr std::uint32_t kSize = 64u << 20;
  block::MemDisk disk((kSize + (8u << 20)) / 512);
  ASSERT_TRUE(SimExt::mkfs(disk).is_ok());
  SimExt fs(sim_, disk);
  Status status = error(ErrorCode::kIoError, "unset");
  fs.mount([&](Status s) { status = s; });
  sim_.run();
  ASSERT_TRUE(status.is_ok()) << status.to_string();
  fs.create("/big", [&](Status s) { status = s; });
  sim_.run();
  ASSERT_TRUE(status.is_ok()) << status.to_string();

  Bytes data = testutil::pattern_bytes(kSize);
  fs.write_file("/big", 0, data, [&](Status s) { status = s; });
  sim_.run();
  ASSERT_TRUE(status.is_ok()) << status.to_string();
  Bytes got;
  fs.read_file("/big", 0, kSize, [&](Status s, Bytes d) {
    status = s;
    got = std::move(d);
  });
  sim_.run();
  ASSERT_TRUE(status.is_ok()) << status.to_string();
  EXPECT_TRUE(testutil::same_bytes(got, data));
}

TEST_F(SimExtTest, UnlinkFreesSpace) {
  // Warm up the root directory so its data block (which directories keep
  // after entries are removed) is already allocated.
  ASSERT_TRUE(create("/warmup").is_ok());
  std::uint32_t before = fs_.free_data_blocks();
  ASSERT_TRUE(create("/f").is_ok());
  ASSERT_TRUE(write("/f", 0, Bytes(100 * 1024, 0xCD)).is_ok());
  EXPECT_LT(fs_.free_data_blocks(), before);
  ASSERT_TRUE(unlink("/f").is_ok());
  EXPECT_EQ(fs_.free_data_blocks(), before);
  auto [status, got] = read("/f", 0, 10);
  EXPECT_EQ(status.code(), ErrorCode::kNotFound);
}

TEST_F(SimExtTest, RenameMovesBetweenDirectories) {
  ASSERT_TRUE(mkdir("/src").is_ok());
  ASSERT_TRUE(mkdir("/dst").is_ok());
  ASSERT_TRUE(create("/src/f").is_ok());
  ASSERT_TRUE(write("/src/f", 0, to_bytes("content")).is_ok());
  ASSERT_TRUE(rename("/src/f", "/dst/g").is_ok());
  EXPECT_EQ(read("/src/f", 0, 10).first.code(), ErrorCode::kNotFound);
  auto [status, got] = read("/dst/g", 0, 10);
  ASSERT_TRUE(status.is_ok());
  EXPECT_EQ(got, to_bytes("content"));
}

TEST_F(SimExtTest, ErrorCases) {
  EXPECT_EQ(create("/nodir/f").code(), ErrorCode::kNotFound);
  ASSERT_TRUE(create("/f").is_ok());
  EXPECT_EQ(create("/f").code(), ErrorCode::kAlreadyExists);
  EXPECT_EQ(write("/missing", 0, Bytes(10)).code(), ErrorCode::kNotFound);
  EXPECT_EQ(write("/f/sub", 0, Bytes(10)).code(),
            ErrorCode::kInvalidArgument);  // file used as directory
  EXPECT_EQ(unlink("/missing").code(), ErrorCode::kNotFound);
  ASSERT_TRUE(mkdir("/d").is_ok());
  ASSERT_TRUE(create("/d/child").is_ok());
  EXPECT_EQ(unlink("/d").code(), ErrorCode::kFailedPrecondition);
  ASSERT_TRUE(unlink("/d/child").is_ok());
  EXPECT_TRUE(unlink("/d").is_ok());
  ASSERT_TRUE(create("/g").is_ok());
  EXPECT_EQ(rename("/f", "/g").code(), ErrorCode::kAlreadyExists);
  EXPECT_EQ(rename("/missing", "/x").code(), ErrorCode::kNotFound);
  std::string long_name(200, 'x');
  EXPECT_EQ(create("/" + long_name).code(), ErrorCode::kInvalidArgument);
}

TEST_F(SimExtTest, PersistsAcrossRemount) {
  ASSERT_TRUE(mkdir("/data").is_ok());
  ASSERT_TRUE(create("/data/f").is_ok());
  Bytes data = testutil::pattern_bytes(30'000);
  ASSERT_TRUE(write("/data/f", 0, data).is_ok());

  // Fresh SimExt instance over the same disk: everything must persist.
  SimExt fresh(sim_, disk_);
  Status mount_status = error(ErrorCode::kIoError, "unset");
  fresh.mount([&](Status s) { mount_status = s; });
  sim_.run();
  ASSERT_TRUE(mount_status.is_ok());
  Status read_status = error(ErrorCode::kIoError, "unset");
  Bytes got;
  fresh.read_file("/data/f", 0, 30'000, [&](Status s, Bytes d) {
    read_status = s;
    got = std::move(d);
  });
  sim_.run();
  ASSERT_TRUE(read_status.is_ok()) << read_status.to_string();
  EXPECT_EQ(got, data);
}

TEST_F(SimExtTest, DropCachesStillReadsCorrectly) {
  ASSERT_TRUE(mkdir("/d").is_ok());
  ASSERT_TRUE(create("/d/f").is_ok());
  ASSERT_TRUE(write("/d/f", 0, to_bytes("cold")).is_ok());
  std::uint64_t reads_before = 0;
  fs_.drop_caches();
  auto [status, got] = read("/d/f", 0, 10);
  ASSERT_TRUE(status.is_ok());
  EXPECT_EQ(got, to_bytes("cold"));
  (void)reads_before;
}

TEST_F(SimExtTest, ManyFilesInDirectory) {
  ASSERT_TRUE(mkdir("/dir").is_ok());
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(create("/dir/file" + std::to_string(i)).is_ok()) << i;
  }
  auto [status, entries] = readdir("/dir");
  ASSERT_TRUE(status.is_ok());
  EXPECT_EQ(entries.size(), 100u);
}

TEST_F(SimExtTest, OutOfSpaceIsReported) {
  ASSERT_TRUE(create("/hog").is_ok());
  // The 16 MB test disk cannot hold a 32 MB file.
  Status status = write("/hog", 0, Bytes(4 * 1024 * 1024, 1));
  Status status2 = Status::ok();
  if (status.is_ok()) {
    status2 = write("/hog", 4 * 1024 * 1024, Bytes(16 * 1024 * 1024, 1));
  }
  EXPECT_TRUE(!status.is_ok() || !status2.is_ok());
  EXPECT_TRUE(status.is_ok() || status.code() == ErrorCode::kOutOfSpace);
}

TEST_F(SimExtTest, WritebackModeDefersThenFlushes) {
  block::MemDisk disk(kTestSectors);
  ASSERT_TRUE(SimExt::mkfs(disk).is_ok());
  SimExt::Options options;
  options.writeback_delay = sim::milliseconds(100);
  SimExt wb(sim_, disk, options);
  wb.mount([](Status s) { ASSERT_TRUE(s.is_ok()); });
  sim_.run();

  bool created = false;
  wb.create("/f", [&](Status s) {
    ASSERT_TRUE(s.is_ok());
    created = true;
  });
  bool written = false;
  wb.write_file("/f", 0, to_bytes("buffered"), [&](Status s) {
    ASSERT_TRUE(s.is_ok());
    written = true;
  });
  sim_.run_until(sim_.now() + sim::milliseconds(1));
  EXPECT_TRUE(created);
  EXPECT_TRUE(written);
  // The flush timer is still pending; on-disk root dir must not yet show
  // the file with its data written (the inode table block is dirty in
  // cache). Run past the writeback delay and verify it lands.
  sim_.run();

  SimExt fresh(sim_, disk);
  fresh.mount([](Status s) { ASSERT_TRUE(s.is_ok()); });
  sim_.run();
  Status read_status = error(ErrorCode::kIoError, "unset");
  Bytes got;
  fresh.read_file("/f", 0, 100, [&](Status s, Bytes d) {
    read_status = s;
    got = std::move(d);
  });
  sim_.run();
  ASSERT_TRUE(read_status.is_ok());
  EXPECT_EQ(got, to_bytes("buffered"));
}

TEST(SplitPath, Variants) {
  EXPECT_TRUE(split_path("/").is_ok());
  EXPECT_TRUE(split_path("/").value().empty());
  auto parts = split_path("/a/b/c");
  ASSERT_TRUE(parts.is_ok());
  EXPECT_EQ(parts.value(),
            (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_EQ(split_path("//x///y/").value(),
            (std::vector<std::string>{"x", "y"}));
  EXPECT_FALSE(split_path("relative/path").is_ok());
  EXPECT_FALSE(split_path("").is_ok());
}

TEST(Layout, ClassifyBlocks) {
  SuperBlock sb;
  sb.total_blocks = 4096;
  sb.blocks_per_group = 1024;
  sb.inodes_per_group = 512;
  sb.num_groups = 3;

  EXPECT_EQ(classify_block(sb, 0).kind, BlockClass::Kind::kSuperblock);
  EXPECT_EQ(classify_block(sb, 1).kind, BlockClass::Kind::kBlockBitmap);
  EXPECT_EQ(classify_block(sb, 2).kind, BlockClass::Kind::kInodeBitmap);
  auto table = classify_block(sb, 3);
  EXPECT_EQ(table.kind, BlockClass::Kind::kInodeTable);
  EXPECT_EQ(table.group, 0u);
  EXPECT_EQ(table.table_index, 0u);
  EXPECT_EQ(classify_block(sb, 3 + 16).kind, BlockClass::Kind::kData);

  auto group1_bitmap = classify_block(sb, 1 + 1024);
  EXPECT_EQ(group1_bitmap.kind, BlockClass::Kind::kBlockBitmap);
  EXPECT_EQ(group1_bitmap.group, 1u);
  EXPECT_EQ(classify_block(sb, 4096).kind, BlockClass::Kind::kOutOfRange);
  EXPECT_EQ(classify_block(sb, 1 + 3 * 1024).kind,
            BlockClass::Kind::kOutOfRange)
      << "blocks past the last full group are unusable";

  EXPECT_EQ(classify_block(sb, 5).to_string(), "inode_group_0");
}

TEST(Layout, InodeGeometryRoundTrip) {
  SuperBlock sb;
  sb.total_blocks = 4096;
  sb.blocks_per_group = 1024;
  sb.inodes_per_group = 512;
  sb.num_groups = 3;

  for (std::uint32_t ino : {1u, 31u, 32u, 511u, 512u, 1000u}) {
    auto [block, offset] = inode_location(sb, ino);
    auto cls = classify_block(sb, block);
    EXPECT_EQ(cls.kind, BlockClass::Kind::kInodeTable) << ino;
    EXPECT_EQ(cls.group, inode_group(sb, ino)) << ino;
    std::uint32_t first = first_inode_of_table_block(sb, cls.group,
                                                     cls.table_index);
    EXPECT_LE(first, ino);
    EXPECT_LT(ino, first + kInodesPerBlock);
    EXPECT_EQ((ino - first) * kInodeSize, offset);
  }
}

TEST(Layout, InodeAndDirEntryCodecs) {
  Inode inode;
  inode.type = InodeType::kFile;
  inode.links = 2;
  inode.size = 0x123456789ull;
  inode.direct[0] = 77;
  inode.direct[11] = 99;
  inode.indirect = 1234;
  inode.dindirect = 5678;
  Bytes slot(kInodeSize);
  inode.serialize_into(slot);
  Inode back = Inode::parse(slot);
  EXPECT_EQ(back.type, inode.type);
  EXPECT_EQ(back.links, inode.links);
  EXPECT_EQ(back.size, inode.size);
  EXPECT_EQ(back.direct, inode.direct);
  EXPECT_EQ(back.indirect, inode.indirect);
  EXPECT_EQ(back.dindirect, inode.dindirect);

  DirEntry entry;
  entry.inode = 42;
  entry.type = InodeType::kDirectory;
  entry.name = "some_directory";
  Bytes dslot(kDirEntrySize);
  entry.serialize_into(dslot);
  DirEntry dback = DirEntry::parse(dslot);
  EXPECT_EQ(dback.inode, entry.inode);
  EXPECT_EQ(dback.type, entry.type);
  EXPECT_EQ(dback.name, entry.name);
}

TEST(Layout, BitmapHelpers) {
  Bytes bitmap(kBlockSize, 0);
  EXPECT_FALSE(bitmap_get(bitmap, 100));
  bitmap_set(bitmap, 100, true);
  EXPECT_TRUE(bitmap_get(bitmap, 100));
  EXPECT_FALSE(bitmap_get(bitmap, 99));
  EXPECT_FALSE(bitmap_get(bitmap, 101));
  auto clear = bitmap_find_clear(bitmap, 102);
  ASSERT_TRUE(clear.has_value());
  EXPECT_EQ(*clear, 0u);
  for (std::uint32_t i = 0; i < 100; ++i) bitmap_set(bitmap, i, true);
  EXPECT_FALSE(bitmap_find_clear(bitmap, 101).has_value())
      << "bits 0..100 are all set";
  bitmap_set(bitmap, 100, false);
  EXPECT_EQ(*bitmap_find_clear(bitmap, 101), 100u);
}

// Property sweep: write/read round-trip across sizes straddling the
// direct/indirect/double-indirect boundaries and odd offsets.
class FileSizeSweep : public SimExtTest,
                      public ::testing::WithParamInterface<std::uint32_t> {};

TEST_P(FileSizeSweep, RoundTripsAtSize) {
  std::uint32_t size = GetParam();
  ASSERT_TRUE(create("/sweep").is_ok());
  Bytes data = testutil::pattern_bytes(size, static_cast<std::uint8_t>(size));
  ASSERT_TRUE(write("/sweep", 0, data).is_ok());
  auto [status, got] = read("/sweep", 0, size + 100);
  ASSERT_TRUE(status.is_ok()) << status.to_string();
  EXPECT_TRUE(testutil::same_bytes(got, data));
  auto [stat_status, info] = stat("/sweep");
  ASSERT_TRUE(stat_status.is_ok());
  EXPECT_EQ(info.size, size);
  ASSERT_TRUE(unlink("/sweep").is_ok());
}

INSTANTIATE_TEST_SUITE_P(
    Sizes, FileSizeSweep,
    ::testing::Values(1u, 511u, 512u, 4095u, 4096u, 4097u,
                      12u * 4096u,             // last direct block
                      12u * 4096u + 1u,        // first indirect byte
                      64u * 1024u, 200u * 1024u,
                      (12u + 1024u) * 4096u,       // last indirect block
                      (12u + 1024u) * 4096u + 1u,  // first double-indirect
                      (12u + 1024u + 300u) * 4096u));

// Property sweep: unaligned overwrite windows never corrupt surrounding
// bytes.
class OverwriteSweep
    : public SimExtTest,
      public ::testing::WithParamInterface<std::pair<std::uint32_t,
                                                     std::uint32_t>> {};

TEST_P(OverwriteSweep, SurroundingBytesIntact) {
  auto [offset, length] = GetParam();
  const std::uint32_t file_size = 64 * 1024;
  ASSERT_TRUE(create("/ow").is_ok());
  Bytes base = testutil::pattern_bytes(file_size, 3);
  ASSERT_TRUE(write("/ow", 0, base).is_ok());
  Bytes patch(length, 0xEE);
  ASSERT_TRUE(write("/ow", offset, patch).is_ok());

  Bytes expect = base;
  std::copy(patch.begin(), patch.end(),
            expect.begin() + static_cast<std::ptrdiff_t>(offset));
  auto [status, got] = read("/ow", 0, file_size);
  ASSERT_TRUE(status.is_ok());
  EXPECT_TRUE(testutil::same_bytes(got, expect));
  ASSERT_TRUE(unlink("/ow").is_ok());
}

INSTANTIATE_TEST_SUITE_P(
    Windows, OverwriteSweep,
    ::testing::Values(std::pair{0u, 1u}, std::pair{1u, 4096u},
                      std::pair{4095u, 2u}, std::pair{4096u, 4096u},
                      std::pair{10000u, 30000u}, std::pair{60000u, 5536u},
                      std::pair{49151u, 4098u}));

}  // namespace
}  // namespace storm::fs
