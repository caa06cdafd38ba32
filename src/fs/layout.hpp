// SimExt on-disk layout: an honest ext2-style subset.
//
//   block 0:                superblock
//   per group g (starting at block 1 + g*blocks_per_group):
//     +0                    block bitmap (1 block)
//     +1                    inode bitmap (1 block)
//     +2 .. +2+T-1          inode table (T = inodes_per_group*128/4096)
//     rest                  data blocks
//
// The layout codec is shared between the filesystem implementation and
// StorM's semantics-reconstruction engine: the engine classifies raw
// block numbers and parses inode/directory blocks straight off the wire,
// exactly as the paper's middle-box does for Ext4.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/bytes.hpp"
#include "common/status.hpp"

namespace storm::fs {

inline constexpr std::uint32_t kBlockSize = 4096;
inline constexpr std::uint32_t kSectorsPerBlock = kBlockSize / 512;
inline constexpr std::uint32_t kMagic = 0x51E2F500;  // "SimExt"
inline constexpr std::uint32_t kInodeSize = 128;
inline constexpr std::uint32_t kInodesPerBlock = kBlockSize / kInodeSize;
inline constexpr std::uint32_t kDirEntrySize = 64;
inline constexpr std::uint32_t kMaxNameLen = kDirEntrySize - 6 - 1;
inline constexpr std::uint32_t kDirEntriesPerBlock = kBlockSize / kDirEntrySize;
inline constexpr std::uint32_t kDirectBlocks = 12;
inline constexpr std::uint32_t kPointersPerBlock = kBlockSize / 4;
inline constexpr std::uint32_t kRootInode = 1;  // inode 0 reserved/invalid

struct SuperBlock {
  std::uint32_t magic = kMagic;
  std::uint32_t total_blocks = 0;
  std::uint32_t blocks_per_group = 8192;   // incl. the group's metadata
  std::uint32_t inodes_per_group = 2048;
  std::uint32_t num_groups = 0;

  std::uint32_t inode_table_blocks() const {
    return inodes_per_group / kInodesPerBlock;
  }
  std::uint32_t group_meta_blocks() const { return 2 + inode_table_blocks(); }
  std::uint32_t group_first_block(std::uint32_t group) const {
    return 1 + group * blocks_per_group;
  }

  Bytes serialize() const;
  static Result<SuperBlock> parse(std::span<const std::uint8_t> block);
};

enum class InodeType : std::uint16_t {
  kFree = 0,
  kFile = 1,
  kDirectory = 2,
};

struct Inode {
  InodeType type = InodeType::kFree;
  std::uint16_t links = 0;
  std::uint64_t size = 0;
  std::array<std::uint32_t, kDirectBlocks> direct{};
  std::uint32_t indirect = 0;
  std::uint32_t dindirect = 0;

  bool in_use() const { return type != InodeType::kFree; }

  /// Serialize into a 128-byte slot.
  void serialize_into(std::span<std::uint8_t> slot) const;
  static Inode parse(std::span<const std::uint8_t> slot);
};

struct DirEntry {
  std::uint32_t inode = 0;  // 0 = empty slot
  InodeType type = InodeType::kFree;
  std::string name;

  void serialize_into(std::span<std::uint8_t> slot) const;
  static DirEntry parse(std::span<const std::uint8_t> slot);
};

/// What a raw block number means, per the superblock geometry.
struct BlockClass {
  enum class Kind {
    kSuperblock,
    kBlockBitmap,
    kInodeBitmap,
    kInodeTable,
    kData,
    kOutOfRange,
  };
  Kind kind = Kind::kData;
  std::uint32_t group = 0;
  std::uint32_t table_index = 0;  // block index within the inode table

  std::string to_string() const;
};

BlockClass classify_block(const SuperBlock& sb, std::uint32_t block);

/// Inode-number geometry helpers.
std::uint32_t inode_group(const SuperBlock& sb, std::uint32_t ino);
/// Absolute block number holding `ino`, plus the byte offset inside it.
std::pair<std::uint32_t, std::uint32_t> inode_location(const SuperBlock& sb,
                                                       std::uint32_t ino);
/// First inode number stored in inode-table block (`group`, `table_index`).
std::uint32_t first_inode_of_table_block(const SuperBlock& sb,
                                         std::uint32_t group,
                                         std::uint32_t table_index);

/// Pointer-table blocks (the indirect block and both levels of the
/// double-indirect tree) hold kPointersPerBlock big-endian block numbers.
inline std::uint32_t pointer_slot(std::span<const std::uint8_t> table,
                                  std::uint32_t i) {
  const std::uint8_t* p = table.data() + i * 4;
  return (std::uint32_t(p[0]) << 24) | (std::uint32_t(p[1]) << 16) |
         (std::uint32_t(p[2]) << 8) | p[3];
}
inline void set_pointer_slot(std::span<std::uint8_t> table, std::uint32_t i,
                             std::uint32_t block) {
  std::uint8_t* p = table.data() + i * 4;
  p[0] = static_cast<std::uint8_t>(block >> 24);
  p[1] = static_cast<std::uint8_t>(block >> 16);
  p[2] = static_cast<std::uint8_t>(block >> 8);
  p[3] = static_cast<std::uint8_t>(block);
}

/// Bitmap helpers operating on a raw 4096-byte bitmap block.
bool bitmap_get(std::span<const std::uint8_t> bitmap, std::uint32_t index);
void bitmap_set(std::span<std::uint8_t> bitmap, std::uint32_t index,
                bool value);
/// First clear bit in [0, limit), or nullopt.
std::optional<std::uint32_t> bitmap_find_clear(
    std::span<const std::uint8_t> bitmap, std::uint32_t limit);

}  // namespace storm::fs
