#include "core/reconstruction.hpp"

#include <algorithm>
#include <optional>
#include <sstream>

#include "common/log.hpp"

namespace storm::core {

std::string FileOp::to_string() const {
  std::ostringstream out;
  switch (kind) {
    case Kind::kRead: out << "read"; break;
    case Kind::kWrite: out << "write"; break;
    case Kind::kMetaRead: out << "read"; break;
    case Kind::kMetaWrite: out << "write"; break;
  }
  out << " " << path << " " << size;
  return out.str();
}

Result<std::unique_ptr<SemanticsReconstructor>>
SemanticsReconstructor::from_snapshot(const block::MemDisk& disk) {
  Bytes sb_block = disk.read_sync(0, fs::kSectorsPerBlock);
  auto parsed = fs::SuperBlock::parse(sb_block);
  if (!parsed.is_ok()) return parsed.status();
  auto recon = std::unique_ptr<SemanticsReconstructor>(
      new SemanticsReconstructor());
  recon->sb_ = parsed.value();
  recon->armed_ = true;
  recon->scan_snapshot(disk);
  return recon;
}

std::unique_ptr<SemanticsReconstructor> SemanticsReconstructor::unformatted() {
  return std::unique_ptr<SemanticsReconstructor>(new SemanticsReconstructor());
}

void SemanticsReconstructor::scan_snapshot(const block::MemDisk& disk) {
  auto read_block = [&](std::uint32_t block) {
    return disk.read_sync(static_cast<std::uint64_t>(block) *
                              fs::kSectorsPerBlock,
                          fs::kSectorsPerBlock);
  };

  // Pass 1: every inode table block -> in-use inodes + their block maps.
  for (std::uint32_t g = 0; g < sb_.num_groups; ++g) {
    for (std::uint32_t t = 0; t < sb_.inode_table_blocks(); ++t) {
      std::uint32_t block = sb_.group_first_block(g) + 2 + t;
      Bytes data = read_block(block);
      std::uint32_t first_ino = fs::first_inode_of_table_block(sb_, g, t);
      bool any = false;
      for (std::uint32_t i = 0; i < fs::kInodesPerBlock; ++i) {
        fs::Inode inode = fs::Inode::parse(std::span<const std::uint8_t>(
            data.data() + i * fs::kInodeSize, fs::kInodeSize));
        if (!inode.in_use()) continue;
        any = true;
        std::uint32_t ino = first_ino + i;
        FileInfo& info = inodes_[ino];
        info.type = inode.type;
        info.size = inode.size;
        index_inode_blocks(ino, inode, &disk);
      }
      if (any) inode_block_cache_[block] = std::move(data);
    }
  }

  // Pass 2: walk directories to name everything.
  for (auto& [ino, info] : inodes_) {
    if (info.type != fs::InodeType::kDirectory) continue;
    for (std::uint32_t block : info.blocks) {
      dir_block_owner_[block] = ino;
      Bytes data = read_block(block);
      for (std::uint32_t slot = 0; slot < fs::kDirEntriesPerBlock; ++slot) {
        fs::DirEntry entry = fs::DirEntry::parse(std::span<const std::uint8_t>(
            data.data() + slot * fs::kDirEntrySize, fs::kDirEntrySize));
        if (entry.inode == 0) continue;
        FileInfo& child = inodes_[entry.inode];
        child.parent = ino;
        child.name = entry.name;
        if (child.type == fs::InodeType::kFree) child.type = entry.type;
      }
      dir_block_cache_[block] = std::move(data);
    }
  }
}

void SemanticsReconstructor::index_inode_blocks(
    std::uint32_t ino, const fs::Inode& inode,
    const block::MemDisk* snapshot) {
  FileInfo& info = inodes_[ino];
  for (std::uint32_t block : inode.direct) {
    if (block == 0) continue;
    block_owner_[block] = ino;
    info.blocks.insert(block);
  }
  auto table_content = [&](std::uint32_t table) -> std::optional<Bytes> {
    if (snapshot != nullptr) {
      Bytes data = snapshot->read_sync(
          static_cast<std::uint64_t>(table) * fs::kSectorsPerBlock,
          fs::kSectorsPerBlock);
      pointer_block_cache_[table] = data;
      return data;
    }
    auto it = pointer_block_cache_.find(table);
    if (it == pointer_block_cache_.end()) return std::nullopt;
    return it->second;
  };
  auto index_table = [&](std::uint32_t table, bool is_l1_of_dindirect) {
    if (table == 0) return;
    pointer_block_owner_[table] = ino;
    if (is_l1_of_dindirect) dindirect_l1_.insert(table);
    auto data = table_content(table);
    if (!data) return;  // content arrives as later writes
    for (std::uint32_t i = 0; i < fs::kPointersPerBlock; ++i) {
      std::uint32_t value = fs::pointer_slot(*data, i);
      if (value == 0) continue;
      if (is_l1_of_dindirect) {
        pointer_block_owner_[value] = ino;
        auto level2 = table_content(value);
        if (!level2) continue;
        for (std::uint32_t j = 0; j < fs::kPointersPerBlock; ++j) {
          std::uint32_t leaf = fs::pointer_slot(*level2, j);
          if (leaf == 0) continue;
          block_owner_[leaf] = ino;
          info.blocks.insert(leaf);
        }
      } else {
        block_owner_[value] = ino;
        info.blocks.insert(value);
      }
    }
  };
  index_table(inode.indirect, false);
  index_table(inode.dindirect, true);
}

void SemanticsReconstructor::drop_inode_blocks(std::uint32_t ino) {
  auto it = inodes_.find(ino);
  if (it == inodes_.end()) return;
  for (std::uint32_t block : it->second.blocks) {
    block_owner_.erase(block);
    dir_block_owner_.erase(block);
    dir_block_cache_.erase(block);
  }
  it->second.blocks.clear();
  std::erase_if(pointer_block_owner_, [&](const auto& kv) {
    if (kv.second != ino) return false;
    pointer_block_cache_.erase(kv.first);
    dindirect_l1_.erase(kv.first);
    return true;
  });
}

std::optional<std::string> SemanticsReconstructor::path_of_inode(
    std::uint32_t ino) const {
  if (ino == fs::kRootInode) return "/";
  std::string path;
  std::uint32_t current = ino;
  int depth = 0;
  while (current != fs::kRootInode && depth++ < 64) {
    auto it = inodes_.find(current);
    if (it == inodes_.end() || it->second.name.empty()) {
      // Unnamed (dirent not yet seen): fall back to the inode number.
      return path.empty() ? "ino_" + std::to_string(ino)
                          : "ino_" + std::to_string(current) + path;
    }
    path = "/" + it->second.name + path;
    current = it->second.parent;
    if (current == 0) break;
  }
  return path.empty() ? "/" : path;
}

std::optional<std::string> SemanticsReconstructor::path_of_block(
    std::uint32_t block) const {
  auto it = block_owner_.find(block);
  if (it == block_owner_.end()) return std::nullopt;
  return path_of_inode(it->second);
}

FileOp SemanticsReconstructor::classify(bool is_write, std::uint32_t block,
                                        std::uint64_t bytes) {
  FileOp op;
  op.block = block;
  op.size = bytes;
  if (!armed_) {
    op.kind = is_write ? FileOp::Kind::kWrite : FileOp::Kind::kRead;
    op.path = "raw_block_" + std::to_string(block);
    return op;
  }
  fs::BlockClass cls = fs::classify_block(sb_, block);
  switch (cls.kind) {
    case fs::BlockClass::Kind::kData: {
      if (auto dir = dir_block_owner_.find(block);
          dir != dir_block_owner_.end()) {
        op.kind = is_write ? FileOp::Kind::kWrite : FileOp::Kind::kRead;
        op.path = *path_of_inode(dir->second);
        if (op.path.back() != '/') op.path += "/";
        op.path += ".";
        return op;
      }
      if (auto owner = block_owner_.find(block);
          owner != block_owner_.end()) {
        op.kind = is_write ? FileOp::Kind::kWrite : FileOp::Kind::kRead;
        op.path = *path_of_inode(owner->second);
        return op;
      }
      if (auto table = pointer_block_owner_.find(block);
          table != pointer_block_owner_.end()) {
        op.kind = is_write ? FileOp::Kind::kMetaWrite : FileOp::Kind::kMetaRead;
        op.path = "META: indirect_of " + *path_of_inode(table->second);
        return op;
      }
      op.kind = is_write ? FileOp::Kind::kWrite : FileOp::Kind::kRead;
      op.path = "unallocated_block_" + std::to_string(block);
      return op;
    }
    default:
      op.kind = is_write ? FileOp::Kind::kMetaWrite : FileOp::Kind::kMetaRead;
      op.path = "META: " + cls.to_string();
      return op;
  }
}

std::vector<FileOp> SemanticsReconstructor::on_read(std::uint64_t lba,
                                                    std::uint64_t length) {
  std::vector<FileOp> ops;
  std::uint64_t end = lba * block::kSectorSize + length;
  std::uint64_t pos = lba * block::kSectorSize;
  while (pos < end) {
    std::uint32_t block = static_cast<std::uint32_t>(pos / fs::kBlockSize);
    std::uint64_t block_end =
        static_cast<std::uint64_t>(block + 1) * fs::kBlockSize;
    std::uint64_t chunk = std::min(end, block_end) - pos;
    FileOp op = classify(false, block, chunk);
    if (!ops.empty() && ops.back().path == op.path &&
        ops.back().kind == op.kind) {
      ops.back().size += chunk;  // coalesce contiguous same-file access
    } else {
      ops.push_back(op);
    }
    pos += chunk;
  }
  return ops;
}

std::vector<FileOp> SemanticsReconstructor::on_write(std::uint64_t lba,
                                                     const Bytes& data) {
  // Unarmed (blank volume): watch for mkfs writing the superblock and
  // bootstrap the view from there.
  if (!armed_ && lba == 0 && data.size() >= fs::kBlockSize) {
    auto parsed = fs::SuperBlock::parse(
        std::span<const std::uint8_t>(data.data(), fs::kBlockSize));
    if (parsed.is_ok()) {
      sb_ = parsed.value();
      armed_ = true;
    }
  }
  std::vector<FileOp> ops;
  std::uint64_t start = lba * block::kSectorSize;
  std::uint64_t end = start + data.size();
  std::uint64_t pos = start;
  while (pos < end) {
    std::uint32_t block = static_cast<std::uint32_t>(pos / fs::kBlockSize);
    std::uint64_t block_start =
        static_cast<std::uint64_t>(block) * fs::kBlockSize;
    std::uint64_t block_end = block_start + fs::kBlockSize;
    std::uint64_t chunk = std::min(end, block_end) - pos;

    // Classify *before* applying the update: a write creating a file is
    // still a metadata write to the inode table.
    FileOp op = classify(true, block, chunk);

    // Full-block metadata writes update the view.
    if (pos == block_start && chunk == fs::kBlockSize) {
      std::span<const std::uint8_t> content(data.data() + (pos - start),
                                            fs::kBlockSize);
      fs::BlockClass cls = fs::classify_block(sb_, block);
      if (cls.kind == fs::BlockClass::Kind::kInodeTable) {
        apply_inode_table_write(block, content);
      } else if (cls.kind == fs::BlockClass::Kind::kData) {
        if (auto dir = dir_block_owner_.find(block);
            dir != dir_block_owner_.end()) {
          apply_dir_block_write(block, dir->second, content);
        } else if (auto table = pointer_block_owner_.find(block);
                   table != pointer_block_owner_.end()) {
          apply_pointer_block_write(block, table->second, content);
        } else if (!block_owner_.contains(block)) {
          // Not attributed yet: the mapping metadata may still be in the
          // guest page cache. Keep the content so it can be interpreted
          // when the mapping write arrives (bounded cache).
          if (orphan_writes_.size() >= 4096) {
            orphan_writes_.erase(orphan_writes_.begin());
          }
          orphan_writes_[block] = Bytes(content.begin(), content.end());
        }
      }
    }

    if (!ops.empty() && ops.back().path == op.path &&
        ops.back().kind == op.kind) {
      ops.back().size += chunk;
    } else {
      ops.push_back(op);
    }
    pos += chunk;
  }
  return ops;
}

void SemanticsReconstructor::apply_inode_table_write(
    std::uint32_t block, std::span<const std::uint8_t> data) {
  fs::BlockClass cls = fs::classify_block(sb_, block);
  std::uint32_t first_ino =
      fs::first_inode_of_table_block(sb_, cls.group, cls.table_index);
  Bytes& cache = inode_block_cache_[block];
  if (cache.empty()) cache.assign(fs::kBlockSize, 0);

  for (std::uint32_t i = 0; i < fs::kInodesPerBlock; ++i) {
    std::span<const std::uint8_t> new_slot(data.data() + i * fs::kInodeSize,
                                           fs::kInodeSize);
    std::span<const std::uint8_t> old_slot(cache.data() + i * fs::kInodeSize,
                                           fs::kInodeSize);
    // Untouched slots need no re-index (and re-indexing would lose
    // indirect pointee mappings learned from orphan writes).
    if (std::equal(new_slot.begin(), new_slot.end(), old_slot.begin())) {
      continue;
    }
    fs::Inode new_inode = fs::Inode::parse(new_slot);
    fs::Inode old_inode = fs::Inode::parse(old_slot);
    std::uint32_t ino = first_ino + i;

    if (!old_inode.in_use() && !new_inode.in_use()) continue;

    if (old_inode.in_use() && !new_inode.in_use()) {
      // File deleted.
      drop_inode_blocks(ino);
      inodes_.erase(ino);
      continue;
    }
    // Created or updated: refresh ownership from the new block pointers.
    if (old_inode.in_use()) drop_inode_blocks(ino);
    FileInfo& info = inodes_[ino];
    info.type = new_inode.type;
    info.size = new_inode.size;
    index_inode_blocks(ino, new_inode, nullptr);
    // Newly indexed directory blocks become dirent-diffable; replay any
    // content that arrived before this mapping did.
    if (new_inode.type == fs::InodeType::kDirectory) {
      for (std::uint32_t dir_block : inodes_[ino].blocks) {
        dir_block_owner_[dir_block] = ino;
        if (auto orphan = orphan_writes_.find(dir_block);
            orphan != orphan_writes_.end()) {
          apply_dir_block_write(dir_block, ino, orphan->second);
          orphan_writes_.erase(orphan);
        }
      }
    }
    // Same for indirect-pointer blocks written ahead of the inode.
    // (index_inode_blocks has already tagged the double-indirect L1.)
    for (std::uint32_t table :
         {new_inode.indirect, new_inode.dindirect}) {
      if (table == 0) continue;
      if (auto orphan = orphan_writes_.find(table);
          orphan != orphan_writes_.end()) {
        Bytes content = std::move(orphan->second);
        orphan_writes_.erase(orphan);
        apply_pointer_block_write(table, ino, content);
      }
    }
  }
  cache.assign(data.begin(), data.end());
}

void SemanticsReconstructor::apply_dir_block_write(
    std::uint32_t block, std::uint32_t dir_ino,
    std::span<const std::uint8_t> data) {
  Bytes& cache = dir_block_cache_[block];
  if (cache.empty()) cache.assign(fs::kBlockSize, 0);
  for (std::uint32_t slot = 0; slot < fs::kDirEntriesPerBlock; ++slot) {
    fs::DirEntry new_entry = fs::DirEntry::parse(std::span<const std::uint8_t>(
        data.data() + slot * fs::kDirEntrySize, fs::kDirEntrySize));
    fs::DirEntry old_entry = fs::DirEntry::parse(std::span<const std::uint8_t>(
        cache.data() + slot * fs::kDirEntrySize, fs::kDirEntrySize));
    if (new_entry.inode == old_entry.inode &&
        new_entry.name == old_entry.name) {
      continue;
    }
    if (old_entry.inode != 0) {
      // Entry removed or replaced: detach the old child's name if it
      // still points here.
      auto it = inodes_.find(old_entry.inode);
      if (it != inodes_.end() && it->second.parent == dir_ino &&
          it->second.name == old_entry.name) {
        it->second.parent = 0;
        it->second.name.clear();
      }
    }
    if (new_entry.inode != 0) {
      FileInfo& child = inodes_[new_entry.inode];
      child.parent = dir_ino;
      child.name = new_entry.name;
      if (child.type == fs::InodeType::kFree) child.type = new_entry.type;
    }
  }
  cache.assign(data.begin(), data.end());
}

void SemanticsReconstructor::apply_pointer_block_write(
    std::uint32_t block, std::uint32_t owner,
    std::span<const std::uint8_t> data) {
  pointer_block_cache_[block].assign(data.begin(), data.end());
  FileInfo& info = inodes_[owner];
  const bool is_l1 = dindirect_l1_.contains(block);
  for (std::uint32_t i = 0; i < fs::kPointersPerBlock; ++i) {
    std::uint32_t value = fs::pointer_slot(data, i);
    if (value == 0) continue;
    if (is_l1) {
      // Children of a double-indirect L1 are L2 pointer blocks. Any
      // content that arrived before this mapping replays as an L2 write.
      pointer_block_owner_[value] = owner;
      if (auto orphan = orphan_writes_.find(value);
          orphan != orphan_writes_.end()) {
        Bytes content = std::move(orphan->second);
        orphan_writes_.erase(orphan);
        apply_pointer_block_write(value, owner, content);
      }
      continue;
    }
    if (!pointer_block_owner_.contains(value)) {
      block_owner_[value] = owner;
      info.blocks.insert(value);
    }
  }
}

std::size_t SemanticsReconstructor::tracked_files() const {
  std::size_t count = 0;
  for (const auto& [ino, info] : inodes_) {
    if (info.type == fs::InodeType::kFile) ++count;
  }
  return count;
}

}  // namespace storm::core
