#include "fs/simext.hpp"

#include <algorithm>
#include <cstring>

#include "common/async.hpp"
#include "common/log.hpp"

namespace storm::fs {

// ---------------------------------------------------------------- utilities

Result<std::vector<std::string>> split_path(const std::string& path) {
  if (path.empty() || path[0] != '/') {
    return error(ErrorCode::kInvalidArgument, "path must be absolute: " + path);
  }
  std::vector<std::string> parts;
  std::size_t pos = 1;
  while (pos <= path.size()) {
    std::size_t next = path.find('/', pos);
    if (next == std::string::npos) next = path.size();
    std::string part = path.substr(pos, next - pos);
    if (!part.empty()) {
      if (part.size() > kMaxNameLen) {
        return error(ErrorCode::kInvalidArgument, "name too long: " + part);
      }
      parts.push_back(std::move(part));
    }
    pos = next + 1;
  }
  return parts;
}

namespace {

// dir_scan predicates.
std::function<bool(const DirEntry&)> named(const std::string& name) {
  return [name](const DirEntry& entry) {
    return entry.inode != 0 && entry.name == name;
  };
}
bool unused(const DirEntry& entry) { return entry.inode == 0; }
bool in_use(const DirEntry& entry) { return entry.inode != 0; }

}  // namespace

// ------------------------------------------------------------------- mkfs

SimExt::SimExt(sim::Executor executor, block::BlockDevice& device,
               Options options)
    : sim_(executor), dev_(device), options_(options) {}

Status SimExt::mkfs(block::MemDisk& disk) {
  SuperBlock sb;
  sb.blocks_per_group = 1024;
  sb.inodes_per_group = 512;
  sb.total_blocks =
      static_cast<std::uint32_t>(disk.num_sectors() / kSectorsPerBlock);
  if (sb.total_blocks < 1 + sb.blocks_per_group) {
    return error(ErrorCode::kInvalidArgument,
                 "device too small for SimExt (needs >= " +
                     std::to_string((1 + sb.blocks_per_group) * kBlockSize) +
                     " bytes)");
  }
  sb.num_groups = (sb.total_blocks - 1) / sb.blocks_per_group;

  auto write_block = [&](std::uint32_t block, const Bytes& data) {
    disk.write_sync(static_cast<std::uint64_t>(block) * kSectorsPerBlock,
                    data);
  };

  write_block(0, sb.serialize());
  for (std::uint32_t g = 0; g < sb.num_groups; ++g) {
    Bytes block_bitmap(kBlockSize, 0);
    for (std::uint32_t i = 0; i < sb.group_meta_blocks(); ++i) {
      bitmap_set(block_bitmap, i, true);
    }
    write_block(sb.group_first_block(g), block_bitmap);

    Bytes inode_bitmap(kBlockSize, 0);
    if (g == 0) {
      bitmap_set(inode_bitmap, 0, true);          // inode 0 reserved
      bitmap_set(inode_bitmap, kRootInode, true);  // root directory
    }
    write_block(sb.group_first_block(g) + 1, inode_bitmap);
  }

  // Root directory inode (empty directory, no data blocks yet).
  Inode root;
  root.type = InodeType::kDirectory;
  root.links = 1;
  auto [root_block, root_off] = inode_location(sb, kRootInode);
  Bytes table_block(kBlockSize, 0);
  root.serialize_into(
      std::span<std::uint8_t>(table_block.data() + root_off, kInodeSize));
  write_block(root_block, table_block);
  return Status::ok();
}

// ------------------------------------------------------------------- mount

void SimExt::mount(DoneCb done) {
  dev_.read(0, kSectorsPerBlock, [this, done](Status status, Bytes data) {
    if (!status.is_ok()) {
      done(status);
      return;
    }
    auto parsed = SuperBlock::parse(data);
    if (!parsed.is_ok()) {
      done(parsed.status());
      return;
    }
    sb_ = parsed.value();
    // Prefetch every group's allocation bitmaps so allocation decisions
    // are synchronous afterwards (a mount-time metadata scan, like
    // loading group descriptors in ext*).
    std::vector<std::uint32_t> bitmaps;
    for (std::uint32_t g = 0; g < sb_.num_groups; ++g) {
      bitmaps.push_back(sb_.group_first_block(g));
      bitmaps.push_back(sb_.group_first_block(g) + 1);
    }
    ensure_blocks(std::move(bitmaps), done);
  });
}

// --------------------------------------------------------------- op queue

void SimExt::enqueue(std::function<void(DoneCb)> op, DoneCb user_done) {
  op_queue_.emplace_back(std::move(op), std::move(user_done));
  if (!op_running_) run_next();
}

void SimExt::run_next() {
  if (op_queue_.empty()) {
    op_running_ = false;
    return;
  }
  op_running_ = true;
  auto [op, user_done] = std::move(op_queue_.front());
  op_queue_.pop_front();
  op([this, user_done = std::move(user_done)](Status status) {
    user_done(status);
    // Defer to break recursion chains on long op queues.
    sim_.schedule_in(0, [this] { run_next(); });
  });
}

// --------------------------------------------------------------- cache

void SimExt::ensure_block(std::uint32_t block, DoneCb done) {
  if (cache_.contains(block)) {
    done(Status::ok());
    return;
  }
  dev_.read(static_cast<std::uint64_t>(block) * kSectorsPerBlock,
            kSectorsPerBlock, [this, block, done](Status status, Bytes data) {
              if (!status.is_ok()) {
                done(status);
                return;
              }
              cache_.emplace(block, std::move(data));
              done(Status::ok());
            });
}

void SimExt::ensure_blocks(std::vector<std::uint32_t> blocks, DoneCb done) {
  auto join = Joiner::make(std::move(done));
  for (std::uint32_t block : blocks) {
    ensure_block(block, join->begin());
  }
  join->seal();
}

Bytes& SimExt::cached(std::uint32_t block) {
  auto it = cache_.find(block);
  if (it == cache_.end()) {
    throw std::logic_error("SimExt: block not cached: " +
                           std::to_string(block));
  }
  return it->second;
}

void SimExt::mark_dirty(std::uint32_t block,
                        const std::shared_ptr<Joiner>& join) {
  if (options_.writeback_delay == 0) {
    // Coalesce repeated dirtying of the same metadata block within one
    // event tick (e.g. 64 bitmap updates while mapping one large write)
    // into a single device write, as a real buffer cache would.
    auto [it, fresh] = pending_meta_.try_emplace(block);
    it->second.push_back(join->begin());
    if (fresh) {
      sim_.schedule_in(0, [this, block] {
        auto node = pending_meta_.extract(block);
        if (node.empty()) return;
        Bytes copy = cached(block);
        dev_.write(static_cast<std::uint64_t>(block) * kSectorsPerBlock,
                   std::move(copy),
                   [waiters = std::move(node.mapped())](Status status) {
                     for (const auto& waiter : waiters) waiter(status);
                   });
      });
    }
    return;
  }
  dirty_.insert(block);
  schedule_writeback();
}

void SimExt::schedule_writeback() {
  if (flush_scheduled_) return;
  flush_scheduled_ = true;
  sim_.schedule_in(options_.writeback_delay, [this] {
    flush_scheduled_ = false;
    flush_dirty([](Status) {});
  });
}

void SimExt::flush_dirty(DoneCb done) {
  auto join = Joiner::make(std::move(done));
  for (std::uint32_t block : dirty_) {
    Bytes copy = cached(block);
    dev_.write(static_cast<std::uint64_t>(block) * kSectorsPerBlock,
               std::move(copy), join->begin());
  }
  dirty_.clear();
  for (auto& [lba, data] : pending_data_) {
    dev_.write(lba, std::move(data), join->begin());
  }
  pending_data_.clear();
  join->seal();
}

void SimExt::flush(DoneCb done) {
  enqueue([this](DoneCb finish) { flush_dirty(std::move(finish)); },
          std::move(done));
}

void SimExt::drop_caches() {
  // Keep bitmaps (allocator state) and anything dirty.
  std::set<std::uint32_t> keep = dirty_;
  for (std::uint32_t g = 0; g < sb_.num_groups; ++g) {
    keep.insert(sb_.group_first_block(g));
    keep.insert(sb_.group_first_block(g) + 1);
  }
  std::erase_if(cache_, [&](const auto& kv) { return !keep.contains(kv.first); });
}

// --------------------------------------------------------------- inodes

std::uint32_t SimExt::inode_block(std::uint32_t ino) const {
  return inode_location(sb_, ino).first;
}

Inode SimExt::get_inode(std::uint32_t ino) {
  auto [block, offset] = inode_location(sb_, ino);
  const Bytes& data = cached(block);
  return Inode::parse(
      std::span<const std::uint8_t>(data.data() + offset, kInodeSize));
}

void SimExt::put_inode(std::uint32_t ino, const Inode& inode,
                       const std::shared_ptr<Joiner>& join) {
  auto [block, offset] = inode_location(sb_, ino);
  Bytes& data = cached(block);
  inode.serialize_into(std::span<std::uint8_t>(data.data() + offset,
                                               kInodeSize));
  mark_dirty(block, join);
}

// ------------------------------------------------------------- allocation

Result<std::uint32_t> SimExt::alloc_inode(
    const std::shared_ptr<Joiner>& join) {
  for (std::uint32_t g = 0; g < sb_.num_groups; ++g) {
    std::uint32_t bitmap_block = sb_.group_first_block(g) + 1;
    Bytes& bitmap = cached(bitmap_block);
    auto index = bitmap_find_clear(bitmap, sb_.inodes_per_group);
    if (!index) continue;
    bitmap_set(bitmap, *index, true);
    mark_dirty(bitmap_block, join);
    return g * sb_.inodes_per_group + *index;
  }
  return error(ErrorCode::kOutOfSpace, "no free inodes");
}

Result<std::uint32_t> SimExt::alloc_block(
    const std::shared_ptr<Joiner>& join) {
  for (std::uint32_t g = 0; g < sb_.num_groups; ++g) {
    std::uint32_t bitmap_block = sb_.group_first_block(g);
    Bytes& bitmap = cached(bitmap_block);
    auto index = bitmap_find_clear(bitmap, sb_.blocks_per_group);
    if (!index) continue;
    std::uint32_t block = sb_.group_first_block(g) + *index;
    if (block >= sb_.total_blocks) continue;  // truncated last group
    bitmap_set(bitmap, *index, true);
    mark_dirty(bitmap_block, join);
    return block;
  }
  return error(ErrorCode::kOutOfSpace, "no free blocks");
}

void SimExt::free_inode(std::uint32_t ino,
                        const std::shared_ptr<Joiner>& join) {
  std::uint32_t g = inode_group(sb_, ino);
  std::uint32_t bitmap_block = sb_.group_first_block(g) + 1;
  Bytes& bitmap = cached(bitmap_block);
  bitmap_set(bitmap, ino % sb_.inodes_per_group, false);
  mark_dirty(bitmap_block, join);
}

void SimExt::free_block(std::uint32_t block,
                        const std::shared_ptr<Joiner>& join) {
  std::uint32_t g = (block - 1) / sb_.blocks_per_group;
  std::uint32_t bitmap_block = sb_.group_first_block(g);
  Bytes& bitmap = cached(bitmap_block);
  bitmap_set(bitmap, block - sb_.group_first_block(g), false);
  mark_dirty(bitmap_block, join);
  cache_.erase(block);
  dirty_.erase(block);
}

std::uint32_t SimExt::free_data_blocks() const {
  std::uint32_t free = 0;
  for (std::uint32_t g = 0; g < sb_.num_groups; ++g) {
    auto it = cache_.find(sb_.group_first_block(g));
    if (it == cache_.end()) continue;
    for (std::uint32_t i = 0; i < sb_.blocks_per_group; ++i) {
      if (!bitmap_get(it->second, i)) ++free;
    }
  }
  return free;
}

// --------------------------------------------------------------- resolve

void SimExt::resolve(const std::string& path, ResolveCb done) {
  auto parts = split_path(path);
  if (!parts.is_ok()) {
    done(parts.status(), {});
    return;
  }
  if (parts.value().empty()) {
    done(Status::ok(), Resolved{0, kRootInode, ""});
    return;
  }
  auto shared =
      std::make_shared<std::vector<std::string>>(std::move(parts).take());
  resolve_step(shared, 0, kRootInode, std::move(done));
}

void SimExt::resolve_step(std::shared_ptr<std::vector<std::string>> parts,
                          std::size_t index, std::uint32_t current,
                          ResolveCb done) {
  ensure_block(inode_block(current), [this, parts, index, current,
                                      done](Status status) {
    if (!status.is_ok()) {
      done(status, {});
      return;
    }
    Inode dir = get_inode(current);
    if (dir.type != InodeType::kDirectory) {
      done(error(ErrorCode::kInvalidArgument, "not a directory"), {});
      return;
    }
    dir_scan(dir, named((*parts)[index]),
             [this, parts, index, current, done](Status scan_status,
                                                 std::optional<DirSlot> slot) {
               if (!scan_status.is_ok()) {
                 done(scan_status, {});
                 return;
               }
               const std::string& name = (*parts)[index];
               std::uint32_t ino = slot ? slot->entry.inode : 0;
               bool last = index + 1 == parts->size();
               if (last) {
                 done(Status::ok(), Resolved{current, ino, name});
                 return;
               }
               if (ino == 0) {
                 done(error(ErrorCode::kNotFound, "no such path component: " +
                                                      name),
                      {});
                 return;
               }
               resolve_step(parts, index + 1, ino, done);
             });
  });
}

void SimExt::resolve_inode(const std::string& path, const char* missing,
                           InodeCb done) {
  resolve(path, [this, missing, done = std::move(done)](
                    Status status, Resolved resolved) mutable {
    if (status.is_ok() && resolved.inode == 0) {
      status = error(ErrorCode::kNotFound, missing);
    }
    if (!status.is_ok()) {
      done(status, {}, {});
      return;
    }
    ensure_block(inode_block(resolved.inode),
                 [this, resolved, done = std::move(done)](Status s) {
      done(s, resolved, s.is_ok() ? get_inode(resolved.inode) : Inode{});
    });
  });
}

void SimExt::dir_scan(const Inode& dir,
                      std::function<bool(const DirEntry&)> match,
                      ScanCb done) {
  // Directories use direct blocks only.
  std::vector<std::uint32_t> blocks;
  for (std::uint32_t block : dir.direct) {
    if (block != 0) blocks.push_back(block);
  }
  ensure_blocks(blocks, [this, blocks, match, done](Status status) {
    if (!status.is_ok()) {
      done(status, std::nullopt);
      return;
    }
    for (std::uint32_t block : blocks) {
      const Bytes& data = cached(block);
      for (std::uint32_t offset = 0; offset < kBlockSize;
           offset += kDirEntrySize) {
        DirEntry entry = DirEntry::parse(std::span<const std::uint8_t>(
            data.data() + offset, kDirEntrySize));
        if (match(entry)) {
          done(Status::ok(), DirSlot{block, offset, std::move(entry)});
          return;
        }
      }
    }
    done(Status::ok(), std::nullopt);
  });
}

void SimExt::dir_add_entry(std::uint32_t dir_ino, const DirEntry& entry,
                           DoneCb done) {
  ensure_block(inode_block(dir_ino), [this, dir_ino, entry,
                                      done](Status status) {
    if (!status.is_ok()) {
      done(status);
      return;
    }
    dir_scan(get_inode(dir_ino), unused,
             [this, dir_ino, entry, done](Status s,
                                          std::optional<DirSlot> free_slot) {
      if (!s.is_ok()) {
        done(s);
        return;
      }
      auto join = Joiner::make(done);
      if (free_slot) {
        Bytes& data = cached(free_slot->block);
        entry.serialize_into(std::span<std::uint8_t>(
            data.data() + free_slot->offset, kDirEntrySize));
        mark_dirty(free_slot->block, join);
        join->seal();
        return;
      }
      // All blocks full: grow the directory by one block.
      Inode dir = get_inode(dir_ino);
      for (auto& slot : dir.direct) {
        if (slot != 0) continue;
        auto block = alloc_block(join);
        if (!block.is_ok()) {
          join->fail(block.status());
          return;
        }
        slot = block.value();
        dir.size += kBlockSize;
        // Inode first, then the new directory block: a block-level
        // observer must see the mapping before the mapped content
        // (semantics reconstruction relies on this ordering).
        put_inode(dir_ino, dir, join);
        cache_[slot] = Bytes(kBlockSize, 0);
        Bytes& data = cached(slot);
        entry.serialize_into(
            std::span<std::uint8_t>(data.data(), kDirEntrySize));
        mark_dirty(slot, join);
        join->seal();
        return;
      }
      join->fail(error(ErrorCode::kOutOfSpace, "directory full"));
    });
  });
}

void SimExt::dir_remove_entry(std::uint32_t dir_ino, const std::string& name,
                              DoneCb done) {
  ensure_block(inode_block(dir_ino), [this, dir_ino, name,
                                      done](Status status) {
    if (!status.is_ok()) {
      done(status);
      return;
    }
    dir_scan(get_inode(dir_ino), named(name),
             [this, done](Status s, std::optional<DirSlot> slot) {
               if (!s.is_ok()) {
                 done(s);
                 return;
               }
               if (!slot) {
                 done(error(ErrorCode::kNotFound, "entry not found"));
                 return;
               }
               auto join = Joiner::make(done);
               Bytes& data = cached(slot->block);
               std::memset(data.data() + slot->offset, 0, kDirEntrySize);
               mark_dirty(slot->block, join);
               join->seal();
             });
  });
}

// ---------------------------------------------------------- block mapping

void SimExt::map_block(Inode& inode, std::uint32_t index, bool allocate,
                       std::shared_ptr<Joiner> join, MapCb done) {
  // The pointer for `index` sits in the inode (`root`), `depth` pointer
  // table levels above the data block.
  std::uint32_t* root = nullptr;
  std::uint32_t depth = 0;
  std::uint32_t rel = index;
  if (rel < kDirectBlocks) {
    root = &inode.direct[rel];
  } else if ((rel -= kDirectBlocks) < kPointersPerBlock) {
    root = &inode.indirect;
    depth = 1;
  } else if ((rel -= kPointersPerBlock) <
             kPointersPerBlock * kPointersPerBlock) {
    root = &inode.dindirect;
    depth = 2;
  } else {
    done(error(ErrorCode::kInvalidArgument, "file too large"), 0);
    return;
  }
  if (*root == 0 && allocate) {
    Status s = alloc_pointer(*root, depth > 0, join);
    if (!s.is_ok()) {
      done(s, 0);
      return;
    }
  }
  if (depth == 0 || *root == 0) {
    done(Status::ok(), *root);
    return;
  }
  walk_tables(*root, rel, depth, allocate, std::move(join), std::move(done));
}

void SimExt::walk_tables(std::uint32_t table, std::uint32_t rel,
                         std::uint32_t depth, bool allocate,
                         std::shared_ptr<Joiner> join, MapCb done) {
  ensure_block(table, [this, table, rel, depth, allocate, join,
                       done](Status status) {
    if (!status.is_ok()) {
      done(status, 0);
      return;
    }
    std::uint32_t slot =
        depth == 2 ? rel / kPointersPerBlock : rel % kPointersPerBlock;
    Bytes& data = cached(table);
    std::uint32_t child = pointer_slot(data, slot);
    if (child == 0 && allocate) {
      Status s = alloc_pointer(child, depth > 1, join);
      if (!s.is_ok()) {
        done(s, 0);
        return;
      }
      set_pointer_slot(data, slot, child);
      mark_dirty(table, join);
    }
    if (depth == 1 || child == 0) {
      done(Status::ok(), child);
      return;
    }
    walk_tables(child, rel, depth - 1, allocate, join, done);
  });
}

Status SimExt::alloc_pointer(std::uint32_t& slot, bool table,
                             const std::shared_ptr<Joiner>& join) {
  auto block = alloc_block(join);
  if (!block.is_ok()) return block.status();
  slot = block.value();
  if (table) {
    cache_[slot] = Bytes(kBlockSize, 0);
    mark_dirty(slot, join);
  }
  return Status::ok();
}

void SimExt::free_file_blocks(const Inode& inode,
                              std::shared_ptr<Joiner> join, DoneCb done) {
  // The direct blocks, then the indirect tree, then the double-indirect.
  std::vector<std::pair<std::uint32_t, std::uint32_t>> trees;
  for (std::uint32_t block : inode.direct) {
    if (block != 0) trees.emplace_back(block, 0);
  }
  if (inode.indirect != 0) trees.emplace_back(inode.indirect, 1);
  if (inode.dindirect != 0) trees.emplace_back(inode.dindirect, 2);
  run_steps(trees.size(), [this, trees, join, done](std::size_t i, Next next) {
    free_tree(trees[i].first, trees[i].second, join,
              next_or_fail(std::move(next), done));
  }, [done] { done(Status::ok()); });
}

void SimExt::free_tree(std::uint32_t block, std::uint32_t depth,
                       std::shared_ptr<Joiner> join, DoneCb done) {
  if (depth == 0) {
    free_block(block, join);
    done(Status::ok());
    return;
  }
  ensure_block(block, [this, block, depth, join, done](Status status) {
    if (!status.is_ok()) {
      done(status);
      return;
    }
    auto children = std::make_shared<std::vector<std::uint32_t>>();
    const Bytes& table = cached(block);
    for (std::uint32_t i = 0; i < kPointersPerBlock; ++i) {
      if (std::uint32_t child = pointer_slot(table, i)) {
        children->push_back(child);
      }
    }
    run_steps(children->size(),
              [this, children, depth, join, done](std::size_t i, Next next) {
      free_tree((*children)[i], depth - 1, join,
                next_or_fail(std::move(next), done));
    }, [this, block, join, done] {
      free_block(block, join);
      done(Status::ok());
    });
  });
}

// --------------------------------------------------------------- op bodies

void SimExt::create(const std::string& path, DoneCb done) {
  enqueue([this, path](DoneCb finish) {
    do_create(path, InodeType::kFile, std::move(finish));
  }, std::move(done));
}

void SimExt::mkdir(const std::string& path, DoneCb done) {
  enqueue([this, path](DoneCb finish) {
    do_create(path, InodeType::kDirectory, std::move(finish));
  }, std::move(done));
}

void SimExt::do_create(const std::string& path, InodeType type, DoneCb done) {
  resolve(path, [this, type, done](Status status, Resolved resolved) {
    if (!status.is_ok()) {
      done(status);
      return;
    }
    if (resolved.inode != 0 || resolved.parent == 0) {
      done(error(ErrorCode::kAlreadyExists, "path exists"));
      return;
    }
    auto join = Joiner::make(done);
    auto ino = alloc_inode(join);
    if (!ino.is_ok()) {
      join->fail(ino.status());
      return;
    }
    std::uint32_t new_ino = ino.value();
    ensure_block(inode_block(new_ino), [this, new_ino, type, resolved,
                                        join](Status s) {
      if (!s.is_ok()) {
        join->fail(s);
        return;
      }
      Inode inode;
      inode.type = type;
      inode.links = 1;
      put_inode(new_ino, inode, join);
      DirEntry entry;
      entry.inode = new_ino;
      entry.type = type;
      entry.name = resolved.leaf;
      dir_add_entry(resolved.parent, entry, join->begin());
      join->seal();
    });
  });
}

void SimExt::write_file(const std::string& path, std::uint64_t offset,
                        Bytes data, DoneCb done) {
  enqueue([this, path, offset, data = std::move(data)](DoneCb finish) mutable {
    do_write(path, offset, std::move(data), std::move(finish));
  }, std::move(done));
}

void SimExt::do_write(const std::string& path, std::uint64_t offset,
                      Bytes data, DoneCb done) {
  resolve_inode(path, "no such file",
                [this, offset, data = std::move(data), done](
                    Status status, Resolved resolved, Inode file) mutable {
    if (status.is_ok() && file.type != InodeType::kFile) {
      status = error(ErrorCode::kInvalidArgument, "not a regular file");
    }
    if (!status.is_ok()) {
      done(status);
      return;
    }
    std::uint32_t ino = resolved.inode;
    auto inode = std::make_shared<Inode>(file);
    auto join = Joiner::make(done);
    auto payload = std::make_shared<Bytes>(std::move(data));
    std::uint64_t end = offset + payload->size();
    std::uint32_t first_block = static_cast<std::uint32_t>(offset / kBlockSize);
    std::size_t blocks =
        payload->empty() ? 0 : (end - 1) / kBlockSize - first_block + 1;

    // Data bytes are staged during the mapping phase and issued only
    // after the inode (and any pointer blocks) have been written: a
    // block-level observer can then attribute every data write to its
    // file — the property StorM's semantics reconstruction depends on.
    auto staged = std::make_shared<
        std::vector<std::pair<std::uint64_t, Bytes>>>();
    Step step = [this, inode, offset, payload, end, first_block, join,
                 staged](std::size_t i, Next next) {
      std::uint32_t index = first_block + static_cast<std::uint32_t>(i);
      std::uint64_t block_start =
          static_cast<std::uint64_t>(index) * kBlockSize;
      std::uint64_t copy_from = std::max<std::uint64_t>(offset, block_start);
      std::uint64_t copy_to = std::min<std::uint64_t>(end, block_start + kBlockSize);
      bool full_block = (copy_from == block_start) &&
                        (copy_to == block_start + kBlockSize);
      bool existed_before =
          block_start < inode->size;  // may contain old data

      map_block(*inode, index, /*allocate=*/true, join,
                [this, payload, offset, block_start, copy_from, copy_to,
                 full_block, existed_before, join, staged,
                 next](Status ms, std::uint32_t block) {
        if (!ms.is_ok()) {
          join->fail(ms);
          return;
        }
        std::uint64_t lba =
            static_cast<std::uint64_t>(block) * kSectorsPerBlock;
        // Lays this block's slice of the payload over `bytes`.
        auto stage = [payload, offset, block_start, copy_from, copy_to,
                      lba, staged, next](Bytes bytes) {
          std::memcpy(bytes.data() + (copy_from - block_start),
                      payload->data() + (copy_from - offset),
                      copy_to - copy_from);
          staged->emplace_back(lba, std::move(bytes));
          next();
        };
        if (full_block || !existed_before) {
          stage(Bytes(kBlockSize, 0));
          return;
        }
        // Read-modify-write of an existing partial block.
        dev_.read(lba, kSectorsPerBlock,
                  [stage, join](Status rs, Bytes old) {
          if (!rs.is_ok()) {
            join->fail(rs);
            return;
          }
          stage(std::move(old));
        });
      });
    };
    run_steps(blocks, std::move(step), [this, ino, inode, end, join,
                                        staged] {
      inode->size = std::max(inode->size, end);
      put_inode(ino, *inode, join);
      // Merge contiguous staged writes into single device I/Os, as a
      // kernel block layer would merge bios.
      std::vector<std::pair<std::uint64_t, Bytes>> merged;
      for (auto& [lba, bytes] : *staged) {
        if (!merged.empty() &&
            merged.back().first + merged.back().second.size() / 512 ==
                lba) {
          merged.back().second.insert(merged.back().second.end(),
                                      bytes.begin(), bytes.end());
        } else {
          merged.emplace_back(lba, std::move(bytes));
        }
      }
      // Issue data after the same-tick metadata flush (see
      // mark_dirty): the post below runs after the pending-meta posts
      // already scheduled by put_inode/alloc, keeping the
      // metadata-before-data device order reconstruction relies on.
      for (auto& [lba, bytes] : merged) {
        if (options_.writeback_delay == 0) {
          sim_.schedule_in(0, [this, lba = lba, bytes = std::move(bytes),
                     cb = join->begin()]() mutable {
            dev_.write(lba, std::move(bytes), std::move(cb));
          });
        } else {
          pending_data_.emplace_back(lba, std::move(bytes));
          schedule_writeback();
        }
      }
      join->seal();
    });
  });
}

void SimExt::read_file(const std::string& path, std::uint64_t offset,
                       std::uint32_t length, ReadCb done) {
  enqueue([this, path, offset, length, done](DoneCb finish) {
    do_read(path, offset, length,
            [done, finish](Status status, Bytes data) {
              done(status, std::move(data));
              finish(status);
            });
  }, [](Status) {});
}

void SimExt::do_read(const std::string& path, std::uint64_t offset,
                     std::uint32_t length, ReadCb done) {
  resolve_inode(path, "no such file",
                [this, offset, length, done](Status status, Resolved,
                                             Inode file) {
    if (status.is_ok() && file.type != InodeType::kFile) {
      status = error(ErrorCode::kInvalidArgument, "not a regular file");
    }
    if (!status.is_ok() || offset >= file.size || length == 0) {
      done(status, {});
      return;
    }
    auto inode = std::make_shared<Inode>(file);
    std::uint64_t end =
        std::min<std::uint64_t>(inode->size, offset + length);
    auto result = std::make_shared<Bytes>();
    result->reserve(end - offset);
    std::uint32_t first_block = static_cast<std::uint32_t>(offset / kBlockSize);
    std::size_t count = (end - 1) / kBlockSize - first_block + 1;

    // Phase 1: map every affected file block (metadata only — the
    // pointer blocks are cached after the first touch).
    auto blocks = std::make_shared<std::vector<std::uint32_t>>();
    Step map_step = [this, inode, first_block, blocks, done](std::size_t i,
                                                             Next next) {
      map_block(*inode, first_block + static_cast<std::uint32_t>(i),
                /*allocate=*/false, nullptr,
                [blocks, done, next](Status ms, std::uint32_t block) {
        if (!ms.is_ok()) {
          done(ms, {});
          return;
        }
        blocks->push_back(block);
        next();
      });
    };
    // Phase 2: merge contiguous runs into large device reads, as the
    // kernel block layer merges bios.
    auto read_phase = [this, offset, end, first_block, result, blocks,
                       done] {
      struct Run {
        std::uint32_t first_index;
        std::uint32_t first_block;  // 0 = hole
        std::uint32_t count;
      };
      auto runs = std::make_shared<std::vector<Run>>();
      for (std::uint32_t i = 0; i < blocks->size(); ++i) {
        std::uint32_t block = (*blocks)[i];
        bool contiguous =
            !runs->empty() &&
            ((block == 0 && runs->back().first_block == 0) ||
             (block != 0 && runs->back().first_block != 0 &&
              runs->back().first_block + runs->back().count == block));
        if (contiguous) {
          ++runs->back().count;
        } else {
          runs->push_back(Run{first_block + i, block, 1});
        }
      }
      Step run_step = [this, offset, end, result, runs, done](
                          std::size_t i, Next next) {
        const Run& run = (*runs)[i];
        std::uint64_t run_start =
            static_cast<std::uint64_t>(run.first_index) * kBlockSize;
        std::uint64_t from = std::max<std::uint64_t>(offset, run_start);
        std::uint64_t to = std::min<std::uint64_t>(
            end, run_start + static_cast<std::uint64_t>(run.count) *
                                 kBlockSize);
        if (run.first_block == 0) {  // hole
          result->insert(result->end(), to - from, 0);
          next();
          return;
        }
        std::uint64_t lba =
            static_cast<std::uint64_t>(run.first_block) * kSectorsPerBlock;
        dev_.read(lba, run.count * kSectorsPerBlock,
                  [from, to, run_start, result, done,
                   next](Status rs, Bytes data) {
          if (!rs.is_ok()) {
            done(rs, {});
            return;
          }
          result->insert(
              result->end(),
              data.begin() + static_cast<std::ptrdiff_t>(from - run_start),
              data.begin() + static_cast<std::ptrdiff_t>(to - run_start));
          next();
        });
      };
      run_steps(runs->size(), std::move(run_step),
                [result, done] { done(Status::ok(), std::move(*result)); });
    };
    run_steps(count, std::move(map_step), std::move(read_phase));
  });
}

void SimExt::unlink(const std::string& path, DoneCb done) {
  enqueue([this, path](DoneCb finish) {
    do_unlink(path, std::move(finish));
  }, std::move(done));
}

void SimExt::do_unlink(const std::string& path, DoneCb done) {
  resolve(path, [this, done](Status status, Resolved resolved) {
    if (!status.is_ok()) {
      done(status);
      return;
    }
    if (resolved.inode == 0 || resolved.parent == 0) {
      done(error(ErrorCode::kNotFound, "no such path"));
      return;
    }
    std::uint32_t ino = resolved.inode;
    ensure_block(inode_block(ino), [this, ino, resolved, done](Status s) {
      if (!s.is_ok()) {
        done(s);
        return;
      }
      Inode inode = get_inode(ino);
      auto remove = [this, ino, resolved, inode, done] {
        auto freed = Joiner::make([this, ino, resolved, done](Status fs) {
          if (!fs.is_ok()) {
            done(fs);
            return;
          }
          auto join = Joiner::make(done);
          dir_remove_entry(resolved.parent, resolved.leaf, join->begin());
          free_inode(ino, join);
          Inode cleared;  // type kFree, all zero
          put_inode(ino, cleared, join);
          join->seal();
        });
        free_file_blocks(inode, freed, freed->begin());
        freed->seal();
      };
      if (inode.type != InodeType::kDirectory) {
        remove();
        return;
      }
      // Directories must be empty.
      dir_scan(inode, in_use,
               [remove, done](Status es, std::optional<DirSlot> used) {
        if (!es.is_ok()) {
          done(es);
          return;
        }
        if (used) {
          done(error(ErrorCode::kFailedPrecondition, "directory not empty"));
          return;
        }
        remove();
      });
    });
  });
}

void SimExt::rename(const std::string& from, const std::string& to,
                    DoneCb done) {
  enqueue([this, from, to](DoneCb finish) {
    do_rename(from, to, std::move(finish));
  }, std::move(done));
}

void SimExt::do_rename(const std::string& from, const std::string& to,
                       DoneCb done) {
  resolve(from, [this, to, done](Status status, Resolved src) {
    if (!status.is_ok()) {
      done(status);
      return;
    }
    if (src.inode == 0 || src.parent == 0) {
      done(error(ErrorCode::kNotFound, "rename source missing"));
      return;
    }
    resolve(to, [this, src, done](Status s2, Resolved dst) {
      if (!s2.is_ok()) {
        done(s2);
        return;
      }
      if (dst.inode != 0 || dst.parent == 0) {
        done(error(ErrorCode::kAlreadyExists, "rename target exists"));
        return;
      }
      ensure_block(inode_block(src.inode), [this, src, dst,
                                            done](Status s3) {
        if (!s3.is_ok()) {
          done(s3);
          return;
        }
        Inode inode = get_inode(src.inode);
        dir_remove_entry(src.parent, src.leaf,
                         [this, src, dst, inode, done](Status s4) {
          if (!s4.is_ok()) {
            done(s4);
            return;
          }
          DirEntry entry;
          entry.inode = src.inode;
          entry.type = inode.type;
          entry.name = dst.leaf;
          dir_add_entry(dst.parent, entry, done);
        });
      });
    });
  });
}

void SimExt::readdir(const std::string& path, ListCb done) {
  enqueue([this, path, done](DoneCb finish) {
    auto fail = [done, finish](Status status) {
      done(status, {});
      finish(status);
    };
    resolve_inode(path, "no such directory", [this, done, finish, fail](
                                                 Status status, Resolved,
                                                 Inode dir) {
      if (status.is_ok() && dir.type != InodeType::kDirectory) {
        status = error(ErrorCode::kInvalidArgument, "not a directory");
      }
      if (!status.is_ok()) {
        fail(status);
        return;
      }
      auto entries = std::make_shared<std::vector<DirEntry>>();
      auto collect = [entries](const DirEntry& entry) {
        if (in_use(entry)) entries->push_back(entry);
        return false;
      };
      dir_scan(dir, collect, [entries, done, finish,
                              fail](Status es, std::optional<DirSlot>) {
        if (!es.is_ok()) {
          fail(es);
          return;
        }
        done(Status::ok(), std::move(*entries));
        finish(Status::ok());
      });
    });
  }, [](Status) {});
}

void SimExt::stat(const std::string& path, StatCb done) {
  enqueue([this, path, done](DoneCb finish) {
    resolve_inode(path, "no such path", [done, finish](Status status,
                                                       Resolved resolved,
                                                       Inode inode) {
      StatInfo info;
      if (status.is_ok()) {
        info.type = inode.type;
        info.size = inode.size;
        info.inode = resolved.inode;
      }
      done(status, info);
      finish(status);
    });
  }, [](Status) {});
}

}  // namespace storm::fs
