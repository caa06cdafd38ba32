// SimExt: an ext2-style filesystem over a BlockDevice.
//
// Public operations are asynchronous (they generate real block I/O over
// the possibly-spliced storage path) and internally serialized, like a
// VFS holding a per-mount lock. Metadata blocks (bitmaps, inode tables,
// directory blocks) are cached on first touch; file data is never cached,
// so every file read/write reaches the device — which is what storage
// middle-boxes observe.
//
// An optional writeback delay models the guest page cache: metadata and
// data writes are deferred, so the block-level write sequence trails the
// file-op sequence (the effect the paper points out under Table I).
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "block/block_device.hpp"
#include "fs/layout.hpp"
#include "sim/simulator.hpp"

namespace storm {
struct Joiner;
}  // namespace storm

namespace storm::fs {

struct StatInfo {
  InodeType type = InodeType::kFree;
  std::uint64_t size = 0;
  std::uint32_t inode = 0;
};

struct SimExtOptions {
  /// 0 = write-through; otherwise writes are buffered and flushed after
  /// this delay (or at flush()).
  sim::Duration writeback_delay = 0;
};

class SimExt {
 public:
  using Options = SimExtOptions;

  using DoneCb = std::function<void(Status)>;
  using ReadCb = std::function<void(Status, Bytes)>;
  using ListCb = std::function<void(Status, std::vector<DirEntry>)>;
  using StatCb = std::function<void(Status, StatInfo)>;

  SimExt(sim::Executor executor, block::BlockDevice& device,
         Options options = {});

  SimExt(const SimExt&) = delete;
  SimExt& operator=(const SimExt&) = delete;

  /// Format a device (synchronous, direct store access — formatting
  /// happens before the volume is attached to any data path).
  static Status mkfs(block::MemDisk& disk);

  /// Read the superblock and prefetch allocation bitmaps.
  void mount(DoneCb done);
  const SuperBlock& superblock() const { return sb_; }

  // All paths are absolute, '/'-separated.
  void create(const std::string& path, DoneCb done);
  void mkdir(const std::string& path, DoneCb done);
  void write_file(const std::string& path, std::uint64_t offset, Bytes data,
                  DoneCb done);
  void read_file(const std::string& path, std::uint64_t offset,
                 std::uint32_t length, ReadCb done);
  void unlink(const std::string& path, DoneCb done);
  void rename(const std::string& from, const std::string& to, DoneCb done);
  void readdir(const std::string& path, ListCb done);
  void stat(const std::string& path, StatCb done);

  /// Write out all buffered dirty blocks; completes when they are on the
  /// device.
  void flush(DoneCb done);

  /// Drop clean cached metadata (cold-cache behavior for experiments).
  void drop_caches();

  std::uint32_t free_data_blocks() const;

 private:
  // --- op queue (VFS lock) ---
  void enqueue(std::function<void(DoneCb)> op, DoneCb user_done);
  void run_next();

  // --- metadata cache ---
  void ensure_block(std::uint32_t block, DoneCb done);
  void ensure_blocks(std::vector<std::uint32_t> blocks, DoneCb done);
  Bytes& cached(std::uint32_t block);
  void mark_dirty(std::uint32_t block, const std::shared_ptr<Joiner>& join);
  /// Writeback mode: flush everything buffered `writeback_delay` from now.
  void schedule_writeback();
  void flush_dirty(DoneCb done);

  // --- inode helpers (blocks must be ensured first) ---
  Inode get_inode(std::uint32_t ino);
  void put_inode(std::uint32_t ino, const Inode& inode,
                 const std::shared_ptr<Joiner>& join);
  std::uint32_t inode_block(std::uint32_t ino) const;

  // --- allocation (bitmaps are always cached after mount) ---
  Result<std::uint32_t> alloc_inode(const std::shared_ptr<Joiner>& join);
  Result<std::uint32_t> alloc_block(const std::shared_ptr<Joiner>& join);
  void free_inode(std::uint32_t ino, const std::shared_ptr<Joiner>& join);
  void free_block(std::uint32_t block, const std::shared_ptr<Joiner>& join);

  // --- path resolution ---
  struct Resolved {
    std::uint32_t parent = 0;       // parent directory inode
    std::uint32_t inode = 0;        // 0 when the leaf does not exist
    std::string leaf;
  };
  using ResolveCb = std::function<void(Status, Resolved)>;
  void resolve(const std::string& path, ResolveCb done);
  void resolve_step(std::shared_ptr<std::vector<std::string>> parts,
                    std::size_t index, std::uint32_t current, ResolveCb done);
  using InodeCb = std::function<void(Status, Resolved, Inode)>;
  /// Resolve `path` to an existing inode and load it; a missing leaf is
  /// kNotFound with message `missing`.
  void resolve_inode(const std::string& path, const char* missing,
                     InodeCb done);
  /// A directory-entry slot: its block, byte offset there, and content.
  struct DirSlot {
    std::uint32_t block = 0;
    std::uint32_t offset = 0;
    DirEntry entry;
  };
  using ScanCb = std::function<void(Status, std::optional<DirSlot>)>;
  /// Load `dir`'s blocks and report the first slot whose entry satisfies
  /// `match` (nullopt when none does).
  void dir_scan(const Inode& dir, std::function<bool(const DirEntry&)> match,
                ScanCb done);
  void dir_add_entry(std::uint32_t dir_ino, const DirEntry& entry,
                     DoneCb done);
  void dir_remove_entry(std::uint32_t dir_ino, const std::string& name,
                        DoneCb done);

  // --- file block mapping ---
  using MapCb = std::function<void(Status, std::uint32_t)>;
  /// Absolute block number for file-block `index` (0 when unmapped and
  /// !allocate). With allocate, extends the mapping, updating `inode`
  /// in place (caller persists it).
  void map_block(Inode& inode, std::uint32_t index, bool allocate,
                 std::shared_ptr<Joiner> join, MapCb done);
  /// The part of map_block below pointer table `table`, which is `depth`
  /// table levels above the data blocks; `rel` indexes the blocks the
  /// table's tree maps.
  void walk_tables(std::uint32_t table, std::uint32_t rel,
                   std::uint32_t depth, bool allocate,
                   std::shared_ptr<Joiner> join, MapCb done);
  /// Point the empty `slot` at a fresh block; a fresh pointer table
  /// starts zeroed and dirty.
  Status alloc_pointer(std::uint32_t& slot, bool table,
                       const std::shared_ptr<Joiner>& join);
  void free_file_blocks(const Inode& inode, std::shared_ptr<Joiner> join,
                        DoneCb done);
  /// Free `block` after everything below it; `depth` counts the pointer
  /// table levels from it down to the data blocks (0 = a data block).
  void free_tree(std::uint32_t block, std::uint32_t depth,
                 std::shared_ptr<Joiner> join, DoneCb done);

  // --- op bodies ---
  void do_create(const std::string& path, InodeType type, DoneCb done);
  void do_write(const std::string& path, std::uint64_t offset, Bytes data,
                DoneCb done);
  void do_read(const std::string& path, std::uint64_t offset,
               std::uint32_t length, ReadCb done);
  void do_unlink(const std::string& path, DoneCb done);
  void do_rename(const std::string& from, const std::string& to, DoneCb done);

  sim::Executor sim_;
  block::BlockDevice& dev_;
  Options options_;
  SuperBlock sb_;

  std::map<std::uint32_t, Bytes> cache_;
  std::set<std::uint32_t> dirty_;
  /// Write-through metadata writes coalesced within one event tick:
  /// block -> completion callbacks of the operations awaiting it.
  std::map<std::uint32_t, std::vector<std::function<void(Status)>>>
      pending_meta_;
  /// Deferred file-data writes (writeback mode only).
  std::vector<std::pair<std::uint64_t, Bytes>> pending_data_;
  bool flush_scheduled_ = false;

  std::deque<std::pair<std::function<void(DoneCb)>, DoneCb>> op_queue_;
  bool op_running_ = false;
};

/// Split an absolute path into components; rejects empty names and
/// non-absolute paths.
Result<std::vector<std::string>> split_path(const std::string& path);

}  // namespace storm::fs
