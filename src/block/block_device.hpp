// Block device abstraction. All I/O is asynchronous (completion
// callbacks), matching the event-driven simulation; MemDisk completes
// inline, SimDisk after a modeled service time.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/buf.hpp"
#include "common/bytes.hpp"
#include "common/status.hpp"

namespace storm::block {

inline constexpr std::uint32_t kSectorSize = 512;

class BlockDevice {
 public:
  using ReadCallback = std::function<void(Status, Bytes)>;
  using WriteCallback = std::function<void(Status)>;

  virtual ~BlockDevice() = default;

  /// Read `count` sectors starting at `lba`.
  virtual void read(std::uint64_t lba, std::uint32_t count,
                    ReadCallback done) = 0;

  /// Write `data` (must be sector-aligned in size) starting at `lba`.
  virtual void write(std::uint64_t lba, Bytes data, WriteCallback done) = 0;

  virtual std::uint64_t num_sectors() const = 0;

 protected:
  /// Validate an I/O range; shared by implementations.
  Status check_range(std::uint64_t lba, std::uint64_t sectors) const;
};

/// Instant in-memory disk; also the backing store for SimDisk. The
/// store is sparse: a flat table of kPageSize pages, each allocated (and
/// zeroed) on its first write, so a volume costs memory only for what has
/// been written to it. Unwritten ranges read as zeros.
class MemDisk : public BlockDevice {
 public:
  explicit MemDisk(std::uint64_t sectors)
      : sectors_(sectors),
        pages_((sectors + kSectorsPerPage - 1) / kSectorsPerPage) {}

  void read(std::uint64_t lba, std::uint32_t count, ReadCallback done) override;
  void write(std::uint64_t lba, Bytes data, WriteCallback done) override;
  std::uint64_t num_sectors() const override { return sectors_; }

  /// Synchronous accessors for tests, mkfs and the semantic engine's
  /// initial filesystem scan (dumpfs-style).
  Bytes read_sync(std::uint64_t lba, std::uint32_t count) const;
  void write_sync(std::uint64_t lba, std::span<const std::uint8_t> data);
  /// Gather form: chunks land back-to-back starting at `lba`.
  void write_sync_chain(std::uint64_t lba, const BufChain& chunks);

 private:
  static constexpr std::size_t kPageSize = 4096;
  static constexpr std::uint64_t kSectorsPerPage = kPageSize / kSectorSize;

  using Page = std::array<std::uint8_t, kPageSize>;

  /// Copy `data` into the store at byte `offset`, allocating pages as
  /// they are first touched. The caller has checked the range.
  void copy_in(std::uint64_t offset, std::span<const std::uint8_t> data);

  std::uint64_t sectors_;
  std::vector<std::unique_ptr<Page>> pages_;  // null: never written
};

}  // namespace storm::block
