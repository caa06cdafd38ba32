// One segment of the append-only journal log: a contiguous region of
// (simulated) NVRAM holding CRC-framed records. The record frame is what
// makes crash recovery work — every record carries its own length and a
// CRC32 over header + payload, so a replay scan can walk an arbitrary
// byte image, accept exactly the records that were fully stored, and
// stop at the first torn or corrupted frame (torn-write detection).
//
// Frame layout (big-endian, matching the repo's wire codecs):
//
//   offset size  field
//   0      4     magic 0x4A524E4C ("JRNL")
//   4      4     stream id (0 is reserved for checkpoint/meta records)
//   8      8     seq — device-wide monotonic record sequence number
//   16     8     watermark — stream-level cumulative byte watermark
//   24     1     flags (kBoundary | kCheckpoint)
//   25     4     payload length
//   29     len   payload bytes
//   29+len 4     CRC32 over bytes [0, 29+len)
//
// A record is valid iff the whole frame fits in the image, the magic
// matches, the length is sane and the trailing CRC verifies. The scan is
// prefix semantics: the first invalid frame ends the segment's valid
// region — append-only logs never have valid data after a torn write.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/buf.hpp"
#include "common/bytes.hpp"

namespace storm::journal {

using StreamId = std::uint32_t;

/// Stream 0 never carries tenant payload: it is the meta stream that
/// checkpoint records are written to.
inline constexpr StreamId kMetaStream = 0;

inline constexpr std::uint32_t kRecordMagic = 0x4A524E4C;  // "JRNL"
inline constexpr std::size_t kRecordHeaderBytes = 29;
inline constexpr std::size_t kRecordTrailerBytes = 4;  // CRC32
inline constexpr std::size_t kRecordOverhead =
    kRecordHeaderBytes + kRecordTrailerBytes;

enum RecordFlags : std::uint8_t {
  kBoundary = 0x01,    // record closes a burst: safe replay point
  kCheckpoint = 0x02,  // payload is a checkpoint cursor table
};

/// One decoded record, viewing (not owning) the segment image it was
/// scanned out of.
struct RecordView {
  StreamId stream = 0;
  std::uint64_t seq = 0;
  std::uint64_t watermark = 0;
  std::uint8_t flags = 0;
  std::span<const std::uint8_t> payload;
  std::size_t offset = 0;  // frame start within the scanned image
  std::size_t frame_bytes = 0;

  bool boundary() const { return flags & kBoundary; }
  bool checkpoint() const { return flags & kCheckpoint; }
};

/// Result of walking an image: the valid record prefix, where it ends,
/// and whether the walk stopped on a torn/corrupt frame (vs the clean
/// end of the written region).
struct ScanResult {
  std::vector<RecordView> records;
  std::size_t valid_bytes = 0;  // image prefix covered by valid frames
  bool torn = false;            // stopped on an invalid frame
};

/// Frame size for a payload of `len` bytes.
constexpr std::size_t frame_size(std::size_t len) {
  return kRecordOverhead + len;
}

/// Walk `image` from offset 0, decoding frames until the first invalid
/// one. Safe on arbitrary (fuzzed, truncated, bit-flipped) bytes: every
/// read is bounds-checked and every accepted record passed its CRC.
ScanResult scan_image(std::span<const std::uint8_t> image);

class Segment {
 public:
  explicit Segment(std::uint32_t id, std::size_t capacity)
      : id_(id), capacity_(capacity) {
    data_.reserve(capacity);
  }

  /// Adopt an existing image (crash-recovery path). The segment's write
  /// offset is wherever the image ends.
  Segment(std::uint32_t id, Bytes image)
      : id_(id), capacity_(image.size()), data_(std::move(image)) {}

  std::uint32_t id() const { return id_; }
  std::size_t size() const { return data_.size(); }
  std::size_t capacity() const { return capacity_; }
  bool fits(std::size_t payload_len) const {
    return data_.size() + frame_size(payload_len) <= capacity_;
  }

  /// Append one framed record. The payload chain is gathered straight
  /// into the segment image (one copy — the NVRAM store) without
  /// flattening it into a temporary first. The caller (the log)
  /// guarantees fits() or accepts growth past capacity for oversize
  /// records.
  void append(StreamId stream, std::uint64_t seq, std::uint64_t watermark,
              std::uint8_t flags, const BufChain& payload);

  /// Drop everything after `valid_bytes` (recovery truncates the torn
  /// tail so new appends continue from the last valid frame).
  void truncate(std::size_t valid_bytes);

  std::span<const std::uint8_t> bytes() const { return data_; }
  ScanResult scan() const { return scan_image(data_); }

 private:
  std::uint32_t id_;
  std::size_t capacity_;
  Bytes data_;
};

}  // namespace storm::journal
