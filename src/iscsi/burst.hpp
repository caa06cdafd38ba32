// Burst layout: how one SCSI command's bytes map onto Data-In/Data-Out
// PDUs, and the offset-checked reassembly of such a burst. Every endpoint
// (initiator, target, and services that answer or collect I/O themselves)
// splits and reassembles through these, so the segmenting rule lives in
// one place next to the PDU codec.
#pragma once

#include <cstdint>
#include <vector>

#include "common/buf.hpp"
#include "iscsi/pdu.hpp"

namespace storm::iscsi {

/// A read's answer: `data` as Data-In PDUs of at most kMaxDataSegment
/// bytes (zero-copy slices, the last one final), then a GOOD response.
std::vector<Pdu> split_read_reply(std::uint32_t tag, const Buf& data);

/// A write of `data` at sector `lba`: the command carries the first
/// segment as immediate data, Data-Out PDUs carry the rest. Every segment
/// is a zero-copy slice of `data`.
std::vector<Pdu> split_write(std::uint32_t tag, std::uint64_t lba,
                             const Buf& data);

/// Reassembles one burst's payload from its PDUs. Chunks are held by
/// reference; the owner either gathers them (take()) or flattens them
/// once (flatten()) when the burst completes.
class BurstAssembler {
 public:
  explicit BurstAssembler(std::uint32_t expected = 0)
      : expected_(expected) {}

  enum class Step { kMore, kComplete, kBroken };

  /// Take `data` as the burst's bytes from `offset` on; `final` marks the
  /// burst's last PDU. kBroken when `offset` is not where the burst so
  /// far ends (nothing is taken), when the data runs past the expected
  /// length (nothing is taken), or when the final PDU leaves it short.
  Step add(std::uint32_t offset, Buf data, bool final);

  bool complete() const { return size_ == expected_; }
  /// Drop what was collected (a re-issued command starts over).
  void clear() { *this = BurstAssembler(expected_); }

  BufChain take() { return std::move(chunks_); }
  /// One counted copy of the whole payload.
  Bytes flatten() const { return chain_to_bytes(chunks_); }

 private:
  BufChain chunks_;
  std::size_t size_ = 0;
  std::uint32_t expected_ = 0;
};

}  // namespace storm::iscsi
