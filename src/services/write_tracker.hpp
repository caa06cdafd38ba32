// Shared helper: the services' one task-tag table. It reassembles iSCSI
// write bursts (command + Data-Out sequence), remembers where reads
// start, and answers at which LBA a PDU's payload lands, so services
// can work at whole-I/O granularity. Used by the monitor, ciphers and
// replication.
//
// Entries are keyed by flow and task tag: a pooled (`replicas`) box
// serves several initiators at once, and each counts its tags from 1.
// The flow is the per-session ServiceContext the relay hands on_pdu.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <utility>

#include "block/block_device.hpp"
#include "common/bytes.hpp"
#include "iscsi/burst.hpp"

namespace storm::core {
class ServiceContext;
}  // namespace storm::core

namespace storm::services {

/// Tracks per-(flow, task tag) state of in-flight commands.
class IoTracker {
 public:
  using Flow = const core::ServiceContext*;

  struct WriteBurst {
    std::uint64_t lba = 0;
    Bytes data;
  };

  /// Feed a PDU heading to the target. Returns a completed write burst,
  /// its payload flattened once, when this PDU finishes one. A burst with
  /// a gap, an over-length segment or a final flag before its last byte
  /// is dropped: the target fails that write too.
  std::optional<WriteBurst> on_to_target(Flow flow, const iscsi::Pdu& pdu) {
    std::map<Key, Write>::iterator it;
    std::uint32_t offset = 0;
    if (pdu.opcode == iscsi::Opcode::kScsiCommand && !pdu.is_read()) {
      it = writes_.insert_or_assign(
          Key{flow, pdu.task_tag},
          Write{pdu.lba, iscsi::BurstAssembler(pdu.transfer_length)}).first;
    } else if (pdu.opcode == iscsi::Opcode::kDataOut) {
      it = writes_.find(Key{flow, pdu.task_tag});
      if (it == writes_.end()) return std::nullopt;
      offset = pdu.data_offset;
    } else {
      return std::nullopt;
    }
    const iscsi::BurstAssembler::Step step =
        it->second.data.add(offset, pdu.data, pdu.is_final());
    if (step == iscsi::BurstAssembler::Step::kMore) return std::nullopt;
    std::optional<WriteBurst> done;
    if (step == iscsi::BurstAssembler::Step::kComplete) {
      done = WriteBurst{it->second.lba, it->second.data.flatten()};
    }
    writes_.erase(it);
    return done;
  }

  /// The LBA at which `pdu`'s payload lands: where immediate data or a
  /// Data-Out is written, or where a Data-In was read from. nullopt for
  /// PDUs without payload and for unknown tags. Heading to the target it
  /// learns where each command starts, but keeps no payload.
  std::optional<std::uint64_t> payload_lba(Flow flow, const iscsi::Pdu& pdu) {
    const Key key{flow, pdu.task_tag};
    const std::uint64_t sectors_in = pdu.data_offset / block::kSectorSize;
    switch (pdu.opcode) {
      case iscsi::Opcode::kScsiCommand:
        if (pdu.is_read()) {
          read_lbas_[key] = pdu.lba;
          return std::nullopt;
        }
        if (!pdu.is_final()) {
          writes_[key] = Write{pdu.lba, iscsi::BurstAssembler()};
        }
        return pdu.lba;
      case iscsi::Opcode::kDataOut: {
        auto it = writes_.find(key);
        if (it == writes_.end()) return std::nullopt;
        const std::uint64_t lba = it->second.lba + sectors_in;
        if (pdu.is_final()) writes_.erase(it);
        return lba;
      }
      case iscsi::Opcode::kDataIn: {
        auto it = read_lbas_.find(key);
        if (it == read_lbas_.end()) return std::nullopt;
        return it->second + sectors_in;
      }
      default:
        return std::nullopt;
    }
  }

  /// Call on SCSI responses to release what payload_lba learnt of a read.
  void on_response(Flow flow, std::uint32_t task_tag) {
    read_lbas_.erase(Key{flow, task_tag});
  }

 private:
  struct Write {
    std::uint64_t lba = 0;
    iscsi::BurstAssembler data;  // empty when fed through payload_lba
  };
  using Key = std::pair<Flow, std::uint32_t>;
  std::map<Key, Write> writes_;
  std::map<Key, std::uint64_t> read_lbas_;
};

}  // namespace storm::services
