#include "services/encryption.hpp"

namespace storm::services {

namespace {

/// Software AES-XTS on the middle-box's dedicated vCPUs
/// (~160 MB/s per core, 2016-era guests).
constexpr double kNsPerByte = 4.0;
constexpr sim::Duration kPerIoCost = sim::microseconds(1);

}  // namespace

EncryptionService::EncryptionService(Bytes key) : xts_(key) {}

core::ServiceVerdict EncryptionService::on_pdu(core::ServiceContext& ctx,
                                               core::Direction dir,
                                               iscsi::Pdu& pdu) {
  core::ServiceVerdict verdict;
  if (pdu.opcode == iscsi::Opcode::kScsiResponse) {
    tracker_.on_response(&ctx, pdu.task_tag);
  }
  const std::optional<std::uint64_t> lba = tracker_.payload_lba(&ctx, pdu);
  if (!lba || pdu.data.empty()) return verdict;
  // Encrypt toward the target, decrypt Data-In on the way back.
  // mutable_span() clones the payload iff another holder (journal,
  // retransmit queue) still references the bytes.
  const bool encrypt = dir == core::Direction::kToTarget;
  xts_.crypt_sectors(*lba, pdu.data.mutable_span(), encrypt);
  (encrypt ? encrypted_ : decrypted_) += pdu.data.size();
  ctx.scope()
      .counter(encrypt ? "encryption.bytes_encrypted"
                       : "encryption.bytes_decrypted")
      .add(pdu.data.size());
  verdict.cpu_cost =
      (pdu.opcode == iscsi::Opcode::kDataOut ? 0 : kPerIoCost) +
      static_cast<sim::Duration>(kNsPerByte *
                                 static_cast<double>(pdu.data.size()));
  return verdict;
}

}  // namespace storm::services
