#include "services/encryption.hpp"

#include <stdexcept>

#include "block/block_device.hpp"

namespace storm::services {

namespace {

/// Software AES-XTS on the middle-box's dedicated vCPUs
/// (~160 MB/s per core, 2016-era guests).
constexpr double kNsPerByte = 4.0;
constexpr sim::Duration kPerIoCost = sim::microseconds(1);

}  // namespace

EncryptionService::EncryptionService(Bytes key) {
  if (key.size() != 32 && key.size() != 64) {
    throw std::invalid_argument(
        "EncryptionService: key must be 32 or 64 bytes (XTS key pair)");
  }
  std::size_t half = key.size() / 2;
  xts_ = std::make_unique<crypto::AesXts>(
      std::span<const std::uint8_t>(key.data(), half),
      std::span<const std::uint8_t>(key.data() + half, half));
}

void EncryptionService::crypt(bool encrypt, std::uint64_t first_sector,
                              std::span<std::uint8_t> data) {
  for (std::size_t off = 0; off + block::kSectorSize <= data.size();
       off += block::kSectorSize) {
    std::span<std::uint8_t> sector = data.subspan(off, block::kSectorSize);
    if (encrypt) {
      xts_->encrypt_sector(first_sector + off / block::kSectorSize, sector,
                           sector);
    } else {
      xts_->decrypt_sector(first_sector + off / block::kSectorSize, sector,
                           sector);
    }
  }
}

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
  crypt(encrypt, *lba, pdu.data.mutable_span());
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
