// Data-encryption middle-box (paper §V-B2): AES-XTS per 512-byte sector,
// the dm-crypt configuration of the paper's prototype. Tenant data is
// encrypted before it reaches the storage backend and decrypted on the
// way back — the tenant VM and the target both see only their native
// format (transparent deployment, no volume reformatting).
#pragma once

#include <cstdint>
#include <string>

#include "core/service.hpp"
#include "crypto/aes.hpp"
#include "services/write_tracker.hpp"

namespace storm::services {

class EncryptionService : public core::StorageService {
 public:
  /// `key` is the 32- or 64-byte XTS key pair (64 bytes gives
  /// AES-256-XTS as in the paper).
  explicit EncryptionService(Bytes key);

  std::string name() const override { return "encryption"; }
  // Bypassing the cipher would put plaintext on the storage network.
  bool confidentiality_critical() const override { return true; }
  core::ServiceVerdict on_pdu(core::ServiceContext& ctx, core::Direction dir,
                              iscsi::Pdu& pdu) override;

  std::uint64_t bytes_encrypted() const { return encrypted_; }
  std::uint64_t bytes_decrypted() const { return decrypted_; }

 private:
  crypto::AesXts xts_;
  IoTracker tracker_;
  std::uint64_t encrypted_ = 0;
  std::uint64_t decrypted_ = 0;
};

}  // namespace storm::services
