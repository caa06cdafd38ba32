// Stream-cipher service: ChaCha20 keyed to the absolute byte position on
// the volume. This is the measurable per-bit workload the paper runs
// inside the middle-box for its processing-overhead experiments
// (Figures 5, 6, 8, 9): it "operates on each bit of the raw data".
#pragma once

#include <array>
#include <cstdint>
#include <string>

#include "core/service.hpp"
#include "services/write_tracker.hpp"

namespace storm::services {

class StreamCipherService : public core::StorageService {
 public:
  explicit StreamCipherService(Bytes key = Bytes(32, 0x42));

  std::string name() const override { return "stream_cipher"; }
  // Bypassing the cipher would put plaintext on the storage network.
  bool confidentiality_critical() const override { return true; }
  core::ServiceVerdict on_pdu(core::ServiceContext& ctx, core::Direction dir,
                              iscsi::Pdu& pdu) override;

  std::uint64_t bytes_processed() const { return processed_; }

 private:
  void crypt(std::uint64_t byte_position, std::span<std::uint8_t> data);

  std::array<std::uint8_t, 32> key_{};
  IoTracker tracker_;
  std::uint64_t processed_ = 0;
};

}  // namespace storm::services
