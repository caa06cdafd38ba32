// Tenant-side encryption baseline ("performed by the tenant VM" in the
// paper's Figures 10/11): a dm-crypt-style layer stacked on the VM's
// virtual disk. Cipher work runs on the *tenant VM's* vCPUs and — like
// dm-crypt holding application threads while encrypting and flushing —
// the submitting I/O blocks until the cipher work completes.
#pragma once

#include <cstdint>
#include <functional>

#include "block/block_device.hpp"
#include "crypto/aes.hpp"
#include "sim/cpu.hpp"

namespace storm::services {

class EncryptedDisk : public block::BlockDevice {
 public:
  /// `cpu` is the tenant VM's vCPU set; cipher work contends with the
  /// VM's foreground application there.
  EncryptedDisk(block::BlockDevice& inner, sim::Cpu& cpu, Bytes key);

  void read(std::uint64_t lba, std::uint32_t count,
            ReadCallback done) override;
  void write(std::uint64_t lba, Bytes data, WriteCallback done) override;
  std::uint64_t num_sectors() const override { return inner_.num_sectors(); }

 private:
  /// Charges the cipher work on `data` to the VM's CPU, then en- or
  /// decrypts it per sector in place and hands it to `then`.
  void cipher(std::uint64_t lba, Bytes data, bool encrypt,
              std::function<void(Bytes)> then);

  block::BlockDevice& inner_;
  sim::Cpu& cpu_;
  crypto::AesXts xts_;
};

}  // namespace storm::services
