#include "services/encrypted_disk.hpp"

#include <memory>
#include <stdexcept>

namespace storm::services {

namespace {

/// In-guest kernel crypto without hardware offload (~70 MB/s per core,
/// 2016-era): the cost dm-crypt charges the tenant VM per byte.
constexpr double kNsPerByte = 14.0;
/// Fixed per-I/O cost: dm-crypt's workqueue dispatch and the spinlock
/// time it "holds application threads on ... while encrypting/flushing
/// writes" (paper §V-B2). Dominates for small-file workloads; noise for
/// large streaming I/O.
constexpr sim::Duration kPerIoCost = sim::microseconds(500);

sim::Duration cost_of(std::size_t bytes) {
  return kPerIoCost +
         static_cast<sim::Duration>(kNsPerByte * static_cast<double>(bytes));
}

}  // namespace

EncryptedDisk::EncryptedDisk(block::BlockDevice& inner, sim::Cpu& cpu,
                             Bytes key)
    : inner_(inner), cpu_(cpu) {
  if (key.size() != 32 && key.size() != 64) {
    throw std::invalid_argument("EncryptedDisk: key must be 32 or 64 bytes");
  }
  std::size_t half = key.size() / 2;
  xts_ = std::make_unique<crypto::AesXts>(
      std::span<const std::uint8_t>(key.data(), half),
      std::span<const std::uint8_t>(key.data() + half, half));
}

void EncryptedDisk::write(std::uint64_t lba, Bytes data, WriteCallback done) {
  if (data.size() % block::kSectorSize != 0) {
    done(error(ErrorCode::kInvalidArgument, "unaligned write"));
    return;
  }
  // Encrypt on the VM's CPU first (the submitting thread blocks on this,
  // dm-crypt style), then push ciphertext down.
  // Compute the cost before the lambda capture moves `data` (argument
  // evaluation order is unspecified). dm-crypt splits cipher work across
  // per-CPU workqueues, so charge the cost as parallel halves.
  sim::Duration half = cost_of(data.size()) / 2;
  auto remaining = std::make_shared<int>(2);
  auto proceed = std::make_shared<std::function<void()>>(
      [this, lba, data = std::move(data), done = std::move(done)]() mutable {
        for (std::size_t off = 0; off < data.size();
             off += block::kSectorSize) {
          std::span<std::uint8_t> sector(data.data() + off,
                                         block::kSectorSize);
          xts_->encrypt_sector(lba + off / block::kSectorSize, sector,
                               sector);
        }
        inner_.write(lba, std::move(data), std::move(done));
      });
  for (int i = 0; i < 2; ++i) {
    cpu_.run(half, [remaining, proceed] {
      if (--*remaining == 0) (*proceed)();
    });
  }
}

void EncryptedDisk::read(std::uint64_t lba, std::uint32_t count,
                         ReadCallback done) {
  inner_.read(lba, count,
              [this, lba, done = std::move(done)](Status status,
                                                  Bytes data) mutable {
                if (!status.is_ok()) {
                  done(status, std::move(data));
                  return;
                }
                sim::Duration half = cost_of(data.size()) / 2;
                auto remaining = std::make_shared<int>(2);
                auto proceed = std::make_shared<std::function<void()>>(
                    [this, lba, data = std::move(data),
                     done = std::move(done)]() mutable {
                      for (std::size_t off = 0; off < data.size();
                           off += block::kSectorSize) {
                        std::span<std::uint8_t> sector(
                            data.data() + off, block::kSectorSize);
                        xts_->decrypt_sector(
                            lba + off / block::kSectorSize, sector, sector);
                      }
                      done(Status::ok(), std::move(data));
                    });
                for (int i = 0; i < 2; ++i) {
                  cpu_.run(half, [remaining, proceed] {
                    if (--*remaining == 0) (*proceed)();
                  });
                }
              });
}

}  // namespace storm::services
