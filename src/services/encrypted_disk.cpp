#include "services/encrypted_disk.hpp"

#include "common/async.hpp"

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
    : inner_(inner), cpu_(cpu), xts_(key) {}

void EncryptedDisk::write(std::uint64_t lba, Bytes data, WriteCallback done) {
  if (data.size() % block::kSectorSize != 0) {
    done(error(ErrorCode::kInvalidArgument, "unaligned write"));
    return;
  }
  // Encrypt on the VM's CPU first (the submitting thread blocks on this,
  // dm-crypt style), then push ciphertext down.
  cipher(lba, std::move(data), /*encrypt=*/true,
         [this, lba, done = std::move(done)](Bytes ciphertext) mutable {
           inner_.write(lba, std::move(ciphertext), std::move(done));
         });
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
                cipher(lba, std::move(data), /*encrypt=*/false,
                       [done = std::move(done)](Bytes plaintext) mutable {
                         done(Status::ok(), std::move(plaintext));
                       });
              });
}

void EncryptedDisk::cipher(std::uint64_t lba, Bytes data, bool encrypt,
                           std::function<void(Bytes)> then) {
  // dm-crypt splits cipher work across per-CPU workqueues, so the cost is
  // charged as two parallel halves (computed before `data` moves into the
  // join).
  const sim::Duration half = cost_of(data.size()) / 2;
  auto join = Joiner::make([this, lba, encrypt, data = std::move(data),
                            then = std::move(then)](Status) mutable {
    xts_.crypt_sectors(lba, data, encrypt);
    then(std::move(data));
  });
  for (int i = 0; i < 2; ++i) {
    cpu_.run(half, [done = join->begin()] { done(Status::ok()); });
  }
  join->seal();
}

}  // namespace storm::services
