#include "block/block_device.hpp"

#include <algorithm>
#include <cstring>
#include <stdexcept>

namespace storm::block {

Status BlockDevice::check_range(std::uint64_t lba,
                                std::uint64_t sectors) const {
  if (lba + sectors > num_sectors() || lba + sectors < lba) {
    return error(ErrorCode::kInvalidArgument,
                 "I/O beyond device end: lba=" + std::to_string(lba) +
                     " sectors=" + std::to_string(sectors));
  }
  return Status::ok();
}

void MemDisk::read(std::uint64_t lba, std::uint32_t count, ReadCallback done) {
  Status status = check_range(lba, count);
  if (!status.is_ok()) {
    done(status, {});
    return;
  }
  done(Status::ok(), read_sync(lba, count));
}

void MemDisk::write(std::uint64_t lba, Bytes data, WriteCallback done) {
  if (data.size() % kSectorSize != 0) {
    done(error(ErrorCode::kInvalidArgument, "unaligned write size"));
    return;
  }
  Status status = check_range(lba, data.size() / kSectorSize);
  if (!status.is_ok()) {
    done(status);
    return;
  }
  write_sync(lba, data);
  done(Status::ok());
}

Bytes MemDisk::read_sync(std::uint64_t lba, std::uint32_t count) const {
  Status status = check_range(lba, count);
  if (!status.is_ok()) {
    throw std::out_of_range("MemDisk::read_sync: " + status.message());
  }
  const std::size_t total = std::size_t{count} * kSectorSize;
  Bytes out;
  out.reserve(total);
  std::uint64_t offset = lba * kSectorSize;
  while (out.size() < total) {
    const std::size_t in_page = offset % kPageSize;
    const std::size_t n = std::min(kPageSize - in_page, total - out.size());
    if (const Page* page = pages_[offset / kPageSize].get()) {
      const auto* from = page->data() + in_page;
      out.insert(out.end(), from, from + n);
    } else {
      out.resize(out.size() + n);  // never written: zeros
    }
    offset += n;
  }
  return out;
}

void MemDisk::write_sync(std::uint64_t lba,
                         std::span<const std::uint8_t> data) {
  if (data.size() % kSectorSize != 0 ||
      !check_range(lba, data.size() / kSectorSize).is_ok()) {
    throw std::out_of_range("MemDisk::write_sync bad range");
  }
  copy_in(lba * kSectorSize, data);
}

void MemDisk::write_sync_chain(std::uint64_t lba, const BufChain& chunks) {
  const std::size_t total = chain_size(chunks);
  if (total % kSectorSize != 0 ||
      !check_range(lba, total / kSectorSize).is_ok()) {
    throw std::out_of_range("MemDisk::write_sync_chain bad range");
  }
  std::uint64_t offset = lba * kSectorSize;
  for (const Buf& chunk : chunks) {
    copy_in(offset, chunk.span());
    offset += chunk.size();
  }
}

void MemDisk::copy_in(std::uint64_t offset,
                      std::span<const std::uint8_t> data) {
  while (!data.empty()) {
    const std::size_t in_page = offset % kPageSize;
    const std::size_t n = std::min(kPageSize - in_page, data.size());
    std::unique_ptr<Page>& page = pages_[offset / kPageSize];
    if (!page) page = std::make_unique<Page>();  // value-initialized: zeros
    std::memcpy(page->data() + in_page, data.data(), n);
    offset += n;
    data = data.subspan(n);
  }
}

}  // namespace storm::block
