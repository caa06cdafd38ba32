#include "common/buf.hpp"

#include <algorithm>
#include <stdexcept>

namespace storm {

namespace bufstats {
namespace {
std::uint64_t g_bytes_copied = 0;
}  // namespace

std::uint64_t bytes_copied() {
  return g_bytes_copied;
}

void add_bytes_copied(std::size_t n) {
  g_bytes_copied += n;
}

}  // namespace bufstats

Buf::Buf(Bytes&& bytes) {
  if (bytes.empty()) return;
  len_ = bytes.size();
  storage_ = std::make_shared<Bytes>(std::move(bytes));
}

Buf Buf::copy(std::span<const std::uint8_t> data) {
  bufstats::add_bytes_copied(data.size());
  return Buf(Bytes(data.begin(), data.end()));
}

Buf Buf::slice(std::size_t off, std::size_t len) const {
  if (off > len_ || len > len_ - off) {
    throw std::out_of_range("Buf::slice out of range");
  }
  if (len == 0) return Buf{};
  return Buf(storage_, off_ + off, len);
}

std::span<std::uint8_t> Buf::mutable_span() {
  if (!storage_) return {};
  if (storage_.use_count() > 1) {
    bufstats::add_bytes_copied(len_);
    auto clone = std::make_shared<Bytes>(
        storage_->begin() + static_cast<std::ptrdiff_t>(off_),
        storage_->begin() + static_cast<std::ptrdiff_t>(off_ + len_));
    storage_ = std::move(clone);
    off_ = 0;
  }
  return {storage_->data() + off_, len_};
}

Bytes Buf::to_bytes() const {
  bufstats::add_bytes_copied(len_);
  return Bytes(begin(), end());
}

void Buf::append_to(Bytes& out) const {
  bufstats::add_bytes_copied(len_);
  out.insert(out.end(), begin(), end());
}

bool operator==(const Buf& a, const Buf& b) {
  return a.size() == b.size() && std::equal(a.begin(), a.end(), b.begin());
}

bool operator==(const Buf& a, const Bytes& b) {
  return a.size() == b.size() && std::equal(a.begin(), a.end(), b.begin());
}

std::size_t chain_size(const BufChain& chain) {
  std::size_t total = 0;
  for (const Buf& chunk : chain) total += chunk.size();
  return total;
}

Bytes chain_to_bytes(const BufChain& chain) {
  Bytes out;
  out.reserve(chain_size(chain));
  for (const Buf& chunk : chain) chunk.append_to(out);
  return out;
}

}  // namespace storm
