// Byte-buffer utilities: big-endian wire codecs used by every protocol
// module (iSCSI PDUs, Ethernet/IP/TCP headers, on-disk filesystem layouts).
#pragma once

#include <cstdint>
#include <cstring>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace storm {

using Bytes = std::vector<std::uint8_t>;

/// Appends big-endian encoded fields to a growing byte vector.
class ByteWriter {
 public:
  explicit ByteWriter(Bytes& out) : out_(out) {}

  void u8(std::uint8_t v) { out_.push_back(v); }
  void u16(std::uint16_t v) {
    out_.push_back(static_cast<std::uint8_t>(v >> 8));
    out_.push_back(static_cast<std::uint8_t>(v));
  }
  void u32(std::uint32_t v) {
    u16(static_cast<std::uint16_t>(v >> 16));
    u16(static_cast<std::uint16_t>(v));
  }
  void u64(std::uint64_t v) {
    u32(static_cast<std::uint32_t>(v >> 32));
    u32(static_cast<std::uint32_t>(v));
  }
  void raw(std::span<const std::uint8_t> data) {
    out_.insert(out_.end(), data.begin(), data.end());
  }
  void raw(const void* data, std::size_t n) {
    const auto* p = static_cast<const std::uint8_t*>(data);
    out_.insert(out_.end(), p, p + n);
  }
  /// Length-prefixed (u16) string, used by key=value protocol segments.
  void str(std::string_view s) {
    u16(static_cast<std::uint16_t>(s.size()));
    raw(s.data(), s.size());
  }
  void zeros(std::size_t n) { out_.insert(out_.end(), n, 0); }

  std::size_t size() const { return out_.size(); }

 private:
  Bytes& out_;
};

/// Reads big-endian encoded fields from a byte span with bounds checking.
/// Throws std::out_of_range on truncated input; protocol layers convert
/// this to a parse error at their boundary.
class ByteReader {
 public:
  explicit ByteReader(std::span<const std::uint8_t> data) : data_(data) {}

  std::uint8_t u8() {
    need(1);
    return data_[pos_++];
  }
  std::uint16_t u16() {
    need(2);
    std::uint16_t v = static_cast<std::uint16_t>(data_[pos_] << 8) |
                      data_[pos_ + 1];
    pos_ += 2;
    return v;
  }
  std::uint32_t u32() {
    std::uint32_t hi = u16();
    return (hi << 16) | u16();
  }
  std::uint64_t u64() {
    std::uint64_t hi = u32();
    return (hi << 32) | u32();
  }
  Bytes raw(std::size_t n) {
    need(n);
    Bytes out(data_.begin() + static_cast<std::ptrdiff_t>(pos_),
              data_.begin() + static_cast<std::ptrdiff_t>(pos_ + n));
    pos_ += n;
    return out;
  }
  std::string str() {
    std::size_t n = u16();
    need(n);
    std::string out(reinterpret_cast<const char*>(data_.data() + pos_), n);
    pos_ += n;
    return out;
  }
  void skip(std::size_t n) {
    need(n);
    pos_ += n;
  }

  std::size_t remaining() const { return data_.size() - pos_; }
  std::size_t position() const { return pos_; }

 private:
  void need(std::size_t n) const {
    if (data_.size() - pos_ < n) {
      throw std::out_of_range("ByteReader: truncated input");
    }
  }

  std::span<const std::uint8_t> data_;
  std::size_t pos_ = 0;
};

/// Human-readable hex dump of up to `max` bytes (diagnostics / logs).
std::string to_hex(std::span<const std::uint8_t> data, std::size_t max = 64);

inline Bytes to_bytes(std::string_view s) {
  // Built from pointer + size: the char-iterator range constructor makes
  // GCC 12 at -O3 report a bogus -Wstringop-overflow for literals.
  const auto* p = reinterpret_cast<const std::uint8_t*>(s.data());
  return Bytes(p, p + s.size());
}

}  // namespace storm
