// Refcounted, immutable payload buffer with O(1) slicing and
// copy-on-write mutation — the zero-copy currency of the data path.
//
// A Buf is a [off, off+len) view into shared storage. Copying a Buf or
// taking a slice() bumps a refcount; no payload bytes move. The only
// operations that copy bytes are the explicit ones (Buf::copy, to_bytes,
// append_to) and the COW clone inside mutable_span() when the storage is
// shared — and every one of them feeds the process-wide copied-bytes
// ledger (bufstats), which the obs registry exports as net.bytes_copied.
// That makes "how many times did this byte get memcpy'd on its way from
// initiator to disk" a directly observable quantity.
//
// Ownership rules (see DESIGN.md "Buffer ownership"):
//   * Anyone may hold a Buf indefinitely (journal entries, retransmit
//     queues, held packets); holders are isolated from each other because
//     the bytes behind a shared Buf are never mutated in place.
//   * Writers call mutable_span(); it clones iff the storage is shared,
//     so a corrupted or rewritten packet can never alias another
//     holder's bytes.
//   * A uniquely-owned Buf mutates in place even when sliced — no other
//     reference can observe any byte of that storage.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "common/bytes.hpp"

namespace storm {

namespace bufstats {

/// Process-wide monotonic count of payload bytes copied by the data path.
std::uint64_t bytes_copied();

/// Charge `n` bytes to the copy ledger. Buf's own copying operations call
/// this internally; code that copies payload through other means (vector
/// inserts, memcpy gather loops) charges itself explicitly.
void add_bytes_copied(std::size_t n);

}  // namespace bufstats

class Buf {
 public:
  Buf() = default;

  /// Adopt a byte vector (zero copy). Intentionally implicit: it makes
  /// `payload = std::move(bytes)` and `{}` work wherever a Buf is taken.
  Buf(Bytes&& bytes);

  /// Counted copy into fresh storage.
  static Buf copy(std::span<const std::uint8_t> data);

  Buf(const Buf&) = default;
  Buf& operator=(const Buf&) = default;

  // A moved-from Buf is empty, exactly like a moved-from Bytes vector.
  // Code that queues a packet with `[p = std::move(pkt)] {...}` and then
  // asks the original for its size must keep seeing zero, or every
  // size-derived cost in the simulation shifts.
  Buf(Buf&& other) noexcept
      : storage_(std::move(other.storage_)), off_(other.off_),
        len_(other.len_) {
    other.off_ = 0;
    other.len_ = 0;
  }
  Buf& operator=(Buf&& other) noexcept {
    storage_ = std::move(other.storage_);
    off_ = other.off_;
    len_ = other.len_;
    other.off_ = 0;
    other.len_ = 0;
    return *this;
  }

  std::size_t size() const { return len_; }
  bool empty() const { return len_ == 0; }
  const std::uint8_t* data() const {
    return storage_ ? storage_->data() + off_ : nullptr;
  }
  const std::uint8_t* begin() const { return data(); }
  const std::uint8_t* end() const { return data() + len_; }
  const std::uint8_t& operator[](std::size_t i) const { return data()[i]; }

  std::span<const std::uint8_t> span() const { return {data(), len_}; }
  operator std::span<const std::uint8_t>() const { return span(); }

  /// O(1) sub-view sharing this Buf's storage.
  Buf slice(std::size_t off, std::size_t len) const;
  Buf slice(std::size_t off) const { return slice(off, len_ - off); }

  /// Writable view, copy-on-write: clones [off, off+len) iff the storage
  /// is shared with any other Buf. Mutating through the returned span can
  /// therefore never change bytes another holder sees.
  std::span<std::uint8_t> mutable_span();

  /// Counted copy out to a standalone vector.
  Bytes to_bytes() const;
  /// Counted append onto `out`.
  void append_to(Bytes& out) const;

  /// Diagnostics for the aliasing tests.
  bool shares_storage_with(const Buf& other) const {
    return storage_ != nullptr && storage_ == other.storage_;
  }

 private:
  Buf(std::shared_ptr<Bytes> storage, std::size_t off, std::size_t len)
      : storage_(std::move(storage)), off_(off), len_(len) {}

  std::shared_ptr<Bytes> storage_;  // mutated only when uniquely owned
  std::size_t off_ = 0;
  std::size_t len_ = 0;
};

bool operator==(const Buf& a, const Buf& b);
bool operator==(const Buf& a, const Bytes& b);

/// A wire message as a sequence of refcounted chunks (typically
/// header / data / trailer) — lets a serializer reference a payload
/// instead of copying it into a contiguous buffer.
using BufChain = std::vector<Buf>;

std::size_t chain_size(const BufChain& chain);

/// Counted flatten of a chain into one contiguous vector.
Bytes chain_to_bytes(const BufChain& chain);

}  // namespace storm
