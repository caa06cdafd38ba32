// Non-cryptographic hashes: CRC32 (iSCSI-style data digests) and FNV-1a
// (hash-table keys for the semantics-reconstruction block index).
#pragma once

#include <cstdint>
#include <span>
#include <string_view>

namespace storm {

namespace hashstats {

/// Process-wide monotonic count of bytes fed through CRC32, every caller
/// included; the obs registry exports it as net.bytes_digested.
std::uint64_t bytes_digested();

}  // namespace hashstats

/// CRC32 (IEEE 802.3 polynomial, reflected). Used as the data digest on
/// simulated iSCSI PDUs. On x86-64 hosts with carry-less multiply, every
/// span of 64 bytes or more is folded with PCLMULQDQ; shorter spans, the
/// last < 16 bytes of a folded span, and other hosts use the byte table.
/// Both paths give the same digest.
std::uint32_t crc32(std::span<const std::uint8_t> data);

/// 64-bit FNV-1a.
std::uint64_t fnv1a(std::string_view s);
std::uint64_t fnv1a(std::span<const std::uint8_t> data);

}  // namespace storm
