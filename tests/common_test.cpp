#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "common/bytes.hpp"
#include "common/hash.hpp"
#include "common/rng.hpp"
#include "common/status.hpp"

namespace storm {
namespace {

TEST(ByteWriterReader, RoundTripsAllWidths) {
  Bytes buf;
  ByteWriter w(buf);
  w.u8(0xAB);
  w.u16(0x1234);
  w.u32(0xDEADBEEF);
  w.u64(0x0123456789ABCDEFull);
  w.str("hello");
  w.zeros(3);

  ByteReader r(buf);
  EXPECT_EQ(r.u8(), 0xAB);
  EXPECT_EQ(r.u16(), 0x1234);
  EXPECT_EQ(r.u32(), 0xDEADBEEFu);
  EXPECT_EQ(r.u64(), 0x0123456789ABCDEFull);
  EXPECT_EQ(r.str(), "hello");
  r.skip(3);
  EXPECT_EQ(r.remaining(), 0u);
}

TEST(ByteWriterReader, BigEndianLayout) {
  Bytes buf;
  ByteWriter w(buf);
  w.u32(0x01020304);
  ASSERT_EQ(buf.size(), 4u);
  EXPECT_EQ(buf[0], 0x01);
  EXPECT_EQ(buf[3], 0x04);
}

TEST(ByteReader, ThrowsOnTruncatedInput) {
  Bytes buf = {0x01, 0x02};
  ByteReader r(buf);
  EXPECT_THROW(r.u32(), std::out_of_range);
}

TEST(ByteReader, ThrowsOnTruncatedString) {
  Bytes buf;
  ByteWriter w(buf);
  w.u16(100);  // declared length longer than the buffer
  ByteReader r(buf);
  EXPECT_THROW(r.str(), std::out_of_range);
}

TEST(Hash, Crc32KnownVector) {
  // CRC32("123456789") = 0xCBF43926 (classic check value).
  Bytes data = to_bytes("123456789");
  EXPECT_EQ(crc32(data), 0xCBF43926u);
}

TEST(Hash, Crc32EmptyIsZero) {
  EXPECT_EQ(crc32(Bytes{}), 0x00000000u);
}

/// Bitwise CRC32 straight from the reflected polynomial: the oracle the
/// table path and the carry-less-multiply fold must both match.
std::uint32_t crc32_bitwise(std::span<const std::uint8_t> data) {
  std::uint32_t c = 0xFFFFFFFFu;
  for (std::uint8_t b : data) {
    c ^= b;
    for (int k = 0; k < 8; ++k) c = (c & 1) ? (0xEDB88320u ^ (c >> 1)) : c >> 1;
  }
  return c ^ 0xFFFFFFFFu;
}

Bytes random_bytes(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  Bytes out(n);
  for (auto& b : out) b = static_cast<std::uint8_t>(rng.next_u32());
  return out;
}

TEST(Hash, Crc32MatchesBitwiseOracleAtEveryShortLengthAndOffset) {
  // Below 64 bytes only the table runs; from 64 up the fold takes every
  // whole 16-byte block and the table the < 16-byte tail. Unaligned
  // starts cover the fold's unaligned loads.
  const Bytes buf = random_bytes(600 + 8, 1);
  const std::span<const std::uint8_t> all(buf);
  for (std::size_t off = 0; off < 8; ++off) {
    for (std::size_t len = 0; len <= 600; ++len) {
      const auto data = all.subspan(off, len);
      ASSERT_EQ(crc32(data), crc32_bitwise(data))
          << "offset " << off << " length " << len;
    }
  }
}

TEST(Hash, Crc32MatchesBitwiseOracleOnPayloadSizes) {
  const Bytes buf = random_bytes(64 * 1024 + 15, 2);
  const std::span<const std::uint8_t> all(buf);
  std::vector<std::size_t> lengths = {4096, 64 * 1024};
  for (std::size_t tail = 1; tail <= 15; ++tail) {
    lengths.push_back(64 * 1024 + tail);
  }
  for (std::size_t len : lengths) {
    EXPECT_EQ(crc32(all.first(len)), crc32_bitwise(all.first(len)))
        << "length " << len;
  }
}

TEST(Hash, Fnv1aKnownVector) {
  // FNV-1a 64-bit of empty string is the offset basis.
  EXPECT_EQ(fnv1a(std::string_view{}), 0xcbf29ce484222325ull);
  EXPECT_NE(fnv1a("a"), fnv1a("b"));
}

TEST(Hex, FormatsAndTruncates) {
  Bytes data = {0xDE, 0xAD, 0xBE, 0xEF};
  EXPECT_EQ(to_hex(data), "deadbeef");
  EXPECT_EQ(to_hex(data, 2), "dead...");
}

TEST(Status, OkAndError) {
  Status ok = Status::ok();
  EXPECT_TRUE(ok.is_ok());
  Status err = error(ErrorCode::kNotFound, "volume gone");
  EXPECT_FALSE(err.is_ok());
  EXPECT_EQ(err.code(), ErrorCode::kNotFound);
  EXPECT_EQ(err.to_string(), "NOT_FOUND: volume gone");
}

TEST(Result, HoldsValueOrStatus) {
  Result<int> good(42);
  ASSERT_TRUE(good.is_ok());
  EXPECT_EQ(good.value(), 42);

  Result<int> bad(error(ErrorCode::kIoError, "disk"));
  EXPECT_FALSE(bad.is_ok());
  EXPECT_EQ(bad.status().code(), ErrorCode::kIoError);
  EXPECT_THROW(bad.value(), std::runtime_error);
}

TEST(Result, RejectsOkStatus) {
  EXPECT_THROW(Result<int>(Status::ok()), std::logic_error);
}

TEST(Rng, DeterministicAcrossInstances) {
  Rng r1(7), r2(7);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(r1.next_u64(), r2.next_u64());
  }
}

TEST(Rng, BetweenStaysInRange) {
  Rng rng(1);
  for (int i = 0; i < 1000; ++i) {
    auto v = rng.between(10, 20);
    EXPECT_GE(v, 10u);
    EXPECT_LE(v, 20u);
  }
}

TEST(Rng, DoubleInUnitInterval) {
  Rng rng(2);
  for (int i = 0; i < 1000; ++i) {
    double d = rng.next_double();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

}  // namespace
}  // namespace storm
