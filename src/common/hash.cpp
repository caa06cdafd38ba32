#include "common/hash.hpp"

#include <array>

#if defined(__x86_64__)
#include <immintrin.h>
#endif

namespace storm {
namespace {

std::uint64_t g_bytes_digested = 0;

std::array<std::uint32_t, 256> make_crc_table() {
  std::array<std::uint32_t, 256> table{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1) ? (0xEDB88320u ^ (c >> 1)) : (c >> 1);
    }
    table[i] = c;
  }
  return table;
}

/// Byte-at-a-time table CRC: the reference path, and the one that runs
/// for short spans, fold tails and hosts without carry-less multiply.
std::uint32_t crc_table_update(std::uint32_t c, const std::uint8_t* p,
                               std::size_t n) {
  static const auto table = make_crc_table();
  for (std::size_t i = 0; i < n; ++i) {
    c = table[(c ^ p[i]) & 0xFF] ^ (c >> 8);
  }
  return c;
}

#if defined(__x86_64__)

/// x * (x^(k+64), x^k) mod P folded onto `next`: one 128-bit lane moved
/// forward by the distance the constant pair `k` encodes.
__attribute__((target("pclmul"))) __m128i fold(__m128i x, __m128i k,
                                               __m128i next) {
  const __m128i lo = _mm_clmulepi64_si128(x, k, 0x00);
  const __m128i hi = _mm_clmulepi64_si128(x, k, 0x11);
  return _mm_xor_si128(_mm_xor_si128(hi, lo), next);
}

__m128i load(const std::uint8_t* at) {
  return _mm_loadu_si128(reinterpret_cast<const __m128i*>(at));
}

/// Carry-less-multiply folding for the reflected IEEE polynomial
/// (Gopal et al., "Fast CRC Computation for Generic Polynomials Using
/// PCLMULQDQ Instruction", Intel 2009): fold four 128-bit lanes 64 bytes
/// at a time, fold them into one lane, fold 16 bytes at a time, then
/// reduce 128 -> 64 -> 32 bits with a Barrett step. `n` is at least 64
/// and a multiple of 16; `c` is the running (pre-inverted) state and the
/// result is the state after `p[0..n)`, exactly what the table yields.
__attribute__((target("pclmul,sse4.1"))) std::uint32_t crc_fold_update(
    std::uint32_t c, const std::uint8_t* p, std::size_t n) {
  // Bit-reflected fold constants k1..k5 and the Barrett pair (P', mu)
  // from the paper's appendix.
  const __m128i k1k2 = _mm_set_epi64x(0x01c6e41596, 0x0154442bd4);
  const __m128i k3k4 = _mm_set_epi64x(0x00ccaa009e, 0x01751997d0);
  const __m128i k5 = _mm_set_epi64x(0, 0x0163cd6124);
  const __m128i poly = _mm_set_epi64x(0x01f7011641, 0x01db710641);
  const __m128i mask32 = _mm_setr_epi32(~0, 0, ~0, 0);

  __m128i x1 = _mm_xor_si128(load(p), _mm_cvtsi32_si128(static_cast<int>(c)));
  __m128i x2 = load(p + 16);
  __m128i x3 = load(p + 32);
  __m128i x4 = load(p + 48);
  p += 64;
  n -= 64;
  for (; n >= 64; p += 64, n -= 64) {
    x1 = fold(x1, k1k2, load(p));
    x2 = fold(x2, k1k2, load(p + 16));
    x3 = fold(x3, k1k2, load(p + 32));
    x4 = fold(x4, k1k2, load(p + 48));
  }
  x1 = fold(x1, k3k4, x2);
  x1 = fold(x1, k3k4, x3);
  x1 = fold(x1, k3k4, x4);
  for (; n >= 16; p += 16, n -= 16) x1 = fold(x1, k3k4, load(p));

  // 128 -> 64 bits.
  __m128i x = _mm_xor_si128(_mm_srli_si128(x1, 8),
                            _mm_clmulepi64_si128(x1, k3k4, 0x10));
  // 64 -> 32 bits.
  x = _mm_xor_si128(_mm_srli_si128(x, 4),
                    _mm_clmulepi64_si128(_mm_and_si128(x, mask32), k5, 0x00));
  // Barrett reduction to the 32-bit remainder.
  __m128i t = _mm_clmulepi64_si128(_mm_and_si128(x, mask32), poly, 0x10);
  t = _mm_clmulepi64_si128(_mm_and_si128(t, mask32), poly, 0x00);
  return static_cast<std::uint32_t>(_mm_extract_epi32(_mm_xor_si128(x, t), 1));
}

bool cpu_has_clmul() {
  __builtin_cpu_init();
  return __builtin_cpu_supports("pclmul") && __builtin_cpu_supports("sse4.1");
}

#endif  // __x86_64__

}  // namespace

namespace hashstats {

std::uint64_t bytes_digested() { return g_bytes_digested; }

}  // namespace hashstats

std::uint32_t crc32(std::span<const std::uint8_t> data) {
  g_bytes_digested += data.size();
  const std::uint8_t* p = data.data();
  std::size_t n = data.size();
  std::uint32_t c = 0xFFFFFFFFu;
#if defined(__x86_64__)
  static const bool have_clmul = cpu_has_clmul();
  if (have_clmul && n >= 64) {
    const std::size_t body = n & ~std::size_t{15};
    c = crc_fold_update(c, p, body);
    p += body;
    n -= body;
  }
#endif
  return crc_table_update(c, p, n) ^ 0xFFFFFFFFu;
}

namespace {
constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ull;
constexpr std::uint64_t kFnvPrime = 0x100000001b3ull;
}  // namespace

std::uint64_t fnv1a(std::string_view s) {
  std::uint64_t h = kFnvOffset;
  for (char ch : s) {
    h ^= static_cast<std::uint8_t>(ch);
    h *= kFnvPrime;
  }
  return h;
}

std::uint64_t fnv1a(std::span<const std::uint8_t> data) {
  std::uint64_t h = kFnvOffset;
  for (std::uint8_t b : data) {
    h ^= b;
    h *= kFnvPrime;
  }
  return h;
}

}  // namespace storm
