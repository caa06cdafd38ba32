#include "crypto/chacha20.hpp"

#include <algorithm>
#include <cstring>
#include <stdexcept>

namespace storm::crypto {
namespace {

std::uint32_t rotl(std::uint32_t v, int n) {
  return (v << n) | (v >> (32 - n));
}

void quarter_round(std::uint32_t& a, std::uint32_t& b, std::uint32_t& c,
                   std::uint32_t& d) {
  a += b; d ^= a; d = rotl(d, 16);
  c += d; b ^= c; b = rotl(b, 12);
  a += b; d ^= a; d = rotl(d, 8);
  c += d; b ^= c; b = rotl(b, 7);
}

std::uint32_t load_le32(const std::uint8_t* p) {
  return static_cast<std::uint32_t>(p[0]) |
         (static_cast<std::uint32_t>(p[1]) << 8) |
         (static_cast<std::uint32_t>(p[2]) << 16) |
         (static_cast<std::uint32_t>(p[3]) << 24);
}

void store_le32(std::uint8_t* p, std::uint32_t v) {
  p[0] = static_cast<std::uint8_t>(v);
  p[1] = static_cast<std::uint8_t>(v >> 8);
  p[2] = static_cast<std::uint8_t>(v >> 16);
  p[3] = static_cast<std::uint8_t>(v >> 24);
}

/// The 16-word input state: constants, key, block counter, nonce.
void init_state(std::span<const std::uint8_t> key,
                std::span<const std::uint8_t> nonce, std::uint32_t counter,
                std::uint32_t state[16]) {
  if (key.size() != 32 || nonce.size() != 12) {
    throw std::invalid_argument("chacha20: key=32B nonce=12B required");
  }
  state[0] = 0x61707865;
  state[1] = 0x3320646e;
  state[2] = 0x79622d32;
  state[3] = 0x6b206574;
  for (int i = 0; i < 8; ++i) state[4 + i] = load_le32(key.data() + 4 * i);
  state[12] = counter;
  for (int i = 0; i < 3; ++i) state[13 + i] = load_le32(nonce.data() + 4 * i);
}

/// RFC 8439 block function, one block at a time: the reference path,
/// and the one that covers tails shorter than a 4-block pass.
void block_from_state(const std::uint32_t state[16], std::uint8_t out[64]) {
  std::uint32_t x[16];
  std::memcpy(x, state, sizeof(x));
  for (int i = 0; i < 10; ++i) {
    quarter_round(x[0], x[4], x[8], x[12]);
    quarter_round(x[1], x[5], x[9], x[13]);
    quarter_round(x[2], x[6], x[10], x[14]);
    quarter_round(x[3], x[7], x[11], x[15]);
    quarter_round(x[0], x[5], x[10], x[15]);
    quarter_round(x[1], x[6], x[11], x[12]);
    quarter_round(x[2], x[7], x[8], x[13]);
    quarter_round(x[3], x[4], x[9], x[14]);
  }
  for (int i = 0; i < 16; ++i) {
    store_le32(out + 4 * i, x[i] + state[i]);
  }
}

#if defined(__GNUC__) && !defined(__clang__) && \
    __BYTE_ORDER__ == __ORDER_LITTLE_ENDIAN__

// The vertical multi-block kernel, written once over GCC vector
// extensions: word i of the state is one vector, and lane j of every
// vector belongs to block `state[12] + j`, so each round operation
// advances 4 (SSE2) or 8 (AVX2) blocks at once. Helpers take vectors by
// reference: a 32-byte vector passed by value outside an AVX2 function
// would change the ABI.
typedef std::uint32_t V4 __attribute__((vector_size(16)));
typedef std::uint32_t V8 __attribute__((vector_size(32)));

/// V reinterpreted as 16-bit and as 8-bit elements (an alias template
/// would drop the attribute).
template <typename V>
struct Reinterpret {
  typedef std::uint16_t Halves __attribute__((vector_size(sizeof(V))));
  typedef std::uint8_t Octets __attribute__((vector_size(sizeof(V))));
};
template <typename V>
using Halves = typename Reinterpret<V>::Halves;
template <typename V>
using Octets = typename Reinterpret<V>::Octets;

template <typename V>
constexpr int kLanes = sizeof(V) / 4;

template <typename V>
constexpr V kLaneIndex = {};
template <>
constexpr V4 kLaneIndex<V4> = {0, 1, 2, 3};
template <>
constexpr V8 kLaneIndex<V8> = {0, 1, 2, 3, 4, 5, 6, 7};

/// Lane-wise rotate left by N. By 16 swaps the halves of each word; by 8
/// on AVX2 a byte shuffle (vpshufb) beats the shift pair; else shift-or.
template <int N, typename V>
[[gnu::always_inline]] inline void rotl_lanes(V& v) {
  if constexpr (N == 16 && kLanes<V> == 4) {
    v = (V)__builtin_shuffle((Halves<V>)v, Halves<V>{1, 0, 3, 2, 5, 4, 7, 6});
  } else if constexpr (N == 16 && kLanes<V> == 8) {
    v = (V)__builtin_shuffle((Halves<V>)v,
                             Halves<V>{1, 0, 3, 2, 5, 4, 7, 6, 9, 8, 11, 10,
                                       13, 12, 15, 14});
  } else if constexpr (N == 8 && kLanes<V> == 8) {
    v = (V)__builtin_shuffle(
        (Octets<V>)v,
        Octets<V>{3, 0, 1, 2, 7, 4, 5, 6, 11, 8, 9, 10, 15, 12, 13, 14,
                  19, 16, 17, 18, 23, 20, 21, 22, 27, 24, 25, 26, 31, 28,
                  29, 30});
  } else {
    v = (v << N) | (v >> (32 - N));
  }
}

template <typename V>
[[gnu::always_inline]] inline void quarter_round_lanes(V& a, V& b, V& c,
                                                       V& d) {
  a += b; d ^= a; rotl_lanes<16>(d);
  c += d; b ^= c; rotl_lanes<12>(b);
  a += b; d ^= a; rotl_lanes<8>(d);
  c += d; b ^= c; rotl_lanes<7>(b);
}

/// 4x4 transpose within each 128-bit half: on entry a..d hold four
/// consecutive state words across lanes; on exit the vector k holds
/// those words of block k (low half) and of block k + 4 (high half).
template <typename V>
[[gnu::always_inline]] inline void transpose4(V& a, V& b, V& c, V& d) {
  if constexpr (kLanes<V> == 4) {
    const V t0 = __builtin_shuffle(a, b, V{0, 4, 1, 5});
    const V t1 = __builtin_shuffle(a, b, V{2, 6, 3, 7});
    const V t2 = __builtin_shuffle(c, d, V{0, 4, 1, 5});
    const V t3 = __builtin_shuffle(c, d, V{2, 6, 3, 7});
    a = __builtin_shuffle(t0, t2, V{0, 1, 4, 5});
    b = __builtin_shuffle(t0, t2, V{2, 3, 6, 7});
    c = __builtin_shuffle(t1, t3, V{0, 1, 4, 5});
    d = __builtin_shuffle(t1, t3, V{2, 3, 6, 7});
  } else {
    const V t0 = __builtin_shuffle(a, b, V{0, 8, 1, 9, 4, 12, 5, 13});
    const V t1 = __builtin_shuffle(a, b, V{2, 10, 3, 11, 6, 14, 7, 15});
    const V t2 = __builtin_shuffle(c, d, V{0, 8, 1, 9, 4, 12, 5, 13});
    const V t3 = __builtin_shuffle(c, d, V{2, 10, 3, 11, 6, 14, 7, 15});
    a = __builtin_shuffle(t0, t2, V{0, 1, 8, 9, 4, 5, 12, 13});
    b = __builtin_shuffle(t0, t2, V{2, 3, 10, 11, 6, 7, 14, 15});
    c = __builtin_shuffle(t1, t3, V{0, 1, 8, 9, 4, 5, 12, 13});
    d = __builtin_shuffle(t1, t3, V{2, 3, 10, 11, 6, 7, 14, 15});
  }
}

template <typename V>
[[gnu::always_inline]] inline void xor_word(const V& keystream,
                                            const std::uint8_t* in,
                                            std::uint8_t* out) {
  V v;
  std::memcpy(&v, in, sizeof(V));
  v ^= keystream;
  std::memcpy(out, &v, sizeof(V));
}

/// One pass: kLanes<V> keystream blocks from the broadcast state `s`
/// XORed over `64 * kLanes<V>` bytes of `in` into `out`.
template <typename V>
[[gnu::always_inline]] inline void xor_pass(const V (&s)[16],
                                            const std::uint8_t* in,
                                            std::uint8_t* out) {
  V x[16];
  for (int i = 0; i < 16; ++i) x[i] = s[i];
  for (int i = 0; i < 10; ++i) {
    quarter_round_lanes(x[0], x[4], x[8], x[12]);
    quarter_round_lanes(x[1], x[5], x[9], x[13]);
    quarter_round_lanes(x[2], x[6], x[10], x[14]);
    quarter_round_lanes(x[3], x[7], x[11], x[15]);
    quarter_round_lanes(x[0], x[5], x[10], x[15]);
    quarter_round_lanes(x[1], x[6], x[11], x[12]);
    quarter_round_lanes(x[2], x[7], x[8], x[13]);
    quarter_round_lanes(x[3], x[4], x[9], x[14]);
  }
  for (int i = 0; i < 16; ++i) x[i] += s[i];
  for (int g = 0; g < 16; g += 4) {
    transpose4(x[g], x[g + 1], x[g + 2], x[g + 3]);
  }
  // x[g + k] now holds words g..g+3 of block k (and of block k + 4).
  if constexpr (kLanes<V> == 4) {
    for (int k = 0; k < 4; ++k) {
      for (int g = 0; g < 16; g += 4) {
        xor_word(x[g + k], in + 64 * k + 4 * g, out + 64 * k + 4 * g);
      }
    }
  } else {
    for (int k = 0; k < 4; ++k) {
      for (int g = 0; g < 16; g += 8) {
        const V low = __builtin_shuffle(x[g + k], x[g + 4 + k],
                                        V{0, 1, 2, 3, 8, 9, 10, 11});
        const V high = __builtin_shuffle(x[g + k], x[g + 4 + k],
                                         V{4, 5, 6, 7, 12, 13, 14, 15});
        xor_word(low, in + 64 * k + 4 * g, out + 64 * k + 4 * g);
        xor_word(high, in + 64 * (k + 4) + 4 * g, out + 64 * (k + 4) + 4 * g);
      }
    }
  }
}

/// Whole kLanes<V>-block passes over `n` bytes: the state is broadcast
/// once, and each pass moves every lane's counter on by kLanes<V> (mod
/// 2^32). Returns the bytes done and leaves `state[12]` at the next block.
template <typename V>
[[gnu::always_inline]] inline std::size_t xor_passes(std::uint32_t state[16],
                                                     const std::uint8_t* in,
                                                     std::uint8_t* out,
                                                     std::size_t n) {
  constexpr std::size_t kPassBytes = 64 * kLanes<V>;
  if (n < kPassBytes) return 0;
  V s[16];
  for (int i = 0; i < 16; ++i) s[i] = V{} + state[i];
  s[12] += kLaneIndex<V>;
  std::size_t done = 0;
  for (; n - done >= kPassBytes; done += kPassBytes) {
    xor_pass(s, in + done, out + done);
    s[12] += kLanes<V>;
  }
  state[12] += static_cast<std::uint32_t>(done / 64);
  return done;
}

#if defined(__x86_64__)

/// 8-block passes, then at most one 4-block pass.
__attribute__((target("avx2"))) std::size_t crypt_passes_x8(
    std::uint32_t state[16], const std::uint8_t* in, std::uint8_t* out,
    std::size_t n) {
  const std::size_t done = xor_passes<V8>(state, in, out, n);
  return done + xor_passes<V4>(state, in + done, out + done, n - done);
}

bool cpu_has_avx2() {
  __builtin_cpu_init();
  return __builtin_cpu_supports("avx2");
}

#endif  // __x86_64__

/// Whole multi-block passes over `n` bytes at the widest width this host
/// runs, chosen once; the caller covers the rest (under 256 bytes) one
/// block at a time. Returns the bytes done and advances `state[12]`.
std::size_t crypt_passes(std::uint32_t state[16], const std::uint8_t* in,
                         std::uint8_t* out, std::size_t n) {
#if defined(__x86_64__)
  static const bool have_avx2 = cpu_has_avx2();
  if (have_avx2) return crypt_passes_x8(state, in, out, n);
#endif
  return xor_passes<V4>(state, in, out, n);
}

#else  // not GCC's vector extensions, or a big-endian host: one block at a time

std::size_t crypt_passes(std::uint32_t*, const std::uint8_t*, std::uint8_t*,
                         std::size_t) {
  return 0;
}

#endif

}  // namespace

void chacha20_block(std::span<const std::uint8_t> key,
                    std::span<const std::uint8_t> nonce, std::uint32_t counter,
                    std::uint8_t out[64]) {
  std::uint32_t state[16];
  init_state(key, nonce, counter, state);
  block_from_state(state, out);
}

void chacha20_crypt(std::span<const std::uint8_t> key,
                    std::span<const std::uint8_t> nonce, std::uint32_t counter,
                    std::span<const std::uint8_t> in,
                    std::span<std::uint8_t> out) {
  if (out.size() < in.size()) {
    throw std::invalid_argument("chacha20: output too small");
  }
  std::uint32_t state[16];
  init_state(key, nonce, counter, state);
  const std::size_t n = in.size();
  std::size_t done = crypt_passes(state, in.data(), out.data(), n);
  std::uint8_t keystream[64];
  for (; done < n; done += 64) {
    block_from_state(state, keystream);
    ++state[12];
    const std::size_t m = std::min<std::size_t>(64, n - done);
    for (std::size_t i = 0; i < m; ++i) {
      out[done + i] = in[done + i] ^ keystream[i];
    }
  }
}

}  // namespace storm::crypto
