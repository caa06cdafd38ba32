// ChaCha20 stream cipher (RFC 8439). Used as the "stream cipher" service
// the paper runs inside the middle-box for the Figure 5/6/8/9 benches
// ("operates on each bit of the raw data").
#pragma once

#include <cstdint>
#include <span>

namespace storm::crypto {

/// XOR `in` with the ChaCha20 keystream into `out` (encrypt == decrypt).
/// key is 32 bytes, nonce is 12 bytes; `counter` is the initial block
/// counter (use the sector/offset so random access stays consistent);
/// block i uses `counter + i` mod 2^32. `in` and `out` may be the same
/// span (in place), but must not overlap otherwise.
void chacha20_crypt(std::span<const std::uint8_t> key,
                    std::span<const std::uint8_t> nonce, std::uint32_t counter,
                    std::span<const std::uint8_t> in,
                    std::span<std::uint8_t> out);

/// One 64-byte keystream block (exposed for test vectors).
void chacha20_block(std::span<const std::uint8_t> key,
                    std::span<const std::uint8_t> nonce, std::uint32_t counter,
                    std::uint8_t out[64]);

}  // namespace storm::crypto
