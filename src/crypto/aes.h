// AES-128/192/256 (FIPS-197).
//
// One table-driven implementation: T-tables for encryption (the structure
// the XR32 kernels implement) and Td tables for decryption, which runs the
// equivalent inverse cipher (FIPS-197 5.3.5) on a second, InvMixColumns-
// transformed copy of the inner round keys, so a decryption round costs
// the same 16 lookups as an encryption round.  The byte-oriented FIPS-197
// cipher, the "well-optimized C" baseline of the paper's Table 1, is the
// test oracle in tests/aes_ref.h.  The S-box is synthesized from GF(2^8)
// arithmetic at startup rather than transcribed, and the forward tables
// are exported for the kernel builders.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace wsp::aes {

/// Expanded key: 4*(rounds+1) round-key words for each direction.
struct KeySchedule {
  std::vector<std::uint32_t> round_keys;  ///< big-endian packed words
  /// The equivalent inverse cipher's keys: round_keys with InvMixColumns
  /// applied to the words of rounds 1 .. rounds-1 (the first and last
  /// round keys are unchanged).
  std::vector<std::uint32_t> inv_round_keys;
  int rounds = 0;  ///< 10, 12 or 14
};

/// Expands a 16/24/32-byte key.
KeySchedule key_schedule(const std::uint8_t* key, std::size_t key_len);
KeySchedule key_schedule(const std::vector<std::uint8_t>& key);

/// Single-block encrypt/decrypt (table-driven).  Encryption reads
/// round_keys; decryption reads inv_round_keys in reverse order.
void encrypt_block(const std::uint8_t in[16], std::uint8_t out[16],
                   const KeySchedule& ks);
void decrypt_block(const std::uint8_t in[16], std::uint8_t out[16],
                   const KeySchedule& ks);

/// ECB over byte buffers (length must be a multiple of 16).
std::vector<std::uint8_t> encrypt_ecb(const std::vector<std::uint8_t>& data,
                                      const KeySchedule& ks);
std::vector<std::uint8_t> decrypt_ecb(const std::vector<std::uint8_t>& data,
                                      const KeySchedule& ks);

/// CBC over n bytes (n a multiple of 16, else std::invalid_argument);
/// in == out is allowed.  `chain` carries the CBC residue: the IV on
/// entry, the last ciphertext block on exit, so two calls over consecutive
/// spans equal one call over both.  Encryption chains on the four state
/// words, never through bytes.
void encrypt_cbc(const std::uint8_t* in, std::uint8_t* out, std::size_t n,
                 const KeySchedule& ks, std::array<std::uint8_t, 16>& chain);
void decrypt_cbc(const std::uint8_t* in, std::uint8_t* out, std::size_t n,
                 const KeySchedule& ks, std::array<std::uint8_t, 16>& chain);

/// Forward S-box and its inverse.
const std::array<std::uint8_t, 256>& sbox();
const std::array<std::uint8_t, 256>& inv_sbox();

/// Encryption T-tables: te(i)[b] combines SubBytes + MixColumns for byte
/// lane i (i in 0..3).
const std::array<std::uint32_t, 256>& te(int i);

/// GF(2^8) multiply (AES polynomial x^8+x^4+x^3+x+1).
std::uint8_t gf_mul(std::uint8_t a, std::uint8_t b);

}  // namespace wsp::aes
