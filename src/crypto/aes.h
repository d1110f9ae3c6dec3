// AES-128/192/256 (FIPS-197).
//
// Two functionally identical paths:
//  * reference round operations (SubBytes / ShiftRows / MixColumns) used as
//    ground truth and mirroring the byte-oriented "well-optimized C"
//    baseline measured in the paper's Table 1, and
//  * a table-driven path: T-tables for encryption (the structure the XR32
//    kernels implement), an InvShiftRows+InvSubBytes byte gather plus
//    InvMixColumns tables for decryption.
// The S-box is synthesized from GF(2^8) arithmetic at startup rather than
// transcribed, and all tables are exported for the kernel builders.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

namespace wsp::aes {

/// Expanded key: 4*(rounds+1) round-key words.
struct KeySchedule {
  std::vector<std::uint32_t> round_keys;  ///< big-endian packed words
  int rounds = 0;                         ///< 10, 12 or 14
};

/// Expands a 16/24/32-byte key.
KeySchedule key_schedule(const std::uint8_t* key, std::size_t key_len);
KeySchedule key_schedule(const std::vector<std::uint8_t>& key);

/// Reference single-block encrypt/decrypt (byte-oriented round operations).
/// Both directions use the same schedule: decryption is the straight
/// inverse cipher, applying the round keys in reverse order.
void encrypt_block_ref(const std::uint8_t in[16], std::uint8_t out[16],
                       const KeySchedule& ks);
void decrypt_block_ref(const std::uint8_t in[16], std::uint8_t out[16],
                       const KeySchedule& ks);

/// Table-driven implementations (same results).
void encrypt_block(const std::uint8_t in[16], std::uint8_t out[16],
                   const KeySchedule& ks);
void decrypt_block(const std::uint8_t in[16], std::uint8_t out[16],
                   const KeySchedule& ks);

/// ECB / CBC over byte buffers (length must be a multiple of 16).
std::vector<std::uint8_t> encrypt_ecb(const std::vector<std::uint8_t>& data,
                                      const KeySchedule& ks);
std::vector<std::uint8_t> decrypt_ecb(const std::vector<std::uint8_t>& data,
                                      const KeySchedule& ks);
std::vector<std::uint8_t> encrypt_cbc(const std::vector<std::uint8_t>& data,
                                      const KeySchedule& ks,
                                      const std::array<std::uint8_t, 16>& iv);
std::vector<std::uint8_t> decrypt_cbc(const std::vector<std::uint8_t>& data,
                                      const KeySchedule& ks,
                                      const std::array<std::uint8_t, 16>& iv);

/// Forward S-box and its inverse.
const std::array<std::uint8_t, 256>& sbox();
const std::array<std::uint8_t, 256>& inv_sbox();

/// Encryption T-tables: te(i)[b] combines SubBytes + MixColumns for byte
/// lane i (i in 0..3).
const std::array<std::uint32_t, 256>& te(int i);

/// GF(2^8) multiply (AES polynomial x^8+x^4+x^3+x+1).
std::uint8_t gf_mul(std::uint8_t a, std::uint8_t b);

}  // namespace wsp::aes
