// AES-128/192/256 (FIPS-197).
//
// Two functionally identical paths:
//  * reference round operations (SubBytes / ShiftRows / MixColumns) used as
//    ground truth and mirroring the byte-oriented "well-optimized C"
//    baseline measured in the paper's Table 1, and
//  * a table-driven path: T-tables for encryption (the structure the XR32
//    kernels implement), an InvShiftRows+InvSubBytes byte gather plus
//    InvMixColumns tables for decryption.  Its round helpers below are the
//    one copy shared with the lane-interleaved aes_mb kernels.
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

// --- Table-driven round structure ------------------------------------------
// Shared by encrypt_block / decrypt_block and the aes_mb kernels, which
// interleave it across lanes.  The state is four big-endian column words.

struct Tables {
  std::array<std::uint8_t, 256> sbox{};
  std::array<std::uint8_t, 256> inv_sbox{};
  /// te[i][b]: SubBytes + MixColumns contribution of byte lane i.
  std::array<std::array<std::uint32_t, 256>, 4> te{};
  /// imc[i][b]: InvMixColumns contribution of byte b in row i (the column
  /// (14b, 9b, 13b, 11b) rotated per row).
  std::array<std::array<std::uint32_t, 256>, 4> imc{};
  Tables();
};
const Tables& tables();

using State = std::array<std::uint32_t, 4>;

inline std::uint32_t load_be32(const std::uint8_t* p) {
  return (std::uint32_t(p[0]) << 24) | (std::uint32_t(p[1]) << 16) |
         (std::uint32_t(p[2]) << 8) | std::uint32_t(p[3]);
}

inline void store_be32(std::uint32_t v, std::uint8_t* p) {
  p[0] = std::uint8_t(v >> 24);
  p[1] = std::uint8_t(v >> 16);
  p[2] = std::uint8_t(v >> 8);
  p[3] = std::uint8_t(v);
}

inline State load_state(const std::uint8_t* p) {
  return {load_be32(p), load_be32(p + 4), load_be32(p + 8), load_be32(p + 12)};
}

inline void store_state(const State& s, std::uint8_t* p) {
  for (int c = 0; c < 4; ++c) store_be32(s[c], p + 4 * c);
}

inline State xor_state(const State& s, const std::uint32_t* k) {
  return {s[0] ^ k[0], s[1] ^ k[1], s[2] ^ k[2], s[3] ^ k[3]};
}

/// Byte row r of the result is `box` applied to byte row r of the r-th
/// argument (a gives row 0, ..., d row 3).  Passing the columns in ShiftRows
/// or InvShiftRows order makes this (Inv)ShiftRows + (Inv)SubBytes of one
/// output column.
inline std::uint32_t gather(const std::array<std::uint8_t, 256>& box,
                            std::uint32_t a, std::uint32_t b, std::uint32_t c,
                            std::uint32_t d) {
  return (std::uint32_t(box[a >> 24]) << 24) |
         (std::uint32_t(box[(b >> 16) & 0xff]) << 16) |
         (std::uint32_t(box[(c >> 8) & 0xff]) << 8) | std::uint32_t(box[d & 0xff]);
}

inline std::uint32_t te_column(const Tables& t, std::uint32_t a, std::uint32_t b,
                               std::uint32_t c, std::uint32_t d) {
  return t.te[0][a >> 24] ^ t.te[1][(b >> 16) & 0xff] ^
         t.te[2][(c >> 8) & 0xff] ^ t.te[3][d & 0xff];
}

inline std::uint32_t inv_mix_column(const Tables& t, std::uint32_t w) {
  return t.imc[0][w >> 24] ^ t.imc[1][(w >> 16) & 0xff] ^
         t.imc[2][(w >> 8) & 0xff] ^ t.imc[3][w & 0xff];
}

/// SubBytes + ShiftRows + MixColumns + AddRoundKey(k).
inline State encrypt_round(const State& s, const std::uint32_t* k, const Tables& t) {
  return {te_column(t, s[0], s[1], s[2], s[3]) ^ k[0],
          te_column(t, s[1], s[2], s[3], s[0]) ^ k[1],
          te_column(t, s[2], s[3], s[0], s[1]) ^ k[2],
          te_column(t, s[3], s[0], s[1], s[2]) ^ k[3]};
}

/// Final round: SubBytes + ShiftRows + AddRoundKey(k), no MixColumns.
inline State encrypt_last_round(const State& s, const std::uint32_t* k,
                                const Tables& t) {
  return {gather(t.sbox, s[0], s[1], s[2], s[3]) ^ k[0],
          gather(t.sbox, s[1], s[2], s[3], s[0]) ^ k[1],
          gather(t.sbox, s[2], s[3], s[0], s[1]) ^ k[2],
          gather(t.sbox, s[3], s[0], s[1], s[2]) ^ k[3]};
}

/// Final inverse round: InvShiftRows + InvSubBytes + AddRoundKey(k).
inline State decrypt_last_round(const State& s, const std::uint32_t* k,
                                const Tables& t) {
  return {gather(t.inv_sbox, s[0], s[3], s[2], s[1]) ^ k[0],
          gather(t.inv_sbox, s[1], s[0], s[3], s[2]) ^ k[1],
          gather(t.inv_sbox, s[2], s[1], s[0], s[3]) ^ k[2],
          gather(t.inv_sbox, s[3], s[2], s[1], s[0]) ^ k[3]};
}

/// InvShiftRows + InvSubBytes + AddRoundKey(k) + InvMixColumns, with the
/// untransformed schedule.
inline State decrypt_round(const State& s, const std::uint32_t* k, const Tables& t) {
  const State x = decrypt_last_round(s, k, t);
  return {inv_mix_column(t, x[0]), inv_mix_column(t, x[1]),
          inv_mix_column(t, x[2]), inv_mix_column(t, x[3])};
}

}  // namespace wsp::aes
