// DES and Triple-DES ("private-key operations" of the paper's platform).
//
// Two functionally identical block implementations are provided:
//  * a reference implementation that applies every FIPS-46 permutation
//    bit by bit (used as ground truth), and
//  * a fast table-driven implementation: IP/FP through 8x256 byte-scatter
//    tables, halves kept rotated by one bit so that E is windows of the
//    half and of one rotate of it, each keyed by one XOR, and combined
//    S-box + P-permutation (SP) lookup tables — the classic
//    well-optimized software structure that the paper's baseline
//    measurements represent.  3DES runs fused: one IP, 48 rounds, one FP.
//    CBC decryption, which has no chain between blocks, runs four blocks
//    through each round side by side.
// The fast round tables and Feistel function (FastTables, feistel_fast) are
// exported so tests can check them against the bitwise oracle; the SP
// tables and key schedules are exported so the XR32 kernels
// (src/kernels/des_kernel.*) can place them in simulator memory.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace wsp::des {

/// The 16 round subkeys in round order.  Each k48 value holds 48
/// significant bits; bits 47..42 are XOR'd into S-box 1's input, ...,
/// bits 5..0 into S-box 8's.  kw holds the same subkeys as two 32-bit words
/// per round, the form the fast rounds consume (feistel_fast): with chunk
/// c_i = (k48[r] >> (42 - 6i)) & 0x3f for S-box i + 1, kw[r][0] carries
/// c_0, c_2, c_4, c_6 and kw[r][1] carries c_1, c_3, c_5, c_7, each at
/// bits 31..26, 23..18, 15..10 and 7..2.
struct KeySchedule {
  std::array<std::uint64_t, 16> k48;  ///< subkeys, 48 significant bits each
  std::array<std::array<std::uint32_t, 2>, 16> kw;  ///< k48 as two E words
};

/// Expands a 64-bit key (parity bits ignored) into 16 subkeys.
KeySchedule key_schedule(std::uint64_t key);

/// Fast single-block encrypt/decrypt (table-driven implementation).
std::uint64_t encrypt_block(std::uint64_t block, const KeySchedule& ks);
std::uint64_t decrypt_block(std::uint64_t block, const KeySchedule& ks);

/// 3DES EDE with three independent keys (fast, fused: the interior FP.IP
/// pairs cancel, so one IP, three 16-round stages, one FP).
struct TripleKeySchedule {
  KeySchedule k1, k2, k3;
};
TripleKeySchedule triple_key_schedule(std::uint64_t key1, std::uint64_t key2,
                                      std::uint64_t key3);
std::uint64_t encrypt_block_3des(std::uint64_t block, const TripleKeySchedule& ks);
std::uint64_t decrypt_block_3des(std::uint64_t block, const TripleKeySchedule& ks);

/// 3DES-EDE CBC over n bytes (n a multiple of 8, else
/// std::invalid_argument); in == out is allowed.  `chain` carries the CBC
/// residue: the IV on entry, the last ciphertext block on exit, so two
/// calls over consecutive spans equal one call over both.  Encryption is
/// serial (each block needs the previous ciphertext); decryption runs four
/// independent blocks side by side and the last n/8 % 4 one at a time.
void encrypt_cbc_3des(const std::uint8_t* in, std::uint8_t* out, std::size_t n,
                      const TripleKeySchedule& ks, std::uint64_t& chain);
void decrypt_cbc_3des(const std::uint8_t* in, std::uint8_t* out, std::size_t n,
                      const TripleKeySchedule& ks, std::uint64_t& chain);

/// ECB / CBC over byte buffers (length must be a multiple of 8).
/// decrypt_cbc interleaves four blocks like decrypt_cbc_3des.
std::vector<std::uint8_t> encrypt_ecb(const std::vector<std::uint8_t>& data,
                                      const KeySchedule& ks);
std::vector<std::uint8_t> decrypt_ecb(const std::vector<std::uint8_t>& data,
                                      const KeySchedule& ks);
std::vector<std::uint8_t> encrypt_cbc(const std::vector<std::uint8_t>& data,
                                      const KeySchedule& ks, std::uint64_t iv);
std::vector<std::uint8_t> decrypt_cbc(const std::vector<std::uint8_t>& data,
                                      const KeySchedule& ks, std::uint64_t iv);

/// Combined S-box + P-permutation tables: sp_table(i)[v] is the 32-bit
/// contribution of S-box i applied to 6-bit input v, already P-permuted.
const std::array<std::uint32_t, 64>& sp_table(int sbox);

/// Raw S-box output (4 bits) for S-box i and 6-bit input v.
std::uint8_t sbox(int i, std::uint8_t v);

/// The Feistel F function (E expansion, key mix, S-boxes, P permutation)
/// applied to one 32-bit half with a 48-bit subkey.  Exported so the TIE
/// des_round unit and the kernels share a single ground truth.
std::uint32_t f_function(std::uint32_t r, std::uint64_t k48);

/// Applies the initial / final permutation to a 64-bit block (bit-level;
/// exported for kernel validation).
std::uint64_t initial_permutation(std::uint64_t block);
std::uint64_t final_permutation(std::uint64_t block);

// --- Table-driven round structure ------------------------------------------
// Used by the fast block functions above.  Every table is synthesized from
// the bitwise FIPS-46 permutations and S-boxes, never transcribed.

/// The fast rounds keep both halves rotated right by one bit
/// (h' = rotr32(h, 1)); these tables move blocks into and out of that form.
struct FastTables {
  /// A bit permutation distributes over OR of disjoint-support inputs, so
  /// ip[p][v] = initial_permutation(uint64(v) << (56 - 8p)) with each half
  /// then rotated right by one, and the OR over the eight input bytes is
  /// IP with rotated halves.  fp[p][v] rotates the halves of the byte's
  /// contribution back left by one before final_permutation.
  std::uint64_t ip[8][256];
  std::uint64_t fp[8][256];
  /// sp[i][v] = rotr32(sp_table(i)[v], 1): the round output already in
  /// the rotated form.
  std::array<std::array<std::uint32_t, 64>, 8> sp;
};
const FastTables& fast_tables();

/// f_function without the E permute, on a rotated half r' = rotr32(r, 1),
/// returning rotr32(f(r), 1).  The eight 6-bit E groups are windows of r':
/// the even groups 0, 2, 4, 6 are the disjoint windows at bits 31..26,
/// 23..18, 15..10 and 7..2, and the odd groups 1, 3, 5, 7 are the same
/// windows of rotl32(r', 4).  So one XOR with k[0] (KeySchedule::kw[r][0])
/// keys four S-box inputs and one with k[1] the other four.
inline std::uint32_t feistel_fast(std::uint32_t r, const std::uint32_t k[2],
                                  const FastTables& t) {
  const std::uint32_t u = r ^ k[0];
  const std::uint32_t v = ((r << 4) | (r >> 28)) ^ k[1];
  return t.sp[0][u >> 26] ^ t.sp[2][(u >> 18) & 0x3f] ^
         t.sp[4][(u >> 10) & 0x3f] ^ t.sp[6][(u >> 2) & 0x3f] ^
         t.sp[1][v >> 26] ^ t.sp[3][(v >> 18) & 0x3f] ^
         t.sp[5][(v >> 10) & 0x3f] ^ t.sp[7][(v >> 2) & 0x3f];
}

/// Big-endian conversion helpers (DES blocks are big-endian byte streams).
std::uint64_t load_be64(const std::uint8_t* p);
void store_be64(std::uint64_t v, std::uint8_t* p);

}  // namespace wsp::des
