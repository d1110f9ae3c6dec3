// DES and Triple-DES ("private-key operations" of the paper's platform).
//
// Two functionally identical block implementations are provided:
//  * a reference implementation that applies every FIPS-46 permutation
//    bit by bit (used as ground truth), and
//  * a fast table-driven implementation: IP/FP through 8x256 byte-scatter
//    tables, E as shifted windows of one rotate, and combined S-box +
//    P-permutation (SP) lookup tables — the classic well-optimized software
//    structure that the paper's baseline measurements represent.  3DES runs
//    fused: one IP, 48 rounds, one FP.
// The fast round tables and Feistel function (FastTables, feistel_fast) are
// exported so tests can check them against the bitwise oracle; the SP
// tables and key schedules are exported so the XR32 kernels
// (src/kernels/des_kernel.*) can place them in simulator memory.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

namespace wsp::des {

/// The 16 round subkeys in round order.  Each k48 value holds 48
/// significant bits; bits 47..42 are XOR'd into S-box 1's input, ...,
/// bits 5..0 into S-box 8's.  k6 holds the same subkeys split into those
/// eight 6-bit chunks (k6[r][i] = (k48[r] >> (42 - 6i)) & 0x3f), the form
/// the fast rounds consume.
struct KeySchedule {
  std::array<std::uint64_t, 16> k48;  ///< subkeys, 48 significant bits each
  std::array<std::array<std::uint8_t, 8>, 16> k6;  ///< k48 as S-box chunks
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

/// ECB / CBC over byte buffers (length must be a multiple of 8).
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

struct FastTables {
  /// A bit permutation distributes over OR of disjoint-support inputs, so
  /// ip[p][v] = initial_permutation(uint64(v) << (56 - 8p)) and the OR over
  /// the eight input bytes reproduces the full permutation (fp likewise).
  std::uint64_t ip[8][256];
  std::uint64_t fp[8][256];
  std::array<std::array<std::uint32_t, 64>, 8> sp;  ///< sp[i] is sp_table(i)
};
const FastTables& fast_tables();

/// f_function without the E permute: with ro = rotr32(r, 1) the eight
/// 6-bit E groups are consecutive windows of ro — group i (0..6) is
/// (ro >> (26 - 4i)) & 0x3f and group 7 wraps as rotl32(ro, 2) & 0x3f.
/// Each window is XOR'd with the matching 6-bit subkey chunk k[i]
/// (KeySchedule::k6).
inline std::uint32_t feistel_fast(std::uint32_t r, const std::uint8_t k[8],
                                  const FastTables& t) {
  const std::uint32_t ro = (r >> 1) | (r << 31);
  return t.sp[0][((ro >> 26) & 0x3f) ^ k[0]] ^
         t.sp[1][((ro >> 22) & 0x3f) ^ k[1]] ^
         t.sp[2][((ro >> 18) & 0x3f) ^ k[2]] ^
         t.sp[3][((ro >> 14) & 0x3f) ^ k[3]] ^
         t.sp[4][((ro >> 10) & 0x3f) ^ k[4]] ^
         t.sp[5][((ro >> 6) & 0x3f) ^ k[5]] ^
         t.sp[6][((ro >> 2) & 0x3f) ^ k[6]] ^
         t.sp[7][(((ro << 2) | (ro >> 30)) & 0x3f) ^ k[7]];
}

/// Big-endian conversion helpers (DES blocks are big-endian byte streams).
std::uint64_t load_be64(const std::uint8_t* p);
void store_be64(std::uint64_t v, std::uint8_t* p);

}  // namespace wsp::des
