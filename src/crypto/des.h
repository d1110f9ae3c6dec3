// DES and Triple-DES ("private-key operations" of the paper's platform).
//
// One table-driven implementation, the classic well-optimized software
// structure that the paper's baseline measurements represent:
//  * IP/FP through 8x256 byte-scatter tables, with both halves kept
//    rotated right by one bit between them, so E is windows of the half
//    and of one rotate of it, each keyed by one XOR (KeySchedule::kw);
//  * byte-indexed S-box + P-permutation (SP) tables: each keyed 6-bit
//    chunk sits in the top of a byte, so a round is eight byte extracts
//    and eight lookups, with no masks;
//  * the round sums its lookups as a balanced XOR tree with the other half
//    folded in first, not as one chain of nine XORs (feistel_fast);
//  * 3DES fused: one IP, 48 rounds, one FP.  CBC encryption keeps its
//    chain in IP form, IP(P ^ C) = IP(P) ^ IP(C), and IP(C) of the last
//    ciphertext is the swapped pre-output the rounds just left, so the IP
//    of each plaintext block and the FP of each ciphertext block run off
//    the chain.  CBC decryption, which has no chain between blocks, runs
//    four blocks through each round side by side.
// The bit-level FIPS-46 cipher is the test oracle in tests/des_ref.h.  The
// fast round tables and Feistel function (FastTables, feistel_fast) are
// exported so tests can check them against it; the unrotated SP tables and
// the key schedules are exported so the XR32 kernels
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
/// serial (each block needs the previous ciphertext) and chains in IP
/// form, so only the 48 rounds sit on the chain; decryption runs four
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
  /// sp[i][b] = rotr32(sp_table(i)[b >> 2], 1): the round output already
  /// in the rotated form, indexed by the byte whose top six bits are the
  /// S-box input (the low two bits are don't-cares).
  std::array<std::array<std::uint32_t, 256>, 8> sp;
};
const FastTables& fast_tables();

/// l ^ f_function(r) without the E permute, on rotated halves
/// l' = rotr32(l, 1) and r' = rotr32(r, 1), returning
/// rotr32(l ^ f(r), 1).  The eight 6-bit E groups are windows of r': the
/// even groups 0, 2, 4, 6 are the disjoint windows at bits 31..26, 23..18,
/// 15..10 and 7..2, and the odd groups 1, 3, 5, 7 are the same windows of
/// rotl32(r', 4).  So one XOR with k[0] (KeySchedule::kw[r][0]) keys four
/// S-box inputs and one with k[1] the other four, each in the top of a
/// byte.  The nine terms are summed as a balanced tree: each partial sum
/// passes through an empty asm, which the optimizer cannot see into, so
/// it cannot reassociate the tree back into one chain of nine XORs.
inline std::uint32_t feistel_fast(std::uint32_t r, const std::uint32_t k[2],
                                  const FastTables& t, std::uint32_t l = 0) {
  const std::uint32_t u = r ^ k[0];
  const std::uint32_t v = ((r << 4) | (r >> 28)) ^ k[1];
  std::uint32_t a = l ^ t.sp[0][u >> 24];
  std::uint32_t b = t.sp[2][(u >> 16) & 0xff] ^ t.sp[4][(u >> 8) & 0xff];
  std::uint32_t c = t.sp[6][u & 0xff] ^ t.sp[1][v >> 24];
  std::uint32_t d = t.sp[3][(v >> 16) & 0xff] ^ t.sp[5][(v >> 8) & 0xff];
  asm("" : "+r"(a), "+r"(b), "+r"(c), "+r"(d));
  a ^= b;
  c ^= d;
  asm("" : "+r"(a), "+r"(c));
  return (a ^ c) ^ t.sp[7][v & 0xff];
}

/// Big-endian conversion helpers (DES blocks are big-endian byte streams).
std::uint64_t load_be64(const std::uint8_t* p);
void store_be64(std::uint64_t v, std::uint8_t* p);

}  // namespace wsp::des
