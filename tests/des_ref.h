// The bit-level DES block cipher the library shipped beside its
// table-driven rounds, kept as the test oracle (as tests/rc4_ref.h keeps the
// byte-state RC4): the E expansion, the S-boxes and the P permutation
// applied bit by bit per round, with the standard's 1-based tables.  The
// fast des::encrypt_block / decrypt_block and the fused 3DES must agree
// with it on every block.
#pragma once

#include <cstdint>

#include "crypto/des.h"

namespace wsp::des_ref {

namespace detail {

// FIPS-46 tables: 1-based bit positions counted from the MSB.
constexpr int kE[48] = {32, 1,  2,  3,  4,  5,  4,  5,  6,  7,  8,  9,
                        8,  9,  10, 11, 12, 13, 12, 13, 14, 15, 16, 17,
                        16, 17, 18, 19, 20, 21, 20, 21, 22, 23, 24, 25,
                        24, 25, 26, 27, 28, 29, 28, 29, 30, 31, 32, 1};

constexpr int kP[32] = {16, 7, 20, 21, 29, 12, 28, 17, 1,  15, 23, 26, 5,  18, 31, 10,
                        2,  8, 24, 14, 32, 27, 3,  9,  19, 13, 30, 6,  22, 11, 4,  25};

// Applies a 1-based-from-MSB permutation table: output bit i (MSB first)
// takes input bit table[i].
template <int OutBits, int InBits>
std::uint64_t permute(std::uint64_t in, const int (&table)[OutBits]) {
  std::uint64_t out = 0;
  for (int i = 0; i < OutBits; ++i) {
    const int src = table[i];  // 1-based from MSB of the InBits-wide value
    const std::uint64_t bit = (in >> (InBits - src)) & 1;
    out |= bit << (OutBits - 1 - i);
  }
  return out;
}

// The Feistel function on a 32-bit half with a 48-bit subkey.
inline std::uint32_t feistel(std::uint32_t r, std::uint64_t k48) {
  const std::uint64_t e = permute<48, 32>(r, kE) ^ k48;
  std::uint32_t s_out = 0;
  for (int i = 0; i < 8; ++i) {
    const std::uint8_t v6 = static_cast<std::uint8_t>((e >> (42 - 6 * i)) & 0x3f);
    s_out = (s_out << 4) | des::sbox(i, v6);
  }
  return static_cast<std::uint32_t>(permute<32, 32>(s_out, kP));
}

inline std::uint64_t crypt(std::uint64_t block, const des::KeySchedule& ks,
                           bool decrypt) {
  const std::uint64_t ip = des::initial_permutation(block);
  std::uint32_t l = static_cast<std::uint32_t>(ip >> 32);
  std::uint32_t r = static_cast<std::uint32_t>(ip);
  for (int round = 0; round < 16; ++round) {
    const std::uint64_t k = ks.k48[decrypt ? 15 - round : round];
    const std::uint32_t nl = r;
    r = l ^ feistel(r, k);
    l = nl;
  }
  // Note the final swap: the output is (R16, L16).
  const std::uint64_t preout = (static_cast<std::uint64_t>(r) << 32) | l;
  return des::final_permutation(preout);
}

}  // namespace detail

inline std::uint64_t encrypt_block(std::uint64_t block, const des::KeySchedule& ks) {
  return detail::crypt(block, ks, false);
}
inline std::uint64_t decrypt_block(std::uint64_t block, const des::KeySchedule& ks) {
  return detail::crypt(block, ks, true);
}

}  // namespace wsp::des_ref
