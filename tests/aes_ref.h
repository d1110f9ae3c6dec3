// The byte-oriented AES block cipher the library shipped beside its
// T-table rounds, kept as the test oracle (as tests/rc4_ref.h keeps the
// byte-state RC4): SubBytes, ShiftRows, MixColumns and AddRoundKey on a
// 16-byte column-major state, straight from FIPS-197.  The fast
// aes::encrypt_block / decrypt_block must agree with it on every block.
#pragma once

#include <array>
#include <cstdint>

#include "crypto/aes.h"

namespace wsp::aes_ref {

namespace detail {

// state[4*c + r] is the byte at row r, column c (FIPS-197 layout when the
// input is copied column by column).

inline std::uint8_t xtime(std::uint8_t a) {
  return static_cast<std::uint8_t>((a << 1) ^ ((a & 0x80) ? 0x1b : 0x00));
}

inline void add_round_key(std::uint8_t state[16], const std::uint32_t* rk) {
  for (int c = 0; c < 4; ++c) {
    state[4 * c + 0] ^= static_cast<std::uint8_t>(rk[c] >> 24);
    state[4 * c + 1] ^= static_cast<std::uint8_t>(rk[c] >> 16);
    state[4 * c + 2] ^= static_cast<std::uint8_t>(rk[c] >> 8);
    state[4 * c + 3] ^= static_cast<std::uint8_t>(rk[c]);
  }
}

inline void sub_bytes(std::uint8_t state[16], const std::array<std::uint8_t, 256>& box) {
  for (int i = 0; i < 16; ++i) state[i] = box[state[i]];
}

inline void shift_rows(std::uint8_t state[16]) {
  for (int r = 1; r < 4; ++r) {
    std::uint8_t row[4];
    for (int c = 0; c < 4; ++c) row[c] = state[4 * ((c + r) % 4) + r];
    for (int c = 0; c < 4; ++c) state[4 * c + r] = row[c];
  }
}

inline void inv_shift_rows(std::uint8_t state[16]) {
  for (int r = 1; r < 4; ++r) {
    std::uint8_t row[4];
    for (int c = 0; c < 4; ++c) row[c] = state[4 * ((c + 4 - r) % 4) + r];
    for (int c = 0; c < 4; ++c) state[4 * c + r] = row[c];
  }
}

inline void mix_columns(std::uint8_t state[16]) {
  for (int c = 0; c < 4; ++c) {
    std::uint8_t* col = state + 4 * c;
    const std::uint8_t a0 = col[0], a1 = col[1], a2 = col[2], a3 = col[3];
    col[0] = static_cast<std::uint8_t>(xtime(a0) ^ (xtime(a1) ^ a1) ^ a2 ^ a3);
    col[1] = static_cast<std::uint8_t>(a0 ^ xtime(a1) ^ (xtime(a2) ^ a2) ^ a3);
    col[2] = static_cast<std::uint8_t>(a0 ^ a1 ^ xtime(a2) ^ (xtime(a3) ^ a3));
    col[3] = static_cast<std::uint8_t>((xtime(a0) ^ a0) ^ a1 ^ a2 ^ xtime(a3));
  }
}

inline void inv_mix_columns(std::uint8_t state[16]) {
  using aes::gf_mul;
  for (int c = 0; c < 4; ++c) {
    std::uint8_t* col = state + 4 * c;
    const std::uint8_t a0 = col[0], a1 = col[1], a2 = col[2], a3 = col[3];
    col[0] = static_cast<std::uint8_t>(gf_mul(a0, 14) ^ gf_mul(a1, 11) ^
                                       gf_mul(a2, 13) ^ gf_mul(a3, 9));
    col[1] = static_cast<std::uint8_t>(gf_mul(a0, 9) ^ gf_mul(a1, 14) ^
                                       gf_mul(a2, 11) ^ gf_mul(a3, 13));
    col[2] = static_cast<std::uint8_t>(gf_mul(a0, 13) ^ gf_mul(a1, 9) ^
                                       gf_mul(a2, 14) ^ gf_mul(a3, 11));
    col[3] = static_cast<std::uint8_t>(gf_mul(a0, 11) ^ gf_mul(a1, 13) ^
                                       gf_mul(a2, 9) ^ gf_mul(a3, 14));
  }
}

}  // namespace detail

/// Single-block encrypt/decrypt.  Both directions use the same schedule:
/// decryption is the straight inverse cipher, applying the round keys in
/// reverse order.
inline void encrypt_block(const std::uint8_t in[16], std::uint8_t out[16],
                          const aes::KeySchedule& ks) {
  using namespace detail;
  std::uint8_t state[16];
  for (int i = 0; i < 16; ++i) state[i] = in[i];
  const std::uint32_t* rk = ks.round_keys.data();
  add_round_key(state, rk);
  for (int round = 1; round < ks.rounds; ++round) {
    sub_bytes(state, aes::sbox());
    shift_rows(state);
    mix_columns(state);
    add_round_key(state, rk + 4 * round);
  }
  sub_bytes(state, aes::sbox());
  shift_rows(state);
  add_round_key(state, rk + 4 * ks.rounds);
  for (int i = 0; i < 16; ++i) out[i] = state[i];
}

inline void decrypt_block(const std::uint8_t in[16], std::uint8_t out[16],
                          const aes::KeySchedule& ks) {
  using namespace detail;
  std::uint8_t state[16];
  for (int i = 0; i < 16; ++i) state[i] = in[i];
  const std::uint32_t* rk = ks.round_keys.data();
  add_round_key(state, rk + 4 * ks.rounds);
  for (int round = ks.rounds - 1; round >= 1; --round) {
    inv_shift_rows(state);
    sub_bytes(state, aes::inv_sbox());
    add_round_key(state, rk + 4 * round);
    inv_mix_columns(state);
  }
  inv_shift_rows(state);
  sub_bytes(state, aes::inv_sbox());
  add_round_key(state, rk);
  for (int i = 0; i < 16; ++i) out[i] = state[i];
}

}  // namespace wsp::aes_ref
