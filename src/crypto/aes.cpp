#include "crypto/aes.h"

#include <stdexcept>

namespace wsp::aes {

namespace {

std::uint8_t xtime(std::uint8_t a) {
  return static_cast<std::uint8_t>((a << 1) ^ ((a & 0x80) ? 0x1b : 0x00));
}

// --- Table-driven round structure ------------------------------------------
// Used by encrypt_block / decrypt_block.  The state is four big-endian
// column words.

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

const Tables& tables() {
  static const Tables t;
  return t;
}

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

std::uint32_t sub_word(std::uint32_t w) {
  const auto& s = tables().sbox;
  return (static_cast<std::uint32_t>(s[(w >> 24) & 0xff]) << 24) |
         (static_cast<std::uint32_t>(s[(w >> 16) & 0xff]) << 16) |
         (static_cast<std::uint32_t>(s[(w >> 8) & 0xff]) << 8) |
         s[w & 0xff];
}

// --- reference round operations on a 16-byte column-major state ----------
// state[4*c + r] is the byte at row r, column c (FIPS-197 layout when the
// input is copied column by column).

void add_round_key(std::uint8_t state[16], const std::uint32_t* rk) {
  for (int c = 0; c < 4; ++c) {
    state[4 * c + 0] ^= static_cast<std::uint8_t>(rk[c] >> 24);
    state[4 * c + 1] ^= static_cast<std::uint8_t>(rk[c] >> 16);
    state[4 * c + 2] ^= static_cast<std::uint8_t>(rk[c] >> 8);
    state[4 * c + 3] ^= static_cast<std::uint8_t>(rk[c]);
  }
}

void sub_bytes(std::uint8_t state[16], const std::array<std::uint8_t, 256>& box) {
  for (int i = 0; i < 16; ++i) state[i] = box[state[i]];
}

void shift_rows(std::uint8_t state[16]) {
  for (int r = 1; r < 4; ++r) {
    std::uint8_t row[4];
    for (int c = 0; c < 4; ++c) row[c] = state[4 * ((c + r) % 4) + r];
    for (int c = 0; c < 4; ++c) state[4 * c + r] = row[c];
  }
}

void inv_shift_rows(std::uint8_t state[16]) {
  for (int r = 1; r < 4; ++r) {
    std::uint8_t row[4];
    for (int c = 0; c < 4; ++c) row[c] = state[4 * ((c + 4 - r) % 4) + r];
    for (int c = 0; c < 4; ++c) state[4 * c + r] = row[c];
  }
}

void mix_columns(std::uint8_t state[16]) {
  for (int c = 0; c < 4; ++c) {
    std::uint8_t* col = state + 4 * c;
    const std::uint8_t a0 = col[0], a1 = col[1], a2 = col[2], a3 = col[3];
    col[0] = static_cast<std::uint8_t>(xtime(a0) ^ (xtime(a1) ^ a1) ^ a2 ^ a3);
    col[1] = static_cast<std::uint8_t>(a0 ^ xtime(a1) ^ (xtime(a2) ^ a2) ^ a3);
    col[2] = static_cast<std::uint8_t>(a0 ^ a1 ^ xtime(a2) ^ (xtime(a3) ^ a3));
    col[3] = static_cast<std::uint8_t>((xtime(a0) ^ a0) ^ a1 ^ a2 ^ xtime(a3));
  }
}

void inv_mix_columns(std::uint8_t state[16]) {
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

}  // namespace

std::uint8_t gf_mul(std::uint8_t a, std::uint8_t b) {
  std::uint8_t r = 0;
  while (b) {
    if (b & 1) r ^= a;
    a = xtime(a);
    b >>= 1;
  }
  return r;
}

// S-box built from the multiplicative inverse in GF(2^8) followed by the
// affine transform, per FIPS-197 — synthesized, not transcribed.
Tables::Tables() {
  // Build log/antilog tables over generator 3.
  std::array<std::uint8_t, 256> alog{};
  std::array<std::uint8_t, 256> log{};
  std::uint8_t p = 1;
  for (int i = 0; i < 255; ++i) {
    alog[static_cast<std::size_t>(i)] = p;
    log[p] = static_cast<std::uint8_t>(i);
    p = static_cast<std::uint8_t>(p ^ xtime(p));  // multiply by 3
  }
  auto inverse = [&](std::uint8_t a) -> std::uint8_t {
    if (a == 0) return 0;
    return alog[static_cast<std::size_t>((255 - log[a]) % 255)];
  };
  for (int v = 0; v < 256; ++v) {
    const std::uint8_t inv = inverse(static_cast<std::uint8_t>(v));
    std::uint8_t s = 0;
    for (int bit = 0; bit < 8; ++bit) {
      const int b = ((inv >> bit) & 1) ^ ((inv >> ((bit + 4) % 8)) & 1) ^
                    ((inv >> ((bit + 5) % 8)) & 1) ^
                    ((inv >> ((bit + 6) % 8)) & 1) ^
                    ((inv >> ((bit + 7) % 8)) & 1) ^ ((0x63 >> bit) & 1);
      s |= static_cast<std::uint8_t>(b << bit);
    }
    sbox[static_cast<std::size_t>(v)] = s;
    inv_sbox[s] = static_cast<std::uint8_t>(v);
  }
  // Encryption T-tables: column contribution (2s, s, s, 3s) rotated per lane.
  for (int v = 0; v < 256; ++v) {
    const std::uint8_t s = sbox[static_cast<std::size_t>(v)];
    const std::uint8_t s2 = xtime(s);
    const std::uint8_t s3 = static_cast<std::uint8_t>(s2 ^ s);
    const std::uint32_t t0 = (static_cast<std::uint32_t>(s2) << 24) |
                             (static_cast<std::uint32_t>(s) << 16) |
                             (static_cast<std::uint32_t>(s) << 8) | s3;
    te[0][static_cast<std::size_t>(v)] = t0;
    te[1][static_cast<std::size_t>(v)] = (t0 >> 8) | (t0 << 24);
    te[2][static_cast<std::size_t>(v)] = (t0 >> 16) | (t0 << 16);
    te[3][static_cast<std::size_t>(v)] = (t0 >> 24) | (t0 << 8);
  }
  // InvMixColumns tables: the column (14b, 9b, 13b, 11b) rotated per row.
  for (int v = 0; v < 256; ++v) {
    const auto b = static_cast<std::uint8_t>(v);
    const std::uint32_t u0 = (static_cast<std::uint32_t>(gf_mul(b, 14)) << 24) |
                             (static_cast<std::uint32_t>(gf_mul(b, 9)) << 16) |
                             (static_cast<std::uint32_t>(gf_mul(b, 13)) << 8) |
                             gf_mul(b, 11);
    imc[0][static_cast<std::size_t>(v)] = u0;
    imc[1][static_cast<std::size_t>(v)] = (u0 >> 8) | (u0 << 24);
    imc[2][static_cast<std::size_t>(v)] = (u0 >> 16) | (u0 << 16);
    imc[3][static_cast<std::size_t>(v)] = (u0 >> 24) | (u0 << 8);
  }
}

KeySchedule key_schedule(const std::uint8_t* key, std::size_t key_len) {
  int nk;
  int rounds;
  switch (key_len) {
    case 16: nk = 4; rounds = 10; break;
    case 24: nk = 6; rounds = 12; break;
    case 32: nk = 8; rounds = 14; break;
    default: throw std::invalid_argument("aes: key must be 16/24/32 bytes");
  }
  KeySchedule ks;
  ks.rounds = rounds;
  ks.round_keys.resize(static_cast<std::size_t>(4 * (rounds + 1)));
  for (int i = 0; i < nk; ++i) {
    ks.round_keys[static_cast<std::size_t>(i)] = load_be32(key + 4 * i);
  }
  std::uint32_t rcon = 0x01000000;
  for (int i = nk; i < 4 * (rounds + 1); ++i) {
    std::uint32_t t = ks.round_keys[static_cast<std::size_t>(i - 1)];
    if (i % nk == 0) {
      t = sub_word((t << 8) | (t >> 24)) ^ rcon;
      rcon = static_cast<std::uint32_t>(xtime(static_cast<std::uint8_t>(rcon >> 24)))
             << 24;
    } else if (nk > 6 && i % nk == 4) {
      t = sub_word(t);
    }
    ks.round_keys[static_cast<std::size_t>(i)] =
        ks.round_keys[static_cast<std::size_t>(i - nk)] ^ t;
  }
  return ks;
}

KeySchedule key_schedule(const std::vector<std::uint8_t>& key) {
  return key_schedule(key.data(), key.size());
}

void encrypt_block_ref(const std::uint8_t in[16], std::uint8_t out[16],
                       const KeySchedule& ks) {
  std::uint8_t state[16];
  for (int i = 0; i < 16; ++i) state[i] = in[i];
  const std::uint32_t* rk = ks.round_keys.data();
  add_round_key(state, rk);
  for (int round = 1; round < ks.rounds; ++round) {
    sub_bytes(state, tables().sbox);
    shift_rows(state);
    mix_columns(state);
    add_round_key(state, rk + 4 * round);
  }
  sub_bytes(state, tables().sbox);
  shift_rows(state);
  add_round_key(state, rk + 4 * ks.rounds);
  for (int i = 0; i < 16; ++i) out[i] = state[i];
}

void decrypt_block_ref(const std::uint8_t in[16], std::uint8_t out[16],
                       const KeySchedule& ks) {
  std::uint8_t state[16];
  for (int i = 0; i < 16; ++i) state[i] = in[i];
  const std::uint32_t* rk = ks.round_keys.data();
  add_round_key(state, rk + 4 * ks.rounds);
  for (int round = ks.rounds - 1; round >= 1; --round) {
    inv_shift_rows(state);
    sub_bytes(state, tables().inv_sbox);
    add_round_key(state, rk + 4 * round);
    inv_mix_columns(state);
  }
  inv_shift_rows(state);
  sub_bytes(state, tables().inv_sbox);
  add_round_key(state, rk);
  for (int i = 0; i < 16; ++i) out[i] = state[i];
}

void encrypt_block(const std::uint8_t in[16], std::uint8_t out[16],
                   const KeySchedule& ks) {
  const Tables& t = tables();
  const std::uint32_t* rk = ks.round_keys.data();
  State s = xor_state(load_state(in), rk);
  for (int round = 1; round < ks.rounds; ++round) {
    s = encrypt_round(s, rk + 4 * round, t);
  }
  store_state(encrypt_last_round(s, rk + 4 * ks.rounds, t), out);
}

void decrypt_block(const std::uint8_t in[16], std::uint8_t out[16],
                   const KeySchedule& ks) {
  const Tables& t = tables();
  const std::uint32_t* rk = ks.round_keys.data();
  State s = xor_state(load_state(in), rk + 4 * ks.rounds);
  for (int round = ks.rounds - 1; round >= 1; --round) {
    s = decrypt_round(s, rk + 4 * round, t);
  }
  store_state(decrypt_last_round(s, rk, t), out);
}

namespace {
void check_len16(std::size_t n) {
  if (n % 16 != 0) throw std::invalid_argument("aes: length must be multiple of 16");
}
}  // namespace

std::vector<std::uint8_t> encrypt_ecb(const std::vector<std::uint8_t>& data,
                                      const KeySchedule& ks) {
  check_len16(data.size());
  std::vector<std::uint8_t> out(data.size());
  for (std::size_t i = 0; i < data.size(); i += 16) {
    encrypt_block(data.data() + i, out.data() + i, ks);
  }
  return out;
}

std::vector<std::uint8_t> decrypt_ecb(const std::vector<std::uint8_t>& data,
                                      const KeySchedule& ks) {
  check_len16(data.size());
  std::vector<std::uint8_t> out(data.size());
  for (std::size_t i = 0; i < data.size(); i += 16) {
    decrypt_block(data.data() + i, out.data() + i, ks);
  }
  return out;
}

std::vector<std::uint8_t> encrypt_cbc(const std::vector<std::uint8_t>& data,
                                      const KeySchedule& ks,
                                      const std::array<std::uint8_t, 16>& iv) {
  check_len16(data.size());
  std::vector<std::uint8_t> out(data.size());
  std::array<std::uint8_t, 16> chain = iv;
  std::uint8_t buf[16];
  for (std::size_t i = 0; i < data.size(); i += 16) {
    for (int b = 0; b < 16; ++b) {
      buf[b] = static_cast<std::uint8_t>(data[i + static_cast<std::size_t>(b)] ^
                                         chain[static_cast<std::size_t>(b)]);
    }
    encrypt_block(buf, out.data() + i, ks);
    for (int b = 0; b < 16; ++b) chain[static_cast<std::size_t>(b)] = out[i + static_cast<std::size_t>(b)];
  }
  return out;
}

std::vector<std::uint8_t> decrypt_cbc(const std::vector<std::uint8_t>& data,
                                      const KeySchedule& ks,
                                      const std::array<std::uint8_t, 16>& iv) {
  check_len16(data.size());
  std::vector<std::uint8_t> out(data.size());
  std::array<std::uint8_t, 16> chain = iv;
  std::uint8_t buf[16];
  for (std::size_t i = 0; i < data.size(); i += 16) {
    decrypt_block(data.data() + i, buf, ks);
    for (int b = 0; b < 16; ++b) {
      out[i + static_cast<std::size_t>(b)] =
          static_cast<std::uint8_t>(buf[b] ^ chain[static_cast<std::size_t>(b)]);
      chain[static_cast<std::size_t>(b)] = data[i + static_cast<std::size_t>(b)];
    }
  }
  return out;
}

const std::array<std::uint8_t, 256>& sbox() { return tables().sbox; }
const std::array<std::uint8_t, 256>& inv_sbox() { return tables().inv_sbox; }
const std::array<std::uint32_t, 256>& te(int i) {
  return tables().te[static_cast<std::size_t>(i)];
}

}  // namespace wsp::aes
