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
  /// td[i][b]: InvSubBytes + InvMixColumns contribution of byte lane i,
  /// the column (14s, 9s, 13s, 11s) of s = inv_sbox[b] rotated per lane.
  std::array<std::array<std::uint32_t, 256>, 4> td{};
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

inline std::uint32_t td_column(const Tables& t, std::uint32_t a, std::uint32_t b,
                               std::uint32_t c, std::uint32_t d) {
  return t.td[0][a >> 24] ^ t.td[1][(b >> 16) & 0xff] ^
         t.td[2][(c >> 8) & 0xff] ^ t.td[3][d & 0xff];
}

/// InvMixColumns of one column word: td[i][sbox[x]] = InvMixColumns
/// contribution of x in row i, since inv_sbox undoes sbox.
inline std::uint32_t inv_mix_column(const Tables& t, std::uint32_t w) {
  return t.td[0][t.sbox[w >> 24]] ^ t.td[1][t.sbox[(w >> 16) & 0xff]] ^
         t.td[2][t.sbox[(w >> 8) & 0xff]] ^ t.td[3][t.sbox[w & 0xff]];
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

/// One round of the equivalent inverse cipher: InvShiftRows +
/// InvSubBytes + InvMixColumns + AddRoundKey(k), with k an
/// InvMixColumns-transformed round key (KeySchedule::inv_round_keys).
inline State decrypt_round(const State& s, const std::uint32_t* k, const Tables& t) {
  return {td_column(t, s[0], s[3], s[2], s[1]) ^ k[0],
          td_column(t, s[1], s[0], s[3], s[2]) ^ k[1],
          td_column(t, s[2], s[1], s[0], s[3]) ^ k[2],
          td_column(t, s[3], s[2], s[1], s[0]) ^ k[3]};
}

// Whole-block bodies, inlined into every block and CBC loop so the state
// stays in registers instead of passing through a call.
[[gnu::always_inline]] inline State encrypt_state(State s, const KeySchedule& ks,
                                                const Tables& t) {
  const std::uint32_t* rk = ks.round_keys.data();
  s = xor_state(s, rk);
  for (int round = 1; round < ks.rounds; ++round) {
    s = encrypt_round(s, rk + 4 * round, t);
  }
  return encrypt_last_round(s, rk + 4 * ks.rounds, t);
}

[[gnu::always_inline]] inline State decrypt_state(State s, const KeySchedule& ks,
                                                const Tables& t) {
  const std::uint32_t* rk = ks.inv_round_keys.data();
  s = xor_state(s, rk + 4 * ks.rounds);
  for (int round = ks.rounds - 1; round >= 1; --round) {
    s = decrypt_round(s, rk + 4 * round, t);
  }
  return decrypt_last_round(s, rk, t);
}

void check_len16(std::size_t n) {
  if (n % 16 != 0) throw std::invalid_argument("aes: length must be multiple of 16");
}

std::uint32_t sub_word(std::uint32_t w) {
  const auto& s = tables().sbox;
  return (static_cast<std::uint32_t>(s[(w >> 24) & 0xff]) << 24) |
         (static_cast<std::uint32_t>(s[(w >> 16) & 0xff]) << 16) |
         (static_cast<std::uint32_t>(s[(w >> 8) & 0xff]) << 8) |
         s[w & 0xff];
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
  // Decryption tables: the InvMixColumns column (14b, 9b, 13b, 11b) of
  // b = InvSubBytes(v), rotated per lane.
  for (int v = 0; v < 256; ++v) {
    const std::uint8_t b = inv_sbox[static_cast<std::size_t>(v)];
    const std::uint32_t u0 = (static_cast<std::uint32_t>(gf_mul(b, 14)) << 24) |
                             (static_cast<std::uint32_t>(gf_mul(b, 9)) << 16) |
                             (static_cast<std::uint32_t>(gf_mul(b, 13)) << 8) |
                             gf_mul(b, 11);
    td[0][static_cast<std::size_t>(v)] = u0;
    td[1][static_cast<std::size_t>(v)] = (u0 >> 8) | (u0 << 24);
    td[2][static_cast<std::size_t>(v)] = (u0 >> 16) | (u0 << 16);
    td[3][static_cast<std::size_t>(v)] = (u0 >> 24) | (u0 << 8);
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
  ks.inv_round_keys = ks.round_keys;
  const Tables& tabs = tables();
  for (std::size_t i = 4; i < static_cast<std::size_t>(4 * rounds); ++i) {
    ks.inv_round_keys[i] = inv_mix_column(tabs, ks.round_keys[i]);
  }
  return ks;
}

KeySchedule key_schedule(const std::vector<std::uint8_t>& key) {
  return key_schedule(key.data(), key.size());
}

void encrypt_block(const std::uint8_t in[16], std::uint8_t out[16],
                   const KeySchedule& ks) {
  store_state(encrypt_state(load_state(in), ks, tables()), out);
}

void decrypt_block(const std::uint8_t in[16], std::uint8_t out[16],
                   const KeySchedule& ks) {
  store_state(decrypt_state(load_state(in), ks, tables()), out);
}

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

void encrypt_cbc(const std::uint8_t* in, std::uint8_t* out, std::size_t n,
                 const KeySchedule& ks, std::array<std::uint8_t, 16>& chain) {
  check_len16(n);
  const Tables& t = tables();
  State c = load_state(chain.data());
  for (std::size_t i = 0; i < n; i += 16) {
    c = encrypt_state(xor_state(load_state(in + i), c.data()), ks, t);
    store_state(c, out + i);
  }
  store_state(c, chain.data());
}

void decrypt_cbc(const std::uint8_t* in, std::uint8_t* out, std::size_t n,
                 const KeySchedule& ks, std::array<std::uint8_t, 16>& chain) {
  check_len16(n);
  const Tables& t = tables();
  State prev = load_state(chain.data());
  for (std::size_t i = 0; i < n; i += 16) {
    const State c = load_state(in + i);  // loaded before out + i is written
    store_state(xor_state(decrypt_state(c, ks, t), prev.data()), out + i);
    prev = c;
  }
  store_state(prev, chain.data());
}

const std::array<std::uint8_t, 256>& sbox() { return tables().sbox; }
const std::array<std::uint8_t, 256>& inv_sbox() { return tables().inv_sbox; }
const std::array<std::uint32_t, 256>& te(int i) {
  return tables().te[static_cast<std::size_t>(i)];
}

}  // namespace wsp::aes
