#include "crypto/des.h"

#include <stdexcept>

namespace wsp::des {

namespace {

// FIPS-46 tables.  Entries are 1-based bit positions counted from the MSB,
// as in the standard.
constexpr int kIP[64] = {
    58, 50, 42, 34, 26, 18, 10, 2, 60, 52, 44, 36, 28, 20, 12, 4,
    62, 54, 46, 38, 30, 22, 14, 6, 64, 56, 48, 40, 32, 24, 16, 8,
    57, 49, 41, 33, 25, 17, 9,  1, 59, 51, 43, 35, 27, 19, 11, 3,
    61, 53, 45, 37, 29, 21, 13, 5, 63, 55, 47, 39, 31, 23, 15, 7};

constexpr int kFP[64] = {
    40, 8, 48, 16, 56, 24, 64, 32, 39, 7, 47, 15, 55, 23, 63, 31,
    38, 6, 46, 14, 54, 22, 62, 30, 37, 5, 45, 13, 53, 21, 61, 29,
    36, 4, 44, 12, 52, 20, 60, 28, 35, 3, 43, 11, 51, 19, 59, 27,
    34, 2, 42, 10, 50, 18, 58, 26, 33, 1, 41, 9,  49, 17, 57, 25};

constexpr int kE[48] = {32, 1,  2,  3,  4,  5,  4,  5,  6,  7,  8,  9,
                        8,  9,  10, 11, 12, 13, 12, 13, 14, 15, 16, 17,
                        16, 17, 18, 19, 20, 21, 20, 21, 22, 23, 24, 25,
                        24, 25, 26, 27, 28, 29, 28, 29, 30, 31, 32, 1};

constexpr int kP[32] = {16, 7, 20, 21, 29, 12, 28, 17, 1,  15, 23, 26, 5,  18, 31, 10,
                        2,  8, 24, 14, 32, 27, 3,  9,  19, 13, 30, 6,  22, 11, 4,  25};

constexpr int kPC1[56] = {57, 49, 41, 33, 25, 17, 9,  1,  58, 50, 42, 34, 26, 18,
                          10, 2,  59, 51, 43, 35, 27, 19, 11, 3,  60, 52, 44, 36,
                          63, 55, 47, 39, 31, 23, 15, 7,  62, 54, 46, 38, 30, 22,
                          14, 6,  61, 53, 45, 37, 29, 21, 13, 5,  28, 20, 12, 4};

constexpr int kPC2[48] = {14, 17, 11, 24, 1,  5,  3,  28, 15, 6,  21, 10,
                          23, 19, 12, 4,  26, 8,  16, 7,  27, 20, 13, 2,
                          41, 52, 31, 37, 47, 55, 30, 40, 51, 45, 33, 48,
                          44, 49, 39, 56, 34, 53, 46, 42, 50, 36, 29, 32};

constexpr int kShifts[16] = {1, 1, 2, 2, 2, 2, 2, 2, 1, 2, 2, 2, 2, 2, 2, 1};

constexpr std::uint8_t kSBox[8][64] = {
    {14, 4,  13, 1, 2,  15, 11, 8,  3,  10, 6,  12, 5,  9,  0, 7,
     0,  15, 7,  4, 14, 2,  13, 1,  10, 6,  12, 11, 9,  5,  3, 8,
     4,  1,  14, 8, 13, 6,  2,  11, 15, 12, 9,  7,  3,  10, 5, 0,
     15, 12, 8,  2, 4,  9,  1,  7,  5,  11, 3,  14, 10, 0,  6, 13},
    {15, 1,  8,  14, 6,  11, 3,  4,  9,  7, 2,  13, 12, 0, 5,  10,
     3,  13, 4,  7,  15, 2,  8,  14, 12, 0, 1,  10, 6,  9, 11, 5,
     0,  14, 7,  11, 10, 4,  13, 1,  5,  8, 12, 6,  9,  3, 2,  15,
     13, 8,  10, 1,  3,  15, 4,  2,  11, 6, 7,  12, 0,  5, 14, 9},
    {10, 0,  9,  14, 6, 3,  15, 5,  1,  13, 12, 7,  11, 4,  2,  8,
     13, 7,  0,  9,  3, 4,  6,  10, 2,  8,  5,  14, 12, 11, 15, 1,
     13, 6,  4,  9,  8, 15, 3,  0,  11, 1,  2,  12, 5,  10, 14, 7,
     1,  10, 13, 0,  6, 9,  8,  7,  4,  15, 14, 3,  11, 5,  2,  12},
    {7,  13, 14, 3, 0,  6,  9,  10, 1,  2, 8, 5,  11, 12, 4,  15,
     13, 8,  11, 5, 6,  15, 0,  3,  4,  7, 2, 12, 1,  10, 14, 9,
     10, 6,  9,  0, 12, 11, 7,  13, 15, 1, 3, 14, 5,  2,  8,  4,
     3,  15, 0,  6, 10, 1,  13, 8,  9,  4, 5, 11, 12, 7,  2,  14},
    {2,  12, 4,  1,  7,  10, 11, 6,  8,  5,  3,  15, 13, 0, 14, 9,
     14, 11, 2,  12, 4,  7,  13, 1,  5,  0,  15, 10, 3,  9, 8,  6,
     4,  2,  1,  11, 10, 13, 7,  8,  15, 9,  12, 5,  6,  3, 0,  14,
     11, 8,  12, 7,  1,  14, 2,  13, 6,  15, 0,  9,  10, 4, 5,  3},
    {12, 1,  10, 15, 9, 2,  6,  8,  0,  13, 3,  4,  14, 7,  5,  11,
     10, 15, 4,  2,  7, 12, 9,  5,  6,  1,  13, 14, 0,  11, 3,  8,
     9,  14, 15, 5,  2, 8,  12, 3,  7,  0,  4,  10, 1,  13, 11, 6,
     4,  3,  2,  12, 9, 5,  15, 10, 11, 14, 1,  7,  6,  0,  8,  13},
    {4,  11, 2,  14, 15, 0, 8,  13, 3,  12, 9, 7,  5,  10, 6, 1,
     13, 0,  11, 7,  4,  9, 1,  10, 14, 3,  5, 12, 2,  15, 8, 6,
     1,  4,  11, 13, 12, 3, 7,  14, 10, 15, 6, 8,  0,  5,  9, 2,
     6,  11, 13, 8,  1,  4, 10, 7,  9,  5,  0, 15, 14, 2,  3, 12},
    {13, 2,  8, 4, 6,  15, 11, 1,  10, 9,  3,  14, 5,  0,  12, 7,
     1,  15, 13, 8, 10, 3,  7,  4,  12, 5,  6,  11, 0,  14, 9,  2,
     7,  11, 4, 1, 9,  12, 14, 2,  0,  6,  10, 13, 15, 3,  5,  8,
     2,  1,  14, 7, 4,  10, 8,  13, 15, 12, 9,  0,  3,  5,  6,  11}};

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

// S-box input indexing: 6-bit value b1 b2 b3 b4 b5 b6 -> row = b1 b6,
// col = b2 b3 b4 b5.
std::uint8_t sbox_lookup(int box, std::uint8_t v6) {
  const int row = ((v6 >> 4) & 2) | (v6 & 1);
  const int col = (v6 >> 1) & 0xf;
  return kSBox[box][row * 16 + col];
}

std::uint32_t rotr32(std::uint32_t v, int n) { return (v >> n) | (v << (32 - n)); }

// Rotates each 32-bit half of a 64-bit block right by n (0 < n < 32).
std::uint64_t rotr_halves(std::uint64_t v, int n) {
  return (static_cast<std::uint64_t>(rotr32(static_cast<std::uint32_t>(v >> 32), n)) << 32) |
         rotr32(static_cast<std::uint32_t>(v), n);
}

using SpTables = std::array<std::array<std::uint32_t, 64>, 8>;

// The combined S-box + P tables in the standard bit order (sp_table).
const SpTables& sp_tables() {
  static const SpTables tabs = [] {
    SpTables t{};
    for (int box = 0; box < 8; ++box) {
      for (int v = 0; v < 64; ++v) {
        const std::uint32_t sv = sbox_lookup(box, static_cast<std::uint8_t>(v));
        // Place the 4-bit S-box output at its position in the 32-bit
        // pre-permutation word, then permute.
        const std::uint32_t positioned = sv << (28 - 4 * box);
        t[box][v] = static_cast<std::uint32_t>(permute<32, 32>(positioned, kP));
      }
    }
    return t;
  }();
  return tabs;
}

std::uint32_t feistel_sp(std::uint32_t r, std::uint64_t k48) {
  const std::uint64_t e = permute<48, 32>(r, kE) ^ k48;
  const SpTables& sp = sp_tables();
  std::uint32_t out = 0;
  for (int i = 0; i < 8; ++i) {
    out |= sp[i][(e >> (42 - 6 * i)) & 0x3f];
  }
  return out;
}

/// Applies an 8x256 byte-scatter permutation table.
inline std::uint64_t scatter(const std::uint64_t (&tab)[8][256],
                             std::uint64_t v) {
  return tab[0][(v >> 56) & 0xff] | tab[1][(v >> 48) & 0xff] |
         tab[2][(v >> 40) & 0xff] | tab[3][(v >> 32) & 0xff] |
         tab[4][(v >> 24) & 0xff] | tab[5][(v >> 16) & 0xff] |
         tab[6][(v >> 8) & 0xff] | tab[7][v & 0xff];
}

// 16 Feistel rounds over N independent blocks, two rounds per iteration so
// the halves never swap: on exit (l[j], r[j]) = (L16, R16) of block j.
// Each round finishes all N blocks before the next starts, so the N
// dependent lookup chains overlap instead of queueing behind one another.
// Decryption runs the subkeys in reverse.
template <int N>
void stage16(std::uint32_t (&l)[N], std::uint32_t (&r)[N], const KeySchedule& ks,
             bool decrypt, const FastTables& t) {
  if (decrypt) {
    for (int i = 15; i > 0; i -= 2) {
      for (int j = 0; j < N; ++j) l[j] = feistel_fast(r[j], ks.kw[i].data(), t, l[j]);
      for (int j = 0; j < N; ++j) r[j] = feistel_fast(l[j], ks.kw[i - 1].data(), t, r[j]);
    }
  } else {
    for (int i = 0; i < 16; i += 2) {
      for (int j = 0; j < N; ++j) l[j] = feistel_fast(r[j], ks.kw[i].data(), t, l[j]);
      for (int j = 0; j < N; ++j) r[j] = feistel_fast(l[j], ks.kw[i + 1].data(), t, r[j]);
    }
  }
}

// IP of N blocks into (l, r) halves in the rotated form the rounds use,
// and FP of the (R, L) preoutputs back (FastTables).
template <int N>
void ip_split(const std::uint64_t (&b)[N], std::uint32_t (&l)[N],
              std::uint32_t (&r)[N], const FastTables& t) {
  for (int j = 0; j < N; ++j) {
    const std::uint64_t ip = scatter(t.ip, b[j]);
    l[j] = static_cast<std::uint32_t>(ip >> 32);
    r[j] = static_cast<std::uint32_t>(ip);
  }
}
template <int N>
void fp_join(const std::uint32_t (&l)[N], const std::uint32_t (&r)[N],
             std::uint64_t (&b)[N], const FastTables& t) {
  for (int j = 0; j < N; ++j) {
    b[j] = scatter(t.fp, (static_cast<std::uint64_t>(r[j]) << 32) | l[j]);
  }
}

// Single DES over N blocks in place.
template <int N>
void crypt_fast(std::uint64_t (&b)[N], const KeySchedule& ks, bool decrypt) {
  const FastTables& t = fast_tables();
  std::uint32_t l[N], r[N];
  ip_split(b, l, r, t);
  stage16(l, r, ks, decrypt, t);
  fp_join(l, r, b, t);
}

// Fused EDE over N blocks in place: each stage's pre-output swap feeds the
// next stage's IP through an FP.IP pair that cancels, so the only thing
// left between stages is the half swap — expressed by exchanging the
// (l, r) roles.
template <int N>
void crypt_3des(std::uint64_t (&b)[N], const KeySchedule& a, const KeySchedule& m,
                const KeySchedule& c, bool decrypt) {
  const FastTables& t = fast_tables();
  std::uint32_t l[N], r[N];
  ip_split(b, l, r, t);
  stage16(l, r, a, decrypt, t);
  stage16(r, l, m, !decrypt, t);
  stage16(l, r, c, decrypt, t);
  fp_join(l, r, b, t);
}

// CBC decryption of n bytes (a multiple of 8): `block(x)` decrypts the
// blocks of x in place, for x of 4 blocks and of 1.  All four ciphertext
// blocks are loaded before anything is stored, so in == out is safe.
template <class BlockFn>
void cbc_decrypt(const std::uint8_t* in, std::uint8_t* out, std::size_t n,
                 std::uint64_t& chain, BlockFn block) {
  std::uint64_t prev = chain;
  std::size_t i = 0;
  for (; i + 32 <= n; i += 32) {
    std::uint64_t c[4], p[4];
    for (int j = 0; j < 4; ++j) p[j] = c[j] = load_be64(in + i + 8 * j);
    block(p);
    store_be64(p[0] ^ prev, out + i);
    for (int j = 1; j < 4; ++j) store_be64(p[j] ^ c[j - 1], out + i + 8 * j);
    prev = c[3];
  }
  for (; i < n; i += 8) {
    std::uint64_t p[1] = {load_be64(in + i)};
    const std::uint64_t c = p[0];
    block(p);
    store_be64(p[0] ^ prev, out + i);
    prev = c;
  }
  chain = prev;
}

std::uint32_t rotl28(std::uint32_t v, int n) {
  return ((v << n) | (v >> (28 - n))) & 0x0fffffff;
}

}  // namespace

KeySchedule key_schedule(std::uint64_t key) {
  KeySchedule ks{};
  const std::uint64_t pc1 = permute<56, 64>(key, kPC1);
  std::uint32_t c = static_cast<std::uint32_t>(pc1 >> 28) & 0x0fffffff;
  std::uint32_t d = static_cast<std::uint32_t>(pc1) & 0x0fffffff;
  for (int round = 0; round < 16; ++round) {
    c = rotl28(c, kShifts[round]);
    d = rotl28(d, kShifts[round]);
    const std::uint64_t cd = (static_cast<std::uint64_t>(c) << 28) | d;
    ks.k48[round] = permute<48, 56>(cd, kPC2);
    for (int i = 0; i < 8; ++i) {
      const auto chunk = static_cast<std::uint32_t>((ks.k48[round] >> (42 - 6 * i)) & 0x3f);
      ks.kw[round][i % 2] |= chunk << (26 - 8 * (i / 2));
    }
  }
  return ks;
}

std::uint64_t encrypt_block(std::uint64_t block, const KeySchedule& ks) {
  std::uint64_t b[1] = {block};
  crypt_fast(b, ks, false);
  return b[0];
}
std::uint64_t decrypt_block(std::uint64_t block, const KeySchedule& ks) {
  std::uint64_t b[1] = {block};
  crypt_fast(b, ks, true);
  return b[0];
}

TripleKeySchedule triple_key_schedule(std::uint64_t key1, std::uint64_t key2,
                                      std::uint64_t key3) {
  return TripleKeySchedule{key_schedule(key1), key_schedule(key2),
                           key_schedule(key3)};
}

std::uint64_t encrypt_block_3des(std::uint64_t block, const TripleKeySchedule& ks) {
  std::uint64_t b[1] = {block};
  crypt_3des(b, ks.k1, ks.k2, ks.k3, false);
  return b[0];
}
std::uint64_t decrypt_block_3des(std::uint64_t block, const TripleKeySchedule& ks) {
  std::uint64_t b[1] = {block};
  crypt_3des(b, ks.k3, ks.k2, ks.k1, true);
  return b[0];
}

namespace {
void check_len(std::size_t n) {
  if (n % 8 != 0) throw std::invalid_argument("des: length must be multiple of 8");
}
}  // namespace

void encrypt_cbc_3des(const std::uint8_t* in, std::uint8_t* out, std::size_t n,
                      const TripleKeySchedule& ks, std::uint64_t& chain) {
  check_len(n);
  // IP is a bit permutation, so IP(P ^ C) = IP(P) ^ IP(C), and IP(C) of a
  // ciphertext block C = FP(R16, L16) is the pre-output (R16, L16) itself:
  // in the rotated form the rounds use, the (r, l) they leave.  The chain
  // runs through the 48 rounds only; IP of the next plaintext block and FP
  // of this ciphertext block are off it.
  const FastTables& t = fast_tables();
  const std::uint64_t iv = scatter(t.ip, chain);
  std::uint32_t l[1] = {static_cast<std::uint32_t>(iv)};
  std::uint32_t r[1] = {static_cast<std::uint32_t>(iv >> 32)};
  std::uint64_t c = chain;
  for (std::size_t i = 0; i < n; i += 8) {
    const std::uint64_t p = scatter(t.ip, load_be64(in + i));
    const std::uint32_t pl = static_cast<std::uint32_t>(p >> 32) ^ r[0];
    r[0] = static_cast<std::uint32_t>(p) ^ l[0];
    l[0] = pl;
    stage16(l, r, ks.k1, false, t);
    stage16(r, l, ks.k2, true, t);
    stage16(l, r, ks.k3, false, t);
    c = scatter(t.fp, (static_cast<std::uint64_t>(r[0]) << 32) | l[0]);
    store_be64(c, out + i);
  }
  chain = c;
}

void decrypt_cbc_3des(const std::uint8_t* in, std::uint8_t* out, std::size_t n,
                      const TripleKeySchedule& ks, std::uint64_t& chain) {
  check_len(n);
  cbc_decrypt(in, out, n, chain,
              [&ks](auto& b) { crypt_3des(b, ks.k3, ks.k2, ks.k1, true); });
}

std::vector<std::uint8_t> encrypt_ecb(const std::vector<std::uint8_t>& data,
                                      const KeySchedule& ks) {
  check_len(data.size());
  std::vector<std::uint8_t> out(data.size());
  for (std::size_t i = 0; i < data.size(); i += 8) {
    store_be64(encrypt_block(load_be64(data.data() + i), ks), out.data() + i);
  }
  return out;
}

std::vector<std::uint8_t> decrypt_ecb(const std::vector<std::uint8_t>& data,
                                      const KeySchedule& ks) {
  check_len(data.size());
  std::vector<std::uint8_t> out(data.size());
  for (std::size_t i = 0; i < data.size(); i += 8) {
    store_be64(decrypt_block(load_be64(data.data() + i), ks), out.data() + i);
  }
  return out;
}

std::vector<std::uint8_t> encrypt_cbc(const std::vector<std::uint8_t>& data,
                                      const KeySchedule& ks, std::uint64_t iv) {
  check_len(data.size());
  std::vector<std::uint8_t> out(data.size());
  std::uint64_t chain = iv;
  for (std::size_t i = 0; i < data.size(); i += 8) {
    chain = encrypt_block(load_be64(data.data() + i) ^ chain, ks);
    store_be64(chain, out.data() + i);
  }
  return out;
}

std::vector<std::uint8_t> decrypt_cbc(const std::vector<std::uint8_t>& data,
                                      const KeySchedule& ks, std::uint64_t iv) {
  check_len(data.size());
  std::vector<std::uint8_t> out(data.size());
  cbc_decrypt(data.data(), out.data(), data.size(), iv,
              [&ks](auto& b) { crypt_fast(b, ks, true); });
  return out;
}

const std::array<std::uint32_t, 64>& sp_table(int sbox) {
  return sp_tables()[static_cast<std::size_t>(sbox)];
}

std::uint8_t sbox(int i, std::uint8_t v) { return sbox_lookup(i, v); }

std::uint32_t f_function(std::uint32_t r, std::uint64_t k48) {
  return feistel_sp(r, k48);
}

std::uint64_t initial_permutation(std::uint64_t block) {
  return permute<64, 64>(block, kIP);
}
std::uint64_t final_permutation(std::uint64_t block) {
  return permute<64, 64>(block, kFP);
}

const FastTables& fast_tables() {
  static const FastTables tabs = [] {
    FastTables t{};
    for (int p = 0; p < 8; ++p) {
      for (int v = 0; v < 256; ++v) {
        const std::uint64_t x = static_cast<std::uint64_t>(v) << (56 - 8 * p);
        t.ip[p][v] = rotr_halves(initial_permutation(x), 1);
        t.fp[p][v] = final_permutation(rotr_halves(x, 31));
      }
    }
    for (int box = 0; box < 8; ++box) {
      for (int b = 0; b < 256; ++b) t.sp[box][b] = rotr32(sp_tables()[box][b >> 2], 1);
    }
    return t;
  }();
  return tabs;
}

std::uint64_t load_be64(const std::uint8_t* p) {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v = (v << 8) | p[i];
  return v;
}

void store_be64(std::uint64_t v, std::uint8_t* p) {
  for (int i = 7; i >= 0; --i) {
    p[i] = static_cast<std::uint8_t>(v);
    v >>= 8;
  }
}

}  // namespace wsp::des
