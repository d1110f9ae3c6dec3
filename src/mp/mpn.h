// GMP-style low-level multi-precision kernels ("basic operations" layer of
// the paper's layered software architecture, Sec. 2.2).
//
// Numbers are arrays of limbs, least-significant limb first.  All routines
// are templated on the limb type so the same code runs at radix 2^16 and
// radix 2^32 — the "two radix sizes" axis of the paper's algorithm design
// space (Sec. 4.3).
//
// These routines deliberately mirror the GNU MP mpn API (mpn_add_n,
// mpn_addmul_1, ...) because those are exactly the routines the paper
// characterizes, macro-models, and accelerates with custom instructions.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <vector>

namespace wsp::mpn {

template <typename L>
struct LimbTraits;

template <>
struct LimbTraits<std::uint16_t> {
  using Wide = std::uint32_t;
  static constexpr int bits = 16;
};

template <>
struct LimbTraits<std::uint32_t> {
  using Wide = std::uint64_t;
  static constexpr int bits = 32;
};

/// Number of significant limbs (index of highest non-zero limb + 1).
template <typename L>
std::size_t normalize(const L* p, std::size_t n) {
  while (n > 0 && p[n - 1] == 0) --n;
  return n;
}

/// Lexicographic compare of two n-limb numbers: -1, 0, or +1.
template <typename L>
int cmp(const L* a, const L* b, std::size_t n) {
  for (std::size_t i = n; i-- > 0;) {
    if (a[i] != b[i]) return a[i] < b[i] ? -1 : 1;
  }
  return 0;
}

/// Compare numbers of possibly different significant length.
template <typename L>
int cmp2(const L* a, std::size_t an, const L* b, std::size_t bn) {
  an = normalize(a, an);
  bn = normalize(b, bn);
  if (an != bn) return an < bn ? -1 : 1;
  return cmp(a, b, an);
}

/// rp[0..n) = a[0..n) + b[0..n); returns carry (0 or 1).
template <typename L>
L add_n(L* rp, const L* a, const L* b, std::size_t n) {
  using W = typename LimbTraits<L>::Wide;
  L carry = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const W s = static_cast<W>(a[i]) + b[i] + carry;
    rp[i] = static_cast<L>(s);
    carry = static_cast<L>(s >> LimbTraits<L>::bits);
  }
  return carry;
}

/// rp[0..n) = a[0..n) - b[0..n); returns borrow (0 or 1).
template <typename L>
L sub_n(L* rp, const L* a, const L* b, std::size_t n) {
  using W = typename LimbTraits<L>::Wide;
  L borrow = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const W d = static_cast<W>(a[i]) - b[i] - borrow;
    rp[i] = static_cast<L>(d);
    borrow = static_cast<L>((d >> LimbTraits<L>::bits) & 1);
  }
  return borrow;
}

/// rp[0..n) = a[0..n) + b (single limb); returns carry.
template <typename L>
L add_1(L* rp, const L* a, std::size_t n, L b) {
  using W = typename LimbTraits<L>::Wide;
  L carry = b;
  for (std::size_t i = 0; i < n; ++i) {
    const W s = static_cast<W>(a[i]) + carry;
    rp[i] = static_cast<L>(s);
    carry = static_cast<L>(s >> LimbTraits<L>::bits);
    if (carry == 0 && rp == a) return 0;  // early out when updating in place
  }
  return carry;
}

/// rp[0..n) = a[0..n) - b (single limb); returns borrow.
template <typename L>
L sub_1(L* rp, const L* a, std::size_t n, L b) {
  using W = typename LimbTraits<L>::Wide;
  L borrow = b;
  for (std::size_t i = 0; i < n; ++i) {
    const W d = static_cast<W>(a[i]) - borrow;
    rp[i] = static_cast<L>(d);
    borrow = static_cast<L>((d >> LimbTraits<L>::bits) & 1);
  }
  return borrow;
}

/// rp[0..n) = a[0..n) * b; returns the high limb of the product.
template <typename L>
L mul_1(L* rp, const L* a, std::size_t n, L b) {
  using W = typename LimbTraits<L>::Wide;
  L carry = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const W p = static_cast<W>(a[i]) * b + carry;
    rp[i] = static_cast<L>(p);
    carry = static_cast<L>(p >> LimbTraits<L>::bits);
  }
  return carry;
}

namespace detail {

using U128 = unsigned __int128;

/// Limbs per 64-bit host word (4 at radix 16, 2 at radix 32).
template <typename L>
inline constexpr std::size_t kPerWord = sizeof(std::uint64_t) / sizeof(L);

/// Largest operand, in 64-bit words, that mul_basecase packs on the stack
/// (2048 bits); longer operands take the limb loop.
inline constexpr std::size_t kPackedWords = 32;

/// z[0..xn+yn) = x[0..xn) * y[0..yn), 64x64->128 schoolbook on host words.
inline void mul_words(std::uint64_t* z, const std::uint64_t* x, std::size_t xn,
                      const std::uint64_t* y, std::size_t yn) {
  for (std::size_t i = 0; i < xn; ++i) z[i] = 0;
  for (std::size_t j = 0; j < yn; ++j) {
    const std::uint64_t yj = y[j];
    std::uint64_t c = 0;
    for (std::size_t i = 0; i < xn; ++i) {
      const U128 t = static_cast<U128>(x[i]) * yj + z[i + j] + c;
      z[i + j] = static_cast<std::uint64_t>(t);
      c = static_cast<std::uint64_t>(t >> 64);
    }
    z[xn + j] = c;
  }
}

}  // namespace detail

// On a little-endian host, where 4 radix-16 or 2 radix-32 limbs in memory
// are one 64-bit word, the kernels below step a word at a time and finish
// the tail limb by limb; elsewhere they run the limb loop alone.  They
// compute the integer the limb loop computes, so the result limbs and the
// carry/borrow limb are the same (tests/mpn_ref.h keeps the limb loops as
// oracles).  Cost events stay per modelled limb: the callers emit them.

/// rp[0..n) += a[0..n) * b; returns the carry-out limb.
/// This is the hot inner loop of every multiplication-based public-key
/// operation and the main custom-instruction target in the paper (Fig. 5b).
template <typename L>
L addmul_1(L* rp, const L* a, std::size_t n, L b) {
  using W = typename LimbTraits<L>::Wide;
  std::size_t i = 0;
  L carry = 0;
  if constexpr (std::endian::native == std::endian::little) {
    constexpr std::size_t kPer = detail::kPerWord<L>;
    std::uint64_t c = 0;  // stays below 2^bits: x*b + r + c < 2^64 * 2^bits
    for (const std::size_t end = n - n % kPer; i < end; i += kPer) {
      std::uint64_t x = 0, r = 0;
      std::memcpy(&x, a + i, sizeof x);
      std::memcpy(&r, rp + i, sizeof r);
      const detail::U128 p = static_cast<detail::U128>(x) * b + r + c;
      r = static_cast<std::uint64_t>(p);
      std::memcpy(rp + i, &r, sizeof r);
      c = static_cast<std::uint64_t>(p >> 64);
    }
    carry = static_cast<L>(c);
  }
  for (; i < n; ++i) {
    const W p = static_cast<W>(a[i]) * b + rp[i] + carry;
    rp[i] = static_cast<L>(p);
    carry = static_cast<L>(p >> LimbTraits<L>::bits);
  }
  return carry;
}

/// rp[0..n) -= a[0..n) * b; returns the borrow-out limb.
template <typename L>
L submul_1(L* rp, const L* a, std::size_t n, L b) {
  using W = typename LimbTraits<L>::Wide;
  std::size_t i = 0;
  L borrow = 0;
  if constexpr (std::endian::native == std::endian::little) {
    constexpr std::size_t kPer = detail::kPerWord<L>;
    std::uint64_t c = 0;  // stays below 2^bits, as in the limb loop
    for (const std::size_t end = n - n % kPer; i < end; i += kPer) {
      std::uint64_t x = 0, r = 0;
      std::memcpy(&x, a + i, sizeof x);
      std::memcpy(&r, rp + i, sizeof r);
      const detail::U128 p = static_cast<detail::U128>(x) * b + c;
      const std::uint64_t lo = static_cast<std::uint64_t>(p);
      c = static_cast<std::uint64_t>(p >> 64) + (r < lo ? 1 : 0);
      r -= lo;
      std::memcpy(rp + i, &r, sizeof r);
    }
    borrow = static_cast<L>(c);
  }
  for (; i < n; ++i) {
    const W p = static_cast<W>(a[i]) * b + borrow;
    const L lo = static_cast<L>(p);
    borrow = static_cast<L>(p >> LimbTraits<L>::bits);
    if (rp[i] < lo) ++borrow;
    rp[i] = static_cast<L>(rp[i] - lo);
  }
  return borrow;
}

/// rp[0..an+bn) = a[0..an) * b[0..bn), schoolbook.  rp must not alias a/b.
/// On a little-endian host, operands of up to detail::kPackedWords words are
/// packed into 64-bit words and multiplied 64x64->128; longer ones take the
/// limb loop.
template <typename L>
void mul_basecase(L* rp, const L* a, std::size_t an, const L* b, std::size_t bn) {
  if constexpr (std::endian::native == std::endian::little) {
    constexpr std::size_t kPer = detail::kPerWord<L>;
    const std::size_t aw = (an + kPer - 1) / kPer;
    const std::size_t bw = (bn + kPer - 1) / kPer;
    if (an > 0 && bn > 0 && aw <= detail::kPackedWords && bw <= detail::kPackedWords) {
      // Left uninitialized: only words [0, aw), [0, bw) and [0, aw + bw)
      // are read, and each is written first.
      std::uint64_t x[detail::kPackedWords], y[detail::kPackedWords];
      std::uint64_t z[2 * detail::kPackedWords];
      x[aw - 1] = 0;  // zero the limbs above an in the top word
      y[bw - 1] = 0;
      std::memcpy(x, a, an * sizeof(L));
      std::memcpy(y, b, bn * sizeof(L));
      detail::mul_words(z, x, aw, y, bw);
      // The product fits in an + bn limbs; the words above are zero.
      std::memcpy(rp, z, (an + bn) * sizeof(L));
      return;
    }
  }
  for (std::size_t i = 0; i < an + bn; ++i) rp[i] = 0;
  for (std::size_t j = 0; j < bn; ++j) {
    rp[an + j] = addmul_1(rp + j, a, an, b[j]);
  }
}

/// Karatsuba threshold in limbs.  Below this, schoolbook wins.
inline constexpr std::size_t kKaratsubaThreshold = 16;

/// rp[0..2n) = a[0..n) * b[0..n) via Karatsuba recursion.
/// rp must not alias a/b.
template <typename L>
void mul_karatsuba(L* rp, const L* a, const L* b, std::size_t n);

/// General product dispatching between schoolbook and Karatsuba.
template <typename L>
void mul(L* rp, const L* a, std::size_t an, const L* b, std::size_t bn) {
  if (an == bn && an >= kKaratsubaThreshold) {
    mul_karatsuba(rp, a, b, an);
  } else {
    mul_basecase(rp, a, an, b, bn);
  }
}

/// Left shift by `count` bits (0 < count < limb bits); returns bits shifted
/// out of the top.  rp may equal a.
template <typename L>
L lshift(L* rp, const L* a, std::size_t n, unsigned count) {
  const unsigned bits = LimbTraits<L>::bits;
  const unsigned tnc = bits - count;
  L high = 0;
  for (std::size_t i = n; i-- > 0;) {
    const L x = a[i];
    const L out = static_cast<L>(x >> tnc);
    if (i == n - 1) high = out;
    rp[i] = static_cast<L>(x << count);
    if (i + 1 < n) rp[i + 1] |= out;
  }
  return high;
}

/// Right shift by `count` bits (0 < count < limb bits); returns the bits
/// shifted out of the bottom limb, left-aligned.  rp may equal a.
template <typename L>
L rshift(L* rp, const L* a, std::size_t n, unsigned count) {
  const unsigned bits = LimbTraits<L>::bits;
  const unsigned tnc = bits - count;
  L low = static_cast<L>(a[0] << tnc);
  for (std::size_t i = 0; i < n; ++i) {
    rp[i] = static_cast<L>(a[i] >> count);
    if (i + 1 < n) rp[i] |= static_cast<L>(a[i + 1] << tnc);
  }
  return low;
}

/// Knuth Algorithm D long division.
/// Computes q = u / d and r = u mod d where u has un limbs and d has dn
/// normalized limbs (d[dn-1] != 0), un >= dn >= 1.
/// q receives un - dn + 1 limbs, r receives dn limbs.
/// None of the output buffers may alias the inputs.
template <typename L>
void divrem(L* q, L* r, const L* u, std::size_t un, const L* d, std::size_t dn);

/// Count leading zero bits of a non-zero limb.
template <typename L>
unsigned clz(L x) {
  unsigned n = 0;
  for (int b = LimbTraits<L>::bits / 2; b > 0; b /= 2) {
    const L hi = static_cast<L>(x >> (LimbTraits<L>::bits - b));
    if (hi == 0) {
      n += static_cast<unsigned>(b);
      x = static_cast<L>(x << b);
    }
  }
  return n;
}

/// Total significant bits of an n-limb number.
template <typename L>
std::size_t bit_length(const L* p, std::size_t n) {
  n = normalize(p, n);
  if (n == 0) return 0;
  return n * LimbTraits<L>::bits - clz(p[n - 1]);
}

// ---------------------------------------------------------------------------
// Implementation of the recursive / multi-step routines.
// ---------------------------------------------------------------------------

template <typename L>
void mul_karatsuba(L* rp, const L* a, const L* b, std::size_t n) {
  if (n < kKaratsubaThreshold || (n & 1)) {
    mul_basecase(rp, a, n, b, n);
    return;
  }
  const std::size_t h = n / 2;
  // a = a1*B^h + a0,  b = b1*B^h + b0.
  const L* a0 = a;
  const L* a1 = a + h;
  const L* b0 = b;
  const L* b1 = b + h;

  std::vector<L> z0(2 * h), z2(2 * h), asum(h + 1), bsum(h + 1), zm(2 * h + 2);
  mul_karatsuba(z0.data(), a0, b0, h);
  mul_karatsuba(z2.data(), a1, b1, h);

  asum[h] = add_n(asum.data(), a0, a1, h);
  bsum[h] = add_n(bsum.data(), b0, b1, h);
  // (a0+a1)*(b0+b1): (h+1) x (h+1) product; recursion handles only equal even
  // sizes, so use the general path for the +1 limb.
  mul_basecase(zm.data(), asum.data(), h + 1, bsum.data(), h + 1);

  // zm -= z0 + z2  ->  middle term a0*b1 + a1*b0.
  L borrow = sub_n(zm.data(), zm.data(), z0.data(), 2 * h);
  borrow = static_cast<L>(borrow + sub_1(zm.data() + 2 * h, zm.data() + 2 * h, 2, borrow));
  borrow = sub_n(zm.data(), zm.data(), z2.data(), 2 * h);
  sub_1(zm.data() + 2 * h, zm.data() + 2 * h, 2, borrow);

  // Assemble rp = z2*B^2h + zm*B^h + z0.
  for (std::size_t i = 0; i < 2 * h; ++i) rp[i] = z0[i];
  for (std::size_t i = 0; i < 2 * h; ++i) rp[2 * h + i] = z2[i];
  L carry = add_n(rp + h, rp + h, zm.data(), 2 * h);
  carry = static_cast<L>(carry + zm[2 * h]);  // top limbs of the middle term
  add_1(rp + 3 * h, rp + 3 * h, h, carry);
}

template <typename L>
void divrem(L* q, L* r, const L* u, std::size_t un, const L* d, std::size_t dn) {
  using W = typename LimbTraits<L>::Wide;
  constexpr int kBits = LimbTraits<L>::bits;
  constexpr W kBase = static_cast<W>(1) << kBits;

  if (dn == 1) {
    // Short division.
    W rem = 0;
    for (std::size_t i = un; i-- > 0;) {
      const W cur = (rem << kBits) | u[i];
      q[i] = static_cast<L>(cur / d[0]);
      rem = cur % d[0];
    }
    r[0] = static_cast<L>(rem);
    return;
  }

  // Normalize so the top divisor limb has its high bit set.
  const unsigned shift = clz(d[dn - 1]);
  std::vector<L> dn_v(dn), un_v(un + 1);
  if (shift) {
    lshift(dn_v.data(), d, dn, shift);
    un_v[un] = lshift(un_v.data(), u, un, shift);
  } else {
    for (std::size_t i = 0; i < dn; ++i) dn_v[i] = d[i];
    for (std::size_t i = 0; i < un; ++i) un_v[i] = u[i];
    un_v[un] = 0;
  }
  const L dtop = dn_v[dn - 1];
  const L dsec = dn_v[dn - 2];

  for (std::size_t j = un - dn + 1; j-- > 0;) {
    // Estimate qhat from the top two limbs of the current remainder window.
    const W num = (static_cast<W>(un_v[j + dn]) << kBits) | un_v[j + dn - 1];
    W qhat = num / dtop;
    W rhat = num % dtop;
    if (qhat >= kBase) {
      qhat = kBase - 1;
      rhat = num - qhat * dtop;
    }
    while (rhat < kBase &&
           qhat * static_cast<W>(dsec) >
               ((rhat << kBits) | un_v[j + dn - 2])) {
      --qhat;
      rhat += dtop;
    }
    // Multiply-subtract.
    L borrow = submul_1(un_v.data() + j, dn_v.data(), dn, static_cast<L>(qhat));
    const L top_before = un_v[j + dn];
    un_v[j + dn] = static_cast<L>(top_before - borrow);
    if (top_before < borrow) {
      // qhat was one too large; add back.
      --qhat;
      const L carry = add_n(un_v.data() + j, un_v.data() + j, dn_v.data(), dn);
      un_v[j + dn] = static_cast<L>(un_v[j + dn] + carry);
    }
    q[j] = static_cast<L>(qhat);
  }

  // Denormalize remainder.
  if (shift) {
    rshift(r, un_v.data(), dn, shift);
  } else {
    for (std::size_t i = 0; i < dn; ++i) r[i] = un_v[i];
  }
}

/// Little-endian byte import: bytes[0] is the least significant byte.
template <typename L>
std::vector<L> from_bytes_le(const std::uint8_t* bytes, std::size_t nbytes) {
  constexpr std::size_t per = sizeof(L);
  std::vector<L> out((nbytes + per - 1) / per, 0);
  for (std::size_t i = 0; i < nbytes; ++i) {
    out[i / per] |= static_cast<L>(static_cast<L>(bytes[i]) << (8 * (i % per)));
  }
  return out;
}

/// Little-endian byte export (nbytes bytes, zero padded).
template <typename L>
void to_bytes_le(const L* p, std::size_t n, std::uint8_t* bytes, std::size_t nbytes) {
  constexpr std::size_t per = sizeof(L);
  for (std::size_t i = 0; i < nbytes; ++i) {
    const std::size_t limb = i / per;
    bytes[i] = limb < n ? static_cast<std::uint8_t>(p[limb] >> (8 * (i % per))) : 0;
  }
}

}  // namespace wsp::mpn
