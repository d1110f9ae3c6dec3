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

/// Words that hold n limbs.
template <typename L>
constexpr std::size_t words_for(std::size_t n) {
  return (n + kPerWord<L> - 1) / kPerWord<L>;
}

/// Longest operand, in 64-bit words (4096 bits), whose word-path scratch
/// lives on the stack; longer operands take heap scratch.
inline constexpr std::size_t kPackedWords = 64;

/// n elements of scratch: on the stack up to N, on the heap beyond.
template <typename T, std::size_t N>
class Scratch {
 public:
  explicit Scratch(std::size_t n) {
    if (n > N) {
      heap_.resize(n);
      p_ = heap_.data();
    }
  }
  Scratch(const Scratch&) = delete;
  Scratch& operator=(const Scratch&) = delete;
  T* data() { return p_; }
  const T* data() const { return p_; }

 private:
  T stack_[N];  // left uninitialized: callers write before they read
  std::vector<T> heap_;
  T* p_ = stack_;
};

/// w[0..words_for(n)) = the n limbs of p, zero above them.
template <typename L>
void pack_words(std::uint64_t* w, const L* p, std::size_t n) {
  const std::size_t nw = words_for<L>(n);
  if (nw == 0) return;
  if constexpr (std::endian::native == std::endian::little) {
    w[nw - 1] = 0;  // zero the limbs above n in the top word
    std::memcpy(w, p, n * sizeof(L));
  } else {
    for (std::size_t i = 0; i < nw; ++i) w[i] = 0;
    for (std::size_t i = 0; i < n; ++i) {
      w[i / kPerWord<L>] |= static_cast<std::uint64_t>(p[i])
                            << (LimbTraits<L>::bits * (i % kPerWord<L>));
    }
  }
}

/// p[0..n) = the low n limbs of w.
template <typename L>
void unpack_words(L* p, std::size_t n, const std::uint64_t* w) {
  if constexpr (std::endian::native == std::endian::little) {
    if (n != 0) std::memcpy(p, w, n * sizeof(L));
  } else {
    for (std::size_t i = 0; i < n; ++i) {
      p[i] = static_cast<L>(w[i / kPerWord<L>] >> (LimbTraits<L>::bits * (i % kPerWord<L>)));
    }
  }
}

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

/// z[0..zn) = (x[0..xn) * y[0..yn)) mod 2^(64 zn): the low words only.
inline void mul_words_low(std::uint64_t* z, std::size_t zn, const std::uint64_t* x,
                          std::size_t xn, const std::uint64_t* y, std::size_t yn) {
  for (std::size_t i = 0; i < zn; ++i) z[i] = 0;
  for (std::size_t j = 0; j < yn && j < zn; ++j) {
    const std::uint64_t yj = y[j];
    const std::size_t end = xn < zn - j ? xn : zn - j;
    std::uint64_t c = 0;
    for (std::size_t i = 0; i < end; ++i) {
      const U128 t = static_cast<U128>(x[i]) * yj + z[i + j] + c;
      z[i + j] = static_cast<std::uint64_t>(t);
      c = static_cast<std::uint64_t>(t >> 64);
    }
    if (xn + j < zn) z[xn + j] = c;
  }
}

/// r[0..n) -= a[0..n) * b; returns the borrow-out word.
inline std::uint64_t submul_1_words(std::uint64_t* r, const std::uint64_t* a,
                                    std::size_t n, std::uint64_t b) {
  std::uint64_t c = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const U128 p = static_cast<U128>(a[i]) * b + c;
    const std::uint64_t lo = static_cast<std::uint64_t>(p);
    c = static_cast<std::uint64_t>(p >> 64) + (r[i] < lo ? 1 : 0);
    r[i] -= lo;
  }
  return c;
}

/// r[0..n) = a[0..n) + b[0..n); returns the carry.  r may equal a or b.
inline std::uint64_t add_n_words(std::uint64_t* r, const std::uint64_t* a,
                                 const std::uint64_t* b, std::size_t n) {
  std::uint64_t carry = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint64_t s = a[i] + b[i];
    const std::uint64_t out = (s < a[i]) | (s + carry < s);
    r[i] = s + carry;
    carry = out;
  }
  return carry;
}

/// r[0..n) = a[0..n) - b[0..n); returns the borrow.  r may equal a or b.
inline std::uint64_t sub_n_words(std::uint64_t* r, const std::uint64_t* a,
                                 const std::uint64_t* b, std::size_t n) {
  std::uint64_t borrow = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint64_t d = a[i] - b[i];
    const std::uint64_t out = (a[i] < b[i]) | (d < borrow);
    r[i] = d - borrow;
    borrow = out;
  }
  return borrow;
}

inline int cmp_words(const std::uint64_t* a, const std::uint64_t* b, std::size_t n) {
  for (std::size_t i = n; i-- > 0;) {
    if (a[i] != b[i]) return a[i] < b[i] ? -1 : 1;
  }
  return 0;
}

/// r[0..n) = a[0..n) << s for 0 < s < 64; returns the bits shifted out of
/// the top.  r may equal a.
inline std::uint64_t lshift_words(std::uint64_t* r, const std::uint64_t* a, std::size_t n,
                                  unsigned s) {
  const std::uint64_t out = a[n - 1] >> (64 - s);
  for (std::size_t i = n - 1; i > 0; --i) r[i] = (a[i] << s) | (a[i - 1] >> (64 - s));
  r[0] = a[0] << s;
  return out;
}

/// dst[0..n) = the words of src[0..sn) >> bits, reading zero above sn.
inline void shift_down_words(std::uint64_t* dst, std::size_t n, const std::uint64_t* src,
                             std::size_t sn, std::size_t bits) {
  const std::size_t off = bits / 64;
  const unsigned s = static_cast<unsigned>(bits % 64);
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t k = i + off;
    const std::uint64_t lo = k < sn ? src[k] : 0;
    const std::uint64_t hi = k + 1 < sn ? src[k + 1] : 0;
    dst[i] = s == 0 ? lo : (lo >> s) | (hi << (64 - s));
  }
}

/// floor((2^128 - 1) / d) - 2^64 for a normalised d (top bit set): the
/// reciprocal div_2by1 divides by.
inline std::uint64_t reciprocal_word(std::uint64_t d) {
  return static_cast<std::uint64_t>(~U128{0} / d);  // the quotient is 2^64 + v
}

/// The quotient of <u1, u0> by a normalised d, for u1 < d and
/// v = reciprocal_word(d); the remainder goes to r.  Two multiplications and
/// no hardware divide (Moeller and Granlund, "Improved division by invariant
/// integers", IEEE TC 2011, Algorithm 4).
inline std::uint64_t div_2by1(std::uint64_t u1, std::uint64_t u0, std::uint64_t d,
                              std::uint64_t v, std::uint64_t& r) {
  const U128 p = static_cast<U128>(v) * u1 + ((static_cast<U128>(u1) << 64) | u0);
  std::uint64_t q = static_cast<std::uint64_t>(p >> 64) + 1;
  std::uint64_t rem = u0 - q * d;
  if (rem > static_cast<std::uint64_t>(p)) {
    --q;
    rem += d;
  }
  if (rem >= d) {
    ++q;
    rem -= d;
  }
  r = rem;
  return q;
}

/// A divisor packed into 64-bit words and normalised once (shifted left
/// until its top bit is set, with the reciprocal of its top word), for
/// Knuth Algorithm D on words.  Holds its words on the stack up to
/// kPackedWords.
class WordDivisor {
 public:
  /// From dn limbs with d[dn - 1] != 0.
  template <typename L>
  WordDivisor(const L* d, std::size_t dn) : dw_(words_for<L>(dn)), d_(dw_) {
    std::uint64_t* w = d_.data();
    pack_words(w, d, dn);
    shift_ = static_cast<unsigned>(std::countl_zero(w[dw_ - 1]));
    if (shift_ != 0) lshift_words(w, w, dw_, shift_);
    v_ = reciprocal_word(w[dw_ - 1]);
  }

  /// Divisor length in words.
  std::size_t words() const { return dw_; }

  /// Divides u[0..uw) (uw >= words()) by the divisor.  u needs room for
  /// uw + 1 words and is overwritten: on return u[0..words()) holds the
  /// remainder.  q receives the uw - words() + 1 quotient words unless it
  /// is null.
  void divrem(std::uint64_t* q, std::uint64_t* u, std::size_t uw) const;

 private:
  std::size_t dw_;
  Scratch<std::uint64_t, kPackedWords> d_;
  unsigned shift_ = 0;
  std::uint64_t v_ = 0;
};

}  // namespace detail

// On a little-endian host, where 4 radix-16 or 2 radix-32 limbs in memory
// are one 64-bit word, addmul_1 and submul_1 step a word at a time and
// finish the tail limb by limb; elsewhere they run the limb loop alone.
// mul_basecase and divrem pack their operands into 64-bit words on any
// host.  Every kernel computes the integer the limb loop computes, so the
// result limbs and the carry/borrow limb are the same (tests/mpn_ref.h
// keeps the limb loops as oracles).  Cost events stay per modelled limb:
// the callers emit them.

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

/// rp[0..an+bn) = a[0..an) * b[0..bn), schoolbook on the operands packed
/// into 64-bit words, multiplied 64x64->128.  rp must not alias a/b.
template <typename L>
void mul_basecase(L* rp, const L* a, std::size_t an, const L* b, std::size_t bn) {
  if (an == 0 || bn == 0) {
    for (std::size_t i = 0; i < an + bn; ++i) rp[i] = 0;
    return;
  }
  const std::size_t aw = detail::words_for<L>(an);
  const std::size_t bw = detail::words_for<L>(bn);
  detail::Scratch<std::uint64_t, 4 * detail::kPackedWords> s(2 * (aw + bw));
  std::uint64_t* x = s.data();
  std::uint64_t* y = x + aw;
  std::uint64_t* z = y + bw;
  detail::pack_words(x, a, an);
  detail::pack_words(y, b, bn);
  detail::mul_words(z, x, aw, y, bw);
  // The product fits in an + bn limbs; the words above are zero.
  detail::unpack_words(rp, an + bn, z);
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

/// Knuth Algorithm D long division on packed 64-bit words
/// (detail::WordDivisor).
/// Computes q = u / d and r = u mod d where u has un limbs and d has dn
/// normalized limbs (d[dn-1] != 0), un >= dn >= 1.
/// q receives un - dn + 1 limbs (skipped when q is null), r receives dn
/// limbs.  Scratch stays on the stack for dividends of up to
/// 2 * detail::kPackedWords + 1 words (a 4096-bit modulus squared).
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
  const detail::WordDivisor div(d, dn);
  const std::size_t uw = detail::words_for<L>(un);
  const std::size_t qw = uw - div.words() + 1;
  // u with its normalisation word, then q: on the stack for uw up to
  // 2 * kPackedWords + 1.
  detail::Scratch<std::uint64_t, 4 * detail::kPackedWords + 3> s(uw + 1 + qw);
  std::uint64_t* uwords = s.data();
  std::uint64_t* qwords = uwords + uw + 1;
  detail::pack_words(uwords, u, un);
  div.divrem(q != nullptr ? qwords : nullptr, uwords, uw);
  if (q != nullptr) detail::unpack_words(q, un - dn + 1, qwords);
  detail::unpack_words(r, dn, uwords);
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
