// Montgomery modular multiplication contexts.
//
// Two of the paper's five candidate modular-multiplication algorithms are
// Montgomery variants; we implement SOS (separated operand scanning: full
// product followed by Montgomery reduction) and CIOS (coarsely integrated
// operand scanning), plus FIOS as an extension used in ablations.
// All variants are templated on the limb type to cover both radix options.
//
// On a little-endian host, when the modulus fills whole 64-bit words
// (nn * limb bits % 64 == 0) and is at most 4096 bits, SOS and CIOS run on
// those packed words (FIOS, which no workload uses, keeps its limb loop): the
// radix-2^64 algorithm with R = 2^(64 * words) = 2^(limb bits * nn) picks the
// one multiple M of the modulus in [0, R) that the limb loop picks, so the
// value before the final subtraction, the result and the cost-event stream
// are the limb loop's (tests/mont_ref.h keeps the limb loops as oracles).
// Events stay per modelled limb: the contexts emit them, not the host loops.
#pragma once

#include <bit>
#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <vector>

#include "mp/cost.h"
#include "mp/mpn.h"

namespace wsp {

enum class MontVariant { kSOS, kCIOS, kFIOS };

namespace mont_detail {

using U128 = unsigned __int128;

/// Longest modulus, in 64-bit words (4096 bits), on the word path.  A
/// product keeps a, b and its (2 * nw + 1)-word accumulator on the stack;
/// longer moduli keep the limb loops.
inline constexpr std::size_t kMaxWords = mpn::detail::kPackedWords;

/// -n0^{-1} mod 2^64 for odd n0 (Newton: each step doubles the good bits).
inline std::uint64_t neg_inverse_word(std::uint64_t n0) {
  std::uint64_t inv = 1;
  for (int i = 0; i < 6; ++i) inv *= 2 - n0 * inv;
  return 0 - inv;
}

// The products on nw packed words, n0 = -n^{-1} mod 2^64.  Each leaves
// the pre-subtraction value (ab + Mn) / R, with a top word of 0 or 1, in t
// (CIOS) or in the upper half of t (SOS).  A non-zero kNw fixes nw at
// compile time.  At 4 words (the CRT halves of RSA-512 and the primes of a
// 512-bit key) the unrolled loops ran ~1.5x faster than the loop (g++ 12
// -O3, x86-64); at 8 words and more, full unrolling was slower, so only 4
// is fixed.

/// CIOS: t needs nw + 2 words.
template <std::size_t kNw>
void cios_words(std::uint64_t* t, const std::uint64_t* a, const std::uint64_t* b,
                const std::uint64_t* n, std::size_t n_words, std::uint64_t n0) {
  const std::size_t nw = kNw != 0 ? kNw : n_words;
  for (std::size_t k = 0; k < nw + 2; ++k) t[k] = 0;
  for (std::size_t i = 0; i < nw; ++i) {
    // t += a * b[i]
    const std::uint64_t bi = b[i];
    std::uint64_t c = 0;
    for (std::size_t j = 0; j < nw; ++j) {
      const U128 p = static_cast<U128>(a[j]) * bi + t[j] + c;
      t[j] = static_cast<std::uint64_t>(p);
      c = static_cast<std::uint64_t>(p >> 64);
    }
    U128 s = static_cast<U128>(t[nw]) + c;
    t[nw] = static_cast<std::uint64_t>(s);
    // Word nw + 1 is zero after every shift (t < 2R), so this sets it.
    t[nw + 1] = static_cast<std::uint64_t>(s >> 64);
    // t = (t + m * n) / 2^64, the shift done by index: t[0] + m * n[0] is
    // zero mod 2^64 by the choice of m.
    const std::uint64_t m = t[0] * n0;
    U128 p = static_cast<U128>(m) * n[0] + t[0];
    c = static_cast<std::uint64_t>(p >> 64);
    for (std::size_t j = 1; j < nw; ++j) {
      p = static_cast<U128>(m) * n[j] + t[j] + c;
      t[j - 1] = static_cast<std::uint64_t>(p);
      c = static_cast<std::uint64_t>(p >> 64);
    }
    s = static_cast<U128>(t[nw]) + c;
    t[nw - 1] = static_cast<std::uint64_t>(s);
    t[nw] = t[nw + 1] + static_cast<std::uint64_t>(s >> 64);
  }
}

/// SOS: full product, then nw reduction sweeps; t needs 2 * nw + 1 words
/// and the value lands in t[nw..2nw], top word t[2nw].
template <std::size_t kNw>
void sos_words(std::uint64_t* t, const std::uint64_t* a, const std::uint64_t* b,
               const std::uint64_t* n, std::size_t n_words, std::uint64_t n0) {
  const std::size_t nw = kNw != 0 ? kNw : n_words;
  mpn::detail::mul_words(t, a, nw, b, nw);
  t[2 * nw] = 0;
  for (std::size_t i = 0; i < nw; ++i) {
    const std::uint64_t m = t[i] * n0;
    std::uint64_t c = 0;
    for (std::size_t j = 0; j < nw; ++j) {
      const U128 p = static_cast<U128>(m) * n[j] + t[i + j] + c;
      t[i + j] = static_cast<std::uint64_t>(p);
      c = static_cast<std::uint64_t>(p >> 64);
    }
    // Propagate the carry word into the upper part.
    for (std::size_t k = i + nw; c != 0 && k <= 2 * nw; ++k) {
      t[k] += c;
      c = t[k] < c ? 1 : 0;
    }
  }
}

}  // namespace mont_detail

/// Montgomery context for an odd modulus of `n` limbs.
/// Values inside the Montgomery domain are n-limb vectors < modulus.
template <typename L>
class Mont {
 public:
  using W = typename mpn::LimbTraits<L>::Wide;
  static constexpr int kBits = mpn::LimbTraits<L>::bits;

  /// Builds the context: computes n0' = -n^{-1} mod B and R^2 mod n, the
  /// latter from one division.  With a hook, it also emits the Lshift /
  /// SubN / Cmp events of the 2*n*kBits limb doublings that price the setup.
  /// Throws std::invalid_argument for an even or zero modulus.
  explicit Mont(std::vector<L> modulus, CostHook* hook = nullptr)
      : n_(std::move(modulus)), hook_(hook) {
    n_.resize(mpn::normalize(n_.data(), n_.size()));
    if (n_.empty() || (n_[0] & 1) == 0) {
      throw std::invalid_argument("Mont: modulus must be odd and non-zero");
    }
    // Newton iteration for the inverse of n mod B (widened arithmetic: the
    // narrow limb type would promote to int and overflow).
    W inv = 1;
    for (int i = 0; i < 6; ++i) {  // 2^6 = 64 >= limb bits; converges quadratically
      inv = inv * (2 - static_cast<W>(n_[0]) * inv);
    }
    n0inv_ = static_cast<L>(0) - static_cast<L>(inv);  // -n^{-1} mod B

    const std::size_t nn = n_.size();
    if constexpr (std::endian::native == std::endian::little) {
      if (nn * kBits % 64 == 0 && nn * kBits / 64 <= mont_detail::kMaxWords) {
        nw_ = nn * kBits / 64;
        words_.resize(nw_);
        std::memcpy(words_.data(), n_.data(), nn * sizeof(L));
        n0w_ = mont_detail::neg_inverse_word(words_[0]);
      }
    }
    r2_ = r2_divide();
  }

  std::size_t limbs() const { return n_.size(); }
  const std::vector<L>& modulus() const { return n_; }
  L n0inv() const { return n0inv_; }
  const std::vector<L>& r2() const { return r2_; }
  void set_hook(CostHook* hook) { hook_ = hook; }

  /// rp = a * b * R^{-1} mod n, all n-limb Montgomery-domain values.
  void mul(std::vector<L>& rp, const std::vector<L>& a, const std::vector<L>& b,
           MontVariant v) const {
    switch (v) {
      case MontVariant::kSOS: mul_sos(rp, a, b); break;
      case MontVariant::kCIOS: mul_cios(rp, a, b); break;
      case MontVariant::kFIOS: mul_fios(rp, a, b); break;
    }
  }

  /// Converts into the Montgomery domain: a*R mod n.
  std::vector<L> to_mont(const std::vector<L>& a, MontVariant v) const {
    std::vector<L> r(n_.size());
    mul(r, a, r2_, v);
    return r;
  }

  /// Converts out of the Montgomery domain: a*R^{-1} mod n.
  std::vector<L> from_mont(const std::vector<L>& a, MontVariant v) const {
    std::vector<L> one(n_.size(), 0);
    one[0] = 1;
    std::vector<L> r(n_.size());
    mul(r, a, one, v);
    return r;
  }

 private:
  void note(Prim p, std::size_t n, std::size_t m = 0) const {
    if (hook_) hook_->on_prim(p, n, m, static_cast<unsigned>(kBits));
  }
  // `count` identical consecutive events.
  void note_n(Prim p, std::size_t n, std::size_t count) const {
    if (hook_) hook_->on_prims(p, n, 0, static_cast<unsigned>(kBits), count);
  }

  // R^2 mod n as the remainder of 2^(2N) by n, N = nn * kBits.  With a
  // hook, also the events of the 2N limb doublings of 1 that the cost model
  // prices the setup by (context setup; counted by the caching axis of the
  // design space, not the per-multiplication cost): each doubling is one
  // Lshift, a SubN when the doubled value reaches n, and one Cmp.  Doubling
  // i takes acc = 2^(i-1) mod n to 2^i mod n, and floor(2^i / n) =
  // floor(2^(2N) / n) >> (2N - i) gains a low bit of 1 exactly when it
  // subtracts, so bit 2N - i of the quotient is that doubling's SubN.
  std::vector<L> r2_divide() const {
    const std::size_t nn = n_.size();
    std::vector<L> u(2 * nn + 1, 0), q(nn + 2), r(nn);
    u[2 * nn] = 1;
    mpn::divrem(q.data(), r.data(), u.data(), u.size(), n_.data(), nn);
    if (hook_ != nullptr) {
      const std::size_t doublings = 2 * nn * static_cast<std::size_t>(kBits);
      EventBatch setup(hook_, static_cast<unsigned>(kBits));
      for (std::size_t bit = doublings; bit-- > 0;) {
        const std::size_t limb = bit / kBits;
        setup.add(Prim::kLshift, nn);
        if (limb < q.size() && ((q[limb] >> (bit % kBits)) & 1) != 0) {
          setup.add(Prim::kSubN, nn);
        }
        setup.add(Prim::kCmp, nn);
      }
      setup.flush();
    }
    return r;
  }

  // One word-path product on packed words; a fixed 4-word size unrolls.
  template <MontVariant V, std::size_t kNw>
  void product_words(std::uint64_t* t, const std::uint64_t* a,
                     const std::uint64_t* b) const {
    const std::uint64_t* n = words_.data();
    if constexpr (V == MontVariant::kSOS) {
      mont_detail::sos_words<kNw>(t, a, b, n, nw_, n0w_);
    } else {
      mont_detail::cios_words<kNw>(t, a, b, n, nw_, n0w_);
    }
  }

  // Runs SOS or CIOS on the packed words: packs a and b, multiplies, emits
  // the limb loop's sweep events, subtracts the modulus once if the value
  // is >= n (SubN? / Cmp) and unpacks into rp.
  template <MontVariant V>
  void mul_packed(std::vector<L>& rp, const std::vector<L>& a,
                  const std::vector<L>& b) const {
    const std::size_t nn = n_.size();
    const std::size_t nw = nw_;
    // a, b and the accumulator.  Left uninitialized: a and b are copied in
    // and every accumulator word the kernels read is written first.
    std::uint64_t scratch[4 * mont_detail::kMaxWords + 1];
    std::uint64_t* aw = scratch;
    std::uint64_t* bw = aw + nw;
    std::uint64_t* t = bw + nw;
    std::memcpy(aw, a.data(), nn * sizeof(L));
    std::memcpy(bw, b.data(), nn * sizeof(L));
    if (nw == 4) {
      product_words<V, 4>(t, aw, bw);
    } else {
      product_words<V, 0>(t, aw, bw);
    }
    std::uint64_t* v = t;  // the value: t[0..nw), top word t[nw]
    if constexpr (V == MontVariant::kSOS) {
      v = t + nw;
      note_n(Prim::kAddMul1, nn, nn);
      if (hook_) {
        // The reduction sweep: one addmul_1 and one carry propagation per
        // limb, handed over as one run.
        EventBatch sweep(hook_, static_cast<unsigned>(kBits));
        for (std::size_t i = 0; i < nn; ++i) {
          sweep.add(Prim::kAddMul1, nn);
          sweep.add(Prim::kAdd1, nn - i);
        }
        sweep.flush();
      }
    } else {
      // Two addmul_1 sweeps per limb of b.
      note_n(Prim::kAddMul1, nn, 2 * nn);
    }
    if (v[nw] || mpn::detail::cmp_words(v, words_.data(), nw) >= 0) {
      mpn::detail::sub_n_words(v, v, words_.data(), nw);
      note(Prim::kSubN, nn);
    }
    note(Prim::kCmp, nn);
    rp.resize(nn);
    std::memcpy(rp.data(), v, nn * sizeof(L));
  }

  // SOS: t = a*b, then n Montgomery reduction sweeps, then conditional sub.
  void mul_sos(std::vector<L>& rp, const std::vector<L>& a,
               const std::vector<L>& b) const {
    const std::size_t nn = n_.size();
    if (nw_ != 0) {
      mul_packed<MontVariant::kSOS>(rp, a, b);
      return;
    }
    std::vector<L> t(2 * nn + 1, 0);
    for (std::size_t j = 0; j < nn; ++j) {
      t[nn + j] = mpn::addmul_1(t.data() + j, a.data(), nn, b[j]);
    }
    note_n(Prim::kAddMul1, nn, nn);
    for (std::size_t i = 0; i < nn; ++i) {
      const L m = static_cast<L>(t[i] * n0inv_);
      const L carry = mpn::addmul_1(t.data() + i, n_.data(), nn, m);
      note(Prim::kAddMul1, nn);
      // Propagate the carry limb into the upper part.
      mpn::add_1(t.data() + i + nn, t.data() + i + nn, nn + 1 - i, carry);
      note(Prim::kAdd1, nn - i);
    }
    rp.assign(t.begin() + static_cast<std::ptrdiff_t>(nn),
              t.begin() + static_cast<std::ptrdiff_t>(2 * nn));
    if (t[2 * nn] || mpn::cmp(rp.data(), n_.data(), nn) >= 0) {
      mpn::sub_n(rp.data(), rp.data(), n_.data(), nn);
      note(Prim::kSubN, nn);
    }
    note(Prim::kCmp, nn);
  }

  // CIOS: alternate one multiplication sweep and one reduction sweep per
  // limb of b, keeping a short (n+2)-limb accumulator.
  void mul_cios(std::vector<L>& rp, const std::vector<L>& a,
                const std::vector<L>& b) const {
    const std::size_t nn = n_.size();
    if (nw_ != 0) {
      mul_packed<MontVariant::kCIOS>(rp, a, b);
      return;
    }
    std::vector<L> t(nn + 2, 0);
    for (std::size_t i = 0; i < nn; ++i) {
      // t += a * b[i]
      L carry = mpn::addmul_1(t.data(), a.data(), nn, b[i]);
      W s = static_cast<W>(t[nn]) + carry;
      t[nn] = static_cast<L>(s);
      t[nn + 1] = static_cast<L>(t[nn + 1] + static_cast<L>(s >> kBits));
      // t += m * n, then shift one limb.
      const L m = static_cast<L>(t[0] * n0inv_);
      carry = mpn::addmul_1(t.data(), n_.data(), nn, m);
      s = static_cast<W>(t[nn]) + carry;
      t[nn] = static_cast<L>(s);
      t[nn + 1] = static_cast<L>(t[nn + 1] + static_cast<L>(s >> kBits));
      // t[0] is now zero by construction of m; shift down.
      for (std::size_t k = 0; k < nn + 1; ++k) t[k] = t[k + 1];
      t[nn + 1] = 0;
    }
    // Two addmul_1 sweeps per limb of b, all before the final SubN/Cmp.
    note_n(Prim::kAddMul1, nn, 2 * nn);
    rp.assign(t.begin(), t.begin() + static_cast<std::ptrdiff_t>(nn));
    if (t[nn] || mpn::cmp(rp.data(), n_.data(), nn) >= 0) {
      mpn::sub_n(rp.data(), rp.data(), n_.data(), nn);
      note(Prim::kSubN, nn);
    }
    note(Prim::kCmp, nn);
  }

  // FIOS: single fused pass per limb of b — multiplication and reduction
  // interleaved at limb granularity.
  void mul_fios(std::vector<L>& rp, const std::vector<L>& a,
                const std::vector<L>& b) const {
    const std::size_t nn = n_.size();
    std::vector<L> t(nn + 2, 0);
    for (std::size_t i = 0; i < nn; ++i) {
      // First column decides m for this sweep.
      W sum = static_cast<W>(t[0]) + static_cast<W>(a[0]) * b[i];
      const L m = static_cast<L>(static_cast<L>(sum) * n0inv_);
      W carry_ab = sum >> kBits;
      W lowfix = static_cast<W>(static_cast<L>(sum)) + static_cast<W>(n_[0]) * m;
      W carry_mn = lowfix >> kBits;
      for (std::size_t j = 1; j < nn; ++j) {
        const W v = static_cast<W>(t[j]) + static_cast<W>(a[j]) * b[i] + carry_ab;
        carry_ab = v >> kBits;
        const W w = static_cast<W>(static_cast<L>(v)) + static_cast<W>(n_[j]) * m + carry_mn;
        carry_mn = w >> kBits;
        t[j - 1] = static_cast<L>(w);
      }
      const W top = static_cast<W>(t[nn]) + carry_ab + carry_mn;
      t[nn - 1] = static_cast<L>(top);
      t[nn] = static_cast<L>(top >> kBits) + t[nn + 1];
      t[nn + 1] = 0;
    }
    // Cost model: one fused sweep per limb of b does the work of two
    // addmul_1 passes.
    note_n(Prim::kAddMul1, nn, 2 * nn);
    rp.assign(t.begin(), t.begin() + static_cast<std::ptrdiff_t>(nn));
    if (t[nn] || mpn::cmp(rp.data(), n_.data(), nn) >= 0) {
      mpn::sub_n(rp.data(), rp.data(), n_.data(), nn);
      note(Prim::kSubN, nn);
    }
    note(Prim::kCmp, nn);
  }

  std::vector<L> n_;
  L n0inv_ = 0;
  // The word path's modulus and -n^{-1} mod 2^64; nw_ == 0 selects the
  // limb loops (odd counts, radix 16 with nn % 4 != 0, moduli over
  // kMaxWords words, big-endian hosts).  FIOS always runs its limb loop.
  std::size_t nw_ = 0;
  std::vector<std::uint64_t> words_;
  std::uint64_t n0w_ = 0;
  std::vector<L> r2_;
  CostHook* hook_ = nullptr;
};

}  // namespace wsp
