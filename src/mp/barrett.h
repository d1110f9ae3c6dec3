// Barrett reduction context — one of the paper's five candidate modular
// multiplication algorithms.  Precomputes mu = floor(B^(2k) / m) once per
// modulus and then reduces 2k-limb products with three truncated
// multiplications and at most two final subtractions (HAC Algorithm 14.42).
//
// B = 2^(limb bits) is the modelled radix; the host computes on packed
// 64-bit words, where q1 = floor(x / B^(k-1)), q3 = floor(q1 * mu / B^(k+1))
// and the residues mod B^(k+1) are bit shifts and masks.  q3 and the value
// before the corrections are the limb loop's, and so is the number of
// correction subtractions, with every SubN event (tests/barrett_ref.h keeps
// the limb loop as an oracle).  Scratch stays on the stack for moduli of up
// to 4096 bits.
#pragma once

#include <algorithm>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include "mp/cost.h"
#include "mp/mpn.h"

namespace wsp {

template <typename L>
class Barrett {
 public:
  static constexpr int kBits = mpn::LimbTraits<L>::bits;

  explicit Barrett(std::vector<L> modulus, CostHook* hook = nullptr)
      : m_(std::move(modulus)), hook_(hook) {
    m_.resize(mpn::normalize(m_.data(), m_.size()));
    if (m_.empty()) throw std::invalid_argument("Barrett: zero modulus");
    const std::size_t k = m_.size();
    // mu = floor(B^(2k) / m): divide a 2k+1-limb power of B by m.
    std::vector<L> b2k(2 * k + 1, 0);
    b2k[2 * k] = 1;
    mu_.assign(2 * k + 1 - k + 1, 0);
    std::vector<L> rem(k, 0);
    mpn::divrem(mu_.data(), rem.data(), b2k.data(), b2k.size(), m_.data(), k);
    note_divrem(hook_, b2k.size(), k, static_cast<unsigned>(kBits));
    mu_.resize(mpn::normalize(mu_.data(), mu_.size()));
    // The packed operands: m zero-padded to the k + 1 limbs every residue
    // mod B^(k+1) spans, and mu.
    m_words_.assign(mpn::detail::words_for<L>(k + 1), 0);
    mpn::detail::pack_words(m_words_.data(), m_.data(), k);
    mu_words_.resize(mpn::detail::words_for<L>(mu_.size()));
    mpn::detail::pack_words(mu_words_.data(), mu_.data(), mu_.size());
  }

  std::size_t limbs() const { return m_.size(); }
  const std::vector<L>& modulus() const { return m_; }
  /// The precomputed constant mu = floor(B^(2k) / m).
  const std::vector<L>& mu() const { return mu_; }
  void set_hook(CostHook* hook) { hook_ = hook; }

  /// r = x mod m where x has at most 2k limbs.  r gets k limbs.
  void reduce(std::vector<L>& r, const std::vector<L>& x) const {
    const std::size_t k = m_.size();
    const std::size_t xn = std::min(x.size(), 2 * k);
    const std::size_t xw = mpn::detail::words_for<L>(2 * k);
    mpn::detail::Scratch<std::uint64_t, 2 * mpn::detail::kPackedWords> s(xw);
    std::uint64_t* xs = s.data();
    for (std::size_t i = 0; i < xw; ++i) xs[i] = 0;
    mpn::detail::pack_words(xs, x.data(), xn);
    reduce_words(r, xs, xw);
  }

  /// r = (a * b) mod m for k-limb a, b.
  void mulmod(std::vector<L>& r, const std::vector<L>& a,
              const std::vector<L>& b) const {
    const std::size_t k = m_.size();
    const std::size_t kw = mpn::detail::words_for<L>(k);
    mpn::detail::Scratch<std::uint64_t, 4 * mpn::detail::kPackedWords> s(4 * kw);
    std::uint64_t* aw = s.data();
    std::uint64_t* bw = aw + kw;
    std::uint64_t* x = bw + kw;
    mpn::detail::pack_words(aw, a.data(), k);
    mpn::detail::pack_words(bw, b.data(), k);
    mpn::detail::mul_words(x, aw, kw, bw, kw);
    note_n(Prim::kAddMul1, k, k);
    reduce_words(r, x, 2 * kw);
  }

 private:
  void note(Prim p, std::size_t n, std::size_t m = 0) const {
    if (hook_) hook_->on_prim(p, n, m, static_cast<unsigned>(kBits));
  }
  // `count` identical consecutive events.
  void note_n(Prim p, std::size_t n, std::size_t count) const {
    if (hook_) hook_->on_prims(p, n, 0, static_cast<unsigned>(kBits), count);
  }

  // r = x mod m for x < B^(2k) packed in x[0..xw), xw >= words of k + 1
  // limbs.  Events: the two truncated products, the subtraction mod
  // B^(k+1), one SubN per correction and the final Cmp, all at the limb
  // sizes the limb loop runs them (k + 1 limbs).
  void reduce_words(std::vector<L>& r, const std::uint64_t* x, std::size_t xw) const {
    using mpn::detail::kPackedWords;
    const std::size_t k = m_.size();
    const std::size_t rw = m_words_.size();  // words of k + 1 limbs
    const std::size_t muw = mu_words_.size();
    mpn::detail::Scratch<std::uint64_t, 6 * kPackedWords> s(4 * rw + muw);
    std::uint64_t* q1 = s.data();
    std::uint64_t* q2 = q1 + rw;
    std::uint64_t* q3 = q2 + rw + muw;
    std::uint64_t* rr = q3 + rw;

    // q1 = floor(x / B^(k-1)) (below B^(k+1)); q2 = q1 * mu.
    mpn::detail::shift_down_words(q1, rw, x, xw, static_cast<std::size_t>(kBits) * (k - 1));
    mpn::detail::mul_words(q2, q1, rw, mu_words_.data(), muw);
    note_n(Prim::kAddMul1, k + 1, mu_.size());
    // q3 = floor(q2 / B^(k+1)), below B^(k+1) since q3 <= x / m.
    mpn::detail::shift_down_words(q3, rw, q2, rw + muw, static_cast<std::size_t>(kBits) * (k + 1));
    // rr = (x - q3 * m) mod B^(k+1): the low words of both, then the mask.
    mpn::detail::mul_words_low(rr, rw, q3, rw, m_words_.data(), mpn::detail::words_for<L>(k));
    note_n(Prim::kAddMul1, k + 1, k);
    mpn::detail::sub_n_words(rr, x, rr, rw);
    const unsigned top_bits = static_cast<unsigned>(kBits * (k + 1) % 64);
    if (top_bits != 0) rr[rw - 1] &= (std::uint64_t{1} << top_bits) - 1;
    note(Prim::kSubN, k + 1);

    // The true remainder x - q3 * m is below 3m < B^(k+1), so rr is it, and
    // at most two subtractions of m bring it below m.
    int guard = 0;
    while (mpn::detail::cmp_words(rr, m_words_.data(), rw) >= 0) {
      mpn::detail::sub_n_words(rr, rr, m_words_.data(), rw);
      note(Prim::kSubN, k + 1);
      if (++guard > 3) throw std::logic_error("Barrett: correction diverged");
    }
    note(Prim::kCmp, k);
    r.resize(k);
    mpn::detail::unpack_words(r.data(), k, rr);
  }

  std::vector<L> m_;
  std::vector<L> mu_;
  std::vector<std::uint64_t> m_words_;   // m, zero-padded to k + 1 limbs
  std::vector<std::uint64_t> mu_words_;  // mu
  CostHook* hook_ = nullptr;
};

}  // namespace wsp
