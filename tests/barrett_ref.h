// The limb-loop Barrett context the library shipped before its packed-word
// reduction, kept verbatim as a test oracle (as tests/mont_ref.h keeps the
// limb-loop Montgomery contexts): q1, q3 and the residues mod B^(k+1) are
// limb slices of heap vectors, and mu comes from the limb-loop division in
// tests/mpn_ref.h.  src/mp/barrett.h must compute the same mu, the same
// results and the same cost-event stream, with the same number of
// correction subtractions, for every modulus and operand.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <vector>

#include "mp/cost.h"
#include "mp/mpn.h"
#include "mpn_ref.h"

namespace wsp::barrett_ref {

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
    mpn_ref::divrem(mu_.data(), rem.data(), b2k.data(), b2k.size(), m_.data(), k);
    note_divrem(hook_, b2k.size(), k, static_cast<unsigned>(kBits));
    mu_.resize(mpn::normalize(mu_.data(), mu_.size()));
  }

  std::size_t limbs() const { return m_.size(); }
  const std::vector<L>& modulus() const { return m_; }
  /// The precomputed constant mu = floor(B^(2k) / m).
  const std::vector<L>& mu() const { return mu_; }
  void set_hook(CostHook* hook) { hook_ = hook; }

  /// r = x mod m where x has at most 2k limbs.  r gets k limbs.
  void reduce(std::vector<L>& r, const std::vector<L>& x) const {
    const std::size_t k = m_.size();
    std::vector<L> xx(2 * k, 0);
    for (std::size_t i = 0; i < x.size() && i < 2 * k; ++i) xx[i] = x[i];

    // q1 = floor(x / B^(k-1)) — k+1 limbs.
    std::vector<L> q1(xx.begin() + static_cast<std::ptrdiff_t>(k - 1), xx.end());
    // q2 = q1 * mu.
    std::vector<L> q2(q1.size() + mu_.size(), 0);
    mpn::mul(q2.data(), q1.data(), q1.size(), mu_.data(), mu_.size());
    note_n(Prim::kAddMul1, q1.size(), mu_.size());
    // q3 = floor(q2 / B^(k+1)).
    std::vector<L> q3;
    if (q2.size() > k + 1) {
      q3.assign(q2.begin() + static_cast<std::ptrdiff_t>(k + 1), q2.end());
    }
    q3.resize(k + 1, 0);

    // r1 = x mod B^(k+1); r2 = (q3 * m) mod B^(k+1).
    std::vector<L> r1(xx.begin(), xx.begin() + static_cast<std::ptrdiff_t>(k + 1));
    std::vector<L> prod(q3.size() + k, 0);
    mpn::mul(prod.data(), q3.data(), q3.size(), m_.data(), k);
    note_n(Prim::kAddMul1, q3.size(), k);
    std::vector<L> r2(prod.begin(), prod.begin() + static_cast<std::ptrdiff_t>(k + 1));

    // r = r1 - r2 (mod B^(k+1)); the true remainder is < 3m so the wrap, if
    // any, is corrected by the subtraction loop below.
    std::vector<L> rr(k + 1);
    mpn::sub_n(rr.data(), r1.data(), r2.data(), k + 1);
    note(Prim::kSubN, k + 1);

    // At most two subtractions of m.
    std::vector<L> mk(k + 1, 0);
    for (std::size_t i = 0; i < k; ++i) mk[i] = m_[i];
    int guard = 0;
    while (mpn::cmp2(rr.data(), rr.size(), mk.data(), mk.size()) >= 0) {
      mpn::sub_n(rr.data(), rr.data(), mk.data(), k + 1);
      note(Prim::kSubN, k + 1);
      if (++guard > 3) throw std::logic_error("Barrett: correction diverged");
    }
    note(Prim::kCmp, k);
    r.assign(rr.begin(), rr.begin() + static_cast<std::ptrdiff_t>(k));
  }

  /// r = (a * b) mod m for k-limb a, b.
  void mulmod(std::vector<L>& r, const std::vector<L>& a,
              const std::vector<L>& b) const {
    const std::size_t k = m_.size();
    std::vector<L> prod(2 * k, 0);
    mpn::mul(prod.data(), a.data(), k, b.data(), k);
    note_n(Prim::kAddMul1, k, k);
    reduce(r, prod);
  }

 private:
  void note(Prim p, std::size_t n, std::size_t m = 0) const {
    if (hook_) hook_->on_prim(p, n, m, static_cast<unsigned>(kBits));
  }
  // `count` identical consecutive events.
  void note_n(Prim p, std::size_t n, std::size_t count) const {
    if (hook_) hook_->on_prims(p, n, 0, static_cast<unsigned>(kBits), count);
  }

  std::vector<L> m_;
  std::vector<L> mu_;
  CostHook* hook_ = nullptr;
};

}  // namespace wsp::barrett_ref
