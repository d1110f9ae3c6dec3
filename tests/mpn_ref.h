// The limb-at-a-time mpn kernels the library shipped before its word-wide
// host kernels, kept verbatim as test oracles (as tests/rc4_ref.h keeps the
// byte-state RC4): one radix-2^16 or radix-2^32 limb per step, exactly the
// loop the XR32 routines run.  The fast kernels in src/mp/mpn.h must return
// the same limbs and the same carry/borrow limb for every input.
#pragma once

#include <cstddef>

#include "mp/mpn.h"

namespace wsp::mpn_ref {

/// rp[0..n) += a[0..n) * b; returns the carry-out limb.
template <typename L>
L addmul_1(L* rp, const L* a, std::size_t n, L b) {
  using W = typename mpn::LimbTraits<L>::Wide;
  L carry = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const W p = static_cast<W>(a[i]) * b + rp[i] + carry;
    rp[i] = static_cast<L>(p);
    carry = static_cast<L>(p >> mpn::LimbTraits<L>::bits);
  }
  return carry;
}

/// rp[0..n) -= a[0..n) * b; returns the borrow-out limb.
template <typename L>
L submul_1(L* rp, const L* a, std::size_t n, L b) {
  using W = typename mpn::LimbTraits<L>::Wide;
  L borrow = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const W p = static_cast<W>(a[i]) * b + borrow;
    const L lo = static_cast<L>(p);
    borrow = static_cast<L>(p >> mpn::LimbTraits<L>::bits);
    if (rp[i] < lo) ++borrow;
    rp[i] = static_cast<L>(rp[i] - lo);
  }
  return borrow;
}

/// rp[0..an+bn) = a[0..an) * b[0..bn), schoolbook.  rp must not alias a/b.
template <typename L>
void mul_basecase(L* rp, const L* a, std::size_t an, const L* b, std::size_t bn) {
  for (std::size_t i = 0; i < an + bn; ++i) rp[i] = 0;
  for (std::size_t j = 0; j < bn; ++j) {
    rp[an + j] = addmul_1(rp + j, a, an, b[j]);
  }
}

}  // namespace wsp::mpn_ref
