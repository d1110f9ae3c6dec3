// The limb-at-a-time mpn kernels the library shipped before its word-wide
// host kernels and its packed-word division, kept verbatim as test oracles
// (as tests/rc4_ref.h keeps the byte-state RC4): one radix-2^16 or
// radix-2^32 limb per step, exactly the loop the XR32 routines run.  The
// fast kernels in src/mp/mpn.h must return the same limbs and the same
// carry/borrow limb for every input.
#pragma once

#include <cstddef>
#include <vector>

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

/// Knuth Algorithm D long division, one limb of quotient per step.
/// Computes q = u / d and r = u mod d where u has un limbs and d has dn
/// normalized limbs (d[dn-1] != 0), un >= dn >= 1.
/// q receives un - dn + 1 limbs, r receives dn limbs.
/// None of the output buffers may alias the inputs.
template <typename L>
void divrem(L* q, L* r, const L* u, std::size_t un, const L* d, std::size_t dn) {
  using W = typename mpn::LimbTraits<L>::Wide;
  constexpr int kBits = mpn::LimbTraits<L>::bits;
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
  const unsigned shift = mpn::clz(d[dn - 1]);
  std::vector<L> dn_v(dn), un_v(un + 1);
  if (shift) {
    mpn::lshift(dn_v.data(), d, dn, shift);
    un_v[un] = mpn::lshift(un_v.data(), u, un, shift);
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
      const L carry = mpn::add_n(un_v.data() + j, un_v.data() + j, dn_v.data(), dn);
      un_v[j + dn] = static_cast<L>(un_v[j + dn] + carry);
    }
    q[j] = static_cast<L>(qhat);
  }

  // Denormalize remainder.
  if (shift) {
    mpn::rshift(r, un_v.data(), dn, shift);
  } else {
    for (std::size_t i = 0; i < dn; ++i) r[i] = un_v[i];
  }
}

}  // namespace wsp::mpn_ref
