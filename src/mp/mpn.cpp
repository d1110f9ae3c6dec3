#include "mp/mpn.h"

namespace wsp::mpn {

namespace detail {

void WordDivisor::divrem(std::uint64_t* q, std::uint64_t* u, std::size_t uw) const {
  const std::uint64_t* d = d_.data();
  const std::size_t dw = dw_;
  const std::uint64_t dtop = d[dw - 1];
  // Normalise the dividend by the divisor's shift; u[uw] takes the bits
  // shifted out of the top.
  u[uw] = shift_ != 0 ? lshift_words(u, u, uw, shift_) : 0;

  if (dw == 1) {
    // Short division: one 2-by-1 step per word.
    std::uint64_t rem = u[uw];
    for (std::size_t j = uw; j-- > 0;) {
      const std::uint64_t qj = div_2by1(rem, u[j], dtop, v_, rem);
      if (q != nullptr) q[j] = qj;
    }
    u[0] = rem >> shift_;
    return;
  }

  const std::uint64_t dsec = d[dw - 2];
  for (std::size_t j = uw - dw + 1; j-- > 0;) {
    // Estimate qhat from the top two words of the window u[j..j+dw]; the
    // window is below B * d, so its top word is at most dtop.
    const std::uint64_t u2 = u[j + dw];
    const std::uint64_t u1 = u[j + dw - 1];
    const std::uint64_t u0 = u[j + dw - 2];
    std::uint64_t qhat = 0;
    std::uint64_t rhat = 0;
    bool rhat_fits = true;  // rhat < 2^64, so the second-word test applies
    if (u2 >= dtop) {
      // Clamp to B - 1; rhat = <u2, u1> - (B - 1) * dtop = u1 + dtop.
      qhat = ~std::uint64_t{0};
      rhat = u1 + dtop;
      rhat_fits = rhat >= u1;
    } else {
      qhat = div_2by1(u2, u1, dtop, v_, rhat);
    }
    // Knuth's test against the second divisor word: leaves qhat at most
    // one too large.
    while (rhat_fits &&
           static_cast<U128>(qhat) * dsec > ((static_cast<U128>(rhat) << 64) | u0)) {
      --qhat;
      rhat += dtop;
      rhat_fits = rhat >= dtop;
    }
    // Multiply-subtract; a borrow out of the window means qhat was one too
    // large: add the divisor back.
    const std::uint64_t borrow = submul_1_words(u + j, d, dw, qhat);
    const std::uint64_t top = u[j + dw];
    u[j + dw] = top - borrow;
    if (top < borrow) {
      --qhat;
      u[j + dw] += add_n_words(u + j, u + j, d, dw);
    }
    if (q != nullptr) q[j] = qhat;
  }

  // Denormalise the remainder; u[dw] is zero, so the shift reads nothing
  // from above the remainder.
  if (shift_ != 0) shift_down_words(u, dw, u, dw + 1, shift_);
}

}  // namespace detail

// Explicit instantiations of the multi-step mpn routines for both radix
// options, so that template errors surface once at library build time.

template void mul_karatsuba<std::uint16_t>(std::uint16_t*, const std::uint16_t*,
                                           const std::uint16_t*, std::size_t);
template void mul_karatsuba<std::uint32_t>(std::uint32_t*, const std::uint32_t*,
                                           const std::uint32_t*, std::size_t);

template void divrem<std::uint16_t>(std::uint16_t*, std::uint16_t*,
                                    const std::uint16_t*, std::size_t,
                                    const std::uint16_t*, std::size_t);
template void divrem<std::uint32_t>(std::uint32_t*, std::uint32_t*,
                                    const std::uint32_t*, std::size_t,
                                    const std::uint32_t*, std::size_t);

}  // namespace wsp::mpn
