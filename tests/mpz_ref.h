// The reference modular exponentiation the library shipped as Mpz::powm,
// kept as a test oracle: binary square-and-multiply with one Mpz division
// per step.  Every ModexpEngine configuration and every XR32 modexp kernel
// must return its result.
#pragma once

#include <cstddef>
#include <stdexcept>

#include "mp/mpz.h"

namespace wsp::mpz_ref {

/// base^exp mod mod; throws std::domain_error for a zero modulus or a
/// negative exponent.
inline Mpz powm(const Mpz& base, const Mpz& exp, const Mpz& mod) {
  if (mod.is_zero()) throw std::domain_error("mpz_ref::powm: zero modulus");
  if (exp.is_negative()) throw std::domain_error("mpz_ref::powm: negative exponent");
  Mpz result(1);
  result = result.mod(mod);
  Mpz b = base.mod(mod);
  const std::size_t nbits = exp.bit_length();
  for (std::size_t i = nbits; i-- > 0;) {
    result = (result * result).mod(mod);
    if (exp.bit(i)) result = (result * b).mod(mod);
  }
  return result;
}

}  // namespace wsp::mpz_ref
