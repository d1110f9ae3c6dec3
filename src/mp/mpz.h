// Arbitrary-precision signed integers ("complex mathematical operations"
// layer of the paper's software architecture).  Built on the mpn kernels
// with 32-bit limbs; the key material and the operands of the modular
// exponentiation engine in src/mp/modexp.h.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "mp/mpn.h"

namespace wsp {

/// Sign-magnitude arbitrary-precision integer.
class Mpz {
 public:
  using Limb = std::uint32_t;

  Mpz() = default;
  Mpz(std::int64_t v);  // NOLINT(google-explicit-constructor): numeric literal ergonomics
  static Mpz from_u64(std::uint64_t v);

  /// Parses a hexadecimal string, optionally prefixed with '-' or "0x".
  static Mpz from_hex(std::string_view hex);
  std::string to_hex() const;

  /// Big-endian byte import/export (network order, as used by RSA).
  static Mpz from_bytes_be(const std::uint8_t* data, std::size_t n);
  static Mpz from_bytes_be(const std::vector<std::uint8_t>& data);
  std::vector<std::uint8_t> to_bytes_be(std::size_t min_len = 0) const;

  bool is_zero() const { return limbs_.empty(); }
  bool is_negative() const { return negative_; }
  bool is_odd() const { return !limbs_.empty() && (limbs_[0] & 1); }
  bool is_even() const { return !is_odd(); }

  /// Number of significant bits (0 for zero).
  std::size_t bit_length() const;
  /// Value of bit i (0 = LSB).
  bool bit(std::size_t i) const;
  /// Extracts `count` bits starting at bit `pos` as an unsigned value
  /// (count <= 32).
  std::uint32_t bits(std::size_t pos, unsigned count) const;

  std::uint64_t to_u64() const;  ///< Low 64 bits of |x|.

  const std::vector<Limb>& limbs() const { return limbs_; }

  // Arithmetic.
  friend Mpz operator+(const Mpz& a, const Mpz& b);
  friend Mpz operator-(const Mpz& a, const Mpz& b);
  friend Mpz operator*(const Mpz& a, const Mpz& b);
  friend Mpz operator/(const Mpz& a, const Mpz& b);  ///< Truncated quotient.
  friend Mpz operator%(const Mpz& a, const Mpz& b);  ///< Sign follows dividend.
  Mpz operator-() const;

  Mpz& operator+=(const Mpz& b) { return *this = *this + b; }
  Mpz& operator-=(const Mpz& b) { return *this = *this - b; }
  Mpz& operator*=(const Mpz& b) { return *this = *this * b; }

  /// Quotient and remainder in one division.
  static void divmod(const Mpz& a, const Mpz& b, Mpz& q, Mpz& r);

  /// Non-negative residue in [0, m) for m > 0.
  Mpz mod(const Mpz& m) const;

  Mpz lshift(std::size_t bits) const;
  Mpz rshift(std::size_t bits) const;

  friend bool operator==(const Mpz& a, const Mpz& b);
  friend bool operator!=(const Mpz& a, const Mpz& b) { return !(a == b); }
  friend bool operator<(const Mpz& a, const Mpz& b) { return cmp(a, b) < 0; }
  friend bool operator>(const Mpz& a, const Mpz& b) { return cmp(a, b) > 0; }
  friend bool operator<=(const Mpz& a, const Mpz& b) { return cmp(a, b) <= 0; }
  friend bool operator>=(const Mpz& a, const Mpz& b) { return cmp(a, b) >= 0; }
  static int cmp(const Mpz& a, const Mpz& b);

  /// Greatest common divisor (always non-negative).
  static Mpz gcd(Mpz a, Mpz b);

  /// Extended gcd: returns g and sets x, y with a*x + b*y = g.
  static Mpz gcdext(const Mpz& a, const Mpz& b, Mpz& x, Mpz& y);

  /// Modular inverse of a mod m; throws std::domain_error if not invertible.
  static Mpz invmod(const Mpz& a, const Mpz& m);

 private:
  void trim();

  std::vector<Limb> limbs_;  // little-endian, no trailing zero limbs
  bool negative_ = false;    // never set when limbs_ is empty
};

}  // namespace wsp
