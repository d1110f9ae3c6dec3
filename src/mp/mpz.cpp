#include "mp/mpz.h"

#include <algorithm>
#include <stdexcept>

namespace wsp {

namespace {
constexpr unsigned kLimbBits = 32;

int cmp_mag(const std::vector<Mpz::Limb>& a, const std::vector<Mpz::Limb>& b) {
  if (a.size() != b.size()) return a.size() < b.size() ? -1 : 1;
  return mpn::cmp(a.data(), b.data(), a.size());
}

std::vector<Mpz::Limb> add_mag(const std::vector<Mpz::Limb>& a,
                               const std::vector<Mpz::Limb>& b) {
  const auto& big = a.size() >= b.size() ? a : b;
  const auto& small = a.size() >= b.size() ? b : a;
  std::vector<Mpz::Limb> r(big.size() + 1, 0);
  Mpz::Limb carry = mpn::add_n(r.data(), big.data(), small.data(), small.size());
  for (std::size_t i = small.size(); i < big.size(); ++i) r[i] = big[i];
  carry = mpn::add_1(r.data() + small.size(), r.data() + small.size(),
                     big.size() - small.size(), carry);
  r[big.size()] = carry;
  return r;
}

// |a| - |b| assuming |a| >= |b|.
std::vector<Mpz::Limb> sub_mag(const std::vector<Mpz::Limb>& a,
                               const std::vector<Mpz::Limb>& b) {
  std::vector<Mpz::Limb> r(a.size(), 0);
  Mpz::Limb borrow = mpn::sub_n(r.data(), a.data(), b.data(), b.size());
  for (std::size_t i = b.size(); i < a.size(); ++i) r[i] = a[i];
  mpn::sub_1(r.data() + b.size(), r.data() + b.size(), a.size() - b.size(), borrow);
  return r;
}
}  // namespace

Mpz::Mpz(std::int64_t v) {
  std::uint64_t mag = v < 0 ? static_cast<std::uint64_t>(-(v + 1)) + 1
                            : static_cast<std::uint64_t>(v);
  negative_ = v < 0;
  if (mag) limbs_.push_back(static_cast<Limb>(mag));
  if (mag >> 32) limbs_.push_back(static_cast<Limb>(mag >> 32));
  if (limbs_.empty()) negative_ = false;
}

Mpz Mpz::from_u64(std::uint64_t v) {
  Mpz z;
  if (v) z.limbs_.push_back(static_cast<Limb>(v));
  if (v >> 32) z.limbs_.push_back(static_cast<Limb>(v >> 32));
  return z;
}

void Mpz::trim() {
  while (!limbs_.empty() && limbs_.back() == 0) limbs_.pop_back();
  if (limbs_.empty()) negative_ = false;
}

Mpz Mpz::from_hex(std::string_view hex) {
  Mpz z;
  bool neg = false;
  std::size_t i = 0;
  if (i < hex.size() && (hex[i] == '-' || hex[i] == '+')) {
    neg = hex[i] == '-';
    ++i;
  }
  if (i + 1 < hex.size() && hex[i] == '0' && (hex[i + 1] == 'x' || hex[i + 1] == 'X')) {
    i += 2;
  }
  if (i >= hex.size()) throw std::invalid_argument("Mpz::from_hex: empty");
  for (; i < hex.size(); ++i) {
    const char c = hex[i];
    int v;
    if (c >= '0' && c <= '9') v = c - '0';
    else if (c >= 'a' && c <= 'f') v = c - 'a' + 10;
    else if (c >= 'A' && c <= 'F') v = c - 'A' + 10;
    else if (c == '_' || c == ' ') continue;
    else throw std::invalid_argument("Mpz::from_hex: bad character");
    z = z.lshift(4);
    z = z + Mpz(v);
  }
  z.negative_ = neg && !z.limbs_.empty();
  return z;
}

std::string Mpz::to_hex() const {
  if (limbs_.empty()) return "0";
  static const char* digits = "0123456789abcdef";
  std::string out;
  for (std::size_t i = limbs_.size(); i-- > 0;) {
    for (int shift = 28; shift >= 0; shift -= 4) {
      out.push_back(digits[(limbs_[i] >> shift) & 0xf]);
    }
  }
  const std::size_t first = out.find_first_not_of('0');
  out = out.substr(first == std::string::npos ? out.size() - 1 : first);
  if (negative_) out.insert(out.begin(), '-');
  return out;
}

Mpz Mpz::from_bytes_be(const std::uint8_t* data, std::size_t n) {
  Mpz z;
  std::vector<std::uint8_t> le(data, data + n);
  std::reverse(le.begin(), le.end());
  z.limbs_ = mpn::from_bytes_le<Limb>(le.data(), le.size());
  z.trim();
  return z;
}

Mpz Mpz::from_bytes_be(const std::vector<std::uint8_t>& data) {
  return from_bytes_be(data.data(), data.size());
}

std::vector<std::uint8_t> Mpz::to_bytes_be(std::size_t min_len) const {
  const std::size_t nbytes = std::max<std::size_t>(min_len, (bit_length() + 7) / 8);
  std::vector<std::uint8_t> out(std::max<std::size_t>(nbytes, 1), 0);
  mpn::to_bytes_le(limbs_.data(), limbs_.size(), out.data(), out.size());
  std::reverse(out.begin(), out.end());
  return out;
}

std::size_t Mpz::bit_length() const {
  return mpn::bit_length(limbs_.data(), limbs_.size());
}

bool Mpz::bit(std::size_t i) const {
  const std::size_t limb = i / kLimbBits;
  if (limb >= limbs_.size()) return false;
  return (limbs_[limb] >> (i % kLimbBits)) & 1;
}

std::uint32_t Mpz::bits(std::size_t pos, unsigned count) const {
  std::uint32_t v = 0;
  for (unsigned i = 0; i < count; ++i) {
    v |= static_cast<std::uint32_t>(bit(pos + i)) << i;
  }
  return v;
}

std::uint64_t Mpz::to_u64() const {
  std::uint64_t v = 0;
  if (!limbs_.empty()) v = limbs_[0];
  if (limbs_.size() > 1) v |= static_cast<std::uint64_t>(limbs_[1]) << 32;
  return v;
}

int Mpz::cmp(const Mpz& a, const Mpz& b) {
  if (a.negative_ != b.negative_) return a.negative_ ? -1 : 1;
  const int m = cmp_mag(a.limbs_, b.limbs_);
  return a.negative_ ? -m : m;
}

bool operator==(const Mpz& a, const Mpz& b) {
  return a.negative_ == b.negative_ && a.limbs_ == b.limbs_;
}

Mpz Mpz::operator-() const {
  Mpz r = *this;
  if (!r.limbs_.empty()) r.negative_ = !r.negative_;
  return r;
}

Mpz operator+(const Mpz& a, const Mpz& b) {
  Mpz r;
  if (a.negative_ == b.negative_) {
    r.limbs_ = add_mag(a.limbs_, b.limbs_);
    r.negative_ = a.negative_;
  } else {
    const int m = cmp_mag(a.limbs_, b.limbs_);
    if (m == 0) return Mpz();
    if (m > 0) {
      r.limbs_ = sub_mag(a.limbs_, b.limbs_);
      r.negative_ = a.negative_;
    } else {
      r.limbs_ = sub_mag(b.limbs_, a.limbs_);
      r.negative_ = b.negative_;
    }
  }
  r.trim();
  return r;
}

Mpz operator-(const Mpz& a, const Mpz& b) { return a + (-b); }

Mpz operator*(const Mpz& a, const Mpz& b) {
  if (a.limbs_.empty() || b.limbs_.empty()) return Mpz();
  Mpz r;
  r.limbs_.assign(a.limbs_.size() + b.limbs_.size(), 0);
  mpn::mul(r.limbs_.data(), a.limbs_.data(), a.limbs_.size(), b.limbs_.data(),
           b.limbs_.size());
  r.negative_ = a.negative_ != b.negative_;
  r.trim();
  return r;
}

void Mpz::divmod(const Mpz& a, const Mpz& b, Mpz& q, Mpz& r) {
  if (b.limbs_.empty()) throw std::domain_error("Mpz: division by zero");
  if (cmp_mag(a.limbs_, b.limbs_) < 0) {
    q = Mpz();
    r = a;
    return;
  }
  const std::size_t un = a.limbs_.size();
  const std::size_t dn = b.limbs_.size();
  std::vector<Limb> qv(un - dn + 1, 0), rv(dn, 0);
  mpn::divrem(qv.data(), rv.data(), a.limbs_.data(), un, b.limbs_.data(), dn);
  Mpz qq, rr;
  qq.limbs_ = std::move(qv);
  qq.negative_ = a.negative_ != b.negative_;
  qq.trim();
  rr.limbs_ = std::move(rv);
  rr.negative_ = a.negative_;
  rr.trim();
  q = std::move(qq);
  r = std::move(rr);
}

Mpz operator/(const Mpz& a, const Mpz& b) {
  Mpz q, r;
  Mpz::divmod(a, b, q, r);
  return q;
}

Mpz operator%(const Mpz& a, const Mpz& b) {
  Mpz q, r;
  Mpz::divmod(a, b, q, r);
  return r;
}

Mpz Mpz::mod(const Mpz& m) const {
  Mpz r = *this % m;
  if (r.negative_) r = r + (m.negative_ ? -m : m);
  return r;
}

Mpz Mpz::lshift(std::size_t bits) const {
  if (limbs_.empty() || bits == 0) return *this;
  const std::size_t limb_shift = bits / kLimbBits;
  const unsigned bit_shift = static_cast<unsigned>(bits % kLimbBits);
  Mpz r;
  r.negative_ = negative_;
  r.limbs_.assign(limbs_.size() + limb_shift + 1, 0);
  for (std::size_t i = 0; i < limbs_.size(); ++i) r.limbs_[i + limb_shift] = limbs_[i];
  if (bit_shift) {
    const Limb high = mpn::lshift(r.limbs_.data() + limb_shift,
                                  r.limbs_.data() + limb_shift,
                                  limbs_.size(), bit_shift);
    r.limbs_[limb_shift + limbs_.size()] = high;
  }
  r.trim();
  return r;
}

Mpz Mpz::rshift(std::size_t bits) const {
  const std::size_t limb_shift = bits / kLimbBits;
  if (limb_shift >= limbs_.size()) return Mpz();
  const unsigned bit_shift = static_cast<unsigned>(bits % kLimbBits);
  Mpz r;
  r.negative_ = negative_;
  r.limbs_.assign(limbs_.begin() + static_cast<std::ptrdiff_t>(limb_shift), limbs_.end());
  if (bit_shift) mpn::rshift(r.limbs_.data(), r.limbs_.data(), r.limbs_.size(), bit_shift);
  r.trim();
  return r;
}

Mpz Mpz::gcd(Mpz a, Mpz b) {
  a.negative_ = false;
  b.negative_ = false;
  while (!b.is_zero()) {
    Mpz r = a % b;
    a = std::move(b);
    b = std::move(r);
  }
  return a;
}

Mpz Mpz::gcdext(const Mpz& a, const Mpz& b, Mpz& x, Mpz& y) {
  // Iterative extended Euclid.
  Mpz old_r = a, r = b;
  Mpz old_s = 1, s = 0;
  Mpz old_t = 0, t = 1;
  while (!r.is_zero()) {
    Mpz q, rem;
    divmod(old_r, r, q, rem);
    old_r = std::move(r);
    r = std::move(rem);
    Mpz ns = old_s - q * s;
    old_s = std::move(s);
    s = std::move(ns);
    Mpz nt = old_t - q * t;
    old_t = std::move(t);
    t = std::move(nt);
  }
  if (old_r.is_negative()) {
    old_r = -old_r;
    old_s = -old_s;
    old_t = -old_t;
  }
  x = std::move(old_s);
  y = std::move(old_t);
  return old_r;
}

Mpz Mpz::invmod(const Mpz& a, const Mpz& m) {
  Mpz x, y;
  const Mpz g = gcdext(a.mod(m), m, x, y);
  if (!(g == Mpz(1))) throw std::domain_error("Mpz::invmod: not invertible");
  return x.mod(m);
}

}  // namespace wsp
