#include "mp/modexp.h"

#include "mp/crt.h"

#include <optional>
#include <sstream>

namespace wsp {

const char* to_string(MulAlgo a) {
  switch (a) {
    case MulAlgo::kBasecaseDiv: return "basecase+div";
    case MulAlgo::kKaratsubaDiv: return "karatsuba+div";
    case MulAlgo::kBarrett: return "barrett";
    case MulAlgo::kMontSOS: return "mont-sos";
    case MulAlgo::kMontCIOS: return "mont-cios";
  }
  return "?";
}

const char* to_string(CrtMode c) {
  switch (c) {
    case CrtMode::kNone: return "no-crt";
    case CrtMode::kTextbook: return "crt-textbook";
    case CrtMode::kGarner: return "crt-garner";
  }
  return "?";
}

const char* to_string(Radix r) {
  return r == Radix::k16 ? "radix16" : "radix32";
}

const char* to_string(Caching c) {
  switch (c) {
    case Caching::kNone: return "cache-none";
    case Caching::kContext: return "cache-ctx";
    case Caching::kFull: return "cache-full";
  }
  return "?";
}

std::string ModexpConfig::name() const {
  std::ostringstream os;
  os << to_string(mul) << "/w" << window_bits << "/" << to_string(crt) << "/"
     << to_string(radix) << "/" << to_string(caching);
  return os.str();
}

CrtKey CrtKey::derive(const Mpz& p, const Mpz& q, const Mpz& d) {
  CrtKey k;
  k.p = p;
  k.q = q;
  k.dp = d % (p - Mpz(1));
  k.dq = d % (q - Mpz(1));
  k.qinv_p = Mpz::invmod(q, p);
  const Mpz n = p * q;
  k.cp = (q * Mpz::invmod(q, p)).mod(n);
  k.cq = (p * Mpz::invmod(p, q)).mod(n);
  return k;
}

namespace {

template <typename L>
std::vector<L> to_limbs(const Mpz& x, std::size_t k) {
  const std::vector<std::uint32_t>& src = x.limbs();
  std::vector<L> out(k, 0);
  if constexpr (sizeof(L) == 4) {
    for (std::size_t i = 0; i < src.size() && i < k; ++i) out[i] = src[i];
  } else {
    for (std::size_t i = 0; i < src.size(); ++i) {
      if (2 * i < k) out[2 * i] = static_cast<L>(src[i]);
      if (2 * i + 1 < k) out[2 * i + 1] = static_cast<L>(src[i] >> 16);
    }
  }
  return out;
}

template <typename L>
Mpz from_limbs(const std::vector<L>& v) {
  std::vector<std::uint8_t> le(v.size() * sizeof(L));
  mpn::to_bytes_le(v.data(), v.size(), le.data(), le.size());
  std::vector<std::uint8_t> be(le.rbegin(), le.rend());
  return Mpz::from_bytes_be(be);
}

}  // namespace

struct ModexpEngine::Caches {
  // Keyed by magnitude limbs: powm's result depends only on |modulus| and
  // on the reduced base, and an engine's config never changes, so the
  // config is not part of the power-table key.
  using Key = std::vector<Mpz::Limb>;
  template <typename L>
  struct Typed {
    std::map<Key, std::unique_ptr<Mont<L>>> mont;
    std::map<Key, std::unique_ptr<Barrett<L>>> barrett;
    std::map<std::pair<Key, Key>, std::vector<std::vector<L>>> powers;
  };
  Typed<std::uint16_t> t16;
  Typed<std::uint32_t> t32;

  template <typename L>
  Typed<L>& get() {
    if constexpr (sizeof(L) == 2) {
      return t16;
    } else {
      return t32;
    }
  }
};

ModexpEngine::ModexpEngine(ModexpConfig cfg, CostHook* hook)
    : cfg_(cfg), hook_(hook), caches_(std::make_unique<Caches>()) {
  if (cfg_.window_bits < 1 || cfg_.window_bits > 5) {
    throw std::invalid_argument("ModexpEngine: window_bits must be 1..5");
  }
}

ModexpEngine::~ModexpEngine() = default;

void ModexpEngine::clear_caches() { caches_ = std::make_unique<Caches>(); }

Mpz ModexpEngine::powm(const Mpz& base, const Mpz& exp, const Mpz& modulus) {
  if (modulus.is_zero()) throw std::domain_error("ModexpEngine::powm: zero modulus");
  if (exp.is_negative()) throw std::domain_error("ModexpEngine::powm: negative exponent");
  if (modulus == Mpz(1)) return Mpz();
  if (exp.is_zero()) return Mpz(1);
  if (cfg_.radix == Radix::k16) return powm_impl<std::uint16_t>(base, exp, modulus);
  return powm_impl<std::uint32_t>(base, exp, modulus);
}

template <typename L>
Mpz ModexpEngine::powm_impl(const Mpz& base, const Mpz& exp, const Mpz& modulus) {
  constexpr unsigned kBits = mpn::LimbTraits<L>::bits;
  const std::size_t k = (modulus.bit_length() + kBits - 1) / kBits;
  const std::vector<L> mod_l = to_limbs<L>(modulus, k);
  const Mpz base_red = base.mod(modulus);

  const bool is_mont = cfg_.mul == MulAlgo::kMontSOS || cfg_.mul == MulAlgo::kMontCIOS;
  const MontVariant mont_variant =
      cfg_.mul == MulAlgo::kMontSOS ? MontVariant::kSOS : MontVariant::kCIOS;
  if (is_mont && modulus.is_even()) {
    throw std::invalid_argument("ModexpEngine: Montgomery requires odd modulus");
  }

  auto& typed = caches_->get<L>();
  const Caches::Key& mkey = modulus.limbs();

  // --- obtain the reduction context (the "cached constants" axis) ---------
  Mont<L>* mont = nullptr;
  Barrett<L>* barrett = nullptr;
  std::unique_ptr<Mont<L>> mont_local;
  std::unique_ptr<Barrett<L>> barrett_local;
  const bool cache_ctx = cfg_.caching != Caching::kNone;
  if (is_mont) {
    if (cache_ctx) {
      auto it = typed.mont.find(mkey);
      if (it == typed.mont.end()) {
        it = typed.mont.emplace(mkey, std::make_unique<Mont<L>>(mod_l, hook_)).first;
      }
      mont = it->second.get();
    } else {
      mont_local = std::make_unique<Mont<L>>(mod_l, hook_);
      mont = mont_local.get();
    }
    mont->set_hook(hook_);
  } else if (cfg_.mul == MulAlgo::kBarrett) {
    if (cache_ctx) {
      auto it = typed.barrett.find(mkey);
      if (it == typed.barrett.end()) {
        it = typed.barrett.emplace(mkey, std::make_unique<Barrett<L>>(mod_l, hook_)).first;
      }
      barrett = it->second.get();
    } else {
      barrett_local = std::make_unique<Barrett<L>>(mod_l, hook_);
      barrett = barrett_local.get();
    }
    barrett->set_hook(hook_);
  }

  // --- modular multiply for the configured algorithm ----------------------
  // The division-based algorithms divide by one modulus throughout, so it
  // is packed and normalised once.
  std::optional<mpn::detail::WordDivisor> divisor;
  if (!is_mont && !barrett) divisor.emplace(mod_l.data(), k);
  const bool use_karatsuba = cfg_.mul == MulAlgo::kKaratsubaDiv;
  auto modmul = [&](std::vector<L>& r, const std::vector<L>& a,
                    const std::vector<L>& b) {
    if (is_mont) {
      mont->mul(r, a, b, mont_variant);
      return;
    }
    if (barrett) {
      barrett->mulmod(r, a, b);
      return;
    }
    // Multiplication followed by division-based reduction, on packed words
    // in stack scratch: the schoolbook product, then its remainder.  The
    // Karatsuba candidate takes the same host product; its events come from
    // the sizes alone.
    const std::size_t kw = mpn::detail::words_for<L>(k);
    mpn::detail::Scratch<std::uint64_t, 4 * mpn::detail::kPackedWords + 1> s(4 * kw + 1);
    std::uint64_t* x = s.data();
    std::uint64_t* y = x + kw;
    std::uint64_t* prod = y + kw;  // 2 * kw words, plus one for the division
    mpn::detail::pack_words(x, a.data(), k);
    mpn::detail::pack_words(y, b.data(), k);
    mpn::detail::mul_words(prod, x, kw, y, kw);
    if (use_karatsuba && k >= mpn::kKaratsubaThreshold && (k % 2) == 0) {
      note_mul_square_events(hook_, k, mpn::kKaratsubaThreshold, kBits);
    } else {
      note_mul_basecase(hook_, k, k, kBits);
    }
    divisor->divrem(nullptr, prod, 2 * kw);
    note_divrem(hook_, 2 * k, k, kBits);
    r.resize(k);
    mpn::detail::unpack_words(r.data(), k, prod);
  };

  // --- domain entry --------------------------------------------------------
  std::vector<L> g = to_limbs<L>(base_red, k);
  std::vector<L> identity;
  if (is_mont) {
    g = mont->to_mont(g, mont_variant);
    std::vector<L> one(k, 0);
    one[0] = 1;
    identity = mont->to_mont(one, mont_variant);
  } else {
    identity.assign(k, 0);
    identity[0] = 1;
  }

  // --- power table (m-ary method; the "input block size" axis) ------------
  const unsigned w = cfg_.window_bits;
  const std::size_t table_size = std::size_t{1} << w;
  std::vector<std::vector<L>>* table = nullptr;
  std::vector<std::vector<L>> table_local;
  const bool cache_pow = cfg_.caching == Caching::kFull;
  bool build = true;
  if (cache_pow) {
    auto [it, inserted] =
        typed.powers.try_emplace({base_red.limbs(), modulus.limbs()});
    table = &it->second;
    build = inserted;
  } else {
    table = &table_local;
  }
  if (build) {
    table->assign(table_size, identity);
    if (table_size > 1) (*table)[1] = g;
    for (std::size_t i = 2; i < table_size; ++i) {
      modmul((*table)[i], (*table)[i - 1], g);
    }
  }

  // --- left-to-right m-ary exponentiation ----------------------------------
  const std::size_t nbits = exp.bit_length();
  const std::size_t nblocks = (nbits + w - 1) / w;
  std::vector<L> result = identity;
  bool started = false;
  std::vector<L> tmp(k);
  for (std::size_t blk = nblocks; blk-- > 0;) {
    const std::size_t pos = blk * w;
    const unsigned width =
        static_cast<unsigned>(std::min<std::size_t>(w, nbits - pos));
    if (started) {
      for (unsigned s = 0; s < width; ++s) {
        modmul(tmp, result, result);
        result.swap(tmp);
      }
    }
    const std::uint32_t val = exp.bits(pos, width);
    if (val != 0) {
      if (!started) {
        result = (*table)[val];
        started = true;
      } else {
        modmul(tmp, result, (*table)[val]);
        result.swap(tmp);
      }
    }
  }

  if (is_mont) result = mont->from_mont(result, mont_variant);
  return from_limbs<L>(result);
}

Mpz ModexpEngine::powm_crt(const Mpz& base, const Mpz& d, const CrtKey& key) {
  // The CRT paths read only key.dp/key.dq, so check d here for every mode.
  if (d.is_negative()) throw std::domain_error("ModexpEngine::powm_crt: negative exponent");
  const unsigned bits = cfg_.radix == Radix::k16 ? 16u : 32u;
  switch (cfg_.crt) {
    case CrtMode::kNone:
      return powm(base, d, key.p * key.q);
    case CrtMode::kTextbook: {
      const Mpz mp = powm(base, key.dp, key.p);
      const Mpz mq = powm(base, key.dq, key.q);
      // m = (mp*cp + mq*cq) mod n.
      const std::size_t kl = ((key.p * key.q).bit_length() + bits - 1) / bits;
      note_mul_basecase(hook_, kl, kl / 2, bits);
      note_mul_basecase(hook_, kl, kl / 2, bits);
      note_prim(hook_, Prim::kAddN, 2 * kl, 0, bits);
      note_divrem(hook_, 2 * kl, kl, bits);
      return crt_combine_textbook(mp, mq, key);
    }
    case CrtMode::kGarner: {
      const Mpz mp = powm(base, key.dp, key.p);
      const Mpz mq = powm(base, key.dq, key.q);
      // h = qinv * (mp - mq) mod p;  m = mq + h*q.
      const std::size_t kl = (key.p.bit_length() + bits - 1) / bits;
      note_mul_basecase(hook_, kl, kl, bits);
      note_divrem(hook_, 2 * kl, kl, bits);
      note_mul_basecase(hook_, kl, kl, bits);
      note_prim(hook_, Prim::kAddN, kl, 0, bits);
      return crt_combine_garner(mp, mq, key);
    }
  }
  throw std::logic_error("ModexpEngine::powm_crt: bad CRT mode");
}

std::vector<ModexpConfig> all_modexp_configs() {
  std::vector<ModexpConfig> out;
  out.reserve(450);
  for (MulAlgo mul : {MulAlgo::kBasecaseDiv, MulAlgo::kKaratsubaDiv,
                      MulAlgo::kBarrett, MulAlgo::kMontSOS, MulAlgo::kMontCIOS}) {
    for (unsigned w = 1; w <= 5; ++w) {
      for (CrtMode crt : {CrtMode::kNone, CrtMode::kTextbook, CrtMode::kGarner}) {
        for (Radix radix : {Radix::k16, Radix::k32}) {
          for (Caching caching : {Caching::kNone, Caching::kContext, Caching::kFull}) {
            out.push_back(ModexpConfig{mul, w, crt, radix, caching});
          }
        }
      }
    }
  }
  return out;
}

}  // namespace wsp
