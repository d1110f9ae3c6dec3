// Parameterized modular exponentiation — the algorithm design space of the
// paper's Sec. 4.3.
//
// The paper explores "over 450 candidate algorithms ... from five modular
// multiplication algorithms, five input block sizes, three Chinese Remainder
// Theorem implementations, two radix sizes and three different software
// caching options" (5 x 5 x 3 x 2 x 3 = 450).  This engine implements every
// point in that space as a correct, runnable configuration:
//
//   * MulAlgo   — schoolbook multiply + division reduction, Karatsuba
//                 multiply + division reduction, Barrett, Montgomery SOS,
//                 Montgomery CIOS;
//   * window    — exponent processed in blocks of 1..5 bits (m-ary method);
//   * CrtMode   — no CRT, textbook CRT recombination, Garner recombination;
//   * Radix     — 16-bit or 32-bit limbs;
//   * Caching   — nothing cached, per-modulus context cached (Montgomery
//                 R^2 / n0', Barrett mu), or context + power table cached.
//
// Every configuration produces identical numeric results (tested against
// the square-and-multiply oracle in tests/mpz_ref.h); they differ only in
// the primitive-operation stream, which the CostHook observes for
// macro-model-based performance estimation.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>

#include "mp/barrett.h"
#include "mp/cost.h"
#include "mp/montgomery.h"
#include "mp/mpz.h"

namespace wsp {

enum class MulAlgo { kBasecaseDiv, kKaratsubaDiv, kBarrett, kMontSOS, kMontCIOS };
enum class CrtMode { kNone, kTextbook, kGarner };
enum class Radix { k16, k32 };
enum class Caching { kNone, kContext, kFull };

struct ModexpConfig {
  MulAlgo mul = MulAlgo::kMontCIOS;
  unsigned window_bits = 4;  ///< exponent block size, 1..5
  CrtMode crt = CrtMode::kNone;
  Radix radix = Radix::k32;
  Caching caching = Caching::kNone;

  std::string name() const;
};

const char* to_string(MulAlgo a);
const char* to_string(CrtMode c);
const char* to_string(Radix r);
const char* to_string(Caching c);

/// Private-key material needed by the CRT configurations.
struct CrtKey {
  Mpz p, q;        ///< prime factors of the modulus
  Mpz dp, dq;      ///< d mod (p-1), d mod (q-1)
  Mpz qinv_p;      ///< q^{-1} mod p (Garner)
  Mpz cp, cq;      ///< textbook CRT coefficients: q*(q^{-1} mod p), p*(p^{-1} mod q)

  /// Derives all coefficients from (p, q, d).
  static CrtKey derive(const Mpz& p, const Mpz& q, const Mpz& d);
};

/// Modular exponentiation engine for one configuration.  Holds the software
/// caches, so reusing one engine across calls models a session (the caching
/// axis); a fresh engine per call models a cold start.
class ModexpEngine {
 public:
  explicit ModexpEngine(ModexpConfig cfg, CostHook* hook = nullptr);
  ~ModexpEngine();

  ModexpEngine(const ModexpEngine&) = delete;
  ModexpEngine& operator=(const ModexpEngine&) = delete;

  const ModexpConfig& config() const { return cfg_; }
  void set_hook(CostHook* hook) { hook_ = hook; }

  /// base^exp mod modulus, ignoring the CRT axis (used for public-key ops
  /// and as the per-prime step of the CRT paths).  Montgomery variants
  /// require an odd modulus.  Throws std::domain_error for a zero modulus
  /// or a negative exponent.
  Mpz powm(const Mpz& base, const Mpz& exp, const Mpz& modulus);

  /// base^d mod (p*q) using the configured CRT mode.  With CrtMode::kNone
  /// this is powm(base, d, p*q).  Throws std::domain_error for a negative d
  /// in every mode.
  Mpz powm_crt(const Mpz& base, const Mpz& d, const CrtKey& key);

  /// Clears all software caches (forces cold-start behaviour).
  void clear_caches();

 private:
  template <typename L>
  Mpz powm_impl(const Mpz& base, const Mpz& exp, const Mpz& modulus);

  ModexpConfig cfg_;
  CostHook* hook_ = nullptr;

  struct Caches;
  std::unique_ptr<Caches> caches_;
};

/// Enumerates all 450 configurations in the paper's order of axes.
std::vector<ModexpConfig> all_modexp_configs();

}  // namespace wsp
