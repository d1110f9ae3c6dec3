// Macro-model-based performance estimation for algorithm candidates
// (paper Sec. 3.2): run a candidate natively (host speed), observe its
// stream of library-routine invocations through the CostHook, and sum the
// macro-model cycle predictions — avoiding ISS runs entirely.
#pragma once

#include <cstddef>

#include "crypto/rsa.h"
#include "macromodel/models.h"
#include "mp/modexp.h"
#include "support/random.h"

namespace wsp::explore {

/// CostHook that accumulates macro-model cycles over the event stream.
class MacroModelHook : public CostHook {
 public:
  explicit MacroModelHook(const macromodel::MacroModelSet& models)
      : models_(&models) {}

  void on_prim(Prim p, std::size_t n, std::size_t m, unsigned limb_bits) override {
    total_ += models_->cycles(p, n, m, limb_bits);
    ++events_;
  }

  /// One lookup for the run; the sum still adds one term per event in
  /// stream order, so the total is bit-identical to per-event delivery.
  void on_prims(Prim p, std::size_t n, std::size_t m, unsigned limb_bits,
                std::size_t count) override {
    const double c = models_->cycles(p, n, m, limb_bits);
    for (std::size_t i = 0; i < count; ++i) total_ += c;
    events_ += count;
  }

  /// A mixed run, priced in stream order: the total is again bit-identical.
  void on_events(const PrimEvent* events, std::size_t count, unsigned limb_bits) override {
    for (std::size_t i = 0; i < count; ++i) {
      total_ += models_->cycles(events[i].prim, events[i].n, events[i].m, limb_bits);
    }
    events_ += count;
  }

  double total_cycles() const { return total_; }
  std::size_t events() const { return events_; }
  void reset() {
    total_ = 0;
    events_ = 0;
  }

 private:
  const macromodel::MacroModelSet* models_;
  double total_ = 0.0;
  std::size_t events_ = 0;
};

/// The exploration workload: an RSA private-key operation (the paper
/// explores modular exponentiation for public-key security processing).
struct RsaWorkload {
  Mpz n;       ///< modulus
  Mpz c;       ///< ciphertext operand
  Mpz d;       ///< private exponent
  CrtKey key;  ///< CRT material
  /// Operations per estimate; >1 lets the software-caching axis amortize.
  int repetitions = 4;
};

/// Deterministic RSA workload of the given modulus size.
RsaWorkload make_rsa_workload(std::size_t bits, Rng& rng);

struct Estimate {
  double total_cycles = 0.0;    ///< across all repetitions
  double avg_cycles = 0.0;      ///< per private-key operation
  std::size_t events = 0;       ///< primitive invocations observed
};

/// Estimates one configuration on the workload.  A fresh engine is used, so
/// cold-start costs appear once and the caching axis takes effect across
/// repetitions.
Estimate estimate_config(const ModexpConfig& config, const RsaWorkload& workload,
                         const macromodel::MacroModelSet& models);

}  // namespace wsp::explore
