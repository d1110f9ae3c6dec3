// Performance characterization (paper Sec. 3.2): exercise each mpn library
// routine on the cycle-accurate ISS with pseudo-random stimuli across the
// operand-size domain the application uses, record (size, cycles) samples,
// and fit macro-models by statistical regression.
//
// Characterization is a one-time cost per hardware configuration; the
// resulting MacroModelSet then supports native-speed performance estimation
// (orders of magnitude faster than ISS runs — quantified by
// `bench_report --only sec43_explore`).
#pragma once

#include <vector>

#include "kernels/mpn_kernels.h"
#include "macromodel/models.h"
#include "support/random.h"

namespace wsp::macromodel {

struct CharacterizeOptions {
  std::vector<std::size_t> sizes = {1, 2, 3, 4, 6, 8, 12, 16, 20,
                                    24, 28, 32, 40, 48, 56, 64};
  int reps_per_size = 3;  ///< random stimuli per size point
  std::uint64_t seed = 0xC0FFEE;
};

/// Characterizes all mpn routines on the given machine (which must contain
/// the mpn kernels) and returns the fitted model set.
///
/// Models are registered for both 16- and 32-bit radix with identical
/// per-limb coefficients: on a 32-bit core, a 16-bit-limb loop iteration
/// costs the same as a 32-bit one (same loads/stores/multiplier latency),
/// so radix-16 arithmetic pays via doubled limb counts — which is exactly
/// how the exploration phase sees it.
MacroModelSet characterize_mpn(kernels::Machine& machine,
                               const CharacterizeOptions& options = {});

/// Full characterization with *measured* radix-16 models: `machine32` must
/// contain the mpn kernels and `machine16` the mpn16 kernels
/// (make_mpn16_machine).  Registers real per-radix coefficients instead of
/// the radix-32 reuse approximation.
MacroModelSet characterize_mpn_full(kernels::Machine& machine32,
                                    kernels::Machine& machine16,
                                    const CharacterizeOptions& options = {});

/// Raw characterization samples for one routine (exposed for tests and the
/// Sec. 4.3 accuracy report).
struct Samples {
  std::vector<std::vector<double>> features;  ///< (n, m)
  std::vector<double> cycles;
};
Samples sample_routine(kernels::Machine& machine, Prim routine,
                       const CharacterizeOptions& options);
Samples sample_routine16(kernels::Machine& machine, Prim routine,
                         const CharacterizeOptions& options);

}  // namespace wsp::macromodel
