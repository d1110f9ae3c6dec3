// Macro-model registry: one fitted PolyModel per (library routine, radix),
// with the per-routine fit quality from characterization.  This is the
// artifact the algorithm-exploration phase consumes instead of the ISS.
//
// Registering a model compiles it into a per-size cycle table, so the
// per-event cost during exploration is one bounds check and one load.  Each
// table entry is the double PolyModel::evaluate returns for (n, 0); sizes
// past the table and m != 0 calls evaluate the polynomial directly, so
// cycles() is bit-identical to get().model.evaluate() everywhere.
#pragma once

#include <array>
#include <cstddef>
#include <string>

#include "macromodel/regression.h"
#include "mp/cost.h"

namespace wsp::macromodel {

struct RoutineModel {
  PolyModel model;     ///< features: (n, m) in limbs
  FitQuality quality;  ///< characterization fit quality
};

class MacroModelSet {
 public:
  /// Operand sizes (limbs) served from the compiled table.  Covers every
  /// event of a 1024-bit RSA estimate at radix 16, whose largest operand is
  /// a 2k+1 = 129-limb Knuth-D dividend.
  static constexpr std::size_t kTableSize = 160;

  /// Registers (or replaces) the model of `p` at radix `limb_bits` and
  /// compiles its cycle table.  Throws std::invalid_argument for a routine
  /// id outside [0, Prim::kCount) or limb_bits other than 16 or 32.
  void set(Prim p, unsigned limb_bits, RoutineModel model);
  bool has(Prim p, unsigned limb_bits) const { return find(p, limb_bits) != nullptr; }
  const RoutineModel& get(Prim p, unsigned limb_bits) const;

  /// Predicted cycles for one primitive invocation.  Throws
  /// std::out_of_range for an uncharacterized routine.
  double cycles(Prim p, std::size_t n, std::size_t m, unsigned limb_bits) const {
    const Slot* slot = find(p, limb_bits);
    if (slot != nullptr && m == 0 && n < kTableSize) return slot->table[n];
    return evaluate_model(p, n, m, limb_bits);
  }

  /// Multi-line summary: routine, model formula, R^2, MAE%.
  std::string describe() const;

  /// Text serialization — characterization is a one-time cost per hardware
  /// configuration, so model sets can be persisted and reloaded.
  /// deserialize() throws std::invalid_argument for any malformed or
  /// out-of-range line (see models.cpp for the accepted limits).
  std::string serialize() const;
  static MacroModelSet deserialize(const std::string& text);

 private:
  struct Slot {
    bool present = false;
    RoutineModel rm;
    std::array<double, kTableSize> table{};  ///< table[n] = cycles(n, m=0)
  };
  static constexpr std::size_t kRoutines = static_cast<std::size_t>(Prim::kCount);
  static constexpr unsigned kRadixBits[2] = {16, 32};

  const Slot* find(Prim p, unsigned limb_bits) const {
    const auto routine = static_cast<std::size_t>(p);
    if (routine >= kRoutines || (limb_bits != 16 && limb_bits != 32)) return nullptr;
    const Slot& slot = slots_[routine][limb_bits == 32];
    return slot.present ? &slot : nullptr;
  }
  /// The polynomial path: table misses, and the out_of_range error.
  double evaluate_model(Prim p, std::size_t n, std::size_t m, unsigned limb_bits) const;

  std::array<std::array<Slot, 2>, kRoutines> slots_{};
};

}  // namespace wsp::macromodel
