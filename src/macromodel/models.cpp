#include "macromodel/models.h"

#include <cmath>
#include <sstream>
#include <stdexcept>

namespace wsp::macromodel {

namespace {

// Limits on deserialized models.  A fitted macro-model is a low-order
// polynomial in (n, m); anything larger is corrupt input, and an unbounded
// exponent would make every evaluation (and the table build) loop for as
// many iterations as the text names.
constexpr std::size_t kMaxTerms = 16;
constexpr std::size_t kMaxFactors = 2;  // features (n, m)
constexpr unsigned kMaxExponent = 8;

}  // namespace

void MacroModelSet::set(Prim p, unsigned limb_bits, RoutineModel model) {
  const auto routine = static_cast<std::size_t>(p);
  if (routine >= kRoutines) {
    throw std::invalid_argument("MacroModelSet: routine id " +
                                std::to_string(static_cast<int>(p)) +
                                " out of range");
  }
  if (limb_bits != 16 && limb_bits != 32) {
    throw std::invalid_argument("MacroModelSet: limb bits must be 16 or 32, got " +
                                std::to_string(limb_bits));
  }
  Slot& slot = slots_[routine][limb_bits == 32];
  slot.rm = std::move(model);
  for (std::size_t n = 0; n < kTableSize; ++n) {
    const std::array<double, 2> features = {static_cast<double>(n), 0.0};
    slot.table[n] = slot.rm.model.evaluate(features);
  }
  slot.present = true;
}

const RoutineModel& MacroModelSet::get(Prim p, unsigned limb_bits) const {
  const Slot* slot = find(p, limb_bits);
  if (slot == nullptr) {
    throw std::out_of_range(std::string("MacroModelSet: no model for ") +
                            prim_name(p) + " @" + std::to_string(limb_bits));
  }
  return slot->rm;
}

double MacroModelSet::evaluate_model(Prim p, std::size_t n, std::size_t m,
                                     unsigned limb_bits) const {
  const std::array<double, 2> features = {static_cast<double>(n),
                                          static_cast<double>(m)};
  return get(p, limb_bits).model.evaluate(features);
}

std::string MacroModelSet::describe() const {
  std::ostringstream os;
  for (std::size_t routine = 0; routine < kRoutines; ++routine) {
    for (std::size_t r = 0; r < 2; ++r) {
      const Slot& slot = slots_[routine][r];
      if (!slot.present) continue;
      os << prim_name(static_cast<Prim>(routine)) << " @" << kRadixBits[r]
         << "-bit: cycles = " << slot.rm.model.to_string({"n", "m"})
         << "   (R^2=" << slot.rm.quality.r2 << ", MAE=" << slot.rm.quality.mae_pct
         << "%, samples=" << slot.rm.quality.samples << ")\n";
    }
  }
  return os.str();
}

std::string MacroModelSet::serialize() const {
  std::ostringstream os;
  os.precision(17);
  for (std::size_t routine = 0; routine < kRoutines; ++routine) {
    for (std::size_t r = 0; r < 2; ++r) {
      const Slot& slot = slots_[routine][r];
      if (!slot.present) continue;
      const PolyModel& model = slot.rm.model;
      os << routine << " " << kRadixBits[r] << " " << model.basis().size();
      for (std::size_t t = 0; t < model.basis().size(); ++t) {
        const auto& mono = model.basis()[t];
        os << " " << mono.size();
        for (unsigned e : mono) os << " " << e;
        os << " " << model.coeffs()[t];
      }
      os << " " << slot.rm.quality.r2 << " " << slot.rm.quality.mae_pct << " "
         << slot.rm.quality.samples << "\n";
    }
  }
  return os.str();
}

MacroModelSet MacroModelSet::deserialize(const std::string& text) {
  MacroModelSet set;
  std::istringstream is(text);
  std::string line;
  while (std::getline(is, line)) {
    if (line.empty()) continue;
    std::istringstream ls(line);
    int prim = 0;
    unsigned bits = 0;
    std::size_t terms = 0;
    if (!(ls >> prim >> bits >> terms)) {
      throw std::invalid_argument("MacroModelSet: malformed header line");
    }
    // set() rejects the routine id and limb bits.
    if (terms > kMaxTerms) {
      throw std::invalid_argument("MacroModelSet: too many terms");
    }
    std::vector<Monomial> basis;
    std::vector<double> coeffs;
    for (std::size_t t = 0; t < terms; ++t) {
      std::size_t nf = 0;
      if (!(ls >> nf)) throw std::invalid_argument("MacroModelSet: malformed term");
      if (nf > kMaxFactors) {
        throw std::invalid_argument("MacroModelSet: too many factors in a term");
      }
      Monomial mono(nf);
      for (auto& e : mono) {
        if (!(ls >> e)) throw std::invalid_argument("MacroModelSet: malformed exponent");
        if (e > kMaxExponent) {
          throw std::invalid_argument("MacroModelSet: exponent out of range");
        }
      }
      double c = 0;
      if (!(ls >> c)) throw std::invalid_argument("MacroModelSet: malformed coefficient");
      if (!std::isfinite(c)) {
        throw std::invalid_argument("MacroModelSet: non-finite coefficient");
      }
      basis.push_back(std::move(mono));
      coeffs.push_back(c);
    }
    RoutineModel rm;
    rm.model = PolyModel(std::move(basis), std::move(coeffs));
    if (!(ls >> rm.quality.r2 >> rm.quality.mae_pct >> rm.quality.samples)) {
      throw std::invalid_argument("MacroModelSet: malformed quality fields");
    }
    std::string extra;
    if (ls >> extra) throw std::invalid_argument("MacroModelSet: trailing fields");
    set.set(static_cast<Prim>(prim), bits, std::move(rm));
  }
  return set;
}

}  // namespace wsp::macromodel
