// Statistical regression for performance macro-models (paper Sec. 3.2).
//
// A macro-model expresses the cycle count of a library routine as a
// polynomial in parameters of its inputs (here: operand sizes in limbs).
// Our stand-in for the paper's S-PLUS flow is ordinary least squares over a
// caller-chosen monomial basis, with R^2 and mean-absolute-percentage-error
// quality metrics.
#pragma once

#include <cstddef>
#include <span>
#include <string>
#include <vector>

namespace wsp::macromodel {

/// One monomial basis term: product over features of feature^exponent.
/// E.g. with features (n, m): {0,0} = 1, {1,0} = n, {2,0} = n^2, {1,1} = n*m.
using Monomial = std::vector<unsigned>;

/// A fitted polynomial model over a feature vector.
class PolyModel {
 public:
  PolyModel() = default;
  PolyModel(std::vector<Monomial> basis, std::vector<double> coeffs);

  /// Sum over terms of coeff * prod(feature^exponent); features past the
  /// end of `features` count as 0.  Does not allocate.
  double evaluate(std::span<const double> features) const;

  const std::vector<Monomial>& basis() const { return basis_; }
  const std::vector<double>& coeffs() const { return coeffs_; }

  /// Human-readable form, e.g. "12.0 + 15.3*n".
  std::string to_string(const std::vector<std::string>& feature_names) const;

 private:
  std::vector<Monomial> basis_;
  std::vector<double> coeffs_;
};

struct FitQuality {
  double r2 = 0.0;
  double mae_pct = 0.0;
  std::size_t samples = 0;
};

/// Least-squares fit of `cycles` over the monomial basis of `features`.
/// Throws std::invalid_argument on dimension mismatch.
PolyModel fit(const std::vector<std::vector<double>>& features,
              const std::vector<double>& cycles,
              const std::vector<Monomial>& basis, FitQuality* quality = nullptr);

}  // namespace wsp::macromodel
