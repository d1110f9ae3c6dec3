#include "macromodel/regression.h"

#include <cmath>
#include <sstream>
#include <stdexcept>

#include "support/stats.h"

namespace wsp::macromodel {

PolyModel::PolyModel(std::vector<Monomial> basis, std::vector<double> coeffs)
    : basis_(std::move(basis)), coeffs_(std::move(coeffs)) {
  if (basis_.size() != coeffs_.size()) {
    throw std::invalid_argument("PolyModel: basis/coeff size mismatch");
  }
}

double PolyModel::evaluate(std::span<const double> features) const {
  double total = 0.0;
  for (std::size_t t = 0; t < basis_.size(); ++t) {
    double term = coeffs_[t];
    for (std::size_t f = 0; f < basis_[t].size(); ++f) {
      for (unsigned e = 0; e < basis_[t][f]; ++e) {
        term *= f < features.size() ? features[f] : 0.0;
      }
    }
    total += term;
  }
  return total;
}

std::string PolyModel::to_string(const std::vector<std::string>& names) const {
  std::ostringstream os;
  os.precision(4);
  for (std::size_t t = 0; t < basis_.size(); ++t) {
    if (t) os << " + ";
    os << coeffs_[t];
    for (std::size_t f = 0; f < basis_[t].size(); ++f) {
      for (unsigned e = 0; e < basis_[t][f]; ++e) {
        os << "*" << (f < names.size() ? names[f] : "x" + std::to_string(f));
      }
    }
  }
  return os.str();
}

PolyModel fit(const std::vector<std::vector<double>>& features,
              const std::vector<double>& cycles,
              const std::vector<Monomial>& basis, FitQuality* quality) {
  if (features.size() != cycles.size() || features.empty()) {
    throw std::invalid_argument("fit: bad sample dimensions");
  }
  std::vector<std::vector<double>> X;
  X.reserve(features.size());
  for (const auto& fv : features) {
    std::vector<double> row;
    row.reserve(basis.size());
    for (const auto& mono : basis) {
      double v = 1.0;
      for (std::size_t f = 0; f < mono.size(); ++f) {
        for (unsigned e = 0; e < mono[f]; ++e) {
          v *= f < fv.size() ? fv[f] : 0.0;
        }
      }
      row.push_back(v);
    }
    X.push_back(std::move(row));
  }
  PolyModel model(basis, least_squares(X, cycles));
  if (quality) {
    std::vector<double> predicted;
    predicted.reserve(features.size());
    for (const auto& fv : features) predicted.push_back(model.evaluate(fv));
    quality->r2 = r_squared(predicted, cycles);
    quality->mae_pct = mean_abs_pct_error(predicted, cycles);
    quality->samples = features.size();
  }
  return model;
}

}  // namespace wsp::macromodel
