#pragma once

/// \file model.hpp
/// The trained SVM model: support vectors, their alpha*y coefficients and
/// the bias term. Evaluating eqn. (3) of the paper,
///   yhat(x) = sign( sum_i alpha_i y_i K(x_i, x) + b ),
/// is all prediction does; models are compact because only samples with
/// nonzero alpha (the support vectors) are stored.

#include <cstddef>
#include <span>
#include <vector>

#include "casvm/data/dataset.hpp"
#include "casvm/kernel/kernel.hpp"

namespace casvm::solver {

class Model {
 public:
  Model() = default;
  Model(kernel::KernelParams params, data::Dataset supportVectors,
        std::vector<double> alphaY, double bias);

  /// The model of a dual solution over `ds` (one alpha per row): every row
  /// with alpha > 0 becomes a support vector with coefficient alpha * y.
  static Model fromDual(kernel::KernelParams params, const data::Dataset& ds,
                        std::span<const double> alpha, double bias);

  const kernel::KernelParams& kernelParams() const { return params_; }
  const data::Dataset& supportVectors() const { return svs_; }
  const std::vector<double>& alphaY() const { return alphaY_; }
  double bias() const { return bias_; }
  std::size_t numSupportVectors() const { return svs_.rows(); }
  bool empty() const { return svs_.empty(); }

  /// Decision value for a dense feature vector (length = feature count).
  double decision(std::span<const float> x) const;

  /// Decision value for row i of another dataset (dense or sparse).
  double decisionFor(const data::Dataset& ds, std::size_t i) const;

  /// Predicted label (+1/-1) for row i of another dataset.
  std::int8_t predictFor(const data::Dataset& ds, std::size_t i) const {
    return decisionFor(ds, i) >= 0.0 ? 1 : -1;
  }

  /// Fraction of rows of `testSet` classified correctly.
  double accuracy(const data::Dataset& testSet) const;

  /// Wire/disk serialization.
  std::vector<std::byte> pack() const;
  static Model unpack(std::span<const std::byte> bytes);

  /// Save to / load from a file (same format as pack()).
  void save(const std::string& path) const;
  static Model load(const std::string& path);

 private:
  kernel::KernelParams params_;
  kernel::Kernel kernel_{kernel::KernelParams{}};  ///< built once, not per call
  data::Dataset svs_;
  std::vector<double> alphaY_;
  double bias_ = 0.0;
};

}  // namespace casvm::solver
