#pragma once

/// \file comm_model.hpp
/// Closed-form communication-volume models (the paper's Table X). Given
/// the dataset and run statistics (m samples, n features, s support
/// vectors, I iterations, k K-means loops, p processes), each formula
/// predicts the total bytes an algorithm moves; the paper validated them
/// within ~5-20% of measured volume. bench_table10 compares them against
/// the byte-exact TrafficMatrix of a real run of this library.

#include <cstddef>

#include "casvm/core/method.hpp"

namespace casvm::perf {

/// Inputs to the Table X formulas.
struct CommModelParams {
  long long m = 0;  ///< training samples
  long long n = 0;  ///< features per sample
  long long s = 0;  ///< support vectors of the full problem
  long long I = 0;  ///< SMO iterations (Dis-SMO; PBM pair corrections)
  long long k = 0;  ///< K-means loops
  int p = 1;        ///< processes
  long long r = 8;  ///< PBM outer rounds
  /// Average surviving active-set fraction once adaptive shrinking engages
  /// (DisSmoShrink): scales the elected-row broadcast volume, since the
  /// replicated row store absorbs the re-elections of the shrunken core.
  double sigma = 0.5;
  /// Nyström landmarks when the run used the low-rank backend (0 = exact).
  /// Only the Dis-SMO family pays extra: one allgatherv replicating the L
  /// landmark rows (n words each, plus self-dots) on all p ranks at
  /// startup — pL(n+2) words. The partitioned and tree methods build
  /// per-cluster factors from purely local rows, adding zero volume.
  long long L = 0;
};

/// Predicted total communication volume in bytes (4-byte words, as in the
/// paper's worked example). CA-SVM returns exactly 0.
double predictedCommBytes(core::Method method, const CommModelParams& params);

/// The formula as printed in Table X (for reporting).
const char* commFormula(core::Method method);

}  // namespace casvm::perf
