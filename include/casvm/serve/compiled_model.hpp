#pragma once

/// \file compiled_model.hpp
/// Load-time compilation of a trained SVM model into a batch scoring form.
///
/// The scalar predict path (Model::decisionFor) walks the SV set one
/// support vector at a time through per-element kernel evaluations. A
/// CompiledModel instead packs the SV set once at load time — dense SVs
/// into the same 16-row k-major float tiling the solver's RowWorkspace
/// uses, sparse SVs as a CSR copy — precomputes the SV self-norms, and
/// scores whole batches of queries through the runtime-dispatched blocked
/// tile-dot micro-kernel (kernel::tile).
///
/// Bitwise contract: decision values are bitwise-identical to the scalar
/// path (Model::decisionFor for rows of a Dataset, Model::decision for raw
/// dense vectors). Every query's dot against an SV accumulates serially
/// over ascending feature index into one double with multiplies kept
/// separate from adds, exactly like Dataset::dot/dotWith; products at
/// features where one side is zero contribute ±0.0, which never changes a
/// running sum that started at +0.0. The kernel transform is the kernel
/// layer's own (Kernel::transformDots over the SV self-norms, with
/// Gaussian values from kernel::exp), and the bias + sum_s alphaY[s]*K_s
/// reduction replicates the scalar operation order element for element.
///
/// Scoring is const and thread-safe; per-call scratch is caller-owned
/// (one BatchScratch per worker thread).

#include <cstddef>
#include <span>
#include <vector>

#include "casvm/data/dataset.hpp"
#include "casvm/kernel/kernel.hpp"

namespace casvm::serve {

/// Reusable per-thread scratch for batch scoring; scoring allocates only
/// on first use (buffers are grown, never shrunk).
struct BatchScratch {
  std::vector<double> xd;    ///< densified query (cols doubles)
  std::vector<double> kval;  ///< per-SV kernel values for one query
  // Ensemble-level scratch (routing / per-group gather):
  std::vector<std::size_t> route;      ///< per-row sub-model index
  std::vector<std::size_t> groupRows;  ///< dataset rows of one group
  std::vector<std::size_t> groupPos;   ///< output slots of one group
  std::vector<double> sub;             ///< gathered per-group outputs
  std::vector<double> pairDecisions;   ///< multiclass: pairs x batch matrix
};

/// A support-vector set packed for batch kernel-row evaluation: blocked
/// float tiles for dense storage, a CSR copy for sparse storage, plus the
/// cached SV self-norms. Self-contained — the source Dataset may be freed.
class CompiledSvSet {
 public:
  CompiledSvSet() = default;
  explicit CompiledSvSet(const data::Dataset& svs);

  std::size_t size() const { return count_; }
  std::size_t cols() const { return cols_; }
  bool empty() const { return count_ == 0; }
  bool dense() const { return dense_; }
  double selfDot(std::size_t s) const { return selfDots_[s]; }
  std::span<const double> selfDots() const { return selfDots_; }

  /// kval[0..size) = xs . query, where the query is row i of `ds`
  /// (densified into scratch.xd first; works for dense and sparse queries).
  void dotRow(const data::Dataset& ds, std::size_t i, std::span<double> kval,
              BatchScratch& scratch) const;

  /// kval[0..size) = xs . x for a raw dense query vector.
  void dotVector(std::span<const float> x, std::span<double> kval,
                 BatchScratch& scratch) const;

  /// Memory held by the packed SV data in bytes (tiles or CSR).
  std::size_t packedBytes() const;

 private:
  void dotAgainstScratch(std::span<double> kval, BatchScratch& scratch) const;

  std::size_t count_ = 0;
  std::size_t cols_ = 0;
  bool dense_ = true;
  std::vector<double> selfDots_;
  std::vector<float> tiles_;  // dense: blockCount(count)*cols*16 floats
  std::vector<std::size_t> rowPtr_;    // sparse CSR copy
  std::vector<std::uint32_t> colIdx_;
  std::vector<float> vals_;
};

/// A binary SVM model compiled for batch scoring (see file comment).
class CompiledModel {
 public:
  CompiledModel() = default;

  /// Compile from model components. `svs` may be empty (bias-only model).
  CompiledModel(kernel::KernelParams params, const data::Dataset& svs,
                std::vector<double> alphaY, double bias);

  const kernel::KernelParams& kernelParams() const { return params_; }
  const CompiledSvSet& supportVectors() const { return svs_; }
  std::size_t numSupportVectors() const { return svs_.size(); }
  std::size_t cols() const { return svs_.cols(); }
  bool empty() const { return svs_.empty(); }
  double bias() const { return bias_; }

  /// out[j] = decision value for row rows[j] of `ds`. Bitwise-identical to
  /// Model::decisionFor(ds, rows[j]).
  void decisionBatch(const data::Dataset& ds, std::span<const std::size_t> rows,
                     std::span<double> out, BatchScratch& scratch) const;

  /// out[i] = decision value for row i, for every row of `ds`.
  void decisionAll(const data::Dataset& ds, std::span<double> out,
                   BatchScratch& scratch) const;

  /// Decision value for a raw dense feature vector; bitwise-identical to
  /// Model::decision(x).
  double decision(std::span<const float> x, BatchScratch& scratch) const;

 private:
  double reduce(std::span<const double> kval) const;

  kernel::KernelParams params_{};
  CompiledSvSet svs_;
  std::vector<double> alphaY_;
  double bias_ = 0.0;
};

}  // namespace casvm::serve
