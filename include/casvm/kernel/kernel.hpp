#pragma once

/// \file kernel.hpp
/// SVM kernel functions (the paper's Table I): linear, polynomial,
/// Gaussian (RBF) and sigmoid, evaluated over Dataset rows or external
/// dense vectors. The Gaussian kernel is the paper's primary case — its
/// locality (K -> 0 as distance grows) is the analytical basis for
/// CP-SVM/CA-SVM partition-and-solve correctness (§IV-A).

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "casvm/data/dataset.hpp"

namespace casvm::kernel {

enum class KernelType : std::uint8_t {
  Linear = 0,      ///< K(x, z) = x.z
  Polynomial = 1,  ///< K(x, z) = (a x.z + r)^d
  Gaussian = 2,    ///< K(x, z) = exp(-gamma ||x - z||^2)
  Sigmoid = 3,     ///< K(x, z) = tanh(a x.z + r)
};

/// Parameters for every kernel family; unused fields are ignored.
struct KernelParams {
  KernelType type = KernelType::Gaussian;
  double gamma = 1.0;  ///< Gaussian width
  double a = 1.0;      ///< polynomial / sigmoid scale
  double r = 0.0;      ///< polynomial / sigmoid offset
  int degree = 3;      ///< polynomial degree

  static KernelParams linear() { return {KernelType::Linear, 0, 0, 0, 0}; }
  static KernelParams gaussian(double gamma) {
    return {KernelType::Gaussian, gamma, 0, 0, 0};
  }
  static KernelParams polynomial(double a, double r, int degree) {
    return {KernelType::Polynomial, 0, a, r, degree};
  }
  static KernelParams sigmoid(double a, double r) {
    return {KernelType::Sigmoid, 0, a, r, 0};
  }
};

/// Human-readable kernel name ("gaussian", ...).
std::string kernelName(KernelType type);

/// Reusable scratch for repeated Kernel::row() fills over one dataset. For
/// dense data it holds a blocked, column-interleaved (k-major, 16 rows per
/// block) float copy of the sample matrix, built once on first bind: row
/// fills then run unit-stride load / convert / multiply-add streams with
/// no per-fill transposition. It also owns the conversion and
/// scatter buffers the fill kernels need, so fills allocate nothing.
///
/// Consecutive dense fills alternate the order they visit the blocked copy
/// in (tile::sweep), so each fill starts on the blocks the previous one
/// read last, which a part too large for L2 still holds there.
///
/// Bound to one dataset at a time; binding a different dataset rebuilds the
/// blocked copy (one full row fill's worth of work). Not thread-safe — each
/// RowCache owns its own workspace.
class RowWorkspace {
 public:
  RowWorkspace() = default;

  /// Prepare for fills over `ds`; a no-op when already bound to it.
  void bind(const data::Dataset& ds);

 private:
  friend class Kernel;
  const data::Dataset* bound_ = nullptr;
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<float> tiles_;    ///< dense: ceil(m/16) blocks of cols*16 floats
  std::vector<double> xd_;      ///< dense: up to four queries widened to double
  std::vector<float> scatter_;  ///< sparse: dense copy of row i
  bool reverse_ = false;        ///< dense: the next fill's block order
};

/// Kernel evaluator bound to parameters (not to a dataset).
class Kernel {
 public:
  explicit Kernel(KernelParams params) : params_(params) {}

  const KernelParams& params() const { return params_; }

  /// K(xi, xj) within one dataset.
  double eval(const data::Dataset& ds, std::size_t i, std::size_t j) const;

  /// K(xi, x) against an external dense vector with precomputed ||x||^2.
  double evalWith(const data::Dataset& ds, std::size_t i,
                  std::span<const float> x, double xSelfDot) const;

  /// K(ai, bj) across two datasets with identical feature counts.
  double evalCross(const data::Dataset& a, std::size_t i,
                   const data::Dataset& b, std::size_t j) const;

  /// K(x, z) for two external dense vectors with precomputed norms.
  double evalVectors(std::span<const float> x, double xSelfDot,
                     std::span<const float> z, double zSelfDot) const;

  /// Fill out[j] = K(xi, xj) for all j (one kernel row) over a
  /// caller-owned workspace: dense fills run over the workspace's blocked
  /// matrix copy through the runtime-dispatched tile micro-kernel, sparse
  /// fills scatter row i into its buffer once and stream each row's
  /// nonzeros against it. The kernel transform runs once per row, not per
  /// element. Bitwise-identical to calling eval per element — every dot
  /// accumulates serially over ascending k into one double.
  void row(const data::Dataset& ds, std::size_t i, std::span<double> out,
           RowWorkspace& ws) const;

  /// Rows idx[0..q) in one call, 1 <= q <= tile::kMaxQueries, bit for bit
  /// row(ds, idx[t], outs[t], ws) each: dense fills stream the workspace's
  /// tiles once for all q rows (one tile::dotFn pass), sparse fills run
  /// one after the other.
  void rows(const data::Dataset& ds, std::span<const std::size_t> idx,
            std::span<const std::span<double>> outs, RowWorkspace& ws) const;

  /// Fill out[j] = K(xi, xj) for j in `subset` only; entries of `out`
  /// outside `subset` are left untouched. Lets the solver's row cache
  /// refill evicted rows over the active set while shrinking instead of
  /// paying a full-m row computation. Sparse fills reuse the workspace's
  /// scatter buffer; bitwise-identical to eval per element.
  void row(const data::Dataset& ds, std::size_t i,
           std::span<const std::size_t> subset, std::span<double> out,
           RowWorkspace& ws) const;

  /// Fill out[j] = K(xj, x) for all j against an external dense vector x
  /// with precomputed ||x||^2 — a whole-column evaluation of evalWith().
  /// Dense fills stream through the workspace's blocked matrix copy with
  /// the same tile micro-kernel as row(); sparse fills run each row's
  /// nonzeros against x. Bitwise-identical to calling evalWith per row.
  /// The low-rank backend uses this to materialize K(:, landmark) columns.
  void rowWith(const data::Dataset& ds, std::span<const float> x,
               double xSelfDot, std::span<double> out, RowWorkspace& ws) const;

  /// rowWith() for j in `subset` only (ascending); entries of `out`
  /// outside `subset` are left untouched. One dot per row, then one
  /// gathered transform (Gaussian exponents through the vector exp pass);
  /// bitwise-identical to evalWith per row.
  void rowWith(const data::Dataset& ds, std::span<const float> x,
               double xSelfDot, std::span<const std::size_t> subset,
               std::span<double> out) const;

  /// Columns against xs[0..q) (squared norms xSelfDots[t]) in one call,
  /// 1 <= q <= tile::kMaxQueries, bit for bit rowWith() of xs[t] into
  /// outs[t] each: dense fills stream the tiles once for all q vectors.
  void rowsWith(const data::Dataset& ds,
                std::span<const std::span<const float>> xs,
                std::span<const double> xSelfDots,
                std::span<const std::span<double>> outs,
                RowWorkspace& ws) const;

  /// Fill out[j] = K(xj, xj) for all j from the dataset's cached squared
  /// norms — no dot products. The SMO second-order working-set selection
  /// reads the kernel diagonal for every candidate on every iteration;
  /// computing it once here replaces an O(active * n) per-iteration cost
  /// with an O(1) lookup. Bitwise-identical to eval(ds, j, j).
  void diagonal(const data::Dataset& ds, std::span<double> out) const;

  /// Approximate flops for one kernel evaluation (used for modeling).
  double flopsPerEval(const data::Dataset& ds) const;

  /// Apply the kernel transform in place to raw dot products against one
  /// query with squared norm `selfX`: out[j] = K given out[j] = x_j . x
  /// and selfDots[j] = ||x_j||^2, for j < selfDots.size(). One KernelType
  /// dispatch per call; Gaussian exponents and kernel::exp's row pass run
  /// one L1-sized block at a time.
  /// Bit for bit what eval/evalWith return for the same dot and norms —
  /// every row fill and serving's batch scoring run through it.
  void transformDots(std::span<const double> selfDots, double selfX,
                     std::span<double> out) const;

 private:
  double fromDot(double dot, double selfI, double selfJ) const;

  /// transformDots() over `subset` only, against a query (row i, or an
  /// external vector) with squared norm `selfX`.
  void transformSubset(const data::Dataset& ds, double selfX,
                       std::span<const std::size_t> subset,
                       std::span<double> out) const;

  KernelParams params_;
};

/// out[j] = ||xj - x||^2 for every row j of `ds`, against an external dense
/// vector x with precomputed ||x||^2, as ds.selfDot(j) + xSelfDot - 2 dot
/// with the dots from the linear kernel's tiled rowWith(). Bitwise-identical
/// to ds.squaredDistanceTo(j, x, xSelfDot), and to ds.squaredDistance(j, i)
/// when x is row i densified and xSelfDot is ds.selfDot(i). The k-means and
/// k-means++ scans (clustering, landmark selection) run on it.
void squaredDistances(const data::Dataset& ds, std::span<const float> x,
                      double xSelfDot, std::span<double> out,
                      RowWorkspace& ws);

}  // namespace casvm::kernel
