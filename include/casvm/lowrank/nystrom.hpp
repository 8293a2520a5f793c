#pragma once

/// \file nystrom.hpp
/// The Nyström low-rank factor: K ≈ Z Zᵀ with Z = K_{m,L} (K_{L,L})^{-1/2}.
///
/// Given L landmark rows, the m×L cross-kernel block K_{m,L} is filled one
/// column at a time through the tiled Kernel::rowWith path, the small L×L
/// landmark Gram matrix is eigendecomposed with deterministic cyclic Jacobi
/// sweeps, eigenpairs below a relative floor are truncated (rank r ≤ L — the
/// pseudo-inverse square root, keeping the factor finite on rank-deficient
/// landmark sets), and Z = K_{m,L} U_r Λ_r^{-1/2} is packed into the same
/// 16-row k-major float tiles the exact solver's row fills stream through.
/// An approximate kernel row is then one Z·Zᵀ tile-dot over r columns
/// instead of an exact m×n evaluation — O(m·r) with r ≪ n typical.
///
/// Determinism: selection, the Jacobi sweep order and every accumulation
/// order are fixed, so the same (dataset, options) always produces the
/// bitwise-identical factor — build-on-resume equals load-from-checkpoint.
/// The factor is symmetric and PSD by construction, which the SMO solver's
/// convergence argument needs.

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "casvm/data/dataset.hpp"
#include "casvm/kernel/kernel.hpp"
#include "casvm/lowrank/landmarks.hpp"

namespace casvm::lowrank {

struct NystromOptions {
  std::size_t landmarks = 64;
  LandmarkStrategy strategy = LandmarkStrategy::KmeansPP;
  std::uint64_t seed = 42;
  /// Relative eigenvalue floor: eigenpairs of K_LL below
  /// eigenFloor * lambda_max are truncated instead of inverted, so a
  /// nearly-singular landmark Gram matrix cannot blow up (K_LL)^{-1/2}.
  double eigenFloor = 1e-10;
};

/// The materialized factor for one (dataset, kernel, landmark set).
class NystromFactor {
 public:
  NystromFactor() = default;

  /// Select landmarks from `ds` itself (per-cluster composition: on a
  /// partitioned rank, `ds` is that rank's cluster) and build the factor.
  static NystromFactor build(const kernel::Kernel& kern,
                             const data::Dataset& ds,
                             const NystromOptions& opts);

  /// Build against an explicit landmark set — possibly external to `ds`
  /// (the global-landmark Dis-SMO path allgathers one set and every rank
  /// builds its local Z against it, giving one consistent global K̃).
  static NystromFactor buildWithLandmarks(const kernel::Kernel& kern,
                                          const data::Dataset& ds,
                                          LandmarkSet landmarks,
                                          double eigenFloor);

  std::size_t rows() const { return m_; }
  /// Effective rank r ≤ landmark count after eigenvalue truncation.
  std::size_t rank() const { return r_; }
  const LandmarkSet& landmarks() const { return landmarks_; }

  // Row interface over K̃ = Z Zᵀ (the shapes RowSource needs; LowRankKernel
  // forwards to these). All three agree bitwise on shared entries and
  // K̃(i,j) == K̃(j,i) bitwise: every entry is the same serial ascending-k
  // double accumulation over the float z-rows of i and j.
  void fillRow(std::size_t i, std::span<double> out);
  /// Rows rows[0..q) in one tile pass, 1 <= q <= tile::kMaxQueries;
  /// bitwise fillRow(rows[t], outs[t]) each.
  void fillRows(std::span<const std::size_t> rows,
                std::span<const std::span<double>> outs);
  void fillRowSubset(std::size_t i, std::span<const std::size_t> active,
                     std::span<double> out);
  void fillDiagonal(std::span<double> out);

  /// Map an external dense vector into z-space: z = Wᵀ k_L(x), length
  /// rank(), with k_L evaluated by `kern` (the same kernel the factor was
  /// built with). Deterministic in the bytes of x, so every rank maps a
  /// broadcast row to the identical z — the collective-safety basis of the
  /// global-landmark Dis-SMO path.
  void map(const kernel::Kernel& kern, std::span<const float> x,
           double xSelfDot, std::span<double> z) const;

  /// K̃(i, x) = z_i · z for a map()ped external vector.
  double zdot(std::size_t i, std::span<const double> z) const;

  /// Raw-bit serialization (checkpoint payload; see ckpt Kind::LowRankFactor).
  std::vector<std::byte> encode() const;
  static NystromFactor decode(std::span<const std::byte> bytes);

 private:
  std::size_t m_ = 0;  ///< rows of the training set
  std::size_t r_ = 0;  ///< effective rank
  LandmarkSet landmarks_;
  /// Mixing matrix W = U_r Λ_r^{-1/2}, L x r row-major (landmark-major).
  std::vector<double> w_;
  /// Z in 16-row k-major float tiles (blockCount(m) * r * 16 floats).
  std::vector<float> tiles_;
  /// Widened z-row scratch for fills: up to four rows of length r.
  std::vector<double> xd_;

  /// Widen z-row i into xd_[slot * r ..].
  void widenRow(std::size_t i, std::size_t slot = 0);
};

/// Eigendecomposition of a symmetric s×s matrix by deterministic cyclic
/// Jacobi sweeps (exposed for tests). `a` is row-major and is destroyed;
/// on return eigenvalues[t] with eigenvectors column t of `vectors`
/// (row-major s×s), sorted descending by eigenvalue (ties: lower original
/// column first).
void jacobiEigenSymmetric(std::vector<double>& a, std::size_t s,
                          std::vector<double>& eigenvalues,
                          std::vector<double>& vectors);

}  // namespace casvm::lowrank
