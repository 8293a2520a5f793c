#pragma once

/// \file lowrank_kernel.hpp
/// The Nyström factor behind the solver's kernel-row interface.
///
/// LowRankKernel owns a NystromFactor and implements kernel::RowSource, so
/// an SmoSolver handed one (SolverOptions::rowSource) runs its entire
/// selection / two-variable-step / gradient machinery against K̃ = Z·Zᵀ
/// without a single code change: row fills become tile-dots over r ≪ n
/// columns, the diagonal comes from the z-rows' squared norms, and partial
/// (active-set) fills agree bitwise with full fills. Model extraction still
/// uses the exact kernel over the support vectors — train-approximate,
/// predict-exact — so serving is unchanged.

#include <utility>

#include "casvm/kernel/row_source.hpp"
#include "casvm/kernel/tile_kernel.hpp"
#include "casvm/lowrank/nystrom.hpp"

namespace casvm::lowrank {

class LowRankKernel final : public kernel::RowSource {
 public:
  explicit LowRankKernel(NystromFactor factor) : factor_(std::move(factor)) {}

  const NystromFactor& factor() const { return factor_; }
  NystromFactor& factor() { return factor_; }

  std::size_t rows() const override { return factor_.rows(); }
  void fillRow(std::size_t i, std::span<double> out) override {
    factor_.fillRow(i, out);
  }
  void fillRows(std::span<const std::size_t> rows,
                std::span<const std::span<double>> outs) override {
    factor_.fillRows(rows, outs);
  }
  /// Z's tiles stream once for up to four rows, as the exact dense ones do.
  std::size_t fillWidth() const override { return kernel::tile::kMaxQueries; }
  void fillRowSubset(std::size_t i, std::span<const std::size_t> active,
                     std::span<double> out) override {
    factor_.fillRowSubset(i, active, out);
  }
  void fillDiagonal(std::span<double> out) override {
    factor_.fillDiagonal(out);
  }
  /// Full fills stream the tile micro-kernel (same ~4x per-element edge as
  /// the exact dense path), so the partial-fill cutoff matches it.
  bool preferFullFill(std::size_t activeCount) const override {
    return activeCount * 4 >= factor_.rows();
  }

 private:
  NystromFactor factor_;
};

}  // namespace casvm::lowrank
