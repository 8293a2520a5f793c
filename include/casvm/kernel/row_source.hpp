#pragma once

/// \file row_source.hpp
/// Where kernel matrix rows come from.
///
/// The SMO solver consumes the kernel matrix exclusively through row and
/// diagonal fills (see row_cache.hpp). RowSource abstracts the producer of
/// those fills so the solver can run against either the exact kernel
/// (ExactRowSource — tiled dot products over the training data) or an
/// approximation that exposes the same row interface, such as the Nyström
/// low-rank factor in casvm::lowrank whose rows are Z·Zᵀ tile-dots.
///
/// Contract every implementation must honor (the solver depends on it):
///  - fillRow(i, out)[j], fillRowSubset(i, active, out)[j in active] and
///    fillDiagonal(out)[i==j] agree bitwise for the same (i, j) — a row
///    refilled partially after a full fill must reproduce the same values;
///  - fillRows(rows, outs) is bitwise fillRow(rows[t], outs[t]) for each
///    t: it may only decide how the rows are computed, never their values;
///  - fills are deterministic: the same i always produces the same row.
///
/// A source also reports its fill width: how many rows one fillRows call
/// computes in one shared pass over its data. Dense tiles (the exact
/// kernel's and the Nyström factor's) stream once for up to
/// tile::kMaxQueries rows, so their width is four; CSR rows share nothing
/// between fills, so theirs is one. The row cache fills rows ahead of
/// demand only up to that width (see row_cache.hpp).

#include <cstddef>
#include <span>

#include "casvm/data/dataset.hpp"
#include "casvm/kernel/kernel.hpp"
#include "casvm/kernel/tile_kernel.hpp"

namespace casvm::kernel {

/// Producer of kernel matrix rows for one training set. Not thread-safe;
/// each solver instance owns (or is handed) its own source.
class RowSource {
 public:
  virtual ~RowSource() = default;

  /// Number of rows (== columns) of the kernel matrix.
  virtual std::size_t rows() const = 0;

  /// out[j] = K(i, j) for all j; out.size() == rows().
  virtual void fillRow(std::size_t i, std::span<double> out) = 0;

  /// Rows rows[0..q) in one call, 1 <= q <= tile::kMaxQueries; outs[t]
  /// has rows() entries and receives row rows[t].
  virtual void fillRows(std::span<const std::size_t> rows,
                        std::span<const std::span<double>> outs) = 0;

  /// Rows one fillRows call computes in one shared pass over the source's
  /// data, at least 1 and at most tile::kMaxQueries.
  virtual std::size_t fillWidth() const = 0;

  /// out[j] = K(i, j) for j in `active` only (ascending indices); entries
  /// outside `active` are left untouched.
  virtual void fillRowSubset(std::size_t i,
                             std::span<const std::size_t> active,
                             std::span<double> out) = 0;

  /// out[j] = K(j, j) for all j.
  virtual void fillDiagonal(std::span<double> out) = 0;

  /// True when a full-row fill is expected to beat a subset fill of
  /// `activeCount` entries (the row cache's partial-fill cutoff).
  virtual bool preferFullFill(std::size_t activeCount) const = 0;
};

/// The exact kernel: rows are storage-aware blocked dot products over the
/// training data (dense: the tiled, runtime-dispatched micro-kernel
/// through an owned RowWorkspace; sparse: CSR streams). This is the
/// historical row producer factored out of RowCache; results are
/// bitwise-identical to Kernel::eval per element.
class ExactRowSource final : public RowSource {
 public:
  ExactRowSource(const Kernel& kernel, const data::Dataset& ds)
      : kernel_(kernel), ds_(ds) {}

  std::size_t rows() const override { return ds_.rows(); }
  void fillRow(std::size_t i, std::span<double> out) override {
    kernel_.row(ds_, i, out, workspace_);
  }
  void fillRows(std::span<const std::size_t> rows,
                std::span<const std::span<double>> outs) override {
    kernel_.rows(ds_, rows, outs, workspace_);
  }
  /// Dense rows share one sweep of the tiles; CSR rows share nothing.
  std::size_t fillWidth() const override {
    return ds_.storage() == data::Storage::Dense ? tile::kMaxQueries : 1;
  }
  void fillRowSubset(std::size_t i, std::span<const std::size_t> active,
                     std::span<double> out) override {
    kernel_.row(ds_, i, active, out, workspace_);
  }
  void fillDiagonal(std::span<double> out) override {
    kernel_.diagonal(ds_, out);
  }
  /// For dense storage the full-row fill runs through the tiled micro-kernel
  /// (~5x the per-element speed of the scalar subset fill), so a partial fill
  /// only pays off once the active set has shrunk well below the row length.
  /// Sparse subset fills stream just the active rows' nonzeros and always win.
  bool preferFullFill(std::size_t activeCount) const override {
    return ds_.storage() == data::Storage::Dense &&
           activeCount * 4 >= ds_.rows();
  }

  /// One kernel column against an external dense vector x with
  /// precomputed ||x||^2: out[j] = K(xj, x) for j in `rows` (ascending);
  /// out.size() == rows(). Under the same full/partial rule as the row
  /// fills it runs the tiled Kernel::rowWith over every row (entries
  /// outside `rows` are then overwritten too) or its subset form over
  /// `rows` only. Both are bitwise-identical to evalWith.
  void fillColumn(std::span<const float> x, double xSelfDot,
                  std::span<const std::size_t> rows, std::span<double> out) {
    if (preferFullFill(rows.size())) {
      kernel_.rowWith(ds_, x, xSelfDot, out, workspace_);
      return;
    }
    kernel_.rowWith(ds_, x, xSelfDot, rows, out);
  }

  /// Two columns under the same rule, bit for bit fillColumn() of x0 into
  /// out0 and of x1 into out1; a full fill streams the tiles once for both.
  void fillColumns(std::span<const float> x0, double x0SelfDot,
                   std::span<const float> x1, double x1SelfDot,
                   std::span<const std::size_t> rows, std::span<double> out0,
                   std::span<double> out1) {
    if (preferFullFill(rows.size())) {
      const std::span<const float> xs[] = {x0, x1};
      const double selfDots[] = {x0SelfDot, x1SelfDot};
      const std::span<double> outs[] = {out0, out1};
      kernel_.rowsWith(ds_, xs, selfDots, outs, workspace_);
      return;
    }
    fillColumn(x0, x0SelfDot, rows, out0);
    fillColumn(x1, x1SelfDot, rows, out1);
  }

 private:
  const Kernel& kernel_;
  const data::Dataset& ds_;
  /// Fill accelerator (blocked matrix copy + scratch); lives as long as the
  /// source so its one-time build cost amortizes over every fill.
  RowWorkspace workspace_;
};

}  // namespace casvm::kernel
