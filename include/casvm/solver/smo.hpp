#pragma once

/// \file smo.hpp
/// Sequential Minimal Optimization (Platt 1999, with Keerthi's two-threshold
/// working-set selection) — the paper's Algorithm 1 and the shared building
/// block of every distributed method in this repository ("all the methods
/// are based on the same shared-memory SMO implementation", §V).
///
/// The solver maintains the optimality gradient f_i = sum_j a_j y_j K_ij - y_i
/// (eqn. 4), repeatedly picks the maximal-violating pair (i_high, i_low),
/// solves the two-variable subproblem analytically (eqns. 6-7) and updates
/// f with the pair's two kernel rows (eqn. 5). Convergence is declared when
/// b_low <= b_high + 2*tolerance.
///
/// The iteration itself is solver::SmoLoop (smo_loop.hpp), the one loop the
/// global methods run too. SmoSolver runs it with a local pair source whose
/// rows come from a RowCache over the solver's RowSource; Dis-SMO runs it
/// with MINLOC/MAXLOC elections over every rank's block.

#include <cstddef>
#include <functional>
#include <span>
#include <vector>

#include "casvm/data/dataset.hpp"
#include "casvm/kernel/kernel.hpp"
#include "casvm/kernel/row_source.hpp"
#include "casvm/solver/model.hpp"

namespace casvm::obs {
class Lane;
}

namespace casvm::solver {

/// Working-set selection strategy.
enum class Selection : std::uint8_t {
  /// Maximal-violating pair (first-order; the paper's formulation).
  FirstOrder = 0,
  /// Second-order selection of i_low (Fan, Chen & Lin 2005); usually fewer
  /// iterations at slightly more work per iteration. Provided as the
  /// optional refinement the paper cites as related work [21].
  SecondOrder = 1,
};

/// Complete mid-solve state at the top of one SMO iteration. Restoring a
/// snapshot and continuing reproduces the uninterrupted run bitwise: the
/// gradient f is carried verbatim (reconstructing it from alpha would give
/// a different floating-point rounding), and the active/shrunk bookkeeping
/// is preserved so working-set scans visit samples in the same order.
struct SolverSnapshot {
  std::size_t iteration = 0;
  bool everShrunk = false;
  std::vector<double> alpha;          ///< by training row
  std::vector<double> f;              ///< optimality gradient, by row
  std::vector<std::size_t> active;    ///< active working set, in scan order
};

struct SolverOptions {
  kernel::KernelParams kernel = kernel::KernelParams::gaussian(1.0);
  double C = 1.0;               ///< box constraint (eqn. 2)
  double tolerance = 1e-3;      ///< KKT tolerance tau
  std::size_t maxIterations = 0;  ///< 0 = auto (100*m + 10000)
  /// Kernel row cache budget. Cached rows are float (kernel::CacheValue),
  /// so it holds cacheBytes / (4 * rows) rows. The global methods also
  /// bound their replicated row store (dis-smo-shrink's and PBM's) by it,
  /// per rank: a PBM rank holds up to this much in its block solver's row
  /// cache plus this much in the store.
  std::size_t cacheBytes = 64ull << 20;
  Selection selection = Selection::FirstOrder;
  /// Per-class box scaling: positive samples get C * positiveWeight,
  /// negative samples C * negativeWeight. Raising positiveWeight counters
  /// class imbalance (e.g. the `face` workload's ~5% positives) by making
  /// positive margin violations more expensive.
  double positiveWeight = 1.0;
  double negativeWeight = 1.0;
  /// Shrinking (LIBSVM-style): temporarily drop samples whose alpha sits
  /// at a bound and whose gradient says it will stay there, so the
  /// selection scan and the gradient update run over a shrinking active
  /// set. Before declaring convergence the full gradient is reconstructed
  /// and every sample reactivated, so the solution is identical up to the
  /// tolerance — only faster to reach on large problems.
  bool shrinking = false;
  /// Iterations between shrink passes (when shrinking is on).
  std::size_t shrinkInterval = 1000;
  /// Optional trace lane: when set, the solver emits a periodic progress
  /// instant (iteration, active-set size, duality gap, cache hit rate)
  /// every `traceInterval` iterations. Costs one branch per iteration when
  /// unset. The lane must outlive the solve.
  obs::Lane* trace = nullptr;
  /// Added to the solver's CPU-relative timestamps so progress events line
  /// up with the caller's (virtual) timeline — SPMD drivers pass the
  /// rank's virtual now at solve start.
  double traceTimeOffset = 0.0;
  /// Iterations between progress events (must be > 0 when tracing).
  std::size_t traceInterval = 512;
  /// Checkpoint cadence: when `snapshotSink` is set, the solver hands a
  /// SolverSnapshot to it every `snapshotInterval` iterations (at the top
  /// of the iteration, before any state of that iteration mutates). The
  /// sink may throw — the solver does not catch; a sink that persists the
  /// snapshot and then aborts leaves a resumable state on disk.
  std::size_t snapshotInterval = 0;  ///< 0 = no snapshots
  std::function<void(const SolverSnapshot&)> snapshotSink;
  /// Resume a previously snapshotted solve mid-stream. When set, `solve()`
  /// restores alpha/f/active/everShrunk/iteration verbatim and continues;
  /// `initialAlpha` is ignored. The snapshot must come from a solve over
  /// the same dataset and options, or the result is meaningless. The
  /// pointee must outlive the call.
  const SolverSnapshot* resumeFrom = nullptr;
  /// Where the solver's kernel rows and diagonal come from. nullptr (the
  /// default) means the exact kernel of `ds`; the low-rank backend passes a
  /// lowrank::LowRankKernel here so every row fill becomes a Z·Zᵀ tile-dot.
  /// The source's rows() must equal ds.rows() and the pointee must outlive
  /// the call. Model extraction always uses the exact kernel over the
  /// support vectors regardless (train-approximate, predict-exact).
  kernel::RowSource* rowSource = nullptr;
};

struct SolverResult {
  Model model;
  std::vector<double> alpha;   ///< full-length alpha (by training row)
  std::size_t iterations = 0;
  bool converged = false;
  /// Dual objective F(alpha) (eqn. 1) over the kernel matrix the solver
  /// trained on: every entry rounded as the row cache stores it
  /// (kernel::asCached). F on the exact kernel at the same alpha differs
  /// by at most 2^-25 * sum_ij |alpha_i alpha_j K_ij|.
  double objective = 0.0;
  double seconds = 0.0;        ///< wall time spent in solve()
  /// Every kernel row the source computed: the cache's misses (full and
  /// partial fills) plus the rows it filled ahead of demand.
  std::size_t kernelRowsComputed = 0;
  /// Of kernelRowsComputed, rows filled ahead of demand (first-order
  /// selection with nothing shrunk, on a source whose fills share a pass;
  /// once the cache is full they wait in its unread list).
  std::size_t kernelRowsAhead = 0;
  /// Full-row fills asked of the source; each fills up to the source's
  /// fill width of rows (eight on AVX-512 hosts, four elsewhere) in one
  /// pass over dense tiles.
  std::size_t kernelFillSweeps = 0;
  std::size_t kernelRowHits = 0;       ///< cache hits
};

/// Single-node SMO solver. Stateless between solves; safe to reuse.
class SmoSolver {
 public:
  explicit SmoSolver(SolverOptions options);

  const SolverOptions& options() const { return options_; }

  /// Train on `ds`. `initialAlpha` (optional, same length as ds.rows())
  /// warm-starts the solve — the Cascade/DC filter passes support-vector
  /// alphas from the previous layer for exactly this purpose. Values are
  /// clipped to [0, C]; the caller is responsible for the equality
  /// constraint holding approximately (merging feasible sub-solutions
  /// preserves it).
  SolverResult solve(const data::Dataset& ds,
                     std::span<const double> initialAlpha = {}) const;

 private:
  SolverOptions options_;
};

}  // namespace casvm::solver
