#include "casvm/solver/smo.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <tuple>

#include "casvm/kernel/row_cache.hpp"
#include "casvm/obs/trace.hpp"
#include "casvm/solver/working_set.hpp"
#include "casvm/support/error.hpp"
#include "casvm/support/timer.hpp"

namespace casvm::solver {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kEtaFloor = 1e-12;

}  // namespace

SmoSolver::SmoSolver(SolverOptions options) : options_(options) {
  CASVM_CHECK(options_.C > 0.0, "C must be positive");
  CASVM_CHECK(options_.tolerance > 0.0, "tolerance must be positive");
  CASVM_CHECK(options_.positiveWeight > 0.0 && options_.negativeWeight > 0.0,
              "class weights must be positive");
  CASVM_CHECK(options_.shrinkInterval > 0, "shrink interval must be positive");
  CASVM_CHECK(options_.trace == nullptr || options_.traceInterval > 0,
              "trace interval must be positive");
  CASVM_CHECK(!options_.snapshotSink || options_.snapshotInterval > 0,
              "snapshot interval must be positive when a sink is set");
}

SolverResult SmoSolver::solve(const data::Dataset& ds,
                              std::span<const double> initialAlpha) const {
  const std::size_t m = ds.rows();
  CASVM_CHECK(m >= 2, "SMO needs at least two samples");
  CASVM_CHECK(initialAlpha.empty() || initialAlpha.size() == m,
              "initial alpha must match sample count");
  // A single-class subproblem cannot satisfy the equality constraint with a
  // separating solution; callers partitioning data must guard against it.
  CASVM_CHECK(ds.positives() > 0 && ds.negatives() > 0,
              "SMO needs samples of both classes");

  WallTimer timer;
  // CPU-clock origin for trace progress timestamps: relative CPU time maps
  // onto the caller's timeline via traceTimeOffset (see SolverOptions).
  const double traceCpuStart =
      options_.trace != nullptr ? threadCpuSeconds() : 0.0;
  const double cPos = options_.C * options_.positiveWeight;
  const double cNeg = options_.C * options_.negativeWeight;
  const double boundEps = kBoundSlack * std::max(cPos, cNeg);
  const double tau = options_.tolerance;
  const kernel::Kernel kern(options_.kernel);
  // Row producer: the exact kernel unless the caller supplied a source
  // (e.g. the Nyström low-rank factor). The cache and the diagonal both
  // come from the same source, so selection and the two-variable step see
  // one consistent (approximate or exact) kernel matrix.
  kernel::ExactRowSource exactSource(kern, ds);
  kernel::RowSource* src =
      options_.rowSource != nullptr ? options_.rowSource : &exactSource;
  CASVM_CHECK(src->rows() == m,
              "solver row source does not match the dataset row count");
  kernel::RowCache cache(*src, options_.cacheBytes);

  // Kernel diagonal, computed once. The second-order working-set selection
  // reads K_jj for every candidate on every iteration; without this it
  // costs a full dot product each time. Rounded like the cached rows, so
  // selection and the step read one kernel matrix: the gain's eta for the
  // chosen j is the step's eta.
  std::vector<double> diag(m);
  src->fillDiagonal(diag);
  for (double& d : diag) d = kernel::asCached(d);

  auto boxOf = [&](std::size_t i) {
    return ds.label(i) == 1 ? cPos : cNeg;
  };

  std::vector<double> alpha(m, 0.0);
  std::vector<double> f(m);

  if (options_.resumeFrom != nullptr) {
    // Mid-stream resume: every piece of iteration state is restored
    // verbatim. In particular f is NOT reconstructed from alpha — the
    // reconstruction sums kernel rows in a different order than the
    // incremental updates that produced the snapshot, so its rounding
    // would diverge bitwise from the uninterrupted run.
    const SolverSnapshot& snap = *options_.resumeFrom;
    CASVM_CHECK(snap.alpha.size() == m && snap.f.size() == m,
                "solver resume: snapshot row count does not match dataset");
    CASVM_CHECK(!snap.active.empty() && snap.active.size() <= m,
                "solver resume: invalid active set");
    for (std::size_t i : snap.active) {
      CASVM_CHECK(i < m, "solver resume: active index out of range");
    }
    alpha = snap.alpha;
    f = snap.f;
  } else if (initialAlpha.empty()) {
    // f_i = -y_i when alpha == 0 (eqn. 4).
    for (std::size_t i = 0; i < m; ++i) f[i] = -double(ds.label(i));
  } else {
    for (std::size_t i = 0; i < m; ++i) {
      alpha[i] = std::clamp(initialAlpha[i], 0.0, boxOf(i));
    }
    // Full gradient reconstruction: one kernel row per nonzero alpha.
    for (std::size_t i = 0; i < m; ++i) f[i] = -double(ds.label(i));
    for (std::size_t j = 0; j < m; ++j) {
      if (alpha[j] == 0.0) continue;
      const double coef = alpha[j] * double(ds.label(j));
      const std::span<const kernel::CacheValue> kj = cache.row(j);
      for (std::size_t i = 0; i < m; ++i) f[i] += coef * double(kj[i]);
    }
  }

  const std::size_t maxIters =
      options_.maxIterations > 0 ? options_.maxIterations : 100 * m + 10000;

  // Active working set: all samples initially; shrinking trims it.
  std::vector<std::size_t> active(m);
  std::iota(active.begin(), active.end(), 0);
  bool everShrunk = false;
  std::size_t startIter = 0;
  if (options_.resumeFrom != nullptr) {
    active = options_.resumeFrom->active;
    everShrunk = options_.resumeFrom->everShrunk;
    startIter = options_.resumeFrom->iteration;
  }

  // One high-set and one low-set membership byte per sample, kept equal to
  // the index-set predicates for every active sample and zero for every
  // shrunk one, so a selection is one dense pass over f (see
  // working_set.hpp). Derived from alpha and the active set, so a resume
  // rebuilds them and the snapshot carries nothing new.
  std::vector<std::uint8_t> inHigh(m, 0), inLow(m, 0);
  auto setMembership = [&](std::size_t i) {
    const std::int8_t y = ds.label(i);
    inHigh[i] = inHighSet(y, alpha[i], boxOf(i), boundEps);
    inLow[i] = inLowSet(y, alpha[i], boxOf(i), boundEps);
  };
  for (std::size_t i : active) setMembership(i);
  const SelectFn select = selectFn();

  // Kernel row fetch for the current iteration: while shrunk, evicted-row
  // refills only compute the active entries (the gradient update and the
  // selection scans never read outside the active set).
  auto fetchRow = [&](std::size_t i) {
    return active.size() < m
               ? cache.row(i, std::span<const std::size_t>(active))
               : cache.row(i);
  };
  auto fetchRows = [&](std::size_t i, std::size_t j) {
    return active.size() < m
               ? cache.rows(i, j, std::span<const std::size_t>(active))
               : cache.rows(i, j);
  };

  // Rebuild f entries of shrunk-out samples from the nonzero alphas, then
  // reactivate everything. Called before convergence can be declared.
  auto unshrink = [&] {
    if (active.size() == m) return;
    // The active set is about to grow back to the full problem: partial
    // row fills from this shrink phase must not serve later full reads.
    cache.invalidatePartial();
    std::vector<bool> isActive(m, false);
    for (std::size_t i : active) isActive[i] = true;
    for (std::size_t i = 0; i < m; ++i) {
      if (!isActive[i]) f[i] = -double(ds.label(i));
    }
    for (std::size_t j = 0; j < m; ++j) {
      if (alpha[j] == 0.0) continue;
      const double coef = alpha[j] * double(ds.label(j));
      const std::span<const kernel::CacheValue> kj = cache.row(j);
      for (std::size_t i = 0; i < m; ++i) {
        if (!isActive[i]) f[i] += coef * double(kj[i]);
      }
    }
    active.resize(m);
    std::iota(active.begin(), active.end(), 0);
    for (std::size_t i = 0; i < m; ++i) setMembership(i);
  };

  std::size_t iter = startIter;
  bool converged = false;
  bool degenerateRetried = false;
  double bHigh = 0.0, bLow = 0.0;

  for (; iter < maxIters; ++iter) {
    // Snapshot hand-off, at the top of the iteration before any of its
    // state mutates — restoring here and continuing replays the run
    // bitwise. Skipped at the resume iteration itself (that snapshot is
    // already durable) and at iteration 0 (nothing to save yet).
    if (options_.snapshotSink && options_.snapshotInterval > 0 &&
        iter != 0 && iter != startIter &&
        iter % options_.snapshotInterval == 0) {
      SolverSnapshot snap;
      snap.iteration = iter;
      snap.everShrunk = everShrunk;
      snap.alpha = alpha;
      snap.f = f;
      snap.active = active;
      options_.snapshotSink(snap);
    }

    // Working-set selection: the maximal violating pair over the active
    // set (shrunk samples have no membership bytes), in one masked pass.
    const PairPick pick = select(f.data(), inHigh.data(), inLow.data(), m);
    std::size_t iHigh = pick.high, iLow = pick.low;
    bHigh = pick.bHigh;
    bLow = pick.bLow;

    if (iHigh == m || iLow == m || bLow <= bHigh + 2.0 * tau) {
      // Converged over the active set. If anything was shrunk away, bring
      // it back and re-check against the full problem before declaring
      // victory (the shrink rules are heuristics).
      if (everShrunk && active.size() < m) {
        unshrink();
        everShrunk = false;  // one reconstruction per convergence attempt
        continue;
      }
      converged = true;
      break;
    }

    // Progress instant: the scan just refreshed bHigh/bLow and the
    // convergence check above guarantees both are finite here. The null
    // test short-circuits first — the untraced path pays one branch.
    if (options_.trace != nullptr && iter % options_.traceInterval == 0) {
      const double hits = static_cast<double>(cache.hits());
      const double lookups = hits + static_cast<double>(cache.misses());
      options_.trace->progress(
          options_.traceTimeOffset + (threadCpuSeconds() - traceCpuStart),
          static_cast<std::int64_t>(iter),
          static_cast<std::int64_t>(active.size()), bLow - bHigh,
          lookups > 0.0 ? hits / lookups : 0.0);
    }

    // The rows backing the spans held across this iteration are pinned,
    // so the second fetch (and any refill) can never recycle their
    // storage. First-order selection has picked both rows already: fetch
    // them together, and two misses fill in one pass.
    std::span<const kernel::CacheValue> rowHigh, rowLow;
    if (options_.selection == Selection::FirstOrder) {
      std::tie(rowHigh, rowLow) = fetchRows(iHigh, iLow);
    } else {
      rowHigh = fetchRow(iHigh);
      cache.pin(iHigh);
      // Re-pick iLow to maximize the guaranteed objective decrease
      // (b_high - f_j)^2 / eta_j among violating candidates. K_jj comes
      // from the precomputed diagonal (bitwise-identical to eval(ds,j,j)).
      const double kHigh = diag[iHigh];
      double bestGain = -kInf;
      std::size_t bestJ = m;
      for (std::size_t j : active) {
        if (inLow[j] == 0) continue;
        const double diff = f[j] - bHigh;
        if (diff <= 2.0 * tau) continue;
        double eta = kHigh + diag[j] - 2.0 * double(rowHigh[j]);
        if (eta < kEtaFloor) eta = kEtaFloor;
        const double gain = diff * diff / eta;
        if (gain > bestGain) {
          bestGain = gain;
          bestJ = j;
        }
      }
      if (bestJ < m) iLow = bestJ;
      rowLow = fetchRow(iLow);
      cache.pin(iLow);
    }
    const std::uint64_t genHigh = cache.generation(iHigh);
    const std::uint64_t genLow = cache.generation(iLow);

    const std::int8_t yHigh = ds.label(iHigh);
    const std::int8_t yLow = ds.label(iLow);
    const double cHigh = boxOf(iHigh);
    const double cLow = boxOf(iLow);
    const double fHigh = f[iHigh];
    const double fLow = f[iLow];

    // Two-variable analytic step (eqns. 6-7), clipped to the per-class box.
    double eta = double(rowHigh[iHigh]) + double(rowLow[iLow]) -
                 2.0 * double(rowHigh[iLow]);
    if (eta < kEtaFloor) eta = kEtaFloor;

    const double s = double(yHigh) * double(yLow);
    const double aHighOld = alpha[iHigh];
    const double aLowOld = alpha[iLow];

    double low, high;  // feasible range for the new alpha[iLow]
    if (s < 0.0) {
      low = std::max(0.0, aLowOld - aHighOld);
      high = std::min(cLow, cHigh + aLowOld - aHighOld);
    } else {
      low = std::max(0.0, aHighOld + aLowOld - cHigh);
      high = std::min(cLow, aHighOld + aLowOld);
    }

    double aLowNew = aLowOld + double(yLow) * (fHigh - fLow) / eta;
    aLowNew = std::clamp(aLowNew, low, high);
    const double dLow = aLowNew - aLowOld;
    if (std::abs(dLow) < 1e-14) {
      // Degenerate step: the maximal violating pair is pinned at the box
      // and cannot move. With bound-slack set membership this should not
      // occur on the full problem — but while shrunk it can be an artifact
      // of the shrunk set (the sample that would free the pair was shrunk
      // away), so restore the full problem and retry once before giving up.
      cache.unpin(iHigh);
      cache.unpin(iLow);
      if (active.size() < m && !degenerateRetried) {
        unshrink();
        everShrunk = false;
        degenerateRetried = true;
        continue;
      }
      break;
    }
    const double dHigh = -s * dLow;
    double aHighNew = aHighOld + dHigh;
    // Snap to the box against accumulated floating-point drift so bound
    // membership stays crisp.
    if (aLowNew < boundEps) aLowNew = 0.0;
    if (aLowNew > cLow - boundEps) aLowNew = cLow;
    if (aHighNew < boundEps) aHighNew = 0.0;
    if (aHighNew > cHigh - boundEps) aHighNew = cHigh;
    alpha[iLow] = aLowNew;
    alpha[iHigh] = aHighNew;
    setMembership(iLow);
    setMembership(iHigh);
    // Free samples keep being selected; samples at a bound rarely return.
    // The cache lets free samples' rows outlive the rest.
    cache.retain(iHigh, aHighNew > 0.0 && aHighNew < cHigh);
    cache.retain(iLow, aLowNew > 0.0 && aLowNew < cLow);

    // Gradient update with the two cached rows (eqn. 5), active rows only:
    // a dense loop over the whole problem, or over `active` while shrunk,
    // where partial rows are valid only there. The generation checks turn
    // a span whose backing row was recycled — a pinning-contract violation
    // — into an immediate assertion failure.
    cache.checkLive(iHigh, genHigh);
    cache.checkLive(iLow, genLow);
    const double coefHigh = dHigh * double(yHigh);
    const double coefLow = dLow * double(yLow);
    if (active.size() == m) {
      for (std::size_t k = 0; k < m; ++k) {
        f[k] += coefHigh * double(rowHigh[k]) + coefLow * double(rowLow[k]);
      }
    } else {
      for (std::size_t k : active) {
        f[k] += coefHigh * double(rowHigh[k]) + coefLow * double(rowLow[k]);
      }
    }
    cache.unpin(iHigh);
    cache.unpin(iLow);

    // Periodic shrink pass: drop bound-pinned samples whose gradient keeps
    // them out of contention for either threshold.
    if (options_.shrinking && (iter + 1) % options_.shrinkInterval == 0) {
      // The pair update above just mutated f, so the selection-time
      // bHigh/bLow are stale: filtering with them can shrink a sample the
      // update made violating, stalling convergence until the unshrink
      // rescue. Recompute the thresholds over the post-update gradient.
      const PairPick post = select(f.data(), inHigh.data(), inLow.data(), m);
      const double sHigh = post.bHigh, sLow = post.bLow;
      const auto keep = [&](std::size_t i) {
        const std::int8_t y = ds.label(i);
        const double a = alpha[i];
        const double ci = boxOf(i);
        if (a <= boundEps) {
          // Lower bound: only ever a high candidate (y=+1) / low (y=-1).
          if (y == 1 && f[i] > sLow + tau) return false;
          if (y == -1 && f[i] < sHigh - tau) return false;
        } else if (a >= ci - boundEps) {
          // Upper bound: only ever a low candidate (y=+1) / high (y=-1).
          if (y == 1 && f[i] < sHigh - tau) return false;
          if (y == -1 && f[i] > sLow + tau) return false;
        }
        return true;
      };
      if (sLow > sHigh + 2.0 * tau) {
        std::vector<std::size_t> stillActive;
        stillActive.reserve(active.size());
        for (std::size_t i : active) {
          if (keep(i)) stillActive.push_back(i);
        }
        // Never shrink below a workable core.
        if (stillActive.size() >= 2 && stillActive.size() < active.size()) {
          // The samples dropped here leave both index sets.
          for (std::size_t i : active) {
            if (!keep(i)) {
              inHigh[i] = 0;
              inLow[i] = 0;
            }
          }
          active = std::move(stillActive);
          everShrunk = true;
        }
      }
    }
  }

  if (!converged && everShrunk) unshrink();

  // Bias from the two thresholds at the solution. If a working-set scan
  // found no high (or no low) candidate — possible when a warm start pins
  // every alpha at a box bound — the corresponding threshold is still
  // +-inf and the midpoint would be NaN/inf. Fall back to the KKT bounds:
  // an empty high set means every sample only upper-bounds b (b <= -f_i
  // over the low set), so the tightest bound -bLow is a valid bias; the
  // empty-low case mirrors it. Free support vectors always sit in both
  // sets, so whenever they exist both thresholds are finite.
  if (!std::isfinite(bHigh) || !std::isfinite(bLow)) {
    if (std::isfinite(bLow)) {
      bHigh = bLow;
    } else if (std::isfinite(bHigh)) {
      bLow = bHigh;
    } else {
      // Both candidate sets empty (degenerate box, e.g. C below the bound
      // slack): bracket b with the full gradient range.
      bHigh = kInf;
      bLow = -kInf;
      for (std::size_t i = 0; i < m; ++i) {
        bHigh = std::min(bHigh, f[i]);
        bLow = std::max(bLow, f[i]);
      }
    }
  }
  const double bias = -(bHigh + bLow) / 2.0;

  // Dual objective: F = sum a_i - 1/2 sum_i a_i y_i (f_i + y_i).
  // (With shrinking, f of inactive rows was reconstructed above whenever
  // the run ended; the identity holds for the full vector.)
  double objective = 0.0;
  for (std::size_t i = 0; i < m; ++i) {
    objective += alpha[i] - 0.5 * alpha[i] * double(ds.label(i)) *
                                (f[i] + double(ds.label(i)));
  }

  // Extract the support vectors.
  std::vector<std::size_t> svIdx;
  std::vector<double> alphaY;
  for (std::size_t i = 0; i < m; ++i) {
    if (alpha[i] > 0.0) {
      svIdx.push_back(i);
      alphaY.push_back(alpha[i] * double(ds.label(i)));
    }
  }

  SolverResult result;
  result.model =
      Model(options_.kernel, ds.subset(svIdx), std::move(alphaY), bias);
  result.alpha = std::move(alpha);
  result.iterations = iter;
  result.converged = converged;
  result.objective = objective;
  result.seconds = timer.seconds();
  result.kernelRowsComputed = cache.misses();
  result.kernelRowsPaired = cache.pairedFills();
  result.kernelRowHits = cache.hits();
  return result;
}

}  // namespace casvm::solver
