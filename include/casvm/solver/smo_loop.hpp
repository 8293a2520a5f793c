#pragma once

/// \file smo_loop.hpp
/// The one SMO iteration loop, shared by the serial solver and the global
/// methods.
///
/// The paper builds every method on one shared-memory SMO (§V), and
/// Dis-SMO (Cao et al.) is that SMO with MINLOC/MAXLOC allreduces in place
/// of the local argmin/argmax and kernel columns over each rank's block in
/// place of cached rows. SmoLoop owns every policy rule of the iteration:
/// the snapshot hand-off, the masked selection pass, the convergence test
/// with unshrink-and-recheck, the progress instant, the two-variable step
/// (eqns. 6-7) with its box snap and degenerate retry, the gradient update
/// (eqn. 5), the periodic shrink pass, the final unshrink and the
/// finite-bias fallback. A *pair source* supplies only what differs
/// between a serial and a distributed solve:
///
///   PairPick elect(const PairPick& local)
///       The agreed pair from this block's selection pass: the local pick
///       itself, or a global election. The loop reads bHigh and bLow and
///       hands the pick back to pair(); its indices are the source's.
///   ElectedPair pair(const PairPick& elected, const SolverSnapshot& state,
///                    const std::uint8_t* inHigh, const std::uint8_t* inLow)
///       The elected samples' scalars and their three kernel values; the
///       membership bytes let a source rank the samples wanted next.
///   void commit(const ElectedPair& p, double aHigh, double aLow,
///               bool highFree, bool lowFree)
///       What the new alphas mean beyond the block rows the loop writes
///       itself (a row cache's retention, a replicated alpha mirror).
///   kernel::RowCache::RowPair columns(std::span<const std::size_t> active)
///       The two samples' kernel columns over the block, valid on `active`.
///   void release()
///       The iteration reads neither the kernel values nor the columns again.
///   double now(), double hitRate()
///       The progress instant's timestamp and cache hit rate.
///   double agreeMin(double), double agreeMax(double),
///   long long agreeSum(long long)
///       Agreement on one scalar across the blocks of the solve.
///   void restore(SolverSnapshot& state, std::span<const std::size_t> stale)
///       Add every support vector's term to f over the `stale` rows, whose
///       f the loop has reset to -y (the unshrink rebuild).
///
/// Every kernel value the loop steps on is rounded as the row cache stores
/// it (kernel::asCached), whichever source produced it, so a one-block
/// distributed solve walks the serial solver's trajectory bit for bit.
/// A distributed source must make every agreed value identical on every
/// block: the loop then takes the same branches, and issues the same
/// collectives through the source, everywhere.

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <numeric>
#include <span>
#include <vector>

#include "casvm/data/dataset.hpp"
#include "casvm/kernel/row_cache.hpp"
#include "casvm/obs/trace.hpp"
#include "casvm/solver/smo.hpp"
#include "casvm/solver/working_set.hpp"
#include "casvm/support/error.hpp"

namespace casvm::solver {

/// The two samples one iteration steps on, as its pair source supplies
/// them. Labels travel as doubles (+-1.0); kernel values are rounded as
/// the row cache stores them.
struct ElectedPair {
  std::size_t high;  ///< block row of the high sample, or rows() elsewhere
  std::size_t low;   ///< block row of the low sample, or rows() elsewhere
  double fHigh, fLow;
  double alphaHigh, alphaLow;
  double yHigh, yLow;
  double kHH, kLL, kHL;
};

/// One SMO solve over the rows of `ds` (the whole problem, or one rank's
/// block of it), iterating `state` in place. The loop reads C, the class
/// weights, the tolerance, shrinking, tracing and the snapshot sink from
/// the options; the caller bounds the iterations.
template <class Source>
class SmoLoop {
 public:
  SmoLoop(Source& source, const data::Dataset& ds, const SolverOptions& opts,
          SolverSnapshot& state)
      : src_(source),
        ds_(ds),
        opts_(opts),
        s_(state),
        cPos_(opts.C * opts.positiveWeight),
        cNeg_(opts.C * opts.negativeWeight),
        boundEps_(kBoundSlack * std::max(cPos_, cNeg_)),
        tau_(opts.tolerance),
        inHigh_(ds.rows(), 0),
        inLow_(ds.rows(), 0),
        shrinkEngaged_(state.everShrunk ? static_cast<long long>(state.iteration)
                                        : -1) {
    CASVM_CHECK(opts.trace == nullptr || opts.traceInterval > 0,
                "trace interval must be positive");
    CASVM_CHECK(!opts.shrinking || opts.shrinkInterval > 0,
                "shrink interval must be positive");
  }

  /// Iterate from state.iteration until convergence, a pair that cannot
  /// move, or `maxIterations`. True on convergence. state.iteration is the
  /// one iteration count: every pass of the loop, unshrink passes included.
  bool run(std::size_t maxIterations);

  /// End the solve: bring back every shrunk row, then return the bias from
  /// the last agreed thresholds, with the finite fallback when a candidate
  /// set was empty.
  double finish();

  /// bLow - bHigh at the last election.
  double gap() const { return bLow_ - bHigh_; }
  /// Iteration of the first committed shrink pass (a shrunk resume counts
  /// from its resume point), or -1.
  long long shrinkEngaged() const { return shrinkEngaged_; }

 private:
  double boxFor(double y) const { return y > 0.0 ? cPos_ : cNeg_; }

  /// Keep sample i's high-set and low-set membership bytes equal to the
  /// index-set predicates on its alpha (see working_set.hpp).
  void setMembership(std::size_t i) {
    const std::int8_t y = ds_.label(i);
    const double ci = y == 1 ? cPos_ : cNeg_;
    inHigh_[i] = inHighSet(y, s_.alpha[i], ci, boundEps_);
    inLow_[i] = inLowSet(y, s_.alpha[i], ci, boundEps_);
  }

  /// Rebuild f of the shrunk-out rows and reactivate every row.
  void unshrink();

  /// Drop bound-pinned samples whose gradient keeps them out of contention
  /// for either threshold, when every block agrees the pass is worth it.
  void shrink(std::size_t iter);

  Source& src_;
  const data::Dataset& ds_;
  const SolverOptions& opts_;
  SolverSnapshot& s_;
  const double cPos_, cNeg_, boundEps_, tau_;
  /// Membership bytes: the index-set predicates for every active sample,
  /// zero for every shrunk one, so a selection is one dense masked pass.
  std::vector<std::uint8_t> inHigh_, inLow_;
  const SelectFn select_ = selectFn();
  const UpdateFn update_ = updateFn();
  double bHigh_ = 0.0, bLow_ = 0.0;
  bool degenerateRetried_ = false;
  long long shrinkEngaged_;
};

template <class Source>
bool SmoLoop<Source>::run(std::size_t maxIterations) {
  SolverSnapshot& s = s_;
  const std::size_t m = ds_.rows();
  const std::size_t start = s.iteration;
  // Membership derives from alpha, which the caller may have moved since
  // the last run (a resume, PBM's block solves and line search).
  for (std::size_t i : s.active) setMembership(i);

  for (; s.iteration < maxIterations; ++s.iteration) {
    const std::size_t iter = s.iteration;
    // Snapshot hand-off, at the top of the iteration before any of its
    // state mutates: restoring here and continuing replays the run
    // bitwise. Skipped at iteration 0 (nothing to save yet) and at the
    // resume iteration itself (that snapshot is already durable).
    if (opts_.snapshotSink && opts_.snapshotInterval > 0 && iter != 0 &&
        iter != start && iter % opts_.snapshotInterval == 0) {
      opts_.snapshotSink(s);
    }

    // Working-set selection: the maximal violating pair over the active
    // rows (shrunk rows have no membership bytes), in one masked pass, then
    // agreed across blocks. An empty candidate set leaves its threshold
    // at +-inf, which reads as converged.
    const PairPick elected =
        src_.elect(select_(s.f.data(), inHigh_.data(), inLow_.data(), m));
    bHigh_ = elected.bHigh;
    bLow_ = elected.bLow;
    if (bLow_ <= bHigh_ + 2.0 * tau_) {
      // Converged over the active set. If anything was shrunk away, bring
      // it back and re-check against the full problem before declaring
      // victory (the shrink rules are heuristics).
      if (s.everShrunk) {
        unshrink();
        continue;
      }
      return true;
    }

    // Progress instant: both thresholds are finite here. The untraced
    // path pays one branch.
    if (opts_.trace != nullptr && iter % opts_.traceInterval == 0) {
      opts_.trace->progress(src_.now(), static_cast<std::int64_t>(iter),
                            static_cast<std::int64_t>(s.active.size()),
                            bLow_ - bHigh_, src_.hitRate());
    }

    // Two-variable analytic step (eqns. 6-7), clipped to the per-class box.
    const ElectedPair p = src_.pair(elected, s, inHigh_.data(), inLow_.data());
    double eta = p.kHH + p.kLL - 2.0 * p.kHL;
    if (eta < 1e-12) eta = 1e-12;
    const double cHigh = boxFor(p.yHigh);
    const double cLow = boxFor(p.yLow);
    const double sign = p.yHigh * p.yLow;
    double lo, hi;  // feasible range for the new low alpha
    if (sign < 0.0) {
      lo = std::max(0.0, p.alphaLow - p.alphaHigh);
      hi = std::min(cLow, cHigh + p.alphaLow - p.alphaHigh);
    } else {
      lo = std::max(0.0, p.alphaHigh + p.alphaLow - cHigh);
      hi = std::min(cLow, p.alphaHigh + p.alphaLow);
    }
    double aLowNew = p.alphaLow + p.yLow * (p.fHigh - p.fLow) / eta;
    aLowNew = std::clamp(aLowNew, lo, hi);
    const double dLow = aLowNew - p.alphaLow;
    if (std::abs(dLow) < 1e-14) {
      // Degenerate step: the maximal violating pair is pinned at the box
      // and cannot move. With bound-slack set membership this should not
      // occur on the full problem, but while shrunk it can be an artifact
      // of the shrunk set (the sample that would free the pair was shrunk
      // away), so restore the full problem and retry once before giving up.
      src_.release();
      if (s.everShrunk && !degenerateRetried_) {
        degenerateRetried_ = true;
        unshrink();
        continue;
      }
      return false;
    }
    const double dHigh = -sign * dLow;
    double aHighNew = p.alphaHigh + dHigh;
    // Snap to the box against accumulated floating-point drift so bound
    // membership stays crisp.
    if (aLowNew < boundEps_) aLowNew = 0.0;
    if (aLowNew > cLow - boundEps_) aLowNew = cLow;
    if (aHighNew < boundEps_) aHighNew = 0.0;
    if (aHighNew > cHigh - boundEps_) aHighNew = cHigh;
    if (p.low < m) {
      s.alpha[p.low] = aLowNew;
      setMembership(p.low);
    }
    if (p.high < m) {
      s.alpha[p.high] = aHighNew;
      setMembership(p.high);
    }
    src_.commit(p, aHighNew, aLowNew, aHighNew > 0.0 && aHighNew < cHigh,
                aLowNew > 0.0 && aLowNew < cLow);

    // Gradient update with the two columns (eqn. 5), active rows only: the
    // dispatched dense pass over the whole block, or a loop over `active`
    // while shrunk, where the columns are valid only there. Both round
    // each sample's update alike.
    const auto [colHigh, colLow] = src_.columns(s.active);
    const double coefHigh = dHigh * p.yHigh;
    const double coefLow = dLow * p.yLow;
    double* f = s.f.data();
    if (s.active.size() == m) {
      update_(f, colHigh.data(), colLow.data(), coefHigh, coefLow, m);
    } else {
      for (std::size_t k : s.active) {
        f[k] += coefHigh * double(colHigh[k]) + coefLow * double(colLow[k]);
      }
    }
    src_.release();

    if (opts_.shrinking && (iter + 1) % opts_.shrinkInterval == 0) {
      shrink(iter);
    }
  }
  return false;
}

template <class Source>
double SmoLoop<Source>::finish() {
  // Loop exits short of convergence (iteration cap, degenerate bail) can
  // leave rows shrunk out with stale gradients; the fallback below and the
  // caller's model must see the full problem.
  if (s_.everShrunk) unshrink();

  // Bias from the two thresholds at the solution. If an election found no
  // high (or no low) candidate, possible when a warm start pins every
  // alpha at a box bound, that threshold is still +-inf and the midpoint
  // would be NaN/inf. Fall back to the KKT bounds: an empty high set means
  // every sample only upper-bounds b (b <= -f_i over the low set), so the
  // tightest bound -bLow is a valid bias; the empty-low case mirrors it.
  // Free support vectors always sit in both sets, so whenever they exist
  // both thresholds are finite.
  if (!std::isfinite(bHigh_) || !std::isfinite(bLow_)) {
    if (std::isfinite(bLow_)) {
      bHigh_ = bLow_;
    } else if (std::isfinite(bHigh_)) {
      bLow_ = bHigh_;
    } else {
      // Both candidate sets empty (degenerate box, e.g. C below the bound
      // slack): bracket b with the full gradient range.
      constexpr double kInf = std::numeric_limits<double>::infinity();
      double lo = kInf, hi = -kInf;
      for (double v : s_.f) {
        lo = std::min(lo, v);
        hi = std::max(hi, v);
      }
      bHigh_ = src_.agreeMin(lo);
      bLow_ = src_.agreeMax(hi);
    }
  }
  return -(bHigh_ + bLow_) / 2.0;
}

template <class Source>
void SmoLoop<Source>::unshrink() {
  SolverSnapshot& s = s_;
  const std::size_t m = ds_.rows();
  std::vector<bool> isActive(m, false);
  for (std::size_t i : s.active) isActive[i] = true;
  std::vector<std::size_t> stale;
  for (std::size_t i = 0; i < m; ++i) {
    if (isActive[i]) continue;
    stale.push_back(i);
    s.f[i] = -double(ds_.label(i));
  }
  src_.restore(s, stale);
  s.active.resize(m);
  std::iota(s.active.begin(), s.active.end(), 0);
  for (std::size_t i = 0; i < m; ++i) setMembership(i);
  s.everShrunk = false;  // one reconstruction per convergence attempt
}

template <class Source>
void SmoLoop<Source>::shrink(std::size_t iter) {
  SolverSnapshot& s = s_;
  // The pair update just mutated f, so the selection-time thresholds are
  // stale: filtering with them can shrink a sample the update made
  // violating, stalling convergence until the unshrink rescue. Recompute
  // them over the post-update gradient.
  const PairPick post =
      select_(s.f.data(), inHigh_.data(), inLow_.data(), ds_.rows());
  const double sHigh = src_.agreeMin(post.bHigh);
  const double sLow = src_.agreeMax(post.bLow);
  if (sLow <= sHigh + 2.0 * tau_) return;
  const auto keep = [&](std::size_t i) {
    const std::int8_t y = ds_.label(i);
    const double a = s.alpha[i];
    const double f = s.f[i];
    if (a <= boundEps_) {
      // Lower bound: only ever a high candidate (y=+1) / low (y=-1).
      if (y == 1 && f > sLow + tau_) return false;
      if (y == -1 && f < sHigh - tau_) return false;
    } else if (a >= (y == 1 ? cPos_ : cNeg_) - boundEps_) {
      // Upper bound: only ever a low candidate (y=+1) / high (y=-1).
      if (y == 1 && f < sHigh - tau_) return false;
      if (y == -1 && f > sLow + tau_) return false;
    }
    return true;
  };
  std::vector<std::size_t> kept;
  kept.reserve(s.active.size());
  for (std::size_t i : s.active) {
    if (keep(i)) kept.push_back(i);
  }
  // Never shrink below a workable core, and commit only a pass that
  // dropped something somewhere.
  const long long keptAll = src_.agreeSum(static_cast<long long>(kept.size()));
  const long long activeAll =
      src_.agreeSum(static_cast<long long>(s.active.size()));
  if (keptAll < 2 || keptAll >= activeAll) return;
  // The samples dropped here leave both index sets.
  for (std::size_t i : s.active) {
    if (!keep(i)) {
      inHigh_[i] = 0;
      inLow_[i] = 0;
    }
  }
  s.active = std::move(kept);
  s.everShrunk = true;
  if (shrinkEngaged_ < 0) shrinkEngaged_ = static_cast<long long>(iter);
}

}  // namespace casvm::solver
