#pragma once

// Shared machinery of the global methods (Dis-SMO, Dis-SMO + shrinking,
// PBM): the (rank, local index) election encoding, the elected-sample
// metadata that travels with each broadcast, the distributed finite-bias
// fallback, the replicated row store, and globalPairStep — the one
// Dis-SMO iteration. runDisSmo loops over it under its own snapshot,
// shrink and unshrink policy; PBM runs it as its cross-block correction.
// The index sets and their bound slack are the serial solver's
// (casvm/solver/working_set.hpp). Every exact kernel column
// K(local rows, x) the global methods compute comes from the kernel
// layer's ExactRowSource::fillColumn (the pair step's two columns from
// fillColumns, in one pass), and every exact kernel value they step on is
// rounded as the serial solver's row cache stores it (kernel::asCached),
// so P = 1 Dis-SMO walks the serial solver's trajectory. The Nyström
// z-dots are computed fresh each step, never cached, and stay double.
// Everything here is collective-safe by construction: every decision
// derives from allreduce or broadcast results, so all ranks take
// identical branches.

#include <algorithm>
#include <cmath>
#include <limits>
#include <span>
#include <unordered_map>
#include <vector>

#include "casvm/data/dataset.hpp"
#include "casvm/kernel/kernel.hpp"
#include "casvm/kernel/row_cache.hpp"
#include "casvm/kernel/row_source.hpp"
#include "casvm/lowrank/nystrom.hpp"
#include "casvm/net/comm.hpp"
#include "casvm/solver/working_set.hpp"

namespace casvm::core::detail {

inline constexpr double kGlobalInf = std::numeric_limits<double>::infinity();

/// Encodes (rank, local index) into the 63-bit index of a ValIdx reduction.
inline constexpr long long kRankStride = 1LL << 40;

/// Metadata broadcast with each elected sample.
struct ElectedMeta {
  double alpha;
  double selfDot;
  double y;
};

/// The one global dual problem the ranks cooperate on: the local block,
/// the kernel, the per-class boxes and, under the Nyström backend, the
/// factor whose K̃ = ZZᵀ replaces the kernel in every step.
struct GlobalDual {
  const data::Dataset& local;
  const kernel::Kernel& kern;
  double cPos;
  double cNeg;
  double boundEps;
  double tau;
  const lowrank::NystromFactor* lowrank = nullptr;

  double boxOf(std::size_t i) const {
    return local.label(i) == 1 ? cPos : cNeg;
  }
  double boxFor(double y) const { return y > 0.0 ? cPos : cNeg; }
};

/// Finite-bias fallback, distributed (ported from src/solver/smo.cpp).
/// An empty high/low elected set leaves a threshold at +-inf and the
/// midpoint bias would be NaN/inf. An empty high set means every sample
/// only upper-bounds b, so the tightest bound -bLow is a valid bias; the
/// empty-low case mirrors it. Both empty (degenerate box) brackets b with
/// the global gradient range — the only case needing communication, and
/// every rank reaches it together because bHigh/bLow are allreduce
/// results.
inline void ensureFiniteThresholds(net::Comm& comm,
                                   const data::Dataset& local,
                                   const std::vector<double>& f,
                                   double& bHigh, double& bLow) {
  if (std::isfinite(bHigh) && std::isfinite(bLow)) return;
  if (std::isfinite(bLow)) {
    bHigh = bLow;
  } else if (std::isfinite(bHigh)) {
    bLow = bHigh;
  } else {
    double lo = kGlobalInf, hi = -kGlobalInf;
    for (std::size_t i = 0; i < local.rows(); ++i) {
      lo = std::min(lo, f[i]);
      hi = std::max(hi, f[i]);
    }
    bHigh = comm.allreduce(lo, [](double a, double b) { return std::min(a, b); });
    bLow = comm.allreduce(hi, [](double a, double b) { return std::max(a, b); });
  }
}

/// Replicated per-sample store keyed by the global
/// rank * kRankStride + localIdx encoding. A sample's features, squared
/// norm and label never change during training, so once a sample has
/// crossed the wire every rank keeps a copy and skips all future transfers
/// of it: PBM's round sync ships only samples the store has not seen, and
/// a pair-step election of a stored sample costs no broadcast at all.
/// The store also mirrors each stored sample's CURRENT alpha — every alpha
/// write is either a two-variable pair step or a beta-scaled line-search
/// step, both computed bitwise-identically on every rank from collective
/// values, so the callers re-apply the same update to the store via
/// updateAlpha() and the mirror never goes stale. Insertions only ever
/// process broadcast or allgathered payloads in their collective order,
/// which keeps the store bitwise-identical across ranks and makes
/// contains()/recall() collective-safe branch conditions. The store holds
/// at most `budgetBytes` of rows (with their three metadata words); when
/// full (identically everywhere) inserts become no-ops and the affected
/// samples simply keep paying the transfer.
class GlobalRowStore {
 public:
  GlobalRowStore(std::size_t n, std::size_t budgetBytes)
      : n_(n),
        maxRows_(budgetBytes / (n * sizeof(float) + 3 * sizeof(double))) {}

  bool contains(long long key) const { return index_.count(key) != 0; }

  /// Borrow the cached row (no copy); false and untouched outputs on miss.
  /// The pointer is invalidated by the next insert().
  bool lookup(long long key, const float*& x, double& selfDot) const {
    const auto it = index_.find(key);
    if (it == index_.end()) return false;
    x = rows_.data() + it->second * n_;
    selfDot = dots_[it->second];
    return true;
  }

  /// Serve an election from the mirror: copy the row into `out`, fill the
  /// metadata (current alpha, self-dot, label) and count the avoided
  /// broadcast pair. False and untouched outputs on miss.
  bool recall(long long key, std::span<float> out, ElectedMeta& meta) {
    const auto it = index_.find(key);
    if (it == index_.end()) return false;
    std::copy_n(rows_.data() + it->second * n_, n_, out.data());
    meta = {alphas_[it->second], dots_[it->second], ys_[it->second]};
    ++hits_;
    return true;
  }

  /// Current label and alpha of a stored sample (for replicated updates).
  bool alphaOf(long long key, double& y, double& alpha) const {
    const auto it = index_.find(key);
    if (it == index_.end()) return false;
    y = ys_[it->second];
    alpha = alphas_[it->second];
    return true;
  }

  void insert(long long key, std::span<const float> x, double selfDot,
              double y, double alpha) {
    if (index_.size() >= maxRows_ || index_.count(key) != 0) return;
    index_.emplace(key, dots_.size());
    rows_.insert(rows_.end(), x.begin(), x.end());
    dots_.push_back(selfDot);
    ys_.push_back(y);
    alphas_.push_back(alpha);
  }

  /// Mirror an alpha write every rank just computed identically (no-op for
  /// samples the store never accepted).
  void updateAlpha(long long key, double alpha) {
    const auto it = index_.find(key);
    if (it != index_.end()) alphas_[it->second] = alpha;
  }

  /// Row broadcasts avoided by recall() hits (reported per rank).
  long long hits() const { return hits_; }

 private:
  std::size_t n_;
  std::size_t maxRows_;
  std::unordered_map<long long, std::size_t> index_;  ///< key -> slot
  std::vector<float> rows_;  ///< slot-major flat feature storage
  std::vector<double> dots_;
  std::vector<double> ys_;
  std::vector<double> alphas_;  ///< mirrored current alphas
  long long hits_ = 0;
};

/// Per-rank scratch of globalPairStep, sized once per solve: the elected
/// rows, their kernel columns over the local block (exact backend) or
/// their z-images (Nyström backend), and the exact column source, whose
/// tiled copy of the block is built on its first full fill. The callers'
/// own column fills (Dis-SMO's unshrink, PBM's line search) share
/// fillColumn().
class PairWorkspace {
 public:
  explicit PairWorkspace(const GlobalDual& p)
      : xHigh(p.local.cols()),
        xLow(p.local.cols()),
        colHigh(p.lowrank != nullptr ? 0 : p.local.rows()),
        colLow(colHigh.size()),
        zHigh(p.lowrank != nullptr ? p.lowrank->rank() : 0),
        zLow(zHigh.size()),
        columns_(p.kern, p.local) {}

  /// out[i] = K(local row i, x) for i in `rows` (ascending), rounded as
  /// the row cache stores it; entries outside `rows` are unspecified.
  void fillColumn(std::span<const float> x, double xSelfDot,
                  std::span<const std::size_t> rows, std::span<double> out) {
    columns_.fillColumn(x, xSelfDot, rows, out);
    for (std::size_t i : rows) out[i] = kernel::asCached(out[i]);
  }

  /// The pair step's two columns, colHigh from xHigh and colLow from xLow,
  /// bitwise two fillColumn() calls: a full fill streams the block's
  /// tiles once for both.
  void fillPairColumns(double highSelfDot, double lowSelfDot,
                       std::span<const std::size_t> rows) {
    columns_.fillColumns(xHigh, highSelfDot, xLow, lowSelfDot, rows, colHigh,
                         colLow);
    for (std::size_t i : rows) {
      colHigh[i] = kernel::asCached(colHigh[i]);
      colLow[i] = kernel::asCached(colLow[i]);
    }
  }

  std::vector<float> xHigh, xLow;
  std::vector<double> colHigh, colLow;
  std::vector<double> zHigh, zLow;

 private:
  kernel::ExactRowSource columns_;
};

/// Fixed-order dot of two z-images (identical on every rank).
inline double zdotVectors(std::span<const double> a,
                          std::span<const double> b) {
  double s = 0.0;
  for (std::size_t k = 0; k < a.size(); ++k) s += a[k] * b[k];
  return s;
}

/// Ship the elected sample `index` to every rank into `x`: recalled from
/// the replicated store when it holds the row (no broadcast), otherwise
/// broadcast by its owner and then mirrored into the store.
inline ElectedMeta shipElected(net::Comm& comm, const GlobalDual& p,
                               const std::vector<double>& alpha,
                               long long index, std::vector<float>& x,
                               GlobalRowStore* store) {
  ElectedMeta meta{};
  if (store != nullptr && store->recall(index, x, meta)) return meta;
  const int owner = static_cast<int>(index / kRankStride);
  if (comm.rank() == owner) {
    const auto i = static_cast<std::size_t>(index % kRankStride);
    meta = {alpha[i], p.local.selfDot(i), double(p.local.label(i))};
    p.local.copyRowDense(i, x);
  }
  comm.bcast(meta, owner);
  comm.bcast(x, owner);
  if (store != nullptr) {
    store->insert(index, x, meta.selfDot, meta.y, meta.alpha);
  }
  return meta;
}

enum class PairStepResult {
  Stepped,     ///< one two-variable step was applied everywhere
  Converged,   ///< global bLow <= bHigh + 2*tau
  Degenerate,  ///< the elected pair is pinned and cannot move
};

/// One Dis-SMO iteration over the rank's `active` rows (ascending): local
/// scan, MINLOC/MAXLOC election, the elected samples shipped to every
/// rank, the identical two-variable step (eqns. 6-7) on every rank, and
/// the local gradient update (eqn. 5) over `active`. PBM passes all rows:
/// its pair corrections move equality-constraint mass between blocks,
/// which the per-block solves can't. `bHigh`/`bLow` are left holding the
/// election thresholds, so the caller's convergence state and final bias
/// always reflect the latest global scan; Converged and Degenerate return
/// before any alpha or gradient moves. With a `store` an election of a
/// mirrored sample costs no broadcast at all (row, label and self-dot are
/// immutable; the mirrored alpha is kept current by the replicated
/// updateAlpha calls below), and first-time samples are inserted right
/// after their broadcast. Under the exact backend eta and both columns are
/// rounded as the serial solver's row cache rounds them; under the
/// Nyström backend they are z-dots, so they match the K̃ every rank trains
/// on.
inline PairStepResult globalPairStep(net::Comm& comm, const GlobalDual& p,
                                     std::span<const std::size_t> active,
                                     std::vector<double>& alpha,
                                     std::vector<double>& f,
                                     PairWorkspace& ws, double& bHigh,
                                     double& bLow, GlobalRowStore* store) {
  const int rank = comm.rank();
  const data::Dataset& local = p.local;

  double localHigh = kGlobalInf, localLow = -kGlobalInf;
  long long localHighIdx = -1, localLowIdx = -1;
  for (std::size_t i : active) {
    const std::int8_t y = local.label(i);
    const double a = alpha[i];
    const double ci = p.boxOf(i);
    if (solver::inHighSet(y, a, ci, p.boundEps) && f[i] < localHigh) {
      localHigh = f[i];
      localHighIdx = rank * kRankStride + static_cast<long long>(i);
    }
    if (solver::inLowSet(y, a, ci, p.boundEps) && f[i] > localLow) {
      localLow = f[i];
      localLowIdx = rank * kRankStride + static_cast<long long>(i);
    }
  }

  const net::Comm::ValIdx high = comm.allreduceMinloc(localHigh, localHighIdx);
  const net::Comm::ValIdx low = comm.allreduceMaxloc(localLow, localLowIdx);
  bHigh = high.value;
  bLow = low.value;
  if (bLow <= bHigh + 2.0 * p.tau) return PairStepResult::Converged;

  const ElectedMeta metaHigh =
      shipElected(comm, p, alpha, high.index, ws.xHigh, store);
  const ElectedMeta metaLow =
      shipElected(comm, p, alpha, low.index, ws.xLow, store);

  // K̃ is PSD, so the low-rank eta stays non-negative like the exact one
  // and the usual floor applies.
  double kHH, kLL, kHL;
  if (p.lowrank != nullptr) {
    p.lowrank->map(p.kern, ws.xHigh, metaHigh.selfDot, ws.zHigh);
    p.lowrank->map(p.kern, ws.xLow, metaLow.selfDot, ws.zLow);
    kHH = zdotVectors(ws.zHigh, ws.zHigh);
    kLL = zdotVectors(ws.zLow, ws.zLow);
    kHL = zdotVectors(ws.zHigh, ws.zLow);
  } else {
    kHH = kernel::asCached(p.kern.evalVectors(ws.xHigh, metaHigh.selfDot,
                                              ws.xHigh, metaHigh.selfDot));
    kLL = kernel::asCached(p.kern.evalVectors(ws.xLow, metaLow.selfDot,
                                              ws.xLow, metaLow.selfDot));
    kHL = kernel::asCached(p.kern.evalVectors(ws.xHigh, metaHigh.selfDot,
                                              ws.xLow, metaLow.selfDot));
  }
  double eta = kHH + kLL - 2.0 * kHL;
  if (eta < 1e-12) eta = 1e-12;

  const double cHigh = p.boxFor(metaHigh.y);
  const double cLow = p.boxFor(metaLow.y);
  const double s = metaHigh.y * metaLow.y;
  double lo, hi;
  if (s < 0.0) {
    lo = std::max(0.0, metaLow.alpha - metaHigh.alpha);
    hi = std::min(cLow, cHigh + metaLow.alpha - metaHigh.alpha);
  } else {
    lo = std::max(0.0, metaHigh.alpha + metaLow.alpha - cHigh);
    hi = std::min(cLow, metaHigh.alpha + metaLow.alpha);
  }
  double aLowNew = metaLow.alpha + metaLow.y * (bHigh - bLow) / eta;
  aLowNew = std::clamp(aLowNew, lo, hi);
  const double dLow = aLowNew - metaLow.alpha;
  if (std::abs(dLow) < 1e-14) return PairStepResult::Degenerate;
  const double dHigh = -s * dLow;

  // Snap to the per-class box against accumulated floating-point drift.
  // Every rank computes the identical snapped alphas; the owners commit.
  double aHighNew = metaHigh.alpha + dHigh;
  if (aLowNew < p.boundEps) aLowNew = 0.0;
  if (aLowNew > cLow - p.boundEps) aLowNew = cLow;
  if (aHighNew < p.boundEps) aHighNew = 0.0;
  if (aHighNew > cHigh - p.boundEps) aHighNew = cHigh;
  if (rank == high.index / kRankStride) {
    alpha[static_cast<std::size_t>(high.index % kRankStride)] = aHighNew;
  }
  if (rank == low.index / kRankStride) {
    alpha[static_cast<std::size_t>(low.index % kRankStride)] = aLowNew;
  }
  if (store != nullptr) {
    store->updateAlpha(high.index, aHighNew);
    store->updateAlpha(low.index, aLowNew);
  }

  // Gradient update over the owned active rows: the 2mn/P term of eqn.
  // (9), cut to the surviving fraction once shrunk. Both columns are
  // filled before the update, which adds the terms in the same order as a
  // per-row evaluation would.
  const double coefHigh = dHigh * metaHigh.y;
  const double coefLow = dLow * metaLow.y;
  if (p.lowrank != nullptr) {
    // The m·r/P replacement: two z-dots per row instead of two n-wide
    // kernel evaluations.
    const lowrank::NystromFactor& lr = *p.lowrank;
    const std::span<const double> zHigh(ws.zHigh), zLow(ws.zLow);
    for (std::size_t i : active) {
      f[i] += coefHigh * lr.zdot(i, zHigh) + coefLow * lr.zdot(i, zLow);
    }
  } else {
    ws.fillPairColumns(metaHigh.selfDot, metaLow.selfDot, active);
    for (std::size_t i : active) {
      f[i] += coefHigh * ws.colHigh[i] + coefLow * ws.colLow[i];
    }
  }
  return PairStepResult::Stepped;
}

}  // namespace casvm::core::detail
