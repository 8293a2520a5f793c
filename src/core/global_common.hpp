#pragma once

// Shared machinery of the global methods (Dis-SMO, Dis-SMO + shrinking,
// PBM): the (rank, local index) election encoding, the elected-sample
// metadata that travels with each broadcast, the replicated row store,
// GlobalPairSource, the pair source that runs the one SMO loop
// (casvm/solver/smo_loop.hpp) across ranks, and the agreed-generation
// resume. runDisSmo runs the loop for the whole solve; PBM runs it as its
// cross-block correction.
//
// The source turns the loop's local selection into a MINLOC/MAXLOC
// election, ships the elected samples to every rank, and fills their
// kernel columns over the rank's block. Every kernel value it hands the
// loop is rounded as the serial solver's row cache stores it
// (kernel::asCached): exact columns from the kernel layer's
// ExactRowSource::fillColumns, Nyström ones from z-dots against a z-image
// rounded to float as the factor's Z rows are stored. So P = 1 Dis-SMO is
// the serial solve, exact and Nyström alike. Everything here is
// collective-safe by construction: every decision derives from allreduce
// or broadcast results, so all ranks take identical branches.

#include <algorithm>
#include <optional>
#include <span>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "methods.hpp"
#include "casvm/ckpt/store.hpp"
#include "casvm/data/dataset.hpp"
#include "casvm/kernel/kernel.hpp"
#include "casvm/kernel/row_cache.hpp"
#include "casvm/kernel/row_source.hpp"
#include "casvm/lowrank/nystrom.hpp"
#include "casvm/net/comm.hpp"
#include "casvm/solver/smo_loop.hpp"

namespace casvm::core::detail {

/// Encodes (rank, local index) into the 63-bit index of a ValIdx reduction.
inline constexpr long long kRankStride = 1LL << 40;

/// Metadata broadcast with each elected sample.
struct ElectedMeta {
  double alpha;
  double selfDot;
  double y;
};

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

/// Ship the elected sample `key` to every rank into `x`: recalled from the
/// replicated store when it holds the row (no broadcast), otherwise
/// broadcast by its owner and then mirrored into the store.
inline ElectedMeta shipElected(net::Comm& comm, const data::Dataset& local,
                               const std::vector<double>& alpha,
                               long long key, std::vector<float>& x,
                               GlobalRowStore* store) {
  ElectedMeta meta{};
  if (store != nullptr && store->recall(key, x, meta)) return meta;
  const int owner = static_cast<int>(key / kRankStride);
  if (comm.rank() == owner) {
    const auto i = static_cast<std::size_t>(key % kRankStride);
    meta = {alpha[i], local.selfDot(i), double(local.label(i))};
    local.copyRowDense(i, x);
  }
  comm.bcast(meta, owner);
  comm.bcast(x, owner);
  if (store != nullptr) {
    store->insert(key, x, meta.selfDot, meta.y, meta.alpha);
  }
  return meta;
}

/// The global methods' pair source for solver::SmoLoop, over this rank's
/// block `local`. Under the Nyström backend `lowrank` is the rank's factor
/// against the one global landmark set, and K̃ = ZZᵀ replaces the kernel in
/// every step. With a `store` an election of a mirrored sample costs no
/// broadcast (row, label and self-dot are immutable; the mirrored alpha is
/// kept current by commit()), and first-time samples are inserted right
/// after their broadcast.
class GlobalPairSource {
 public:
  GlobalPairSource(net::Comm& comm, const data::Dataset& local,
                   const kernel::Kernel& kern,
                   const lowrank::NystromFactor* lowrank,
                   GlobalRowStore* store)
      : comm_(comm),
        local_(local),
        kern_(kern),
        lowrank_(lowrank),
        store_(store),
        xHigh_(local.cols()),
        xLow_(local.cols()),
        zs_(lowrank != nullptr ? 2 * lowrank->rank() : 0),
        fillHigh_(local.rows()),
        fillLow_(local.rows()),
        colHigh_(local.rows()),
        colLow_(local.rows()),
        columns_(kern, local) {}

  /// MINLOC/MAXLOC over rank * kRankStride + i keys: index -1 and +-inf
  /// mean "no candidate". Returns the block rows of the elected samples
  /// this rank owns (rows() for the others) and the global thresholds.
  solver::PairPick elect(const solver::PairPick& local) {
    const std::size_t m = local_.rows();
    const long long base = comm_.rank() * kRankStride;
    const auto key = [&](std::size_t i) {
      return i < m ? base + static_cast<long long>(i) : -1LL;
    };
    const net::Comm::ValIdx high =
        comm_.allreduceMinloc(local.bHigh, key(local.high));
    const net::Comm::ValIdx low =
        comm_.allreduceMaxloc(local.bLow, key(local.low));
    keyHigh_ = high.index;
    keyLow_ = low.index;
    return {owned(keyHigh_), owned(keyLow_), high.value, low.value};
  }

  solver::ElectedPair pair(const solver::PairPick& elected,
                           const solver::SolverSnapshot& s,
                           const std::uint8_t*, const std::uint8_t*) {
    metaHigh_ = shipElected(comm_, local_, s.alpha, keyHigh_, xHigh_, store_);
    metaLow_ = shipElected(comm_, local_, s.alpha, keyLow_, xLow_, store_);
    double kHH, kLL, kHL;
    if (lowrank_ != nullptr) {
      zImage(xHigh_, metaHigh_.selfDot, zHigh());
      zImage(xLow_, metaLow_.selfDot, zLow());
      kHH = kernel::asCached(zdotVectors(zHigh(), zHigh()));
      kLL = kernel::asCached(zdotVectors(zLow(), zLow()));
      kHL = kernel::asCached(zdotVectors(zHigh(), zLow()));
    } else {
      kHH = kernel::asCached(kern_.evalVectors(xHigh_, metaHigh_.selfDot,
                                               xHigh_, metaHigh_.selfDot));
      kLL = kernel::asCached(kern_.evalVectors(xLow_, metaLow_.selfDot,
                                               xLow_, metaLow_.selfDot));
      kHL = kernel::asCached(kern_.evalVectors(xHigh_, metaHigh_.selfDot,
                                               xLow_, metaLow_.selfDot));
    }
    return {elected.high,    elected.low,    elected.bHigh, elected.bLow,
            metaHigh_.alpha, metaLow_.alpha, metaHigh_.y,   metaLow_.y,
            kHH,             kLL,            kHL};
  }

  /// Every rank computed the same new alphas; the loop wrote the owned
  /// ones, and the store mirrors both.
  void commit(const solver::ElectedPair&, double aHigh, double aLow, bool,
              bool) {
    if (store_ == nullptr) return;
    store_->updateAlpha(keyHigh_, aHigh);
    store_->updateAlpha(keyLow_, aLow);
  }

  /// The two elected samples' columns over the owned `active` rows: the
  /// 2mn/P term of eqn. (9), cut to the surviving fraction once shrunk,
  /// or m·r/P z-dots under the Nyström backend: one two-query tile pass
  /// over the factor while nothing is shrunk, one z-dot per active row and
  /// sample once shrunk.
  kernel::RowCache::RowPair columns(std::span<const std::size_t> active) {
    if (lowrank_ == nullptr) {
      columns_.fillColumns(xHigh_, metaHigh_.selfDot, xLow_, metaLow_.selfDot,
                           active, fillHigh_, fillLow_);
    } else if (active.size() == local_.rows()) {
      const std::span<double> outs[] = {fillHigh_, fillLow_};
      lowrank_->zdots(zs_, outs);
    } else {
      for (std::size_t i : active) {
        fillHigh_[i] = lowrank_->zdot(i, zHigh());
        fillLow_[i] = lowrank_->zdot(i, zLow());
      }
    }
    for (std::size_t i : active) {
      colHigh_[i] = kernel::CacheValue(fillHigh_[i]);
      colLow_[i] = kernel::CacheValue(fillLow_[i]);
    }
    return {colHigh_, colLow_};
  }

  void release() {}

  double now() { return virtualNow(comm_); }
  /// No row cache: every column is filled fresh.
  static double hitRate() { return 0.0; }

  double agreeMin(double v) {
    return comm_.allreduce(v, [](double a, double b) { return std::min(a, b); });
  }
  double agreeMax(double v) {
    return comm_.allreduce(v, [](double a, double b) { return std::max(a, b); });
  }
  long long agreeSum(long long v) { return comm_.allreduceSum(v); }

  /// Unshrink rebuild: one allgatherv round ships the global support
  /// vectors, then one column per support vector over the stale rows,
  /// against the same kernel the iterations used (mixing exact columns
  /// into a low-rank trajectory would desynchronize f from its alphas).
  void restore(solver::SolverSnapshot& s, std::span<const std::size_t> stale) {
    const std::size_t n = local_.cols();
    std::vector<std::size_t> nz;
    for (std::size_t i = 0; i < s.alpha.size(); ++i) {
      if (s.alpha[i] != 0.0) nz.push_back(i);
    }
    std::vector<float> rowsFlat(nz.size() * n, 0.0f);
    std::vector<double> coefs(nz.size());
    std::vector<double> dots(nz.size());
    for (std::size_t k = 0; k < nz.size(); ++k) {
      const std::size_t j = nz[k];
      local_.copyRowDense(j, std::span<float>(rowsFlat).subspan(k * n, n));
      coefs[k] = s.alpha[j] * double(local_.label(j));
      dots[k] = local_.selfDot(j);
    }
    const std::vector<float> allRows = comm_.allgatherv(rowsFlat);
    const std::vector<double> allCoefs = comm_.allgatherv(coefs);
    const std::vector<double> allDots = comm_.allgatherv(dots);
    const std::span<const float> rows(allRows);
    for (std::size_t j = 0; j < allCoefs.size(); ++j) {
      const std::span<const float> x = rows.subspan(j * n, n);
      if (lowrank_ != nullptr) {
        zImage(x, allDots[j], zHigh());  // free between steps
        for (std::size_t i : stale) {
          s.f[i] += allCoefs[j] * kernel::asCached(lowrank_->zdot(i, zHigh()));
        }
      } else {
        fillColumn(x, allDots[j], stale, fillHigh_);
        for (std::size_t i : stale) s.f[i] += allCoefs[j] * fillHigh_[i];
      }
    }
  }

  /// out[i] = K(local row i, x) for i in `rows` (ascending), rounded as
  /// the row cache stores it; entries outside `rows` are unspecified.
  /// Exact backend only (PBM's line search shares it).
  void fillColumn(std::span<const float> x, double xSelfDot,
                  std::span<const std::size_t> rows, std::span<double> out) {
    columns_.fillColumn(x, xSelfDot, rows, out);
    for (std::size_t i : rows) out[i] = kernel::asCached(out[i]);
  }

 private:
  std::size_t owned(long long key) const {
    return key >= 0 && key / kRankStride == comm_.rank()
               ? static_cast<std::size_t>(key % kRankStride)
               : local_.rows();
  }

  /// The z-image of a shipped row, rounded to float as the factor stores
  /// its own Z rows, so a z-dot against it is the K̃ entry a row fill gives.
  void zImage(std::span<const float> x, double selfDot, std::span<double> z) {
    lowrank_->map(kern_, x, selfDot, z);
    for (double& v : z) v = double(static_cast<float>(v));
  }

  /// The z-images of the elected samples (Nyström), side by side in zs_
  /// so one tile pass takes both.
  std::span<double> zHigh() { return std::span(zs_).first(zs_.size() / 2); }
  std::span<double> zLow() { return std::span(zs_).last(zs_.size() / 2); }

  /// Fixed-order dot of two z-images (identical on every rank).
  static double zdotVectors(std::span<const double> a,
                            std::span<const double> b) {
    double s = 0.0;
    for (std::size_t k = 0; k < a.size(); ++k) s += a[k] * b[k];
    return s;
  }

  net::Comm& comm_;
  const data::Dataset& local_;
  const kernel::Kernel& kern_;
  const lowrank::NystromFactor* lowrank_;
  GlobalRowStore* store_;
  long long keyHigh_ = -1, keyLow_ = -1;
  ElectedMeta metaHigh_{}, metaLow_{};
  std::vector<float> xHigh_, xLow_;      ///< the elected rows
  std::vector<double> zs_;                ///< their z-images (Nyström)
  std::vector<double> fillHigh_, fillLow_;  ///< columns before rounding
  std::vector<kernel::CacheValue> colHigh_, colLow_;
  /// The exact column source; its tiled copy of the block is built on the
  /// first full fill.
  kernel::ExactRowSource columns_;
};

/// The global methods' agreed-generation resume. Each rank writes its
/// snapshot `name` in lock-step with the others, so the allreduce-min of
/// the ranks' newest generation keys is a generation every rank still
/// holds (the store keeps two). `decode` turns a payload of `kind` into a
/// state whose `alpha` covers the rank's `rows` (others are stale) and
/// `key` gives its generation: Dis-SMO's iteration, PBM's round. A rank
/// missing the agreed generation (e.g. a corrupt file) vetoes, and every
/// rank starts fresh together: nullopt. Both allreduces run on every rank.
template <class Decode, class Key>
auto restoreAgreedGeneration(net::Comm& comm,
                             const ckpt::CheckpointStore& store,
                             const std::string& name, ckpt::Kind kind,
                             std::size_t rows, Decode decode, Key key)
    -> std::optional<decltype(decode(std::span<const std::byte>()))> {
  using State = decltype(decode(std::span<const std::byte>()));
  const auto minOf = [](auto a, auto b) { return a < b ? a : b; };
  std::vector<State> snaps;
  for (const auto& payload : store.loadGenerations(name, kind)) {
    State snap = decode(payload);
    if (snap.alpha.size() == rows) snaps.push_back(std::move(snap));
  }
  long long newest = -1;
  for (const State& s : snaps) {
    newest = std::max(newest, static_cast<long long>(key(s)));
  }
  const long long agreed = comm.allreduce(newest, minOf);
  if (agreed <= 0) return std::nullopt;
  State* chosen = nullptr;
  for (State& s : snaps) {
    if (static_cast<long long>(key(s)) == agreed) chosen = &s;
  }
  const int everyRank = comm.allreduce(chosen != nullptr ? 1 : 0, minOf);
  if (everyRank == 0) return std::nullopt;
  return std::move(*chosen);
}

}  // namespace casvm::core::detail
