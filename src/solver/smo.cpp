#include "casvm/solver/smo.hpp"

#include <algorithm>
#include <limits>
#include <numeric>
#include <tuple>

#include "casvm/kernel/row_cache.hpp"
#include "casvm/kernel/tile_kernel.hpp"
#include "casvm/solver/smo_loop.hpp"
#include "casvm/support/error.hpp"
#include "casvm/support/timer.hpp"

namespace casvm::solver {

namespace {

/// The serial solve's pair source: both rows from the row cache, kept
/// pinned while the iteration holds their spans, and the identity for
/// every agreement. When a full pair fetch will miss, it ranks the rows
/// the cache fills ahead in the same pass.
class LocalPairSource {
 public:
  LocalPairSource(kernel::RowCache& cache, const data::Dataset& ds,
                  const std::vector<double>& diag, const SolverOptions& opts,
                  double traceCpuStart)
      : cache_(cache),
        ds_(ds),
        diag_(diag),
        opts_(opts),
        traceCpuStart_(traceCpuStart) {}

  PairPick elect(const PairPick& local) const { return local; }

  ElectedPair pair(const PairPick& elected, const SolverSnapshot& s,
                   const std::uint8_t* inHigh, const std::uint8_t* inLow) {
    const std::size_t m = s.f.size();
    const std::span<const std::size_t> active(s.active);
    // While shrunk, evicted-row refills compute only the active entries
    // (the gradient update and the selection never read outside them).
    const auto fetch = [&](std::size_t i) {
      const std::span<const kernel::CacheValue> row =
          active.size() < m ? cache_.row(i, active) : cache_.row(i);
      cache_.pin(i);
      return row;
    };
    high_ = elected.high;
    low_ = elected.low;
    // The rows backing the spans held across this iteration are pinned, so
    // the second fetch (and any refill) can never recycle their storage.
    // First-order selection has picked both rows already: fetch them
    // together, and the misses fill in one pass, with the rows ranked to
    // come next while nothing is shrunk: the members of either index set
    // nearest their set's threshold, among the rows the cache does not
    // hold.
    if (opts_.selection == Selection::FirstOrder) {
      if (active.size() < m) {
        std::tie(rowHigh_, rowLow_) = cache_.rows(high_, low_, active);
      } else {
        const std::size_t room =
            std::min(cache_.aheadRoom(high_, low_), kMaxAhead);
        const std::size_t ranked =
            rank_(s.f.data(), inHigh, inLow, cache_.held().data(), m,
                  elected, room, ahead_);
        std::tie(rowHigh_, rowLow_) = cache_.rows(
            high_, low_, kernel::RowCache::Ahead{{ahead_, ranked}});
      }
    } else {
      rowHigh_ = fetch(high_);
      // Re-pick the low sample to maximize the guaranteed objective
      // decrease (b_high - f_j)^2 / eta_j among violating candidates. K_jj
      // comes from the precomputed diagonal, rounded like the cached rows,
      // so the gain's eta for the chosen j is the step's eta.
      const double tau = opts_.tolerance;
      const double kHigh = diag_[high_];
      double bestGain = -std::numeric_limits<double>::infinity();
      std::size_t bestJ = m;
      for (std::size_t j : active) {
        if (inLow[j] == 0) continue;
        const double diff = s.f[j] - elected.bHigh;
        if (diff <= 2.0 * tau) continue;
        double eta = kHigh + diag_[j] - 2.0 * double(rowHigh_[j]);
        if (eta < 1e-12) eta = 1e-12;
        const double gain = diff * diff / eta;
        if (gain > bestGain) {
          bestGain = gain;
          bestJ = j;
        }
      }
      if (bestJ < m) low_ = bestJ;
      rowLow_ = fetch(low_);
    }
    genHigh_ = cache_.generation(high_);
    genLow_ = cache_.generation(low_);
    return {high_,
            low_,
            s.f[high_],
            s.f[low_],
            s.alpha[high_],
            s.alpha[low_],
            double(ds_.label(high_)),
            double(ds_.label(low_)),
            double(rowHigh_[high_]),
            double(rowLow_[low_]),
            double(rowHigh_[low_])};
  }

  /// Free samples keep being selected; samples at a bound rarely return.
  /// The cache lets free samples' rows outlive the rest.
  void commit(const ElectedPair&, double, double, bool highFree,
              bool lowFree) {
    cache_.retain(high_, highFree);
    cache_.retain(low_, lowFree);
  }

  /// The generation checks turn a span whose backing row was recycled (a
  /// pinning-contract violation) into an immediate assertion failure.
  kernel::RowCache::RowPair columns(std::span<const std::size_t>) const {
    cache_.checkLive(high_, genHigh_);
    cache_.checkLive(low_, genLow_);
    return {rowHigh_, rowLow_};
  }

  void release() {
    cache_.unpin(high_);
    cache_.unpin(low_);
  }

  /// CPU time since the solve started, on the caller's timeline.
  double now() const {
    return opts_.traceTimeOffset + (threadCpuSeconds() - traceCpuStart_);
  }
  double hitRate() const {
    const double hits = static_cast<double>(cache_.hits());
    const double lookups = hits + static_cast<double>(cache_.misses());
    return lookups > 0.0 ? hits / lookups : 0.0;
  }

  static double agreeMin(double v) { return v; }
  static double agreeMax(double v) { return v; }
  static long long agreeSum(long long v) { return v; }

  /// One full cache row per nonzero alpha. The active set is about to
  /// grow back to the full problem: partial row fills from this shrink
  /// phase must not serve later full reads.
  void restore(SolverSnapshot& s, std::span<const std::size_t> stale) {
    cache_.invalidatePartial();
    for (std::size_t j = 0; j < s.alpha.size(); ++j) {
      if (s.alpha[j] == 0.0) continue;
      const double coef = s.alpha[j] * double(ds_.label(j));
      const std::span<const kernel::CacheValue> kj = cache_.row(j);
      for (std::size_t i : stale) s.f[i] += coef * double(kj[i]);
    }
  }

 private:
  kernel::RowCache& cache_;
  const data::Dataset& ds_;
  const std::vector<double>& diag_;
  const SolverOptions& opts_;
  const double traceCpuStart_;
  /// Rows one pass fills beyond the iteration's own.
  static constexpr std::size_t kMaxAhead = kernel::tile::kMaxQueries - 1;
  static_assert(kMaxAhead <= kMaxRanked);
  const RankFn rank_ = rankFn();
  std::size_t high_ = 0, low_ = 0;
  std::size_t ahead_[kMaxAhead] = {};
  std::span<const kernel::CacheValue> rowHigh_, rowLow_;
  std::uint64_t genHigh_ = 0, genLow_ = 0;
};

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
  // costs a full dot product each time.
  std::vector<double> diag(m);
  src->fillDiagonal(diag);
  for (double& d : diag) d = kernel::asCached(d);

  LocalPairSource source(cache, ds, diag, options_, traceCpuStart);
  SolverSnapshot state;
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
    state = snap;
  } else {
    state.alpha.assign(m, 0.0);
    state.f.resize(m);
    state.active.resize(m);
    std::iota(state.active.begin(), state.active.end(), 0);
    // f_i = -y_i when alpha == 0 (eqn. 4).
    for (std::size_t i = 0; i < m; ++i) state.f[i] = -double(ds.label(i));
    if (!initialAlpha.empty()) {
      const double cPos = options_.C * options_.positiveWeight;
      const double cNeg = options_.C * options_.negativeWeight;
      for (std::size_t i = 0; i < m; ++i) {
        state.alpha[i] =
            std::clamp(initialAlpha[i], 0.0, ds.label(i) == 1 ? cPos : cNeg);
      }
      // Full gradient reconstruction: one kernel row per nonzero alpha.
      source.restore(state, state.active);
    }
  }

  const std::size_t maxIters =
      options_.maxIterations > 0 ? options_.maxIterations : 100 * m + 10000;
  SmoLoop loop(source, ds, options_, state);
  const bool converged = loop.run(maxIters);
  const double bias = loop.finish();

  // Dual objective: F = sum a_i - 1/2 sum_i a_i y_i (f_i + y_i). (With
  // shrinking, finish() rebuilt f of the inactive rows; the identity holds
  // for the full vector.)
  double objective = 0.0;
  for (std::size_t i = 0; i < m; ++i) {
    const double a = state.alpha[i];
    objective += a - 0.5 * a * double(ds.label(i)) *
                         (state.f[i] + double(ds.label(i)));
  }

  SolverResult result;
  result.model = Model::fromDual(options_.kernel, ds, state.alpha, bias);
  result.alpha = std::move(state.alpha);
  result.iterations = state.iteration;
  result.converged = converged;
  result.objective = objective;
  result.seconds = timer.seconds();
  result.kernelRowsComputed = cache.misses() + cache.aheadFills();
  result.kernelRowsAhead = cache.aheadFills();
  result.kernelFillSweeps = cache.fillSweeps();
  result.kernelRowHits = cache.hits();
  return result;
}

}  // namespace casvm::solver
