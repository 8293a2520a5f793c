#include "casvm/perf/scaling_sim.hpp"

#include <algorithm>
#include <cmath>

#include "casvm/cluster/kmeans.hpp"
#include "casvm/support/error.hpp"
#include "casvm/support/rng.hpp"
#include "casvm/support/timer.hpp"

namespace casvm::perf {

namespace {

double log2d(int p) { return p > 1 ? std::log2(static_cast<double>(p)) : 0.0; }

/// Largest K-means part relative to m/P at P parts: lambda(P), from the
/// calibrated power law, capped so the part never exceeds the dataset.
double kmeansLambda(const ScalingCalibration& cal, int P) {
  const double lambda =
      cal.cpImbalance * std::pow(static_cast<double>(P) / 8.0,
                                 cal.cpImbalanceGrowth);
  return std::min(lambda, static_cast<double>(P));  // lambda*m/P <= m
}

/// Iterations of one sub-solve of `rows` samples (warm: merged layer).
double smoIters(const ScalingCalibration& cal, double rows, bool warm) {
  return cal.itersPerSample * rows * (warm ? cal.warmStartFactor : 1.0);
}

/// Compute seconds of one sub-solve: iterations x per-row iteration cost.
double smoCompute(const ScalingCalibration& cal, double rows, bool warm) {
  return smoIters(cal, rows, warm) * cal.secPerIterRow * rows;
}

/// Modeled K-means (+ all-to-all redistribution) cost per rank.
ModeledTime kmeansInit(const ScalingCalibration& cal, double m, int P) {
  const double n = static_cast<double>(cal.features);
  const double lg = log2d(P);
  ModeledTime t;
  // Assignment pass: P distance evaluations per local row per loop; one
  // distance costs ~one kernel-row entry, i.e. secPerIterRow/2 per row.
  t.compute = cal.kmeansLoops * (m / P) * P * (cal.secPerIterRow / 2.0);
  // Per loop: allreduce of P*n center sums (two tree phases).
  const double centerBytes = 8.0 * P * n;
  t.comm = cal.kmeansLoops * 2.0 * lg *
           cal.cost.messageSeconds(centerBytes);
  // All-to-all redistribution: each rank re-sends almost its whole block.
  const double blockBytes = (m / P) * 4.0 * n;
  t.comm += (P - 1) * cal.cost.alpha + cal.cost.beta * blockBytes;
  return t;
}

}  // namespace

ScalingCalibration calibrate(const data::Dataset& ds,
                             const solver::SolverOptions& options,
                             const std::vector<std::size_t>& sizes,
                             std::uint64_t seed) {
  CASVM_CHECK(!sizes.empty(), "need at least one calibration size");
  ScalingCalibration cal;
  cal.features = static_cast<long long>(ds.cols());

  Rng rng(seed);
  double ciSum = 0.0, rSum = 0.0, svSum = 0.0;
  int fitted = 0;
  for (std::size_t size : sizes) {
    CASVM_CHECK(size >= 2 && size <= ds.rows(),
                "calibration size out of range");
    const std::vector<std::size_t> idx =
        rng.sampleWithoutReplacement(ds.rows(), size);
    const data::Dataset sub = ds.subset(idx);
    if (sub.positives() == 0 || sub.negatives() == 0) continue;
    solver::SmoSolver solver(options);
    const solver::SolverResult res = solver.solve(sub);
    if (res.iterations == 0) continue;
    const double m = static_cast<double>(size);
    ciSum += static_cast<double>(res.iterations) / m;
    rSum += res.seconds / (static_cast<double>(res.iterations) * m);
    svSum += static_cast<double>(res.model.numSupportVectors()) / m;
    ++fitted;
  }
  CASVM_CHECK(fitted > 0, "calibration produced no usable solves");
  cal.itersPerSample = ciSum / fitted;
  cal.secPerIterRow = rSum / fitted;
  cal.svFraction = svSum / fitted;

  // K-means shape: convergence loops, the worst part's relative size at
  // k = 8, and how that imbalance grows with k (fitted from a k = 32 run).
  auto imbalanceAt = [&](int k) {
    cluster::KMeansOptions km;
    km.clusters = k;
    km.seed = seed;
    km.changeThreshold = 0.001;
    const cluster::KMeansResult res = cluster::kmeans(ds, km);
    const std::vector<std::size_t> sizesPerPart = res.partition.sizes();
    const std::size_t largest =
        *std::max_element(sizesPerPart.begin(), sizesPerPart.end());
    return std::pair<double, double>(
        static_cast<double>(largest) /
            (static_cast<double>(ds.rows()) / static_cast<double>(k)),
        static_cast<double>(res.loops));
  };
  const auto [lambda8, loops8] = imbalanceAt(8);
  cal.kmeansLoops = loops8;
  cal.cpImbalance = lambda8;
  if (ds.rows() >= 64) {
    const auto [lambda32, loops32] = imbalanceAt(32);
    (void)loops32;
    cal.cpImbalanceGrowth = std::clamp(
        std::log(lambda32 / lambda8) / std::log(32.0 / 8.0), 0.0, 1.0);
  }
  return cal;
}

ModeledTime modeledTrainTime(core::Method method,
                             const ScalingCalibration& cal, long long mIn,
                             int P) {
  CASVM_CHECK(P >= 1, "P must be positive");
  CASVM_CHECK(mIn >= P, "need at least one sample per process");
  const double m = static_cast<double>(mIn);
  const double n = static_cast<double>(cal.features);
  const double lg = log2d(P);
  const double sampleBytes = 4.0 * n + 8.0;  // features + alpha on the wire
  ModeledTime t;

  switch (method) {
    case core::Method::DisSmo: {
      // One global solve: iterations scale with the FULL m, each iteration
      // does 2 kernel rows over the local block plus 2 allreduces and 2
      // sample broadcasts (eqn. 9).
      const double iters = smoIters(cal, m, false);
      t.compute = iters * cal.secPerIterRow * (m / P);
      const double perIterComm =
          lg * (4.0 * cal.cost.messageSeconds(16.0) +        // minloc/maxloc
                2.0 * cal.cost.messageSeconds(4.0 * n + 24.0));  // samples
      t.comm = iters * perIterComm;
      return t;
    }
    case core::Method::DisSmoShrink: {
      // Dis-SMO with adaptive shrinking: elections still happen every
      // iteration, but after shrinking engages the gradient update runs
      // over the surviving active fraction and the replicated row store
      // absorbs most sample broadcasts. Model both with a fixed
      // surviving fraction of one half, averaged over the run.
      constexpr double sigma = 0.5;
      const double iters = smoIters(cal, m, false);
      t.compute = iters * cal.secPerIterRow * (m / P) * (0.5 + 0.5 * sigma);
      const double perIterComm =
          lg * (4.0 * cal.cost.messageSeconds(16.0) +  // minloc/maxloc
                2.0 * sigma *
                    cal.cost.messageSeconds(4.0 * n + 24.0));  // samples
      t.comm = iters * perIterComm;
      return t;
    }
    case core::Method::Pbm: {
      // A handful of outer rounds: a warm-started local solve per round
      // (iterations scale with the LOCAL block), one allgatherv of the
      // changed rows plus line-search scalars, and a short pair-correction
      // tail. The replicated row store means the sample payload (~ the SV
      // set) crosses once for the whole run; later rounds re-sync only
      // (key, coefficient) pairs, and the tail's row broadcasts are
      // absorbed too, leaving its scalar elections and 24B metadata.
      constexpr double rounds = 8.0;
      constexpr double pairPerRound = 64.0;
      t.compute = smoCompute(cal, m / P, false) +
                  (rounds - 1.0) * smoCompute(cal, m / P, true);
      const double changedBytes = cal.svFraction * m * sampleBytes;
      const double coefBytes = cal.svFraction * m * 16.0;
      t.comm = lg * cal.cost.messageSeconds(changedBytes);
      t.comm += rounds * lg * (cal.cost.messageSeconds(coefBytes) +
                               2.0 * cal.cost.messageSeconds(16.0));
      const double pairIters = rounds * pairPerRound;
      t.compute += pairIters * cal.secPerIterRow * (m / P);
      t.comm += pairIters * lg *
                (4.0 * cal.cost.messageSeconds(16.0) +
                 2.0 * cal.cost.messageSeconds(24.0));
      return t;
    }
    case core::Method::Cascade:
    case core::Method::DcSvm:
    case core::Method::DcFilter: {
      if (method != core::Method::Cascade) {
        const ModeledTime init = kmeansInit(cal, m, P);
        t.compute += init.compute;
        t.comm += init.comm;
      }
      const int layers = static_cast<int>(std::round(lg)) + 1;
      // First-layer part size: K-means parts are imbalanced, even blocks
      // are not.
      double v =
          (method == core::Method::Cascade ? 1.0 : kmeansLambda(cal, P)) *
          m / P;
      for (int l = 1; l <= layers; ++l) {
        t.compute += smoCompute(cal, v, l > 1);
        double outSize;  // what this layer ships to the next
        if (method == core::Method::DcSvm) {
          outSize = v;  // everything
        } else {
          outSize = cal.svFraction * v;  // support vectors only
        }
        if (l < layers) {
          t.comm += cal.cost.messageSeconds(outSize * sampleBytes);
          v = 2.0 * outSize;  // merge with the partner's output
          if (method == core::Method::DcSvm) v = std::min(v, m);
        }
      }
      return t;
    }
    case core::Method::CpSvm: {
      const ModeledTime init = kmeansInit(cal, m, P);
      t.compute = init.compute;
      t.comm = init.comm;
      // The slowest rank owns the largest K-means part, whose relative
      // size grows with P (bounded natural cluster count).
      const double mLoc = kmeansLambda(cal, P) * m / P;
      t.compute += smoCompute(cal, mLoc, false);
      return t;
    }
    case core::Method::BkmCa: {
      const ModeledTime init = kmeansInit(cal, m, P);
      t.compute = init.compute;
      t.comm = init.comm;
      t.compute += smoCompute(cal, m / P, false);  // balanced parts
      return t;
    }
    case core::Method::FcfsCa: {
      // FCFS is a single assignment pass plus two allreduces.
      t.compute = (m / P) * P * (cal.secPerIterRow / 2.0);
      t.comm = 2.0 * lg * cal.cost.messageSeconds(8.0 * P * n) +
               (P - 1) * cal.cost.alpha + cal.cost.beta * (m / P) * 4.0 * n;
      t.compute += smoCompute(cal, m / P, false);
      return t;
    }
    case core::Method::RaCa: {
      // casvm2: no communication at all; iterations and per-iteration work
      // both shrink with m/P — the source of superlinear strong scaling.
      t.compute = smoCompute(cal, m / P, false);
      t.comm = 0.0;
      return t;
    }
  }
  throw Error("unknown method");
}

}  // namespace casvm::perf
