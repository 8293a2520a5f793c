#include "casvm/cluster/kmeans.hpp"

#include <cmath>
#include <limits>

#include "casvm/kernel/kernel.hpp"
#include "casvm/support/error.hpp"
#include "casvm/support/rng.hpp"

namespace casvm::cluster {

namespace {

/// Nearest center to every row, using precomputed center squared norms:
/// one tiled distance column per center. Centers are visited in ascending
/// order with a strict <, so a tie keeps the lowest index.
std::vector<int> nearestCenters(const data::Dataset& ds,
                                const std::vector<std::vector<float>>& centers,
                                const std::vector<double>& centerSelf,
                                kernel::RowWorkspace& ws) {
  const std::size_t m = ds.rows();
  std::vector<int> best(m, 0);
  std::vector<double> bestDist(m, std::numeric_limits<double>::infinity());
  std::vector<double> d(m);
  for (std::size_t c = 0; c < centers.size(); ++c) {
    kernel::squaredDistances(ds, centers[c], centerSelf[c], d, ws);
    for (std::size_t i = 0; i < m; ++i) {
      if (d[i] < bestDist[i]) {
        bestDist[i] = d[i];
        best[i] = static_cast<int>(c);
      }
    }
  }
  return best;
}

std::vector<double> selfDots(const std::vector<std::vector<float>>& centers) {
  std::vector<double> out(centers.size(), 0.0);
  for (std::size_t c = 0; c < centers.size(); ++c) {
    for (float v : centers[c]) out[c] += double(v) * double(v);
  }
  return out;
}

std::vector<std::vector<float>> initialCenters(const data::Dataset& ds,
                                               int k, std::uint64_t seed,
                                               bool plusPlus,
                                               kernel::RowWorkspace& ws) {
  Rng rng(seed);
  std::vector<std::vector<float>> centers(
      static_cast<std::size_t>(k), std::vector<float>(ds.cols(), 0.0f));
  if (!plusPlus) {
    const std::vector<std::size_t> picks =
        rng.sampleWithoutReplacement(ds.rows(), static_cast<std::size_t>(k));
    for (std::size_t c = 0; c < picks.size(); ++c) {
      ds.copyRowDense(picks[c], centers[c]);
    }
    return centers;
  }
  // k-means++ (Arthur & Vassilvitskii): each next center is a sample drawn
  // with probability proportional to its squared distance from the chosen
  // set, which provably avoids the collapsed initializations uniform
  // sampling can produce.
  std::vector<double> minDist(ds.rows(),
                              std::numeric_limits<double>::infinity());
  std::vector<double> d(ds.rows());
  std::size_t pick = static_cast<std::size_t>(rng.below(ds.rows()));
  for (int c = 0; c < k; ++c) {
    std::vector<float>& center = centers[static_cast<std::size_t>(c)];
    ds.copyRowDense(pick, center);
    if (c + 1 == k) break;
    kernel::squaredDistances(ds, center, ds.selfDot(pick), d, ws);
    double total = 0.0;
    for (std::size_t i = 0; i < ds.rows(); ++i) {
      if (d[i] < minDist[i]) minDist[i] = d[i];
      total += minDist[i];
    }
    double target = rng.uniform() * total;
    pick = ds.rows() - 1;
    for (std::size_t i = 0; i < ds.rows(); ++i) {
      target -= minDist[i];
      if (target <= 0.0) {
        pick = i;
        break;
      }
    }
  }
  return centers;
}

}  // namespace

namespace {

/// Within-cluster sum of squared distances of a finished partition.
double partitionSse(const data::Dataset& ds, const Partition& partition) {
  const std::vector<double> centerSelf = selfDots(partition.centers);
  double sse = 0.0;
  for (std::size_t i = 0; i < ds.rows(); ++i) {
    const auto c = static_cast<std::size_t>(partition.assign[i]);
    sse += ds.squaredDistanceTo(i, partition.centers[c], centerSelf[c]);
  }
  return sse;
}

/// One Lloyd run from one seed.
KMeansResult kmeansSingle(const data::Dataset& ds,
                          const KMeansOptions& options, std::uint64_t seed,
                          kernel::RowWorkspace& ws) {
  const int k = options.clusters;
  const std::size_t m = ds.rows();
  const std::size_t n = ds.cols();

  std::vector<std::vector<float>> centers =
      initialCenters(ds, k, seed, options.plusPlusInit, ws);
  std::vector<int> assign(m, -1);

  KMeansResult result;
  for (std::size_t loop = 0; loop < options.maxLoops; ++loop) {
    ++result.loops;
    const std::vector<int> nearest =
        nearestCenters(ds, centers, selfDots(centers), ws);
    std::size_t changed = 0;
    for (std::size_t i = 0; i < m; ++i) {
      if (nearest[i] != assign[i]) {
        assign[i] = nearest[i];
        ++changed;
      }
    }
    // Recompute the centers from the fresh assignment (Algorithm 2 line 6).
    std::vector<std::vector<double>> sums(
        static_cast<std::size_t>(k), std::vector<double>(n, 0.0));
    std::vector<std::size_t> counts(static_cast<std::size_t>(k), 0);
    for (std::size_t i = 0; i < m; ++i) {
      const auto c = static_cast<std::size_t>(assign[i]);
      ds.addRowTo(i, sums[c]);
      ++counts[c];
    }
    for (std::size_t c = 0; c < static_cast<std::size_t>(k); ++c) {
      if (counts[c] == 0) continue;  // empty cluster keeps its old center
      for (std::size_t f = 0; f < n; ++f) {
        centers[c][f] = static_cast<float>(sums[c][f] / double(counts[c]));
      }
    }
    if (static_cast<double>(changed) / static_cast<double>(m) <=
        options.changeThreshold) {
      result.converged = true;
      break;
    }
  }

  result.partition.parts = k;
  result.partition.assign = std::move(assign);
  result.partition.centers = std::move(centers);
  result.sse = partitionSse(ds, result.partition);
  return result;
}

}  // namespace

KMeansResult kmeans(const data::Dataset& ds, const KMeansOptions& options) {
  CASVM_CHECK(options.clusters > 0, "clusters must be positive");
  CASVM_CHECK(ds.rows() >= static_cast<std::size_t>(options.clusters),
              "fewer samples than clusters");
  CASVM_CHECK(options.restarts >= 1, "restarts must be at least 1");
  kernel::RowWorkspace ws;
  KMeansResult best = kmeansSingle(ds, options, options.seed, ws);
  for (int r = 1; r < options.restarts; ++r) {
    KMeansResult candidate = kmeansSingle(
        ds, options, options.seed + static_cast<std::uint64_t>(r), ws);
    if (candidate.sse < best.sse) best = std::move(candidate);
  }
  return best;
}

KMeansResult kmeansDistributed(net::Comm& comm, const data::Dataset& local,
                               const KMeansOptions& options) {
  const int k = options.clusters;
  CASVM_CHECK(k > 0, "clusters must be positive");
  const std::size_t localRows = local.rows();
  const std::size_t n = local.cols();
  const auto totalRows = static_cast<std::size_t>(
      comm.allreduceSum(static_cast<long long>(localRows)));
  CASVM_CHECK(totalRows >= static_cast<std::size_t>(k),
              "fewer samples than clusters");

  // Rank 0 seeds the centers from its own block and broadcasts them
  // (Algorithm 4 lines 1-4 use the same root-seeded scheme).
  kernel::RowWorkspace ws;
  std::vector<float> flatCenters(static_cast<std::size_t>(k) * n, 0.0f);
  if (comm.rank() == 0) {
    CASVM_CHECK(localRows >= static_cast<std::size_t>(k),
                "rank 0 needs at least k local samples to seed centers");
    const std::vector<std::vector<float>> init =
        initialCenters(local, k, options.seed, options.plusPlusInit, ws);
    for (std::size_t c = 0; c < init.size(); ++c) {
      std::copy(init[c].begin(), init[c].end(),
                flatCenters.begin() + static_cast<std::ptrdiff_t>(c * n));
    }
  }
  comm.bcast(flatCenters, 0);

  std::vector<std::vector<float>> centers(
      static_cast<std::size_t>(k), std::vector<float>(n, 0.0f));
  auto unflatten = [&] {
    for (std::size_t c = 0; c < static_cast<std::size_t>(k); ++c) {
      std::copy(flatCenters.begin() + static_cast<std::ptrdiff_t>(c * n),
                flatCenters.begin() + static_cast<std::ptrdiff_t>((c + 1) * n),
                centers[c].begin());
    }
  };
  unflatten();

  std::vector<int> assign(localRows, -1);
  KMeansResult result;
  for (std::size_t loop = 0; loop < options.maxLoops; ++loop) {
    ++result.loops;
    const std::vector<int> nearest =
        nearestCenters(local, centers, selfDots(centers), ws);
    long long changed = 0;
    for (std::size_t i = 0; i < localRows; ++i) {
      if (nearest[i] != assign[i]) {
        assign[i] = nearest[i];
        ++changed;
      }
    }

    // Global center recomputation: allreduce per-center sums and counts.
    std::vector<double> sums(static_cast<std::size_t>(k) * n, 0.0);
    std::vector<long long> counts(static_cast<std::size_t>(k), 0);
    for (std::size_t i = 0; i < localRows; ++i) {
      const auto c = static_cast<std::size_t>(assign[i]);
      local.addRowTo(i, std::span<double>(sums).subspan(c * n, n));
      ++counts[c];
    }
    sums = comm.allreduce(std::move(sums),
                          [](double a, double b) { return a + b; });
    counts = comm.allreduce(std::move(counts),
                            [](long long a, long long b) { return a + b; });
    for (std::size_t c = 0; c < static_cast<std::size_t>(k); ++c) {
      if (counts[c] == 0) continue;
      for (std::size_t f = 0; f < n; ++f) {
        flatCenters[c * n + f] =
            static_cast<float>(sums[c * n + f] / double(counts[c]));
      }
    }
    unflatten();

    const long long totalChanged = comm.allreduceSum(changed);
    if (static_cast<double>(totalChanged) / static_cast<double>(totalRows) <=
        options.changeThreshold) {
      result.converged = true;
      break;
    }
  }

  result.partition.parts = k;
  result.partition.assign = std::move(assign);
  result.partition.centers = std::move(centers);
  return result;
}

}  // namespace casvm::cluster
