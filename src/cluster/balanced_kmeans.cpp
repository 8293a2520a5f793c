#include "casvm/cluster/balanced_kmeans.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "casvm/kernel/kernel.hpp"
#include "casvm/support/error.hpp"

namespace casvm::cluster {

namespace {

std::size_t ceilDiv(std::size_t a, std::size_t b) { return (a + b - 1) / b; }

/// Algorithm 5's migration loop over one class bucket: move the farthest
/// sample of each over-loaded center to the nearest under-loaded center.
/// `dist` is the m x P distance matrix, row-major; `eligible(i)` filters
/// the samples that belong to the bucket; `quota` is the per-center
/// capacity for that bucket; `load` its current counts.
///
/// Moves go only to centers below quota and never lift one past it, so an
/// over-loaded center gains no member while it waits and only loses
/// members while it is processed. Its eligible members are therefore
/// sorted once, farthest first (a stable sort from ascending index, so a
/// tie goes to the lowest index), and taken in that order: the moves and
/// their order are those of rescanning for the farthest member before
/// every move, in O(m log m) rather than O(moves * m).
template <class EligibleFn>
std::size_t rebalanceBucket(const data::Dataset& ds,
                            const std::vector<double>& dist,
                            std::vector<int>& assign,
                            std::vector<std::size_t>& load,
                            const std::vector<std::size_t>& quota,
                            EligibleFn eligible) {
  const int parts = static_cast<int>(quota.size());
  const auto p = quota.size();
  std::size_t moves = 0;
  std::vector<std::size_t> members;
  for (int j = 0; j < parts; ++j) {
    const auto uj = static_cast<std::size_t>(j);
    if (load[uj] <= quota[uj]) continue;
    // Eligible samples assigned to center j, farthest first (lines 14-17).
    members.clear();
    for (std::size_t i = 0; i < ds.rows(); ++i) {
      if (assign[i] == j && eligible(i)) members.push_back(i);
    }
    std::stable_sort(members.begin(), members.end(),
                     [&](std::size_t a, std::size_t b) {
                       return dist[a * p + uj] > dist[b * p + uj];
                     });
    for (std::size_t next = 0; load[uj] > quota[uj]; ++next) {
      CASVM_ASSERT(next < members.size(), "over-loaded center has no samples");
      const std::size_t maxInd = members[next];
      const double* di = dist.data() + maxInd * p;

      // Nearest under-loaded center for that sample (lines 18-24).
      double minDist = std::numeric_limits<double>::infinity();
      int minInd = -1;
      for (int c = 0; c < parts; ++c) {
        const auto uc = static_cast<std::size_t>(c);
        if (load[uc] >= quota[uc]) continue;
        if (di[uc] < minDist) {
          minDist = di[uc];
          minInd = c;
        }
      }
      CASVM_ASSERT(minInd >= 0, "no under-loaded center available");

      assign[maxInd] = minInd;            // lines 25-27
      --load[uj];
      ++load[static_cast<std::size_t>(minInd)];
      ++moves;
    }
  }
  return moves;
}

/// Shared rebalancing core used by the serial and distributed variants:
/// full m x P distance matrix, then one (class-blind) or two (per-class)
/// migration passes.
std::size_t rebalance(const data::Dataset& ds, Partition& partition,
                      bool ratioBalanced) {
  const int parts = partition.parts;
  const auto p = static_cast<std::size_t>(parts);
  const std::size_t m = ds.rows();

  // Distance matrix (Algorithm 5 lines 6-8).
  std::vector<double> centerSelf(p, 0.0);
  for (std::size_t c = 0; c < p; ++c) {
    for (float v : partition.centers[c]) centerSelf[c] += double(v) * double(v);
  }
  std::vector<double> dist(m * p);
  kernel::RowWorkspace ws;
  std::vector<double> column(m);
  for (std::size_t c = 0; c < p; ++c) {
    kernel::squaredDistances(ds, partition.centers[c], centerSelf[c], column,
                             ws);
    for (std::size_t i = 0; i < m; ++i) dist[i * p + c] = column[i];
  }

  std::size_t moves = 0;
  if (!ratioBalanced) {
    std::vector<std::size_t> load(p, 0);
    for (int a : partition.assign) ++load[static_cast<std::size_t>(a)];
    const std::vector<std::size_t> quota(p, ceilDiv(m, p));
    moves += rebalanceBucket(ds, dist, partition.assign, load, quota,
                             [](std::size_t) { return true; });
    return moves;
  }

  // Ratio-balanced: one migration pass per class with class quotas.
  for (const std::int8_t cls : {std::int8_t{1}, std::int8_t{-1}}) {
    std::vector<std::size_t> load(p, 0);
    std::size_t classTotal = 0;
    for (std::size_t i = 0; i < m; ++i) {
      if (ds.label(i) == cls) {
        ++load[static_cast<std::size_t>(partition.assign[i])];
        ++classTotal;
      }
    }
    if (classTotal == 0) continue;
    const std::vector<std::size_t> quota(p, ceilDiv(classTotal, p));
    moves += rebalanceBucket(ds, dist, partition.assign, load, quota,
                             [&](std::size_t i) { return ds.label(i) == cls; });
  }
  return moves;
}

}  // namespace

BalancedKMeansResult balancedKmeans(const data::Dataset& ds,
                                    const BalancedKMeansOptions& options) {
  CASVM_CHECK(options.parts > 0, "parts must be positive");
  CASVM_CHECK(ds.rows() >= static_cast<std::size_t>(options.parts),
              "fewer samples than parts");

  KMeansOptions km;
  km.clusters = options.parts;
  km.maxLoops = options.maxKmeansLoops;
  km.changeThreshold = options.kmeansChangeThreshold;
  km.seed = options.seed;
  KMeansResult base = kmeans(ds, km);

  BalancedKMeansResult result;
  result.kmeansLoops = base.loops;
  result.partition = std::move(base.partition);
  result.moves = rebalance(ds, result.partition, options.ratioBalanced);
  if (options.recomputeCenters) {
    result.partition.centers =
        computeCenters(ds, result.partition.assign, options.parts);
  }
  return result;
}

BalancedKMeansResult balancedKmeansDistributed(
    net::Comm& comm, const data::Dataset& local,
    const BalancedKMeansOptions& options) {
  CASVM_CHECK(options.parts > 0, "parts must be positive");

  KMeansOptions km;
  km.clusters = options.parts;
  km.maxLoops = options.maxKmeansLoops;
  km.changeThreshold = options.kmeansChangeThreshold;
  km.seed = options.seed;
  KMeansResult base = kmeansDistributed(comm, local, km);

  BalancedKMeansResult result;
  result.kmeansLoops = base.loops;
  result.partition = std::move(base.partition);
  // Divide-and-conquer rebalance: per-rank quotas over the local block.
  result.moves = rebalance(local, result.partition, options.ratioBalanced);

  // Conquer: recompute global centers from the final assignment.
  if (options.recomputeCenters) {
    const std::size_t n = local.cols();
    const auto p = static_cast<std::size_t>(options.parts);
    std::vector<double> sums(p * n, 0.0);
    std::vector<long long> counts(p, 0);
    for (std::size_t i = 0; i < local.rows(); ++i) {
      const auto c = static_cast<std::size_t>(result.partition.assign[i]);
      local.addRowTo(i, std::span<double>(sums).subspan(c * n, n));
      ++counts[c];
    }
    sums = comm.allreduce(std::move(sums),
                          [](double a, double b) { return a + b; });
    counts = comm.allreduce(std::move(counts),
                            [](long long a, long long b) { return a + b; });
    for (std::size_t c = 0; c < p; ++c) {
      if (counts[c] == 0) continue;
      for (std::size_t f = 0; f < n; ++f) {
        result.partition.centers[c][f] =
            static_cast<float>(sums[c * n + f] / double(counts[c]));
      }
    }
  }
  return result;
}

}  // namespace casvm::cluster
