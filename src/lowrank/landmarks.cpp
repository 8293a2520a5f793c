#include "casvm/lowrank/landmarks.hpp"

#include <algorithm>
#include <limits>

#include "casvm/kernel/kernel.hpp"
#include "casvm/support/error.hpp"
#include "casvm/support/rng.hpp"

namespace casvm::lowrank {

std::string strategyName(LandmarkStrategy strategy) {
  switch (strategy) {
    case LandmarkStrategy::Uniform: return "uniform";
    case LandmarkStrategy::KmeansPP: return "kmeans++";
  }
  return "unknown";
}

LandmarkStrategy strategyFromName(const std::string& name) {
  if (name == "uniform") return LandmarkStrategy::Uniform;
  if (name == "kmeans++" || name == "kmeanspp" || name == "kmeans") {
    return LandmarkStrategy::KmeansPP;
  }
  throw Error("unknown landmark strategy: " + name +
              " (expected uniform | kmeans++)");
}

namespace {

std::vector<std::size_t> selectKmeansPP(const data::Dataset& ds,
                                        std::size_t count,
                                        std::uint64_t seed) {
  const std::size_t m = ds.rows();
  Rng rng(seed);
  std::vector<std::size_t> chosen;
  chosen.reserve(count);
  chosen.push_back(static_cast<std::size_t>(rng.below(m)));

  // d2[j]: squared distance of row j to landmark c, one tiled column.
  kernel::RowWorkspace ws;
  std::vector<float> x(ds.cols());
  std::vector<double> d2(m);
  const auto distancesTo = [&](std::size_t c) {
    ds.copyRowDense(c, x);
    kernel::squaredDistances(ds, x, ds.selfDot(c), d2, ws);
  };

  // minD2[j]: squared distance of row j to the nearest chosen landmark.
  std::vector<double> minD2(m);
  double total = 0.0;
  distancesTo(chosen[0]);
  for (std::size_t j = 0; j < m; ++j) {
    minD2[j] = std::max(0.0, d2[j]);
    total += minD2[j];
  }

  while (chosen.size() < count) {
    std::size_t next = m;
    if (total > 0.0) {
      // D² sampling: prefix walk over minD2 at a uniform target.
      const double target = rng.uniform() * total;
      double acc = 0.0;
      for (std::size_t j = 0; j < m; ++j) {
        acc += minD2[j];
        if (acc > target) {
          next = j;
          break;
        }
      }
      // Rounding can leave the walk one short; take the last positive mass.
      if (next == m) {
        for (std::size_t j = m; j-- > 0;) {
          if (minD2[j] > 0.0) {
            next = j;
            break;
          }
        }
      }
    }
    if (next == m) {
      // All remaining rows coincide with chosen landmarks (duplicate-heavy
      // data): fall back to the first unchosen index, deterministically.
      std::vector<char> used(m, 0);
      for (std::size_t c : chosen) used[c] = 1;
      for (std::size_t j = 0; j < m; ++j) {
        if (!used[j]) {
          next = j;
          break;
        }
      }
      if (next == m) break;  // count > distinct rows; return what we have
    }
    chosen.push_back(next);
    distancesTo(next);
    for (std::size_t j = 0; j < m; ++j) {
      const double d = std::max(0.0, d2[j]);
      if (d < minD2[j]) {
        total -= minD2[j] - d;
        minD2[j] = d;
      }
    }
  }
  return chosen;
}

}  // namespace

std::vector<std::size_t> selectLandmarks(const data::Dataset& ds,
                                         std::size_t count,
                                         LandmarkStrategy strategy,
                                         std::uint64_t seed) {
  CASVM_CHECK(ds.rows() > 0, "landmark selection over an empty dataset");
  CASVM_CHECK(count > 0, "landmark count must be positive");
  count = std::min(count, ds.rows());

  std::vector<std::size_t> indices;
  switch (strategy) {
    case LandmarkStrategy::Uniform: {
      Rng rng(seed);
      indices = rng.sampleWithoutReplacement(ds.rows(), count);
      break;
    }
    case LandmarkStrategy::KmeansPP:
      indices = selectKmeansPP(ds, count, seed);
      break;
  }
  // Ascending order: callers and checkpoints get one canonical form
  // regardless of the draw order.
  std::sort(indices.begin(), indices.end());
  indices.erase(std::unique(indices.begin(), indices.end()), indices.end());
  return indices;
}

LandmarkSet extractLandmarks(const data::Dataset& ds,
                             std::span<const std::size_t> indices) {
  LandmarkSet set;
  set.features = ds.cols();
  set.rows.assign(indices.size() * ds.cols(), 0.0f);
  set.selfDots.reserve(indices.size());
  for (std::size_t l = 0; l < indices.size(); ++l) {
    CASVM_CHECK(indices[l] < ds.rows(), "landmark index out of range");
    ds.copyRowDense(indices[l],
                    std::span<float>(set.rows).subspan(l * ds.cols(),
                                                       ds.cols()));
    set.selfDots.push_back(ds.selfDot(indices[l]));
  }
  return set;
}

}  // namespace casvm::lowrank
