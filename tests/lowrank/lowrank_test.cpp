// casvm::lowrank property tests:
//
//  * Landmark selection is deterministic under a fixed seed (both
//    strategies), returns ascending distinct indices, and clamps to the
//    dataset size.
//  * The cyclic Jacobi eigendecomposition reconstructs symmetric matrices
//    and produces orthonormal eigenvectors, sorted descending.
//  * NystromFactor fills: fillRow / fillRowSubset / fillDiagonal agree
//    bitwise on shared entries, the approximate matrix is bitwise
//    symmetric, and the diagonal is non-negative (PSD by construction).
//  * The factor matches the explicit Z·Zᵀ matrix recomputed independently
//    through map(), builds are bitwise deterministic, and the checkpoint
//    codec round-trips bitwise.
//  * Accuracy-vs-exact: for all four kernels × dense/CSR storage, an SMO
//    solve against the low-rank RowSource loses only a small accuracy
//    delta versus the exact-kernel solve on the same split.
//  * Train-level: the Nystrom backend tracks the exact backend's held-out
//    accuracy across a partitioned, a tree, and a global method.

#include "casvm/lowrank/nystrom.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <random>
#include <vector>

#include "casvm/core/train.hpp"
#include "casvm/data/registry.hpp"
#include "casvm/data/synth.hpp"
#include "casvm/kernel/kernel.hpp"
#include "casvm/kernel/tile_kernel.hpp"
#include "casvm/lowrank/landmarks.hpp"
#include "casvm/lowrank/lowrank_kernel.hpp"
#include "casvm/solver/smo.hpp"
#include "casvm/support/bytes.hpp"
#include "casvm/support/error.hpp"

namespace casvm::lowrank {
namespace {

data::MixtureSpec testSpec(bool sparse, std::size_t samples) {
  data::MixtureSpec spec;
  spec.samples = samples;
  spec.features = 12;
  spec.clusters = 4;
  spec.centerSpread = 6.0 / std::sqrt(12.0);
  spec.clusterSpread = 1.0 / std::sqrt(12.0);
  spec.minCenterSeparation = 4.0;
  spec.labelNoise = 0.02;
  spec.seed = 7;
  if (sparse) {
    spec.sparsity = 0.5;
    spec.clusterSparsePattern = true;
    spec.sparseOutput = true;
  }
  return spec;
}

data::Dataset makeData(bool sparse, std::size_t samples = 320) {
  return data::generateMixture(testSpec(sparse, samples));
}

/// Train/test split sharing one mixture geometry (like the registry does).
std::pair<data::Dataset, data::Dataset> makeSplit(bool sparse) {
  const std::size_t trainRows = 360;
  const std::size_t testRows = 120;
  const data::Dataset joint = makeData(sparse, trainRows + testRows);
  std::vector<std::size_t> trainIdx(trainRows);
  std::vector<std::size_t> testIdx(testRows);
  for (std::size_t i = 0; i < trainRows; ++i) trainIdx[i] = i;
  for (std::size_t i = 0; i < testRows; ++i) testIdx[i] = trainRows + i;
  return {joint.subset(trainIdx), joint.subset(testIdx)};
}

// ---------------------------------------------------------------------------
// Landmark selection
// ---------------------------------------------------------------------------

TEST(LandmarkTest, DeterministicUnderFixedSeed) {
  const data::Dataset ds = makeData(false);
  for (const LandmarkStrategy strategy :
       {LandmarkStrategy::Uniform, LandmarkStrategy::KmeansPP}) {
    const auto a = selectLandmarks(ds, 24, strategy, 17);
    const auto b = selectLandmarks(ds, 24, strategy, 17);
    EXPECT_EQ(a, b) << strategyName(strategy);
    ASSERT_EQ(a.size(), 24u);
    EXPECT_TRUE(std::is_sorted(a.begin(), a.end()));
    EXPECT_EQ(std::adjacent_find(a.begin(), a.end()), a.end())
        << "duplicate landmark index";
    for (const std::size_t i : a) EXPECT_LT(i, ds.rows());
  }
}

TEST(LandmarkTest, DifferentSeedsPickDifferentSets) {
  const data::Dataset ds = makeData(false);
  const auto a = selectLandmarks(ds, 24, LandmarkStrategy::Uniform, 1);
  const auto b = selectLandmarks(ds, 24, LandmarkStrategy::Uniform, 2);
  EXPECT_NE(a, b);
}

TEST(LandmarkTest, ClampsToDatasetRows) {
  const data::Dataset ds = makeData(false, 20);
  const auto idx = selectLandmarks(ds, 1000, LandmarkStrategy::KmeansPP, 3);
  ASSERT_EQ(idx.size(), 20u);
  for (std::size_t i = 0; i < 20; ++i) EXPECT_EQ(idx[i], i);
}

TEST(LandmarkTest, StrategyNamesRoundTrip) {
  EXPECT_EQ(strategyFromName("uniform"), LandmarkStrategy::Uniform);
  EXPECT_EQ(strategyFromName("kmeans++"), LandmarkStrategy::KmeansPP);
  EXPECT_EQ(strategyFromName(strategyName(LandmarkStrategy::Uniform)),
            LandmarkStrategy::Uniform);
  EXPECT_EQ(strategyFromName(strategyName(LandmarkStrategy::KmeansPP)),
            LandmarkStrategy::KmeansPP);
  EXPECT_THROW((void)strategyFromName("nope"), Error);
}

TEST(LandmarkTest, ExtractDensifiesSparseRows) {
  const data::Dataset ds = makeData(true);
  const std::vector<std::size_t> idx{0, 5, 9};
  const LandmarkSet set = extractLandmarks(ds, idx);
  EXPECT_EQ(set.count(), 3u);
  EXPECT_EQ(set.features, ds.cols());
  for (std::size_t l = 0; l < idx.size(); ++l) {
    EXPECT_DOUBLE_EQ(set.selfDots[l], ds.selfDot(idx[l]));
    double dot = 0.0;
    for (const float v : set.row(l)) dot += static_cast<double>(v) * v;
    EXPECT_NEAR(dot, ds.selfDot(idx[l]), 1e-9);
  }
}

// ---------------------------------------------------------------------------
// Jacobi eigendecomposition
// ---------------------------------------------------------------------------

TEST(JacobiTest, DiagonalMatrixSortedDescending) {
  std::vector<double> a{3.0, 0.0, 0.0,  //
                        0.0, 1.0, 0.0,  //
                        0.0, 0.0, 2.0};
  std::vector<double> ev;
  std::vector<double> vecs;
  jacobiEigenSymmetric(a, 3, ev, vecs);
  ASSERT_EQ(ev.size(), 3u);
  EXPECT_DOUBLE_EQ(ev[0], 3.0);
  EXPECT_DOUBLE_EQ(ev[1], 2.0);
  EXPECT_DOUBLE_EQ(ev[2], 1.0);
}

TEST(JacobiTest, ReconstructsRandomSymmetricMatrix) {
  constexpr std::size_t s = 8;
  std::mt19937_64 rng(11);
  std::uniform_real_distribution<double> uni(-1.0, 1.0);
  std::vector<double> original(s * s);
  for (std::size_t i = 0; i < s; ++i) {
    for (std::size_t j = i; j < s; ++j) {
      const double v = uni(rng);
      original[i * s + j] = v;
      original[j * s + i] = v;
    }
  }
  std::vector<double> work = original;
  std::vector<double> ev;
  std::vector<double> vecs;
  jacobiEigenSymmetric(work, s, ev, vecs);

  // Descending eigenvalues, orthonormal eigenvector columns.
  for (std::size_t t = 1; t < s; ++t) EXPECT_GE(ev[t - 1], ev[t]);
  for (std::size_t t = 0; t < s; ++t) {
    for (std::size_t u = 0; u < s; ++u) {
      double dot = 0.0;
      for (std::size_t i = 0; i < s; ++i) {
        dot += vecs[i * s + t] * vecs[i * s + u];
      }
      EXPECT_NEAR(dot, t == u ? 1.0 : 0.0, 1e-10);
    }
  }
  // A == V diag(ev) V^T.
  for (std::size_t i = 0; i < s; ++i) {
    for (std::size_t j = 0; j < s; ++j) {
      double v = 0.0;
      for (std::size_t t = 0; t < s; ++t) {
        v += vecs[i * s + t] * ev[t] * vecs[j * s + t];
      }
      EXPECT_NEAR(v, original[i * s + j], 1e-10) << i << "," << j;
    }
  }
}

// ---------------------------------------------------------------------------
// NystromFactor fills
// ---------------------------------------------------------------------------

NystromFactor buildFactor(const data::Dataset& ds,
                          const kernel::Kernel& kern,
                          std::size_t landmarks = 48) {
  NystromOptions opts;
  opts.landmarks = landmarks;
  opts.seed = 5;
  return NystromFactor::build(kern, ds, opts);
}

TEST(NystromTest, FillsAgreeBitwiseAndMatrixIsSymmetric) {
  const data::Dataset ds = makeData(false, 200);
  const kernel::Kernel kern(kernel::KernelParams::gaussian(0.5));
  NystromFactor factor = buildFactor(ds, kern);
  ASSERT_EQ(factor.rows(), ds.rows());
  ASSERT_GT(factor.rank(), 0u);

  const std::size_t m = ds.rows();
  std::vector<double> diag(m);
  factor.fillDiagonal(diag);
  std::vector<std::vector<kernel::CacheValue>> rows(
      m, std::vector<kernel::CacheValue>(m));
  for (std::size_t i = 0; i < m; ++i) factor.fillRow(i, rows[i]);

  const std::vector<std::size_t> active{0, 3, 7, 42, 199};
  // scatter semantics: full-length output
  std::vector<kernel::CacheValue> subset(m);
  for (std::size_t i = 0; i < m; i += 37) {
    // Full fill vs partial fill: bitwise equal on the shared entries.
    factor.fillRowSubset(i, active, subset);
    for (const std::size_t j : active) {
      EXPECT_EQ(subset[j], rows[i][j]) << i << "," << j;
    }
    // Diagonal path agrees bitwise with the row path, rounded alike.
    EXPECT_EQ(kernel::CacheValue(diag[i]), rows[i][i]) << i;
    // PSD: every diagonal entry is a squared norm.
    EXPECT_GE(diag[i], 0.0);
  }
  // Bitwise symmetry of the full approximate matrix.
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = i + 1; j < m; ++j) {
      ASSERT_EQ(rows[i][j], rows[j][i]) << i << "," << j;
    }
  }
}

TEST(NystromTest, MatchesExplicitZZtThroughMap) {
  // Recompute z-rows independently through map() (double-precision W^T
  // k_L(x) from the raw features) and check the tiled fills against the
  // explicit Z·Zᵀ product. The tiles round z to float, so the comparison
  // is near-equality, not bitwise.
  const data::Dataset ds = makeData(false, 150);
  const kernel::Kernel kern(kernel::KernelParams::gaussian(0.5));
  NystromFactor factor = buildFactor(ds, kern, 40);
  const std::size_t m = ds.rows();
  const std::size_t r = factor.rank();

  std::vector<std::vector<double>> z(m, std::vector<double>(r));
  for (std::size_t i = 0; i < m; ++i) {
    factor.map(kern, ds.denseRow(i), ds.selfDot(i), z[i]);
  }
  std::vector<kernel::CacheValue> row(m);
  for (std::size_t i = 0; i < m; i += 13) {
    factor.fillRow(i, row);
    for (std::size_t j = 0; j < m; ++j) {
      double explicitly = 0.0;
      for (std::size_t t = 0; t < r; ++t) explicitly += z[i][t] * z[j][t];
      EXPECT_NEAR(row[j], explicitly, 1e-4) << i << "," << j;
    }
    // zdot over a mapped row is the same inner product.
    EXPECT_NEAR(factor.zdot(i, z[i]), row[i], 1e-4);
  }
}

TEST(NystromTest, ApproximatesExactKernelOnLandmarkSpans) {
  // With L = m (every row a landmark) the Nyström approximation is exact
  // up to floating point: K̃ = K K⁻¹ K = K.
  const data::Dataset ds = makeData(false, 64);
  const kernel::Kernel kern(kernel::KernelParams::gaussian(0.5));
  NystromFactor factor = buildFactor(ds, kern, ds.rows());
  std::vector<kernel::CacheValue> approx(ds.rows());
  for (std::size_t i = 0; i < ds.rows(); i += 7) {
    factor.fillRow(i, approx);
    for (std::size_t j = 0; j < ds.rows(); ++j) {
      EXPECT_NEAR(approx[j], kern.eval(ds, i, j), 5e-3) << i << "," << j;
    }
  }
}

TEST(NystromTest, BuildIsDeterministicBitwise) {
  const data::Dataset ds = makeData(true, 180);
  const kernel::Kernel kern(kernel::KernelParams::gaussian(2.5));
  NystromFactor a = buildFactor(ds, kern);
  NystromFactor b = buildFactor(ds, kern);
  EXPECT_EQ(a.encode(), b.encode());
}

TEST(NystromTest, CodecRoundTripsBitwise) {
  const data::Dataset ds = makeData(false, 120);
  const kernel::Kernel kern(kernel::KernelParams::polynomial(0.5, 1.0, 2));
  NystromFactor original = buildFactor(ds, kern, 32);
  const std::vector<std::byte> bytes = original.encode();
  NystromFactor restored = NystromFactor::decode(bytes);

  EXPECT_EQ(restored.rows(), original.rows());
  EXPECT_EQ(restored.rank(), original.rank());
  EXPECT_EQ(restored.landmarks().count(), original.landmarks().count());
  EXPECT_EQ(restored.encode(), bytes) << "re-encode differs";
  std::vector<kernel::CacheValue> a(ds.rows());
  std::vector<kernel::CacheValue> b(ds.rows());
  for (std::size_t i = 0; i < ds.rows(); i += 11) {
    original.fillRow(i, a);
    restored.fillRow(i, b);
    EXPECT_EQ(a, b) << "restored row " << i << " differs bitwise";
  }

  // Truncated payloads are rejected, not misread.
  EXPECT_THROW(
      (void)NystromFactor::decode(
          std::span<const std::byte>(bytes.data(), bytes.size() / 2)),
      Error);
}

TEST(NystromTest, DecodeRejectsOverflowingShape) {
  // A factor header (rows m, rank r, L landmarks of `features` each) over
  // the bytes its other arrays would take: L self-dots, the L x r W, and
  // one tile block of rank r.
  const auto encoded = [](std::uint64_t m, std::uint64_t r, std::uint64_t L,
                          std::uint64_t features) {
    support::ByteWriter w;
    w.scalar(m);
    w.scalar(r);
    w.scalar(L);
    w.scalar(features);
    w.zeros(2 * sizeof(double) + 2 * sizeof(double) +
            kernel::tile::kRows * sizeof(float));
    return w.take();
  };
  constexpr std::uint64_t kHalf = std::uint64_t{1} << 63;
  // L * features = 2 * 2^63 wraps to 0: no landmark values at all.
  const std::vector<std::byte> wrapped = encoded(1, 1, 2, kHalf);
  ASSERT_EQ(wrapped.size(), 128u);
  EXPECT_THROW((void)NystromFactor::decode(wrapped), Error);
  // L * r wraps the same way, and m near 2^64 would wrap the tile block
  // count's m + 15.
  EXPECT_THROW((void)NystromFactor::decode(encoded(1, kHalf, 2, 0)), Error);
  EXPECT_THROW((void)NystromFactor::decode(encoded(~std::uint64_t{0}, 1, 2, 0)),
               Error);
}

TEST(NystromTest, RankDeficientLandmarksAreTruncatedNotInverted) {
  // All-identical rows: K_LL is rank one, so the eigenvalue floor must
  // truncate to r = 1 instead of blowing up (K_LL)^{-1/2}.
  const std::size_t m = 40;
  const std::size_t n = 6;
  std::vector<float> values(m * n, 0.25f);
  std::vector<std::int8_t> labels(m, 1);
  for (std::size_t i = 0; i < m; i += 2) labels[i] = -1;
  const data::Dataset ds =
      data::Dataset::fromDense(n, std::move(values), std::move(labels));
  const kernel::Kernel kern(kernel::KernelParams::gaussian(0.5));
  NystromFactor factor = buildFactor(ds, kern, 16);
  EXPECT_EQ(factor.rank(), 1u);
  std::vector<double> diag(m);
  factor.fillDiagonal(diag);
  for (const double d : diag) {
    EXPECT_TRUE(std::isfinite(d));
    EXPECT_NEAR(d, 1.0, 1e-5);  // K(x, x) = 1 for the Gaussian kernel
  }
}

// ---------------------------------------------------------------------------
// Accuracy vs exact: 4 kernels × dense/CSR through the solver's RowSource
// ---------------------------------------------------------------------------

/// gtest prints the parameter as a byte dump into each case's ctest name,
/// so the tag is held inline rather than as a pointer (whose value moves
/// with address-space randomization) and sized so the struct has no
/// padding bytes either: the names are the same on every test discovery.
struct AccuracyCase {
  char kernelTag[15];
  bool sparse;
  double maxDelta;  ///< allowed held-out accuracy loss vs the exact solve
};
static_assert(sizeof(AccuracyCase) == 15 + sizeof(bool) + sizeof(double),
              "AccuracyCase must have no padding");

kernel::KernelParams kernelFor(const std::string& tag) {
  if (tag == "linear") return kernel::KernelParams::linear();
  if (tag == "gaussian") return kernel::KernelParams::gaussian(0.5);
  if (tag == "polynomial") return kernel::KernelParams::polynomial(0.5, 1.0, 2);
  // A small slope with a positive offset keeps the (inherently indefinite)
  // sigmoid kernel near-PSD on this data, so the eigenvalue floor drops
  // little of its spectrum and the approximation stays tight. Strongly
  // indefinite parameterizations lose accuracy structurally: the floor
  // discards the negative eigenspace that K̃ = Z·Zᵀ cannot represent.
  if (tag == "sigmoid") return kernel::KernelParams::sigmoid(0.01, 0.5);
  throw Error("unknown kernel tag in test");
}

/// The Nyström source's multi-row fills (one to four rows in one tile
/// pass) are bitwise its single fills, for factors of all four kernels
/// over dense and CSR data.
TEST(NystromTest, PairFillsMatchSingleFills) {
  const std::vector<std::vector<std::size_t>> sets = {
      {0, 199}, {17, 16}, {150, 3}, {5, 5}, {42}, {199, 0, 31},
      {1, 16, 150, 198}, {8, 8, 3, 8}, {3, 60, 199, 120, 7},
      {0, 1, 2, 3, 4, 5, 6, 7}};
  for (const bool sparse : {false, true}) {
    const data::Dataset ds = makeData(sparse, 200);
    for (const char* tag : {"linear", "gaussian", "polynomial", "sigmoid"}) {
      SCOPED_TRACE(std::string(tag) + (sparse ? " csr" : " dense"));
      const kernel::Kernel kern(kernelFor(tag));
      LowRankKernel source(buildFactor(ds, kern, 24));
      EXPECT_EQ(source.fillWidth(), kernel::tile::sweepWidth());
      const std::size_t m = source.rows();
      std::vector<kernel::CacheValue> one(m);
      for (const auto& rows : sets) {
        std::vector<std::vector<kernel::CacheValue>> many(
            rows.size(), std::vector<kernel::CacheValue>(m, -7.5f));
        std::vector<std::span<kernel::CacheValue>> outs(many.begin(),
                                                        many.end());
        source.fillRows(rows, outs);
        for (std::size_t t = 0; t < rows.size(); ++t) {
          source.fillRow(rows[t], one);
          for (std::size_t c = 0; c < m; ++c) {
            EXPECT_EQ(many[t][c], one[c])
                << "q=" << rows.size() << " row " << rows[t] << " c=" << c;
          }
        }
      }
    }
  }
}

/// The columns against one to four external vectors in one tile pass are
/// bitwise one zdot per row and vector, for z-images rounded to float as
/// the global methods round them.
TEST(NystromTest, ZdotsMatchZdot) {
  const data::Dataset ds = makeData(false, 200);
  const kernel::Kernel kern(kernelFor("gaussian"));
  const NystromFactor factor = buildFactor(ds, kern, 24);
  const std::size_t m = factor.rows(), r = factor.rank();
  const data::Dataset other = makeData(false, 9);
  std::vector<double> zs(kernel::tile::kMaxQueries * r);
  for (std::size_t t = 0; t < kernel::tile::kMaxQueries; ++t) {
    const std::span<double> z = std::span(zs).subspan(t * r, r);
    factor.map(kern, other.denseRow(t), other.selfDot(t), z);
    for (double& v : z) v = double(static_cast<float>(v));
  }
  for (std::size_t q = 1; q <= kernel::tile::kMaxQueries; ++q) {
    std::vector<std::vector<double>> cols(q, std::vector<double>(m, -7.5));
    std::vector<std::span<double>> outs(cols.begin(), cols.end());
    factor.zdots(std::span(zs).first(q * r), outs);
    for (std::size_t t = 0; t < q; ++t) {
      const std::span<const double> z = std::span(zs).subspan(t * r, r);
      for (std::size_t j = 0; j < m; ++j) {
        EXPECT_EQ(cols[t][j], factor.zdot(j, z)) << "q=" << q << " j=" << j;
      }
    }
  }
}

class LowRankAccuracyTest : public ::testing::TestWithParam<AccuracyCase> {};

std::string accuracyCaseName(
    const ::testing::TestParamInfo<AccuracyCase>& info) {
  return std::string(info.param.kernelTag) +
         (info.param.sparse ? "_csr" : "_dense");
}

TEST_P(LowRankAccuracyTest, SolverLosesLittleAccuracy) {
  const AccuracyCase& ac = GetParam();
  const auto [train, test] = makeSplit(ac.sparse);

  solver::SolverOptions exactOpts;
  exactOpts.kernel = kernelFor(ac.kernelTag);
  exactOpts.C = 1.0;
  const solver::SolverResult exact =
      solver::SmoSolver(exactOpts).solve(train);
  const double exactAcc = exact.model.accuracy(test);

  NystromOptions nopts;
  nopts.landmarks = 96;
  nopts.seed = 9;
  const kernel::Kernel kern(exactOpts.kernel);
  LowRankKernel source(NystromFactor::build(kern, train, nopts));
  solver::SolverOptions lowOpts = exactOpts;
  lowOpts.rowSource = &source;
  const solver::SolverResult low = solver::SmoSolver(lowOpts).solve(train);
  const double lowAcc = low.model.accuracy(test);

  EXPECT_GE(lowAcc, exactAcc - ac.maxDelta)
      << "exact " << exactAcc << " vs low-rank " << lowAcc;
}

INSTANTIATE_TEST_SUITE_P(
    Kernels, LowRankAccuracyTest,
    ::testing::Values(AccuracyCase{"linear", false, 0.03},
                      AccuracyCase{"linear", true, 0.03},
                      AccuracyCase{"gaussian", false, 0.03},
                      AccuracyCase{"gaussian", true, 0.03},
                      AccuracyCase{"polynomial", false, 0.03},
                      AccuracyCase{"polynomial", true, 0.03},
                      // The sigmoid kernel is indefinite; the eigenvalue
                      // floor drops its negative spectrum, so the
                      // approximation is looser by construction.
                      AccuracyCase{"sigmoid", false, 0.06},
                      AccuracyCase{"sigmoid", true, 0.06}),
    accuracyCaseName);

// ---------------------------------------------------------------------------
// Train-level: the backend flag reaches every method family
// ---------------------------------------------------------------------------

TEST(LowRankTrainTest, BackendTracksExactAccuracyAcrossMethodFamilies) {
  const data::NamedDataset nd = data::standin("toy", 0.25);
  // One partitioned, one tree, one global method — the three distinct
  // factor compositions (per-cluster, per-layer, global-landmark).
  for (const core::Method method :
       {core::Method::BkmCa, core::Method::Cascade, core::Method::DisSmo}) {
    core::TrainConfig cfg;
    cfg.method = method;
    cfg.processes = 4;
    cfg.solver.kernel = kernel::KernelParams::gaussian(nd.suggestedGamma);
    cfg.solver.C = nd.suggestedC;
    const double exactAcc =
        core::train(nd.train, cfg).model.accuracy(nd.test);

    cfg.solverBackend = core::SolverBackend::Nystrom;
    cfg.nystromLandmarks = 64;
    const double lowAcc = core::train(nd.train, cfg).model.accuracy(nd.test);
    EXPECT_GE(lowAcc, exactAcc - 0.03)
        << core::methodName(method) << ": exact " << exactAcc
        << " vs nystrom " << lowAcc;
  }
}

TEST(LowRankTrainTest, PbmRejectsTheNystromBackend) {
  const data::NamedDataset nd = data::standin("toy", 0.25);
  core::TrainConfig cfg;
  cfg.method = core::Method::Pbm;
  cfg.processes = 4;
  cfg.solver.kernel = kernel::KernelParams::gaussian(nd.suggestedGamma);
  cfg.solverBackend = core::SolverBackend::Nystrom;
  EXPECT_THROW((void)core::train(nd.train, cfg), Error);
}

TEST(LowRankTrainTest, BackendNamesRoundTrip) {
  EXPECT_STREQ(core::backendName(core::SolverBackend::Exact), "exact");
  EXPECT_STREQ(core::backendName(core::SolverBackend::Nystrom), "nystrom");
  EXPECT_EQ(core::backendFromName("exact"), core::SolverBackend::Exact);
  EXPECT_EQ(core::backendFromName("nystrom"), core::SolverBackend::Nystrom);
  EXPECT_THROW((void)core::backendFromName("magic"), Error);
}

}  // namespace
}  // namespace casvm::lowrank
