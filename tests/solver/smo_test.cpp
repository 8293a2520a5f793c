#include "casvm/solver/smo.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "casvm/data/registry.hpp"
#include "casvm/data/synth.hpp"
#include "casvm/kernel/row_source.hpp"
#include "casvm/support/error.hpp"

namespace casvm::solver {
namespace {

SolverOptions gaussianOptions(double gamma = 0.5, double C = 1.0) {
  SolverOptions opts;
  opts.kernel = kernel::KernelParams::gaussian(gamma);
  opts.C = C;
  return opts;
}

TEST(SmoAnalyticTest, TwoPointProblem) {
  // Two points on the x-axis at -1 and +1 with a linear kernel: the dual
  // optimum is alpha_0 = alpha_1 = 0.5 (margin 2 => |w| = 1), bias 0.
  const auto ds = data::Dataset::fromDense(1, {-1.0f, 1.0f}, {-1, 1});
  SolverOptions opts;
  opts.kernel = kernel::KernelParams::linear();
  opts.C = 10.0;
  opts.tolerance = 1e-6;
  const SolverResult res = SmoSolver(opts).solve(ds);
  ASSERT_EQ(res.alpha.size(), 2u);
  EXPECT_NEAR(res.alpha[0], 0.5, 1e-4);
  EXPECT_NEAR(res.alpha[1], 0.5, 1e-4);
  EXPECT_NEAR(res.model.bias(), 0.0, 1e-4);
  EXPECT_NEAR(res.objective, 0.5, 1e-4);  // sum a - 1/2 a^T Q a = 1 - 0.5
  EXPECT_TRUE(res.converged);
}

TEST(SmoAnalyticTest, AsymmetricTwoPoints) {
  // Points at 0 and 2: separating plane at x = 1, decision = x - 1.
  const auto ds = data::Dataset::fromDense(1, {0.0f, 2.0f}, {-1, 1});
  SolverOptions opts;
  opts.kernel = kernel::KernelParams::linear();
  opts.C = 10.0;
  opts.tolerance = 1e-6;
  const SolverResult res = SmoSolver(opts).solve(ds);
  const std::vector<float> probe{3.0f};
  EXPECT_NEAR(res.model.decision(probe), 2.0, 1e-3);
  const std::vector<float> origin{1.0f};
  EXPECT_NEAR(res.model.decision(origin), 0.0, 1e-3);
}

TEST(SmoTest, SeparableBlobsPerfectTraining) {
  const auto ds = data::generateTwoGaussians(400, 6, 8.0, 17);
  const SolverResult res = SmoSolver(gaussianOptions(0.1)).solve(ds);
  EXPECT_TRUE(res.converged);
  EXPECT_GE(res.model.accuracy(ds), 0.995);
}

TEST(SmoTest, SumAlphaYIsZero) {
  const auto ds = data::generateTwoGaussians(200, 4, 3.0, 23);
  const SolverResult res = SmoSolver(gaussianOptions()).solve(ds);
  double sum = 0.0;
  for (std::size_t i = 0; i < ds.rows(); ++i) {
    sum += res.alpha[i] * ds.label(i);
  }
  EXPECT_NEAR(sum, 0.0, 1e-9);
}

TEST(SmoTest, BoxConstraintsRespected) {
  const auto ds = data::generateTwoGaussians(300, 4, 1.0, 29);  // overlapping
  const double C = 0.7;
  const SolverResult res = SmoSolver(gaussianOptions(0.5, C)).solve(ds);
  for (double a : res.alpha) {
    EXPECT_GE(a, 0.0);
    EXPECT_LE(a, C + 1e-12);
  }
}

TEST(SmoTest, KktConditionsAtSolution) {
  // At convergence, b_low <= b_high + 2 tau means: for every i in the high
  // set f_i >= b_high, for every i in the low set f_i <= b_low, and the
  // two thresholds straddle the bias. Verify via explicit f recomputation.
  const auto ds = data::generateTwoGaussians(150, 3, 2.0, 31);
  SolverOptions opts = gaussianOptions(0.5, 1.0);
  opts.tolerance = 1e-3;
  const SolverResult res = SmoSolver(opts).solve(ds);
  ASSERT_TRUE(res.converged);

  const kernel::Kernel k(opts.kernel);
  std::vector<double> f(ds.rows(), 0.0);
  for (std::size_t i = 0; i < ds.rows(); ++i) {
    double acc = 0.0;
    for (std::size_t j = 0; j < ds.rows(); ++j) {
      if (res.alpha[j] != 0.0) {
        acc += res.alpha[j] * ds.label(j) * k.eval(ds, i, j);
      }
    }
    f[i] = acc - ds.label(i);
  }
  double bHigh = 1e300, bLow = -1e300;
  for (std::size_t i = 0; i < ds.rows(); ++i) {
    const bool highSet = (ds.label(i) == 1 && res.alpha[i] < opts.C) ||
                         (ds.label(i) == -1 && res.alpha[i] > 0.0);
    const bool lowSet = (ds.label(i) == 1 && res.alpha[i] > 0.0) ||
                        (ds.label(i) == -1 && res.alpha[i] < opts.C);
    if (highSet) bHigh = std::min(bHigh, f[i]);
    if (lowSet) bLow = std::max(bLow, f[i]);
  }
  EXPECT_LE(bLow, bHigh + 2.0 * opts.tolerance + 1e-9);
}

TEST(SmoTest, ObjectiveMatchesBruteForce) {
  const auto ds = data::generateTwoGaussians(80, 3, 2.0, 37);
  SolverOptions opts = gaussianOptions(0.5);
  const SolverResult res = SmoSolver(opts).solve(ds);
  const kernel::Kernel k(opts.kernel);
  double brute = 0.0;
  for (std::size_t i = 0; i < ds.rows(); ++i) brute += res.alpha[i];
  for (std::size_t i = 0; i < ds.rows(); ++i) {
    if (res.alpha[i] == 0.0) continue;
    for (std::size_t j = 0; j < ds.rows(); ++j) {
      if (res.alpha[j] == 0.0) continue;
      brute -= 0.5 * res.alpha[i] * res.alpha[j] * ds.label(i) *
               ds.label(j) * k.eval(ds, i, j);
    }
  }
  EXPECT_NEAR(res.objective, brute, 1e-6 * std::max(1.0, std::abs(brute)));
}

TEST(SmoTest, WarmStartReducesIterations) {
  const auto nd = data::standin("toy", 0.5);
  SolverOptions opts = gaussianOptions(nd.suggestedGamma, nd.suggestedC);
  const SolverResult cold = SmoSolver(opts).solve(nd.train);
  ASSERT_TRUE(cold.converged);
  // Re-solving from the converged alphas should take (almost) no work.
  const SolverResult warm = SmoSolver(opts).solve(nd.train, cold.alpha);
  EXPECT_LT(warm.iterations, cold.iterations / 4 + 10);
  EXPECT_NEAR(warm.model.accuracy(nd.test), cold.model.accuracy(nd.test),
              0.02);
}

TEST(SmoTest, WarmStartClipsOutOfBoxValues) {
  const auto ds = data::generateTwoGaussians(60, 3, 3.0, 41);
  SolverOptions opts = gaussianOptions(0.5, 1.0);
  std::vector<double> bad(ds.rows(), 5.0);  // way above C
  const SolverResult res = SmoSolver(opts).solve(ds, bad);
  for (double a : res.alpha) EXPECT_LE(a, 1.0 + 1e-12);
}

TEST(SmoTest, MaxIterationsCapRespected) {
  const auto nd = data::standin("toy", 0.5);
  SolverOptions opts = gaussianOptions(nd.suggestedGamma);
  opts.maxIterations = 5;
  const SolverResult res = SmoSolver(opts).solve(nd.train);
  EXPECT_FALSE(res.converged);
  EXPECT_EQ(res.iterations, 5u);
}

TEST(SmoTest, SingleClassThrows) {
  const auto ds = data::Dataset::fromDense(1, {1.0f, 2.0f}, {1, 1});
  EXPECT_THROW((void)SmoSolver(gaussianOptions()).solve(ds), Error);
}

TEST(SmoTest, TooFewSamplesThrows) {
  const auto ds = data::Dataset::fromDense(1, {1.0f}, {1});
  EXPECT_THROW((void)SmoSolver(gaussianOptions()).solve(ds), Error);
}

TEST(SmoTest, WrongAlphaLengthThrows) {
  const auto ds = data::generateTwoGaussians(10, 2, 3.0, 43);
  std::vector<double> alpha(5, 0.0);
  EXPECT_THROW((void)SmoSolver(gaussianOptions()).solve(ds, alpha), Error);
}

TEST(SmoTest, InvalidOptionsThrow) {
  SolverOptions opts = gaussianOptions();
  opts.C = 0.0;
  EXPECT_THROW(SmoSolver{opts}, Error);
  opts = gaussianOptions();
  opts.tolerance = 0.0;
  EXPECT_THROW(SmoSolver{opts}, Error);
}

TEST(SmoTest, CacheStatsReported) {
  const auto ds = data::generateTwoGaussians(100, 3, 3.0, 47);
  const SolverResult res = SmoSolver(gaussianOptions()).solve(ds);
  EXPECT_GT(res.kernelRowsComputed + res.kernelRowHits, 0u);
}

TEST(SmoTest, SupportVectorsAreNonzeroAlphas) {
  const auto ds = data::generateTwoGaussians(120, 3, 4.0, 53);
  const SolverResult res = SmoSolver(gaussianOptions(0.2)).solve(ds);
  std::size_t nonzero = 0;
  for (double a : res.alpha) nonzero += (a > 0.0);
  EXPECT_EQ(res.model.numSupportVectors(), nonzero);
  EXPECT_LT(nonzero, ds.rows());  // separable data -> sparse model
}

TEST(SmoTest, SparseDatasetSolvable) {
  data::MixtureSpec spec;
  spec.samples = 200;
  spec.features = 30;
  spec.sparsity = 0.7;
  spec.sparseOutput = true;
  spec.seed = 59;
  const auto ds = data::generateMixture(spec);
  const SolverResult res = SmoSolver(gaussianOptions(0.5)).solve(ds);
  EXPECT_TRUE(res.converged);
  EXPECT_GT(res.model.accuracy(ds), 0.9);
}

/// Generalization sweep: every stand-in dataset must reach a reasonable
/// test accuracy with its suggested parameters — the baseline for the
/// paper-table benches.
class SmoDatasetTest : public ::testing::TestWithParam<const char*> {};

TEST_P(SmoDatasetTest, SuggestedParametersGeneralize) {
  const auto nd = data::standin(GetParam(), 0.25);
  SolverOptions opts;
  opts.kernel = kernel::KernelParams::gaussian(nd.suggestedGamma);
  opts.C = nd.suggestedC;
  const SolverResult res = SmoSolver(opts).solve(nd.train);
  EXPECT_TRUE(res.converged);
  EXPECT_GT(res.model.accuracy(nd.test), 0.85) << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Standins, SmoDatasetTest,
                         ::testing::Values("adult", "epsilon", "face",
                                           "gisette", "ijcnn", "usps",
                                           "webspam", "forest", "toy"));

/// Selection-rule sweep: first- and second-order working-set selection
/// must both converge to solutions of the same quality.
class SmoSelectionTest : public ::testing::TestWithParam<Selection> {};

TEST_P(SmoSelectionTest, ConvergesWithGoodAccuracy) {
  const auto nd = data::standin("toy", 0.4);
  SolverOptions opts = gaussianOptions(nd.suggestedGamma);
  opts.selection = GetParam();
  const SolverResult res = SmoSolver(opts).solve(nd.train);
  EXPECT_TRUE(res.converged);
  EXPECT_GT(res.model.accuracy(nd.test), 0.93);
}

INSTANTIATE_TEST_SUITE_P(Rules, SmoSelectionTest,
                         ::testing::Values(Selection::FirstOrder,
                                           Selection::SecondOrder));

TEST(SmoSelectionTest, SecondOrderNoMoreIterations) {
  const auto nd = data::standin("ijcnn", 0.3);
  SolverOptions first = gaussianOptions(nd.suggestedGamma);
  SolverOptions second = first;
  second.selection = Selection::SecondOrder;
  const SolverResult r1 = SmoSolver(first).solve(nd.train);
  const SolverResult r2 = SmoSolver(second).solve(nd.train);
  // Second-order selection should be in the same ballpark or better.
  EXPECT_LE(r2.iterations, r1.iterations * 2 + 100);
}


TEST(SmoWeightedTest, WeightsRespectPerClassBox) {
  const auto ds = data::generateTwoGaussians(200, 4, 1.0, 61);  // overlapping
  SolverOptions opts = gaussianOptions(0.5, 1.0);
  opts.positiveWeight = 3.0;
  opts.negativeWeight = 0.5;
  const SolverResult res = SmoSolver(opts).solve(ds);
  for (std::size_t i = 0; i < ds.rows(); ++i) {
    const double box = ds.label(i) == 1 ? 3.0 : 0.5;
    EXPECT_GE(res.alpha[i], 0.0);
    EXPECT_LE(res.alpha[i], box + 1e-12);
  }
  // Some negative alphas must actually sit at their tighter bound for the
  // weighting to have bitten on overlapping data.
  bool negAtBound = false;
  for (std::size_t i = 0; i < ds.rows(); ++i) {
    if (ds.label(i) == -1 && res.alpha[i] > 0.5 - 1e-9) negAtBound = true;
  }
  EXPECT_TRUE(negAtBound);
}

TEST(SmoWeightedTest, UpweightingPositivesRaisesRecall) {
  // Imbalanced, overlapping data: boosting the positive box should recover
  // more of the minority class (at some precision cost).
  data::MixtureSpec spec;
  spec.samples = 800;
  spec.features = 6;
  spec.clusters = 4;
  spec.positiveFraction = 0.1;
  spec.clusterSpread = 2.0;  // heavy overlap so errors exist
  spec.centerSpread = 2.0;
  spec.seed = 67;
  const auto ds = data::generateMixture(spec);

  auto recall = [&](double posWeight) {
    SolverOptions opts = gaussianOptions(0.25, 1.0);
    opts.positiveWeight = posWeight;
    const Model model = SmoSolver(opts).solve(ds).model;
    std::size_t hit = 0, pos = 0;
    for (std::size_t i = 0; i < ds.rows(); ++i) {
      if (ds.label(i) != 1) continue;
      ++pos;
      hit += (model.predictFor(ds, i) == 1);
    }
    return static_cast<double>(hit) / static_cast<double>(pos);
  };
  EXPECT_GE(recall(8.0), recall(1.0));
}

TEST(SmoWeightedTest, InvalidWeightsThrow) {
  SolverOptions opts = gaussianOptions();
  opts.positiveWeight = 0.0;
  EXPECT_THROW(SmoSolver{opts}, Error);
  opts = gaussianOptions();
  opts.negativeWeight = -1.0;
  EXPECT_THROW(SmoSolver{opts}, Error);
}

TEST(SmoDegenerateTest, BoundPinnedWarmStartKeepsBiasFinite) {
  // Regression: with every positive alpha at C and every negative at 0, the
  // high set is empty on the very first scan, so bHigh stayed +inf and
  // bias = -(bHigh + bLow)/2 came out NaN/inf. The solver must fall back to
  // the one finite threshold (or bracket f) and produce a usable model.
  const auto ds = data::generateTwoGaussians(40, 3, 6.0, 73);
  SolverOptions opts = gaussianOptions(0.5, 1.0);
  std::vector<double> pinned(ds.rows());
  for (std::size_t i = 0; i < ds.rows(); ++i) {
    pinned[i] = ds.label(i) == 1 ? opts.C : 0.0;
  }
  const SolverResult res = SmoSolver(opts).solve(ds, pinned);
  EXPECT_TRUE(std::isfinite(res.model.bias()));
  EXPECT_TRUE(std::isfinite(res.objective));
  const std::vector<float> probe(ds.cols(), 0.0f);
  EXPECT_TRUE(std::isfinite(res.model.decision(probe)));
}

TEST(SmoDegenerateTest, AllAlphasAtBoundBothWays) {
  // Mirror case: positives at 0, negatives at C empties the low set too.
  const auto ds = data::generateTwoGaussians(40, 3, 6.0, 79);
  SolverOptions opts = gaussianOptions(0.5, 1.0);
  std::vector<double> pinned(ds.rows());
  for (std::size_t i = 0; i < ds.rows(); ++i) {
    pinned[i] = ds.label(i) == 1 ? 0.0 : opts.C;
  }
  const SolverResult res = SmoSolver(opts).solve(ds, pinned);
  EXPECT_TRUE(std::isfinite(res.model.bias()));
  EXPECT_TRUE(std::isfinite(res.objective));
}

/// The exact kernel with every multi-row fill run one row at a time,
/// under the exact source's fill width: the reference the solver's shared
/// passes, lookahead rows included, must match bit for bit.
class SingleFillsSource final : public kernel::RowSource {
 public:
  SingleFillsSource(const kernel::Kernel& k, const data::Dataset& ds)
      : exact_(k, ds) {}
  std::size_t rows() const override { return exact_.rows(); }
  void fillRow(std::size_t i, std::span<double> out) override {
    exact_.fillRow(i, out);
  }
  void fillRows(std::span<const std::size_t> rows,
                std::span<const std::span<double>> outs) override {
    for (std::size_t t = 0; t < rows.size(); ++t) {
      exact_.fillRow(rows[t], outs[t]);
    }
  }
  std::size_t fillWidth() const override { return exact_.fillWidth(); }
  void fillRowSubset(std::size_t i, std::span<const std::size_t> active,
                     std::span<double> out) override {
    exact_.fillRowSubset(i, active, out);
  }
  void fillDiagonal(std::span<double> out) override {
    exact_.fillDiagonal(out);
  }
  bool preferFullFill(std::size_t activeCount) const override {
    return exact_.preferFullFill(activeCount);
  }

 private:
  kernel::ExactRowSource exact_;
};

TEST(SmoPairFillTest, PairPassesChangeNoBit) {
  // A 16-row cache, so both rows of an iteration often miss together and
  // the first misses find free slots to fill ahead into.
  struct Case {
    Selection selection;
    bool shrinking;
  };
  const Case cases[] = {{Selection::FirstOrder, false},
                        {Selection::FirstOrder, true},
                        {Selection::SecondOrder, false}};
  for (const char* name : {"toy", "webspam"}) {  // dense, CSR
    const auto nd = data::standin(name, 0.3);
    const bool dense = nd.train.storage() == data::Storage::Dense;
    for (const Case& c : cases) {
      SCOPED_TRACE(std::string(name) + " second-order=" +
                   std::to_string(c.selection == Selection::SecondOrder) +
                   " shrinking=" + std::to_string(c.shrinking));
      SolverOptions opts = gaussianOptions(nd.suggestedGamma, nd.suggestedC);
      opts.cacheBytes = 16 * nd.train.rows() * sizeof(float);
      opts.selection = c.selection;
      opts.shrinking = c.shrinking;
      opts.shrinkInterval = 100;
      const SolverResult shared = SmoSolver(opts).solve(nd.train);
      const kernel::Kernel kern(opts.kernel);
      SingleFillsSource reference(kern, nd.train);
      opts.rowSource = &reference;
      const SolverResult single = SmoSolver(opts).solve(nd.train);

      EXPECT_EQ(shared.alpha, single.alpha);
      EXPECT_EQ(shared.iterations, single.iterations);
      EXPECT_EQ(shared.objective, single.objective);
      EXPECT_EQ(shared.kernelRowsComputed, single.kernelRowsComputed);
      EXPECT_EQ(shared.kernelRowHits, single.kernelRowHits);
      EXPECT_EQ(shared.kernelRowsAhead, single.kernelRowsAhead);
      EXPECT_EQ(shared.kernelFillSweeps, single.kernelFillSweeps);
      // Second-order selection picks iLow from rowHigh: one row a sweep.
      // First-order selection shares sweeps between the pair's misses,
      // and on dense tiles fills rows ahead while slots are free; CSR
      // rows share nothing, so nothing is filled ahead there.
      if (c.selection == Selection::FirstOrder) {
        EXPECT_LT(shared.kernelFillSweeps, shared.kernelRowsComputed);
        if (dense) {
          EXPECT_GT(shared.kernelRowsAhead, 0u);
        } else {
          EXPECT_EQ(shared.kernelRowsAhead, 0u);
        }
      } else {
        EXPECT_EQ(shared.kernelFillSweeps, shared.kernelRowsComputed);
        EXPECT_EQ(shared.kernelRowsAhead, 0u);
      }
      EXPECT_LE(shared.kernelRowsAhead, shared.kernelRowsComputed);
    }
  }
}

TEST(SmoShrinkingTest, ObjectiveMatchesShrinkingOff) {
  // Regression for the stale-threshold shrink pass: the filter used to
  // sample bLow/bHigh *before* the two-variable update mutated f, so it
  // could shrink a sample the update had just made violating, and the
  // shrunk solve drifted from the exact one. With post-update thresholds,
  // shrinking + unshrink must land on the same objective as shrinking off
  // (up to the convergence tolerance).
  for (const char* name : {"ijcnn", "adult"}) {
    const auto nd = data::standin(name, 0.4);
    SolverOptions plain = gaussianOptions(nd.suggestedGamma, nd.suggestedC);
    plain.selection = Selection::SecondOrder;
    SolverOptions shrunk = plain;
    shrunk.shrinking = true;
    shrunk.shrinkInterval = 25;  // aggressive, to stress the filter
    const SolverResult a = SmoSolver(plain).solve(nd.train);
    const SolverResult b = SmoSolver(shrunk).solve(nd.train);
    ASSERT_TRUE(a.converged) << name;
    ASSERT_TRUE(b.converged) << name;
    EXPECT_NEAR(a.objective, b.objective,
                1e-3 * std::max(1.0, std::abs(a.objective)))
        << name;
  }
}

TEST(SmoShrinkingTest, SameSolutionQuality) {
  const auto nd = data::standin("ijcnn", 0.4);
  SolverOptions plain = gaussianOptions(nd.suggestedGamma, nd.suggestedC);
  SolverOptions shrunk = plain;
  shrunk.shrinking = true;
  shrunk.shrinkInterval = 100;
  const SolverResult a = SmoSolver(plain).solve(nd.train);
  const SolverResult b = SmoSolver(shrunk).solve(nd.train);
  ASSERT_TRUE(a.converged);
  ASSERT_TRUE(b.converged);
  EXPECT_NEAR(a.model.accuracy(nd.test), b.model.accuracy(nd.test), 0.02);
  EXPECT_NEAR(a.objective, b.objective,
              0.02 * std::max(1.0, std::abs(a.objective)));
}

TEST(SmoShrinkingTest, KktStillHoldsAfterShrinking) {
  const auto ds = data::generateTwoGaussians(300, 3, 2.0, 71);
  SolverOptions opts = gaussianOptions(0.5, 1.0);
  opts.shrinking = true;
  opts.shrinkInterval = 50;
  const SolverResult res = SmoSolver(opts).solve(ds);
  ASSERT_TRUE(res.converged);
  // Recompute thresholds over the FULL problem; shrinking must not have
  // declared convergence while a shrunk-out sample still violates.
  const kernel::Kernel k(opts.kernel);
  double bHigh = 1e300, bLow = -1e300;
  for (std::size_t i = 0; i < ds.rows(); ++i) {
    double acc = 0.0;
    for (std::size_t j = 0; j < ds.rows(); ++j) {
      if (res.alpha[j] != 0.0) {
        acc += res.alpha[j] * ds.label(j) * k.eval(ds, i, j);
      }
    }
    const double fi = acc - ds.label(i);
    const bool highSet = (ds.label(i) == 1 && res.alpha[i] < opts.C) ||
                         (ds.label(i) == -1 && res.alpha[i] > 0.0);
    const bool lowSet = (ds.label(i) == 1 && res.alpha[i] > 0.0) ||
                        (ds.label(i) == -1 && res.alpha[i] < opts.C);
    if (highSet) bHigh = std::min(bHigh, fi);
    if (lowSet) bLow = std::max(bLow, fi);
  }
  EXPECT_LE(bLow, bHigh + 2.0 * opts.tolerance + 1e-6);
}

TEST(SmoShrinkingTest, DegenerateStepWhileShrunkUnshrinksAndRecovers) {
  // Regression: when the maximal violating pair over the SHRUNK set is
  // pinned at the box and cannot move, the solver used to bail out of the
  // whole solve — but the pair is often only stuck because the sample that
  // would free it was shrunk away. The solver must restore the full
  // problem and retry once before giving up. Stress the path with a very
  // aggressive shrink cadence and asymmetric per-class boxes (the small
  // negative box pins negatives almost immediately) across several draws;
  // a premature bail shows up as non-convergence or a worse objective
  // than the shrinking-off reference.
  for (int seed : {3, 11, 19, 27}) {
    const auto ds = data::generateTwoGaussians(240, 4, 1.5, seed);
    SolverOptions plain = gaussianOptions(0.5, 1.0);
    plain.positiveWeight = 3.0;
    plain.negativeWeight = 0.05;
    SolverOptions shrunk = plain;
    shrunk.shrinking = true;
    shrunk.shrinkInterval = 10;
    const SolverResult a = SmoSolver(plain).solve(ds);
    const SolverResult b = SmoSolver(shrunk).solve(ds);
    ASSERT_TRUE(a.converged) << "seed " << seed;
    EXPECT_TRUE(b.converged) << "seed " << seed;
    EXPECT_NEAR(a.objective, b.objective,
                1e-3 * std::max(1.0, std::abs(a.objective)))
        << "seed " << seed;
  }
}

TEST(SmoShrinkingTest, WarmStartComposesWithShrinking) {
  const auto nd = data::standin("toy", 0.5);
  SolverOptions opts = gaussianOptions(nd.suggestedGamma);
  opts.shrinking = true;
  opts.shrinkInterval = 50;
  const SolverResult cold = SmoSolver(opts).solve(nd.train);
  const SolverResult warm = SmoSolver(opts).solve(nd.train, cold.alpha);
  EXPECT_LT(warm.iterations, cold.iterations / 4 + 10);
}

}  // namespace
}  // namespace casvm::solver
