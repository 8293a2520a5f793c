#include <gtest/gtest.h>


#include <cmath>
#include <string>

#include "casvm/data/registry.hpp"
#include "casvm/solver/smo.hpp"
#include "casvm/support/error.hpp"
#include "kernel/kernel_params_printer.hpp"

namespace casvm::solver {
namespace {

/// Tolerance sweep: tighter tolerances must not worsen the objective (the
/// dual is maximized), and the KKT gap shrinks monotonically with tau.
class ToleranceSweepTest : public ::testing::TestWithParam<double> {};

TEST_P(ToleranceSweepTest, ConvergesAtEveryTolerance) {
  const auto nd = data::standin("toy", 0.3);
  SolverOptions opts;
  opts.kernel = kernel::KernelParams::gaussian(nd.suggestedGamma);
  opts.tolerance = GetParam();
  const SolverResult res = SmoSolver(opts).solve(nd.train);
  EXPECT_TRUE(res.converged);
  EXPECT_GT(res.model.accuracy(nd.test), 0.9);
}

INSTANTIATE_TEST_SUITE_P(Taus, ToleranceSweepTest,
                         ::testing::Values(1e-1, 1e-2, 1e-3, 1e-4),
                         [](const ::testing::TestParamInfo<double>& info) {
                           return "tau1em" +
                                  std::to_string(static_cast<int>(
                                      -std::log10(info.param)));
                         });

TEST(ToleranceOrderingTest, TighterToleranceImprovesObjective) {
  const auto nd = data::standin("toy", 0.3);
  SolverOptions loose, tight;
  loose.kernel = tight.kernel =
      kernel::KernelParams::gaussian(nd.suggestedGamma);
  loose.tolerance = 1e-1;
  tight.tolerance = 1e-4;
  const SolverResult a = SmoSolver(loose).solve(nd.train);
  const SolverResult b = SmoSolver(tight).solve(nd.train);
  EXPECT_GE(b.objective, a.objective - 1e-6);
  EXPECT_GE(b.iterations, a.iterations);
}

/// Every kernel family must train a usable model end to end, not just
/// evaluate pointwise.
class KernelFamilyTrainingTest
    : public ::testing::TestWithParam<kernel::KernelParams> {};

TEST_P(KernelFamilyTrainingTest, LearnsSeparableData) {
  const auto ds = data::generateTwoGaussians(300, 5, 6.0, 77);
  SolverOptions opts;
  opts.kernel = GetParam();
  opts.C = 1.0;
  const SolverResult res = SmoSolver(opts).solve(ds);
  EXPECT_TRUE(res.converged) << kernel::kernelName(GetParam().type);
  EXPECT_GT(res.model.accuracy(ds), 0.95)
      << kernel::kernelName(GetParam().type);
}

INSTANTIATE_TEST_SUITE_P(
    Families, KernelFamilyTrainingTest,
    ::testing::Values(kernel::KernelParams::linear(),
                      kernel::KernelParams::gaussian(0.1),
                      kernel::KernelParams::polynomial(0.2, 1.0, 3),
                      kernel::KernelParams::sigmoid(0.05, -0.5)),
    [](const ::testing::TestParamInfo<kernel::KernelParams>& info) {
      return kernel::kernelName(info.param.type);
    });

/// C sweep on overlapping data: larger C always (weakly) increases the
/// dual objective's margin-violation budget usage — more bound SVs at
/// small C, fewer margin violations allowed at large C.
class CSweepTest : public ::testing::TestWithParam<double> {};

TEST_P(CSweepTest, AlphasRespectBox) {
  const auto ds = data::generateTwoGaussians(200, 4, 1.5, 81);
  SolverOptions opts;
  opts.kernel = kernel::KernelParams::gaussian(0.5);
  opts.C = GetParam();
  const SolverResult res = SmoSolver(opts).solve(ds);
  for (double a : res.alpha) {
    EXPECT_GE(a, 0.0);
    EXPECT_LE(a, GetParam() + 1e-12);
  }
  double sum = 0.0;
  for (std::size_t i = 0; i < ds.rows(); ++i) {
    sum += res.alpha[i] * ds.label(i);
  }
  EXPECT_NEAR(sum, 0.0, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Cs, CSweepTest,
                         ::testing::Values(0.1, 1.0, 10.0, 100.0),
                         [](const ::testing::TestParamInfo<double>& info) {
                           // (std::string built stepwise: GCC 12's
                           // -Wrestrict false-positives on the inline
                           // concatenation.)
                           std::string name = "C";
                           name += std::to_string(
                               static_cast<int>(info.param * 10));
                           return name;
                         });

TEST(CacheBudgetTest, TinyCacheSameSolution) {
  // Forcing constant cache eviction must not change the optimum, only the
  // number of kernel rows computed.
  const auto nd = data::standin("toy", 0.25);
  SolverOptions big, small;
  big.kernel = small.kernel =
      kernel::KernelParams::gaussian(nd.suggestedGamma);
  big.cacheBytes = 64u << 20;
  small.cacheBytes = 1;  // one row slot
  const SolverResult a = SmoSolver(big).solve(nd.train);
  const SolverResult b = SmoSolver(small).solve(nd.train);
  EXPECT_EQ(a.iterations, b.iterations);
  EXPECT_NEAR(a.objective, b.objective, 1e-9);
  EXPECT_GT(b.kernelRowsComputed, a.kernelRowsComputed);
  EXPECT_EQ(a.alpha, b.alpha);
  EXPECT_EQ(a.model.pack(), b.model.pack());

  // The cache decides only when a row is computed, never its value: two
  // slots and a quarter of the matrix give the whole matrix's iterates bit
  // for bit, under both selections, with shrinking (and its partial
  // fills) off and on.
  const std::size_t m = nd.train.rows();
  const std::size_t matrixBytes = m * m * sizeof(float);
  for (const Selection selection :
       {Selection::FirstOrder, Selection::SecondOrder}) {
    for (const bool shrinking : {false, true}) {
      SolverOptions opts = big;
      opts.selection = selection;
      opts.shrinking = shrinking;
      opts.shrinkInterval = 16;
      opts.cacheBytes = matrixBytes;
      const SolverResult whole = SmoSolver(opts).solve(nd.train);
      for (const std::size_t budget : {std::size_t{1}, matrixBytes / 4}) {
        opts.cacheBytes = budget;
        const SolverResult r = SmoSolver(opts).solve(nd.train);
        const std::string at =
            "selection " + std::to_string(int(selection)) + " shrinking " +
            std::to_string(shrinking) + " budget " + std::to_string(budget);
        EXPECT_EQ(r.iterations, whole.iterations) << at;
        EXPECT_EQ(r.objective, whole.objective) << at;
        EXPECT_EQ(r.alpha, whole.alpha) << at;
        EXPECT_EQ(r.model.pack(), whole.model.pack()) << at;
        EXPECT_GE(r.kernelRowsComputed, whole.kernelRowsComputed) << at;
      }
    }
  }
}

}  // namespace
}  // namespace casvm::solver
