// Global-method correctness (Dis-SMO, Dis-SMO + shrinking, PBM):
//
//  * Single-rank parity: P=1 Dis-SMO is the serial solver's loop run
//    through the election machinery, so on dense and sparse data, plain,
//    class-weighted and shrinking, exact and Nyström, it must write the
//    serial solve's model byte for byte in the same iteration count.
//    (Regression: the distributed path used to apply plain C to both
//    classes, stepped on unrounded Nyström z-dots, and did not count its
//    unshrink passes.)
//  * Finite-bias fallback: a degenerate per-class box (negativeWeight so
//    small no negative can become a support vector) must still produce a
//    finite bias, exactly like the serial solver's KKT-bound fallback.
//  * Objective convergence: the two communication-avoiding middle-ground
//    methods solve the SAME optimization problem as Dis-SMO, so their
//    dual objective must match the exact serial solver within the KKT
//    tolerance (1e-3 relative) — communication is what they save, not
//    solution quality.
//  * Shrink engagement: with a cadence small enough to fire mid-run,
//    DisSmoShrink must report when shrinking engaged and must absorb
//    elected-row broadcasts through the replicated row store; plain
//    Dis-SMO must broadcast every elected row.

#include "casvm/core/train.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <optional>
#include <ostream>
#include <string>
#include <utility>

#include "casvm/data/registry.hpp"
#include "casvm/data/synth.hpp"
#include "casvm/lowrank/landmarks.hpp"
#include "casvm/lowrank/lowrank_kernel.hpp"
#include "casvm/solver/smo.hpp"

namespace casvm::core {
namespace {

solver::SolverOptions weightedOptions() {
  solver::SolverOptions opts;
  opts.kernel = kernel::KernelParams::gaussian(0.5);
  opts.C = 1.0;
  opts.positiveWeight = 3.0;
  opts.negativeWeight = 0.5;
  return opts;
}

/// Dual objective sum(alpha) - 1/2 sum_ij a_i a_j y_i y_j K(i,j) recomputed
/// from a finished model's SV expansion (alphaY carries alpha_i y_i).
double dualObjective(const solver::Model& model) {
  const data::Dataset& svs = model.supportVectors();
  const std::vector<double>& ay = model.alphaY();
  const kernel::Kernel kern(model.kernelParams());
  double linear = 0.0;
  double quad = 0.0;
  for (std::size_t i = 0; i < ay.size(); ++i) {
    linear += std::abs(ay[i]);
    quad += ay[i] * ay[i] * kern.eval(svs, i, i);
    for (std::size_t j = i + 1; j < ay.size(); ++j) {
      quad += 2.0 * ay[i] * ay[j] * kern.eval(svs, i, j);
    }
  }
  return linear - 0.5 * quad;
}

struct ParityCase {
  const char* data;  ///< stand-in name: dense epsilon or sparse webspam
  std::size_t rows;
  const char* problem;  ///< "plain", "weighted" (3.0/0.5) or "shrink"
  bool nystrom;
};

/// gtest puts the printed parameter into each case's ctest name; its
/// default byte dump would carry the two string pointers, which move with
/// address-space randomization.
void PrintTo(const ParityCase& c, std::ostream* os) {
  *os << c.data << "-" << c.rows << "-" << c.problem
      << (c.nystrom ? "-nystrom" : "-exact");
}

class SingleRankParityTest : public ::testing::TestWithParam<ParityCase> {};

TEST_P(SingleRankParityTest, DisSmoWritesTheSerialModel) {
  const ParityCase& c = GetParam();
  const data::NamedDataset nd = data::standinSized(c.data, c.rows);
  const std::string problem = c.problem;
  TrainConfig cfg;
  cfg.method = problem == "shrink" ? Method::DisSmoShrink : Method::DisSmo;
  cfg.processes = 1;
  cfg.solver.kernel = kernel::KernelParams::gaussian(nd.suggestedGamma);
  cfg.solver.C = nd.suggestedC;
  if (problem == "weighted") {
    cfg.solver.positiveWeight = 3.0;
    cfg.solver.negativeWeight = 0.5;
  }
  if (problem == "shrink") cfg.solver.shrinkInterval = 64;
  cfg.nystromLandmarks = 32;
  if (c.nystrom) cfg.solverBackend = SolverBackend::Nystrom;

  // The serial solve over the same problem; under Nyström, over the factor
  // of the landmark set a single rank selects.
  solver::SolverOptions opts = cfg.solver;
  opts.shrinking = problem == "shrink";
  std::optional<lowrank::LowRankKernel> lowrankSource;
  if (c.nystrom) {
    const kernel::Kernel kern(opts.kernel);
    const std::vector<std::size_t> idx = lowrank::selectLandmarks(
        nd.train, cfg.nystromLandmarks, lowrank::LandmarkStrategy::KmeansPP,
        cfg.seed ^ 0x9E3779B97F4A7C15ull);
    lowrankSource.emplace(lowrank::NystromFactor::buildWithLandmarks(
        kern, nd.train, lowrank::extractLandmarks(nd.train, idx),
        cfg.nystromEigenFloor));
    opts.rowSource = &*lowrankSource;
  }
  const solver::SolverResult serial = solver::SmoSolver(opts).solve(nd.train);
  ASSERT_TRUE(serial.converged);

  const TrainResult dist = train(nd.train, cfg);
  EXPECT_EQ(dist.model.model(0).pack(), serial.model.pack());
  EXPECT_EQ(dist.totalIterations, static_cast<long long>(serial.iterations));
  if (problem == "shrink") {
    EXPECT_GE(dist.shrinkEngagedIteration, 0);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Cases, SingleRankParityTest,
    ::testing::Values(ParityCase{"epsilon", 600, "plain", false},
                      ParityCase{"epsilon", 600, "weighted", false},
                      ParityCase{"epsilon", 600, "shrink", false},
                      ParityCase{"epsilon", 600, "plain", true},
                      ParityCase{"epsilon", 600, "weighted", true},
                      ParityCase{"epsilon", 600, "shrink", true},
                      ParityCase{"webspam", 600, "plain", false},
                      ParityCase{"webspam", 600, "weighted", false},
                      ParityCase{"webspam", 600, "shrink", false},
                      ParityCase{"webspam", 600, "plain", true},
                      ParityCase{"webspam", 600, "weighted", true},
                      ParityCase{"webspam", 600, "shrink", true}),
    [](const ::testing::TestParamInfo<ParityCase>& info) {
      return std::string(info.param.data) + "_" + info.param.problem +
             (info.param.nystrom ? "_nystrom" : "_exact");
    });

TEST(ClassWeightParityTest, MultiRankDisSmoHonorsPerClassBoxes) {
  const auto ds = data::generateTwoGaussians(240, 4, 1.5, 37);
  const solver::SolverOptions opts = weightedOptions();
  TrainConfig cfg;
  cfg.method = Method::DisSmo;
  cfg.processes = 4;
  cfg.solver = opts;
  const TrainResult dist = train(ds, cfg);

  // Every alpha must respect its class's box, not the unweighted C: a
  // positive SV may exceed C (cap 3C) and a negative must stay under C/2.
  const solver::Model& dm = dist.model.model(0);
  const std::vector<double>& ay = dm.alphaY();
  bool positiveAboveC = false;
  for (double v : ay) {
    const double a = std::abs(v);
    if (v > 0.0) {
      EXPECT_LE(a, opts.C * opts.positiveWeight + 1e-9);
      positiveAboveC = positiveAboveC || a > opts.C + 1e-6;
    } else {
      EXPECT_LE(a, opts.C * opts.negativeWeight + 1e-9);
    }
  }
  // The overlap is heavy enough that the enlarged positive box is used;
  // under the old plain-C clamp this never happens.
  EXPECT_TRUE(positiveAboveC);

  // And the solution still matches the serial weighted objective.
  const solver::SolverResult serial = solver::SmoSolver(opts).solve(ds);
  EXPECT_NEAR(dualObjective(dm), serial.objective,
              1e-3 * std::max(1.0, std::abs(serial.objective)));
}

TEST(ClassWeightParityTest, DegenerateNegativeBoxKeepsBiasFinite) {
  // negativeWeight ~ 0 starves the negative class of box room entirely;
  // the working-set scan can then find no low candidate and the naive
  // threshold midpoint is NaN/inf. The distributed solve must take the
  // same finite fallback as the serial one.
  const auto ds = data::generateTwoGaussians(120, 3, 4.0, 41);
  solver::SolverOptions opts;
  opts.kernel = kernel::KernelParams::gaussian(0.5);
  opts.C = 1.0;
  opts.negativeWeight = 1e-12;
  for (int P : {1, 4}) {
    TrainConfig cfg;
    cfg.method = Method::DisSmo;
    cfg.processes = P;
    cfg.solver = opts;
    const TrainResult res = train(ds, cfg);
    const solver::Model& m = res.model.model(0);
    EXPECT_TRUE(std::isfinite(m.bias())) << "P=" << P;
    const std::vector<float> probe(ds.cols(), 0.0f);
    EXPECT_TRUE(std::isfinite(m.decision(probe))) << "P=" << P;
  }
}

class GlobalObjectiveTest : public ::testing::TestWithParam<Method> {};

// Dense and CSR inputs: on the dense toy set the global methods' kernel
// columns take the tiled full-fill branch, on the CSR webspam stand-in the
// per-row branch (shrunk active sets included).
TEST_P(GlobalObjectiveTest, ReachesExactSerialObjective) {
  for (const auto& [name, scale] :
       {std::pair{"toy", 0.5}, std::pair{"webspam", 0.25}}) {
    const auto nd = data::standin(name, scale);
    solver::SolverOptions opts;
    opts.kernel = kernel::KernelParams::gaussian(nd.suggestedGamma);
    opts.C = nd.suggestedC;
    const solver::SolverResult serial =
        solver::SmoSolver(opts).solve(nd.train);
    ASSERT_TRUE(serial.converged) << name;

    TrainConfig cfg;
    cfg.method = GetParam();
    cfg.processes = 4;
    cfg.solver = opts;
    if (GetParam() == Method::DisSmoShrink) cfg.solver.shrinkInterval = 64;
    const TrainResult res = train(nd.train, cfg);
    if (GetParam() == Method::DisSmoShrink) {
      EXPECT_GE(res.shrinkEngagedIteration, 0) << name;
    }

    EXPECT_NEAR(dualObjective(res.model.model(0)), serial.objective,
                1e-3 * std::abs(serial.objective))
        << methodName(GetParam()) << " on " << name;
  }
}

INSTANTIATE_TEST_SUITE_P(Methods, GlobalObjectiveTest,
                         ::testing::Values(Method::DisSmo,
                                           Method::DisSmoShrink, Method::Pbm),
                         [](const ::testing::TestParamInfo<Method>& info) {
                           std::string n = methodName(info.param);
                           for (char& c : n) {
                             if (c == '-') c = '_';
                           }
                           return n;
                         });

TEST(DisSmoShrinkTest, EngagesAndAbsorbsRowBroadcasts) {
  const auto nd = data::standin("toy", 0.5);
  TrainConfig cfg;
  cfg.method = Method::DisSmoShrink;
  cfg.processes = 4;
  cfg.solver.kernel = kernel::KernelParams::gaussian(nd.suggestedGamma);
  cfg.solver.C = nd.suggestedC;
  cfg.solver.shrinkInterval = 64;
  const TrainResult res = train(nd.train, cfg);

  EXPECT_GE(res.shrinkEngagedIteration, 0)
      << "shrinking never engaged despite the tight cadence";
  EXPECT_GT(res.electedRowBcastsSkipped, 0)
      << "the row store absorbed no elected-row broadcasts";

  // The savings are real traffic, not just a counter: the same run
  // without shrinking moves strictly more bytes.
  TrainConfig plain = cfg;
  plain.method = Method::DisSmo;
  const TrainResult base = train(nd.train, plain);
  EXPECT_LT(res.totalTrafficBytes(), base.totalTrafficBytes());
}

TEST(DisSmoShrinkTest, PlainDisSmoReportsInertShrinkFields) {
  const auto ds = data::generateTwoGaussians(120, 3, 4.0, 43);
  TrainConfig cfg;
  cfg.method = Method::DisSmo;
  cfg.processes = 2;
  cfg.solver.kernel = kernel::KernelParams::gaussian(0.5);
  const TrainResult res = train(ds, cfg);
  EXPECT_EQ(res.shrinkEngagedIteration, -1);
  EXPECT_EQ(res.pairIterations, 0);
  // Plain Dis-SMO is the paper's baseline: every elected row is broadcast.
  EXPECT_EQ(res.electedRowBcastsSkipped, 0);
}

TEST(PbmTest, ReportsRoundStructure) {
  const auto nd = data::standin("toy", 0.5);
  TrainConfig cfg;
  cfg.method = Method::Pbm;
  cfg.processes = 4;
  cfg.solver.kernel = kernel::KernelParams::gaussian(nd.suggestedGamma);
  cfg.solver.C = nd.suggestedC;
  const TrainResult res = train(nd.train, cfg);

  // totalIterations = block-solve iterations + global pair corrections;
  // both parts must be present and separable for the comm model.
  EXPECT_GT(res.pairIterations, 0);
  EXPECT_GT(res.totalIterations, res.pairIterations);
  EXPECT_GT(res.model.totalSupportVectors(), 0u);
}

}  // namespace
}  // namespace casvm::core
