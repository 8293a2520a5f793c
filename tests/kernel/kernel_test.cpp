#include "casvm/kernel/kernel.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cfloat>
#include <cmath>
#include <cstdint>
#include <iterator>
#include <numeric>
#include <random>

#include "casvm/data/synth.hpp"
#include "casvm/kernel/row_source.hpp"
#include "casvm/kernel/tile_kernel.hpp"
#include "casvm/support/error.hpp"
#include "kernel/kernel_params_printer.hpp"

namespace casvm::kernel {
namespace {

data::Dataset pair() {
  // x0 = (1, 2), x1 = (3, -1).
  return data::Dataset::fromDense(2, {1.0f, 2.0f, 3.0f, -1.0f}, {1, -1});
}

TEST(KernelValueTest, Linear) {
  const Kernel k(KernelParams::linear());
  EXPECT_DOUBLE_EQ(k.eval(pair(), 0, 1), 1.0);  // 1*3 + 2*(-1)
  EXPECT_DOUBLE_EQ(k.eval(pair(), 0, 0), 5.0);
}

TEST(KernelValueTest, Polynomial) {
  const Kernel k(KernelParams::polynomial(2.0, 1.0, 3));
  // (2*1 + 1)^3 = 27
  EXPECT_DOUBLE_EQ(k.eval(pair(), 0, 1), 27.0);
}

TEST(KernelValueTest, Gaussian) {
  const Kernel k(KernelParams::gaussian(0.25));
  // ||x0 - x1||^2 = 4 + 9 = 13
  EXPECT_NEAR(k.eval(pair(), 0, 1), std::exp(-0.25 * 13.0), 1e-12);
}

TEST(KernelValueTest, Sigmoid) {
  const Kernel k(KernelParams::sigmoid(0.5, -1.0));
  EXPECT_NEAR(k.eval(pair(), 0, 1), std::tanh(0.5 * 1.0 - 1.0), 1e-12);
}

TEST(KernelValueTest, GaussianDiagonalIsOne) {
  const Kernel k(KernelParams::gaussian(2.0));
  const auto ds = pair();
  EXPECT_DOUBLE_EQ(k.eval(ds, 0, 0), 1.0);
  EXPECT_DOUBLE_EQ(k.eval(ds, 1, 1), 1.0);
}

TEST(KernelValueTest, NamesStable) {
  EXPECT_EQ(kernelName(KernelType::Linear), "linear");
  EXPECT_EQ(kernelName(KernelType::Polynomial), "polynomial");
  EXPECT_EQ(kernelName(KernelType::Gaussian), "gaussian");
  EXPECT_EQ(kernelName(KernelType::Sigmoid), "sigmoid");
}

/// Property sweep: symmetry, bounds and cross-consistency on random data,
/// parameterized over kernel families.
class KernelPropertyTest : public ::testing::TestWithParam<KernelParams> {
 protected:
  data::Dataset ds_ = [] {
    data::MixtureSpec spec;
    spec.samples = 60;
    spec.features = 7;
    spec.clusters = 3;
    spec.seed = 11;
    return data::generateMixture(spec);
  }();
};

TEST_P(KernelPropertyTest, Symmetric) {
  const Kernel k(GetParam());
  for (std::size_t i = 0; i < ds_.rows(); i += 5) {
    for (std::size_t j = 0; j < ds_.rows(); j += 7) {
      EXPECT_NEAR(k.eval(ds_, i, j), k.eval(ds_, j, i), 1e-12);
    }
  }
}

TEST_P(KernelPropertyTest, RowMatchesPointwise) {
  const Kernel k(GetParam());
  std::vector<double> row(ds_.rows());
  RowWorkspace ws;
  k.row(ds_, 4, row, ws);
  for (std::size_t j = 0; j < ds_.rows(); ++j) {
    EXPECT_EQ(row[j], k.eval(ds_, 4, j));
  }
}

TEST_P(KernelPropertyTest, EvalWithMatchesEval) {
  const Kernel k(GetParam());
  std::vector<float> x(ds_.cols());
  ds_.copyRowDense(9, x);
  for (std::size_t i = 0; i < ds_.rows(); i += 3) {
    EXPECT_NEAR(k.evalWith(ds_, i, x, ds_.selfDot(9)), k.eval(ds_, i, 9),
                1e-9);
  }
}

TEST_P(KernelPropertyTest, EvalVectorsMatchesEval) {
  const Kernel k(GetParam());
  std::vector<float> x(ds_.cols()), z(ds_.cols());
  ds_.copyRowDense(2, x);
  ds_.copyRowDense(5, z);
  EXPECT_NEAR(k.evalVectors(x, ds_.selfDot(2), z, ds_.selfDot(5)),
              k.eval(ds_, 2, 5), 1e-9);
}

TEST_P(KernelPropertyTest, CrossEvalMatchesWithinDataset) {
  const Kernel k(GetParam());
  for (std::size_t i = 0; i < 10; ++i) {
    EXPECT_NEAR(k.evalCross(ds_, i, ds_, i + 10), k.eval(ds_, i, i + 10),
                1e-12);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Families, KernelPropertyTest,
    ::testing::Values(KernelParams::linear(), KernelParams::gaussian(0.3),
                      KernelParams::polynomial(0.5, 1.0, 2),
                      KernelParams::sigmoid(0.1, 0.0)),
    [](const ::testing::TestParamInfo<KernelParams>& info) {
      return kernelName(info.param.type);
    });

/// 45 dense rows: two full 16-row tile blocks plus a ragged 13-row tail.
data::Dataset raggedDense() {
  data::MixtureSpec spec;
  spec.samples = 45;
  spec.features = 9;
  spec.clusters = 3;
  spec.seed = 17;
  return data::generateMixture(spec);
}

/// Hand-built CSR with empty rows (0, 3 and the last).
data::Dataset sparseWithEmptyRows() {
  const std::size_t cols = 6;
  std::vector<std::size_t> rowPtr = {0, 0, 2, 5, 5, 7, 9, 9};
  std::vector<std::uint32_t> colIdx = {1, 4, 0, 2, 5, 1, 3, 0, 5};
  std::vector<float> values = {0.5f, -1.25f, 2.0f, 0.75f, -0.5f,
                               1.5f, -2.0f,  0.25f, 1.0f};
  std::vector<std::int8_t> labels = {1, -1, 1, -1, 1, -1, 1};
  return data::Dataset::fromSparse(cols, std::move(rowPtr), std::move(colIdx),
                                   std::move(values), std::move(labels));
}

/// The blocked row fills promise *bitwise* identity with per-element eval
/// (the SMO overhaul relies on it to keep iteration counts unchanged), so
/// these properties compare with EXPECT_EQ, not a tolerance.
class KernelRowPropertyTest : public ::testing::TestWithParam<KernelParams> {
 protected:
  data::Dataset dense_ = raggedDense();
  data::Dataset sparse_ = sparseWithEmptyRows();
};

TEST_P(KernelRowPropertyTest, DenseRowBitwiseMatchesEval) {
  const Kernel k(GetParam());
  std::vector<double> row(dense_.rows());
  RowWorkspace ws;
  for (std::size_t i : {std::size_t{0}, std::size_t{16}, std::size_t{44}}) {
    k.row(dense_, i, row, ws);  // tiled micro-kernel path
    for (std::size_t j = 0; j < dense_.rows(); ++j) {
      EXPECT_EQ(row[j], k.eval(dense_, i, j)) << "i=" << i << " j=" << j;
    }
  }
}

TEST_P(KernelRowPropertyTest, SparseRowBitwiseMatchesEval) {
  const Kernel k(GetParam());
  std::vector<double> row(sparse_.rows());
  RowWorkspace ws;
  for (std::size_t i = 0; i < sparse_.rows(); ++i) {  // includes empty rows
    k.row(sparse_, i, row, ws);
    for (std::size_t j = 0; j < sparse_.rows(); ++j) {
      EXPECT_EQ(row[j], k.eval(sparse_, i, j)) << "i=" << i << " j=" << j;
    }
  }
}

TEST_P(KernelRowPropertyTest, SubsetRowFillsOnlySubset) {
  const Kernel k(GetParam());
  const std::vector<std::size_t> subset = {1, 4, 17, 31, 40};
  for (const data::Dataset* ds : {&dense_, &sparse_}) {
    std::vector<std::size_t> sub;
    for (std::size_t j : subset) {
      if (j < ds->rows()) sub.push_back(j);
    }
    std::vector<double> row(ds->rows(), -7.5);
    RowWorkspace ws;
    k.row(*ds, 2, sub, row, ws);
    std::size_t p = 0;
    for (std::size_t j = 0; j < ds->rows(); ++j) {
      if (p < sub.size() && sub[p] == j) {
        EXPECT_EQ(row[j], k.eval(*ds, 2, j)) << "j=" << j;
        ++p;
      } else {
        EXPECT_EQ(row[j], -7.5) << "entry outside subset touched, j=" << j;
      }
    }
  }
}

TEST_P(KernelRowPropertyTest, DiagonalBitwiseMatchesEval) {
  const Kernel k(GetParam());
  for (const data::Dataset* ds : {&dense_, &sparse_}) {
    std::vector<double> diag(ds->rows());
    k.diagonal(*ds, diag);
    for (std::size_t j = 0; j < ds->rows(); ++j) {
      EXPECT_EQ(diag[j], k.eval(*ds, j, j)) << "j=" << j;
    }
  }
}

/// Kernel columns against external vectors (the global methods' gradient
/// updates): the tiled rowWith and both branches of fillColumn — tiled full
/// fill and per-row partial fill — must reproduce per-row evalWith bit for
/// bit, for x taken from every row (empty CSR rows included) and for one
/// vector outside the set.
TEST_P(KernelRowPropertyTest, ColumnFillsBitwiseMatchEvalWith) {
  const Kernel k(GetParam());
  for (const data::Dataset* ds : {&dense_, &sparse_}) {
    const std::size_t m = ds->rows();
    const std::size_t n = ds->cols();
    std::vector<std::vector<float>> xs(m + 1, std::vector<float>(n));
    for (std::size_t i = 0; i < m; ++i) ds->copyRowDense(i, xs[i]);
    for (std::size_t c = 0; c < n; ++c) {
      xs[m][c] = 0.375f * static_cast<float>(c) - 1.125f;
    }

    std::vector<std::size_t> all(m);
    std::iota(all.begin(), all.end(), 0);
    const std::vector<std::size_t> few = {1, 4, 5};
    ExactRowSource source(k, *ds);
    const bool dense = ds->storage() == data::Storage::Dense;
    ASSERT_EQ(source.preferFullFill(all.size()), dense);
    ASSERT_FALSE(source.preferFullFill(few.size()));

    RowWorkspace ws;
    for (std::size_t t = 0; t < xs.size(); ++t) {
      const std::vector<float>& x = xs[t];
      double xDot = 0.0;
      for (float v : x) xDot += double(v) * double(v);
      std::vector<double> expected(m);
      for (std::size_t j = 0; j < m; ++j) {
        expected[j] = k.evalWith(*ds, j, x, xDot);
      }

      std::vector<double> tiled(m);
      k.rowWith(*ds, x, xDot, tiled, ws);
      std::vector<double> full(m, -7.5);
      source.fillColumn(x, xDot, all, full);
      std::vector<double> partial(m, -7.5);
      source.fillColumn(x, xDot, few, partial);
      for (std::size_t j = 0; j < m; ++j) {
        EXPECT_EQ(tiled[j], expected[j]) << "rowWith x=" << t << " j=" << j;
        EXPECT_EQ(full[j], expected[j]) << "full x=" << t << " j=" << j;
        const bool inFew = std::find(few.begin(), few.end(), j) != few.end();
        EXPECT_EQ(partial[j], inFew ? expected[j] : -7.5)
            << "partial x=" << t << " j=" << j;
      }
    }
  }
}

/// A multi-row fill may only decide how its rows are computed: each row
/// is bitwise its single fill, for one to four rows across tile blocks,
/// inside one block, in the ragged tail, reversed and repeated.
TEST_P(KernelRowPropertyTest, PairRowFillsBitwiseMatchSingleFills) {
  const Kernel k(GetParam());
  const std::vector<std::vector<std::size_t>> sets = {
      {0, 44}, {16, 3}, {31, 32}, {40, 41}, {5, 5},
      {7}, {44, 0, 17}, {1, 16, 32, 44}, {9, 9, 2, 9}};
  for (const data::Dataset* ds : {&dense_, &sparse_}) {
    const std::size_t m = ds->rows();
    ExactRowSource source(k, *ds);
    for (std::vector<std::size_t> rows : sets) {
      for (std::size_t& r : rows) r %= m;
      std::vector<std::vector<double>> many(rows.size(),
                                            std::vector<double>(m, -7.5));
      std::vector<std::span<double>> outs(many.begin(), many.end());
      source.fillRows(rows, outs);
      std::vector<double> one(m);
      for (std::size_t t = 0; t < rows.size(); ++t) {
        source.fillRow(rows[t], one);
        for (std::size_t c = 0; c < m; ++c) {
          EXPECT_EQ(many[t][c], one[c])
              << "q=" << rows.size() << " row " << rows[t] << " c=" << c;
          EXPECT_EQ(many[t][c], k.eval(*ds, rows[t], c))
              << "row " << rows[t] << " c=" << c;
        }
      }
    }
  }
}

/// The pair step's two columns: fillColumns is bitwise two fillColumn
/// calls under both branches (tiled full fill and per-row partial fill).
TEST_P(KernelRowPropertyTest, PairColumnFillsBitwiseMatchSingleFills) {
  const Kernel k(GetParam());
  for (const data::Dataset* ds : {&dense_, &sparse_}) {
    const std::size_t m = ds->rows();
    const std::size_t n = ds->cols();
    std::vector<float> x0(n), x1(n);
    ds->copyRowDense(2, x0);
    for (std::size_t c = 0; c < n; ++c) {
      x1[c] = 0.375f * static_cast<float>(c) - 1.125f;
    }
    const double x0Dot = ds->selfDot(2);
    double x1Dot = 0.0;
    for (float v : x1) x1Dot += double(v) * double(v);

    std::vector<std::size_t> all(m);
    std::iota(all.begin(), all.end(), 0);
    const std::vector<std::size_t> few = {1, 4, 5};
    ExactRowSource source(k, *ds);
    const std::vector<std::size_t>* rowSets[] = {&all, &few};
    for (const auto* rows : rowSets) {
      std::vector<double> one0(m, -7.5), one1(m, -7.5);
      source.fillColumn(x0, x0Dot, *rows, one0);
      source.fillColumn(x1, x1Dot, *rows, one1);
      std::vector<double> two0(m, -7.5), two1(m, -7.5);
      source.fillColumns(x0, x0Dot, x1, x1Dot, *rows, two0, two1);
      for (std::size_t j = 0; j < m; ++j) {
        EXPECT_EQ(two0[j], one0[j]) << "rows=" << rows->size() << " j=" << j;
        EXPECT_EQ(two1[j], one1[j]) << "rows=" << rows->size() << " j=" << j;
      }
    }
  }
}

TEST_P(KernelRowPropertyTest, WorkspaceRebindsAcrossDatasets) {
  const Kernel k(GetParam());
  RowWorkspace ws;
  std::vector<double> row(dense_.rows());
  k.row(dense_, 3, row, ws);
  data::MixtureSpec spec;
  spec.samples = 21;
  spec.features = 4;
  spec.seed = 5;
  const data::Dataset other = data::generateMixture(spec);
  std::vector<double> otherRow(other.rows());
  k.row(other, 2, otherRow, ws);  // must rebuild the blocked copy
  for (std::size_t j = 0; j < other.rows(); ++j) {
    EXPECT_EQ(otherRow[j], k.eval(other, 2, j)) << "j=" << j;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Families, KernelRowPropertyTest,
    ::testing::Values(KernelParams::linear(), KernelParams::gaussian(0.3),
                      KernelParams::polynomial(0.5, 1.0, 2),
                      KernelParams::sigmoid(0.1, 0.0)),
    [](const ::testing::TestParamInfo<KernelParams>& info) {
      return kernelName(info.param.type);
    });

/// Gaussian subset fills gather their exponents in blocks for the vector
/// exp pass; a subset spanning several blocks, with a ragged last one,
/// still reproduces eval bit for bit and leaves other entries alone.
TEST(KernelSubsetTest, GaussianSubsetAcrossExpBlocksMatchesEval) {
  data::MixtureSpec spec;
  spec.samples = 300;
  spec.features = 5;
  spec.clusters = 2;
  spec.seed = 3;
  const data::Dataset ds = data::generateMixture(spec);
  const Kernel k(KernelParams::gaussian(0.4));
  std::vector<std::size_t> subset;
  for (std::size_t j = 1; j < ds.rows(); j += 2) subset.push_back(j);
  std::vector<double> row(ds.rows(), -7.5);
  RowWorkspace ws;
  k.row(ds, 5, subset, row, ws);
  for (std::size_t j = 0; j < ds.rows(); ++j) {
    if (j % 2 == 1) {
      EXPECT_EQ(row[j], k.eval(ds, 5, j)) << "j=" << j;
    } else {
      EXPECT_EQ(row[j], -7.5) << "entry outside subset touched, j=" << j;
    }
  }
}

/// A tile pass must reproduce the portable pass bit for bit, for one to
/// four queries, and the portable pass must give each query what a
/// one-query pass gives. The row counts cover one block, a ragged block,
/// an odd block count, and ragged last blocks after one and two full ones.
/// Zeros, subnormals and +-FLT_MAX sit in both the tiles and the queries:
/// the AVX-512 lanes fuse each multiply-add, which is exact only because a
/// product of two floats is, and these are the extremes of that claim.
/// Outputs past m must stay untouched.
void expectPassMatchesPortable(tile::DotFn fn) {
  const std::size_t n = 7;
  std::mt19937 rng(11);
  std::uniform_real_distribution<float> u(-2.0f, 2.0f);
  const float specials[] = {0.0f,     -0.0f,    FLT_MAX,       -FLT_MAX,
                            FLT_TRUE_MIN, -FLT_TRUE_MIN, FLT_MIN / 3.0f,
                            1.0e-40f};
  const auto draw = [&] {
    return rng() % 4 == 0 ? specials[rng() % std::size(specials)] : u(rng);
  };
  std::vector<double> xs(tile::kMaxQueries * n);
  for (double& v : xs) v = draw();
  constexpr double kSentinel = -7.5;
  for (std::size_t m : {1, 15, 16, 17, 31, 32, 33, 45}) {
    std::vector<float> tiles(tile::blockCount(m) * n * tile::kRows);
    for (float& v : tiles) v = draw();
    std::vector<std::vector<double>> one(tile::kMaxQueries,
                                         std::vector<double>(m));
    for (std::size_t t = 0; t < tile::kMaxQueries; ++t) {
      double* const o[] = {one[t].data()};
      tile::dotPortable(tiles.data(), xs.data() + t * n, 1, m, n, o);
    }
    for (std::size_t q = 1; q <= tile::kMaxQueries; ++q) {
      std::vector<std::vector<double>> port(q, std::vector<double>(m));
      std::vector<std::vector<double>> got(
          q, std::vector<double>(m + tile::kRows, kSentinel));
      double* portOut[tile::kMaxQueries];
      double* gotOut[tile::kMaxQueries];
      for (std::size_t t = 0; t < q; ++t) {
        portOut[t] = port[t].data();
        gotOut[t] = got[t].data();
      }
      tile::dotPortable(tiles.data(), xs.data(), q, m, n, portOut);
      fn(tiles.data(), xs.data(), q, m, n, gotOut);
      for (std::size_t t = 0; t < q; ++t) {
        for (std::size_t j = 0; j < m; ++j) {
          EXPECT_EQ(std::bit_cast<std::uint64_t>(port[t][j]),
                    std::bit_cast<std::uint64_t>(one[t][j]))
              << "portable q=" << q << " m=" << m << " t=" << t << " j=" << j;
          EXPECT_EQ(std::bit_cast<std::uint64_t>(got[t][j]),
                    std::bit_cast<std::uint64_t>(one[t][j]))
              << "q=" << q << " m=" << m << " t=" << t << " j=" << j;
        }
        for (std::size_t j = m; j < got[t].size(); ++j) {
          EXPECT_EQ(got[t][j], kSentinel) << "q=" << q << " m=" << m
                                          << " wrote past m at j=" << j;
        }
      }
    }
  }
}

TEST(TileKernelTest, DispatchedPassesMatchPortable) {
  expectPassMatchesPortable(tile::dotFn());
}

TEST(TileKernelTest, Avx512PassesMatchPortable) {
  const tile::DotFn fn = tile::dotFnFor(tile::Isa::Avx512);
  if (fn == nullptr) GTEST_SKIP() << "this CPU or build has no AVX-512F pass";
  expectPassMatchesPortable(fn);
}

TEST(TileKernelTest, Avx2PassesMatchPortable) {
  const tile::DotFn fn = tile::dotFnFor(tile::Isa::Avx2);
  if (fn == nullptr) GTEST_SKIP() << "this CPU or build has no AVX2 pass";
  expectPassMatchesPortable(fn);
}

/// The k-means, k-means++ and landmark scans take their distances from the
/// tiled helper, so landmarks and partitions stay put only if it matches
/// Dataset::squaredDistanceTo bit for bit, and Dataset::squaredDistance
/// when x is a densified row — for x from every row (empty CSR rows
/// included) and for one vector outside the set.
TEST(SquaredDistancesTest, BitwiseMatchDatasetDistances) {
  for (const data::Dataset& ds : {raggedDense(), sparseWithEmptyRows()}) {
    const std::size_t m = ds.rows();
    const std::size_t n = ds.cols();
    RowWorkspace ws;
    std::vector<float> x(n);
    std::vector<double> out(m);
    for (std::size_t i = 0; i <= m; ++i) {
      double xDot = 0.0;
      if (i < m) {
        ds.copyRowDense(i, x);
        xDot = ds.selfDot(i);
      } else {
        for (std::size_t c = 0; c < n; ++c) {
          x[c] = 0.375f * static_cast<float>(c) - 1.125f;
          xDot += double(x[c]) * double(x[c]);
        }
      }
      squaredDistances(ds, x, xDot, out, ws);
      for (std::size_t j = 0; j < m; ++j) {
        EXPECT_EQ(out[j], ds.squaredDistanceTo(j, x, xDot))
            << "x=" << i << " j=" << j;
        if (i < m) {
          EXPECT_EQ(out[j], ds.squaredDistance(j, i))
              << "x=" << i << " j=" << j;
        }
      }
    }
  }
}

TEST(KernelGaussianTest, BoundedInUnitInterval) {
  data::MixtureSpec spec;
  spec.samples = 80;
  spec.seed = 3;
  const auto ds = data::generateMixture(spec);
  const Kernel k(KernelParams::gaussian(0.7));
  for (std::size_t i = 0; i < ds.rows(); i += 4) {
    for (std::size_t j = 0; j < ds.rows(); j += 5) {
      const double v = k.eval(ds, i, j);
      // Far pairs may underflow to exactly 0; that is within bounds.
      EXPECT_GE(v, 0.0);
      EXPECT_LE(v, 1.0);
    }
  }
}

TEST(KernelGaussianTest, DecaysWithDistance) {
  // The locality property CP-SVM relies on (paper §IV-A): far pairs have
  // near-zero kernel values.
  const auto ds = data::Dataset::fromDense(
      1, {0.0f, 0.1f, 100.0f}, {1, -1, 1});
  const Kernel k(KernelParams::gaussian(1.0));
  EXPECT_GT(k.eval(ds, 0, 1), 0.9);
  EXPECT_LT(k.eval(ds, 0, 2), 1e-100);
}

TEST(KernelSparseTest, SparseCrossDenseAgree) {
  data::MixtureSpec spec;
  spec.samples = 40;
  spec.features = 20;
  spec.sparsity = 0.6;
  spec.seed = 8;
  const data::Dataset dense = data::generateMixture(spec);
  spec.sparseOutput = true;
  const data::Dataset sparse = data::generateMixture(spec);
  const Kernel k(KernelParams::gaussian(0.2));
  for (std::size_t i = 0; i < 10; ++i) {
    EXPECT_NEAR(k.evalCross(sparse, i, dense, i + 1),
                k.eval(dense, i, i + 1), 1e-6);
    EXPECT_NEAR(k.evalCross(sparse, i, sparse, i + 1),
                k.eval(dense, i, i + 1), 1e-6);
  }
}

TEST(KernelTest, CrossDimensionMismatchThrows) {
  const auto a = data::Dataset::fromDense(2, {1, 2}, {1});
  const auto b = data::Dataset::fromDense(3, {1, 2, 3}, {1});
  const Kernel k(KernelParams::linear());
  EXPECT_THROW((void)k.evalCross(a, 0, b, 0), Error);
}

TEST(KernelTest, FlopsPerEvalScalesWithDensity) {
  data::MixtureSpec spec;
  spec.samples = 50;
  spec.features = 100;
  const auto dense = data::generateMixture(spec);
  spec.sparsity = 0.9;
  spec.sparseOutput = true;
  const auto sparse = data::generateMixture(spec);
  const Kernel k(KernelParams::gaussian(1.0));
  EXPECT_GT(k.flopsPerEval(dense), k.flopsPerEval(sparse));
}

}  // namespace
}  // namespace casvm::kernel
