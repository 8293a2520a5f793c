#include "casvm/core/distributed_model.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdint>

#include "casvm/data/synth.hpp"
#include "casvm/solver/smo.hpp"
#include "casvm/support/bytes.hpp"
#include "casvm/support/error.hpp"

namespace casvm::core {
namespace {

solver::Model constantModel(double bias) {
  return solver::Model(kernel::KernelParams::gaussian(1.0), data::Dataset(),
                       {}, bias);
}

TEST(DistributedModelTest, SingleModelNotRouted) {
  const DistributedModel dm = DistributedModel::single(constantModel(1.0));
  EXPECT_FALSE(dm.isRouted());
  EXPECT_EQ(dm.numModels(), 1u);
}

TEST(DistributedModelTest, RoutedNeedsMatchingCenters) {
  std::vector<solver::Model> models;
  models.push_back(constantModel(1.0));
  EXPECT_THROW(
      (void)DistributedModel::routed(std::move(models),
                                     {{0.0f}, {1.0f}}),
      Error);
}

TEST(DistributedModelTest, RoutesToNearestCenter) {
  // Model 0 always predicts +1 and owns the region near the origin;
  // model 1 always predicts -1 and owns the region near (10, 10).
  std::vector<solver::Model> models;
  models.push_back(constantModel(1.0));
  models.push_back(constantModel(-1.0));
  const DistributedModel dm = DistributedModel::routed(
      std::move(models), {{0.0f, 0.0f}, {10.0f, 10.0f}});
  EXPECT_TRUE(dm.isRouted());

  const auto queries = data::Dataset::fromDense(
      2, {1.0f, 0.5f, 9.0f, 9.5f}, {1, -1});
  EXPECT_EQ(dm.route(queries, 0), 0u);
  EXPECT_EQ(dm.route(queries, 1), 1u);
  EXPECT_EQ(dm.predictFor(queries, 0), 1);
  EXPECT_EQ(dm.predictFor(queries, 1), -1);
  EXPECT_DOUBLE_EQ(dm.accuracy(queries), 1.0);
}

TEST(DistributedModelTest, SingleModelRoutesToZero) {
  const DistributedModel dm = DistributedModel::single(constantModel(1.0));
  const auto queries = data::Dataset::fromDense(1, {5.0f}, {1});
  EXPECT_EQ(dm.route(queries, 0), 0u);
}

TEST(DistributedModelTest, TotalSupportVectorsSums) {
  const auto ds = data::generateTwoGaussians(100, 3, 5.0, 7);
  solver::SolverOptions opts;
  opts.kernel = kernel::KernelParams::gaussian(0.3);
  const solver::Model m = solver::SmoSolver(opts).solve(ds).model;
  std::vector<solver::Model> models{m, m};
  const DistributedModel dm = DistributedModel::routed(
      std::move(models),
      {std::vector<float>(3, 0.0f), std::vector<float>(3, 1.0f)});
  EXPECT_EQ(dm.totalSupportVectors(), 2 * m.numSupportVectors());
}

TEST(DistributedModelTest, PackUnpackRoutedRoundTrip) {
  const auto ds = data::generateTwoGaussians(80, 3, 5.0, 9);
  solver::SolverOptions opts;
  opts.kernel = kernel::KernelParams::gaussian(0.3);
  const solver::Model m = solver::SmoSolver(opts).solve(ds).model;
  std::vector<solver::Model> models{m, constantModel(-1.0)};
  const DistributedModel dm = DistributedModel::routed(
      std::move(models),
      {std::vector<float>(3, 0.0f), std::vector<float>(3, 9.0f)});

  const DistributedModel back = DistributedModel::unpack(dm.pack());
  EXPECT_TRUE(back.isRouted());
  EXPECT_EQ(back.numModels(), 2u);
  const auto test = data::generateTwoGaussians(40, 3, 5.0, 11);
  for (std::size_t i = 0; i < test.rows(); ++i) {
    EXPECT_NEAR(back.decisionFor(test, i), dm.decisionFor(test, i), 1e-12);
  }
}

TEST(DistributedModelTest, PackUnpackSingleRoundTrip) {
  const DistributedModel dm = DistributedModel::single(constantModel(0.5));
  const DistributedModel back = DistributedModel::unpack(dm.pack());
  EXPECT_FALSE(back.isRouted());
  EXPECT_EQ(back.numModels(), 1u);
}

TEST(DistributedModelTest, SaveLoadRoundTrip) {
  std::vector<solver::Model> models{constantModel(1.0), constantModel(-1.0)};
  const DistributedModel dm = DistributedModel::routed(
      std::move(models), {{0.0f}, {5.0f}});
  const std::string path = ::testing::TempDir() + "/casvm_dm_test.bin";
  dm.save(path);
  const DistributedModel back = DistributedModel::load(path);
  EXPECT_EQ(back.numModels(), 2u);
  std::remove(path.c_str());
}

TEST(DistributedModelTest, EmptyModelThrowsOnUse) {
  const DistributedModel dm;
  const auto q = data::Dataset::fromDense(1, {1.0f}, {1});
  EXPECT_THROW((void)dm.decisionFor(q, 0), Error);
}

TEST(DistributedModelTest, TruncatedUnpackThrows) {
  const DistributedModel dm = DistributedModel::single(constantModel(1.0));
  auto bytes = dm.pack();
  bytes.resize(bytes.size() - 3);
  EXPECT_THROW((void)DistributedModel::unpack(bytes), Error);
}

TEST(DistributedModelTest, HostileSubModelCountThrows) {
  const DistributedModel dm = DistributedModel::single(constantModel(1.0));
  auto bytes = dm.pack();
  // The sub-model count is the first u64; a corrupt value claiming 2^64-1
  // models must be rejected before any allocation is sized from it.
  for (std::size_t b = 0; b < sizeof(std::uint64_t); ++b) {
    bytes[b] = std::byte{0xFF};
  }
  EXPECT_THROW((void)DistributedModel::unpack(bytes), Error);
}

TEST(DistributedModelTest, CraftedHugeColumnCountThrows) {
  // A 130-byte model file: one unrouted sub-model whose SV set claims two
  // rows of 2^63 columns, a shape whose element count wraps to 0.
  support::ByteWriter svs;
  svs.scalar(static_cast<std::uint8_t>(data::Storage::Dense));
  svs.zeros(7);
  svs.scalar<std::uint64_t>(2);
  svs.scalar<std::uint64_t>(std::uint64_t{1} << 63);
  svs.scalar<std::uint64_t>(0);
  svs.scalar<std::int8_t>(1);
  svs.scalar<std::int8_t>(-1);
  support::ByteWriter model;
  model.scalar(kernel::KernelType::Gaussian);
  model.zeros(7);
  model.scalar(1.0);  // gamma
  model.zeros(8 + 8 + 8 + 8);  // a, r, degree with its padding, bias
  model.vec(std::vector<double>{0.5, -0.5});
  model.array(svs.view());
  support::ByteWriter file;
  file.scalar<std::uint64_t>(1);  // one sub-model
  file.scalar<std::uint64_t>(0);  // not routed
  file.vec(model.view());
  const std::vector<std::byte> bytes = file.take();
  ASSERT_EQ(bytes.size(), 130u);
  EXPECT_THROW((void)DistributedModel::unpack(bytes), Error);
}

}  // namespace
}  // namespace casvm::core
