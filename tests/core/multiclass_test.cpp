#include "casvm/core/multiclass.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <set>

#include "casvm/data/synth.hpp"
#include "casvm/support/atomic_file.hpp"
#include "casvm/support/error.hpp"

namespace casvm::core {
namespace {

data::MulticlassData fourClasses(std::size_t samples = 600,
                                 std::uint64_t seed = 3) {
  data::MixtureSpec spec;
  spec.samples = samples;
  spec.features = 8;
  spec.clusters = 8;  // two components per class
  spec.labelNoise = 0.0;
  spec.minCenterSeparation = 10.0;
  spec.seed = seed;
  return data::generateMulticlassMixture(spec, 4);
}

TrainConfig config(Method method = Method::RaCa) {
  TrainConfig cfg;
  cfg.method = method;
  cfg.processes = 4;
  cfg.solver.kernel = kernel::KernelParams::gaussian(0.5);
  return cfg;
}

TEST(MulticlassTest, GeneratorShape) {
  const auto mc = fourClasses();
  EXPECT_EQ(mc.features.rows(), 600u);
  EXPECT_EQ(mc.labels.size(), 600u);
  const std::set<int> classes(mc.labels.begin(), mc.labels.end());
  EXPECT_EQ(classes.size(), 4u);
}

TEST(MulticlassTest, TrainsAllPairs) {
  const auto mc = fourClasses();
  const MulticlassResult res =
      trainMulticlass(mc.features, mc.labels, config());
  EXPECT_EQ(res.pairsTrained, 6u);  // C(4,2)
  EXPECT_EQ(res.model.numPairs(), 6u);
  EXPECT_EQ(res.model.classes(), (std::vector<int>{0, 1, 2, 3}));
  EXPECT_GT(res.totalIterations, 0);
}

TEST(MulticlassTest, HighAccuracyOnSeparatedClasses) {
  const auto train = fourClasses(600, 3);
  const auto test = fourClasses(200, 3);  // same geometry (same seed)
  const MulticlassResult res =
      trainMulticlass(train.features, train.labels, config());
  EXPECT_GT(res.model.accuracy(test.features, test.labels), 0.9);
}

TEST(MulticlassTest, WorksWithEveryMethodKind) {
  const auto mc = fourClasses(400, 7);
  for (Method m : {Method::DisSmo, Method::Cascade, Method::RaCa}) {
    const MulticlassResult res =
        trainMulticlass(mc.features, mc.labels, config(m));
    EXPECT_GT(res.model.accuracy(mc.features, mc.labels), 0.9)
        << methodName(m);
  }
}

TEST(MulticlassTest, PredictionsAreValidClasses) {
  const auto mc = fourClasses(300, 9);
  const MulticlassResult res =
      trainMulticlass(mc.features, mc.labels, config());
  for (std::size_t i = 0; i < 50; ++i) {
    const int cls = res.model.predictFor(mc.features, i);
    EXPECT_GE(cls, 0);
    EXPECT_LE(cls, 3);
  }
}

TEST(MulticlassTest, PackUnpackRoundTrip) {
  const auto mc = fourClasses(300, 11);
  const MulticlassResult res =
      trainMulticlass(mc.features, mc.labels, config());
  const MulticlassModel back = MulticlassModel::unpack(res.model.pack());
  EXPECT_EQ(back.numPairs(), res.model.numPairs());
  for (std::size_t i = 0; i < 40; ++i) {
    EXPECT_EQ(back.predictFor(mc.features, i),
              res.model.predictFor(mc.features, i));
  }
}

TEST(MulticlassTest, HostileClassCountThrows) {
  const auto mc = fourClasses(200, 11);
  const MulticlassResult res =
      trainMulticlass(mc.features, mc.labels, config());
  auto bytes = res.model.pack();
  // The class count is the first u64; an absurd value must be rejected
  // before sizing the classes vector from it.
  for (std::size_t b = 0; b < sizeof(std::uint64_t); ++b) {
    bytes[b] = std::byte{0xFF};
  }
  EXPECT_THROW((void)MulticlassModel::unpack(bytes), Error);
}

TEST(MulticlassTest, SaveLoadRoundTrip) {
  const auto mc = fourClasses(200, 13);
  const MulticlassResult res =
      trainMulticlass(mc.features, mc.labels, config());
  const std::string path = ::testing::TempDir() + "/casvm_mc_test.bin";
  res.model.save(path);
  const MulticlassModel back = MulticlassModel::load(path);
  EXPECT_EQ(back.classes(), res.model.classes());
  std::remove(path.c_str());
}

TEST(MulticlassTest, SaveReplacesTheFileRatherThanRewritingIt) {
  // save() stages a temp file and renames it over the path, like every
  // model artifact: a hard link to the old file keeps the old bytes (an
  // in-place rewrite would change both), and no temp file is left behind.
  const auto mc = fourClasses(200, 13);
  const MulticlassModel model =
      trainMulticlass(mc.features, mc.labels, config()).model;
  const std::string dir = ::testing::TempDir() + "/casvm_mc_atomic";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  const std::string path = dir + "/model.bin";
  support::writeFileAtomic(path, std::string("previous model"));
  std::filesystem::create_hard_link(path, dir + "/previous.bin");
  model.save(path);
  EXPECT_EQ(support::readFileBytes(path), model.pack());
  EXPECT_EQ(std::filesystem::file_size(dir + "/previous.bin"), 14u);
  std::size_t entries = 0;
  for (const auto& e : std::filesystem::directory_iterator(dir)) {
    (void)e;
    ++entries;
  }
  EXPECT_EQ(entries, 2u);
  std::filesystem::remove_all(dir);
}

TEST(MulticlassTest, SingleClassThrows) {
  const auto mc = fourClasses(100, 17);
  std::vector<int> constant(mc.labels.size(), 5);
  EXPECT_THROW((void)trainMulticlass(mc.features, constant, config()), Error);
}

TEST(MulticlassTest, LabelCountMismatchThrows) {
  const auto mc = fourClasses(100, 19);
  std::vector<int> tooFew(mc.labels.begin(), mc.labels.end() - 5);
  EXPECT_THROW((void)trainMulticlass(mc.features, tooFew, config()), Error);
}

TEST(MulticlassTest, ArbitraryClassIdsSupported) {
  const auto mc = fourClasses(400, 21);
  std::vector<int> shifted(mc.labels.size());
  for (std::size_t i = 0; i < shifted.size(); ++i) {
    shifted[i] = mc.labels[i] * 100 - 7;  // {-7, 93, 193, 293}
  }
  const MulticlassResult res =
      trainMulticlass(mc.features, shifted, config());
  EXPECT_EQ(res.model.classes(), (std::vector<int>{-7, 93, 193, 293}));
  EXPECT_GE(res.model.accuracy(mc.features, shifted), 0.9);
}

TEST(MulticlassTest, SmallPairsShrinkProcessCount) {
  // 3 tiny classes with config.processes = 8: must not throw even though
  // each pairwise problem has far fewer than 8*2 samples.
  data::MixtureSpec spec;
  spec.samples = 30;
  spec.features = 4;
  spec.clusters = 3;
  spec.minCenterSeparation = 10.0;
  spec.seed = 23;
  const auto mc = data::generateMulticlassMixture(spec, 3);
  TrainConfig cfg = config(Method::Cascade);
  cfg.processes = 8;
  const MulticlassResult res = trainMulticlass(mc.features, mc.labels, cfg);
  EXPECT_EQ(res.pairsTrained, 3u);
}


TEST(MulticlassParallelTest, MatchesSequentialResults) {
  const auto mc = fourClasses(400, 31);
  const MulticlassResult seq =
      trainMulticlass(mc.features, mc.labels, config());
  const MulticlassResult par =
      trainMulticlassParallel(mc.features, mc.labels, config(), 3);
  EXPECT_EQ(par.pairsTrained, seq.pairsTrained);
  EXPECT_EQ(par.totalIterations, seq.totalIterations);
  for (std::size_t i = 0; i < 60; ++i) {
    EXPECT_EQ(par.model.predictFor(mc.features, i),
              seq.model.predictFor(mc.features, i));
  }
}

TEST(MulticlassParallelTest, SingleGroupWorks) {
  const auto mc = fourClasses(600, 33);
  const MulticlassResult seq =
      trainMulticlass(mc.features, mc.labels, config());
  const MulticlassResult res =
      trainMulticlassParallel(mc.features, mc.labels, config(), 1);
  EXPECT_EQ(res.pairsTrained, 6u);
  // One group serializes the pairs; results still match the sequential
  // trainer exactly.
  EXPECT_DOUBLE_EQ(res.model.accuracy(mc.features, mc.labels),
                   seq.model.accuracy(mc.features, mc.labels));
}

TEST(MulticlassParallelTest, MoreGroupsThanPairsWorks) {
  const auto mc = fourClasses(300, 35);
  const MulticlassResult res =
      trainMulticlassParallel(mc.features, mc.labels, config(), 10);
  EXPECT_EQ(res.pairsTrained, 6u);
}

TEST(MulticlassParallelTest, TreeMethodsSupported) {
  const auto mc = fourClasses(400, 37);
  TrainConfig cfg = config(Method::Cascade);
  const MulticlassResult res =
      trainMulticlassParallel(mc.features, mc.labels, cfg, 2);
  EXPECT_GT(res.model.accuracy(mc.features, mc.labels), 0.9);
}

TEST(MulticlassParallelTest, InvalidGroupCountThrows) {
  const auto mc = fourClasses(100, 39);
  EXPECT_THROW(
      (void)trainMulticlassParallel(mc.features, mc.labels, config(), 0),
      Error);
}

}  // namespace
}  // namespace casvm::core
