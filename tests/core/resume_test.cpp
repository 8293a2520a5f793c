// Checkpoint/resume property tests (casvm::ckpt × casvm::core):
//
//  * Resume equivalence: a run interrupted at the partition boundary or
//    mid-solve and restarted with --resume produces a final model that is
//    BITWISE identical (alphas, bias, SV set, routing centers) to the
//    uninterrupted run — for partitioned and tree methods, linear and
//    Gaussian kernels.
//  * In-run rank retry: a crashed rank in a partitioned method respawns
//    from its last checkpoint and restores full-P coverage (degraded is
//    false, the rank is reported recovered, not failed); when the retry
//    budget is exhausted the run falls back to the degraded path. A
//    fresh run in a reused directory retries from its own state only.
//  * Corrupt checkpoints are never trusted: a damaged generation is
//    detected and skipped in favor of the previous one, and the resumed
//    model is still exact.

#include "casvm/core/train.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <string>

#include "casvm/ckpt/store.hpp"
#include "casvm/data/registry.hpp"
#include "casvm/support/error.hpp"

namespace fs = std::filesystem;

namespace casvm::core {
namespace {

const data::NamedDataset& toy() {
  static const data::NamedDataset nd = data::standin("toy", 0.5);
  return nd;
}

TrainConfig baseConfig(Method method, bool gaussian, int P = 4) {
  TrainConfig cfg;
  cfg.method = method;
  cfg.processes = P;
  cfg.solver.kernel = gaussian
                          ? kernel::KernelParams::gaussian(toy().suggestedGamma)
                          : kernel::KernelParams::linear();
  cfg.solver.C = toy().suggestedC;
  cfg.checkpointEvery = 8;  // snapshot often so mid-solve faults can fire
  return cfg;
}

std::string freshDir(const std::string& leaf) {
  const std::string dir = ::testing::TempDir() + "/" + leaf;
  fs::remove_all(dir);
  return dir;
}

/// Fault-free reference model bytes for a config (no checkpointing).
std::vector<std::byte> baselineModel(Method method, bool gaussian) {
  return train(toy().train, baseConfig(method, gaussian)).model.pack();
}

void flipByteInFile(const std::string& path, std::size_t offset) {
  std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
  ASSERT_TRUE(f.good());
  f.seekg(static_cast<std::streamoff>(offset));
  char c = 0;
  f.get(c);
  f.seekp(static_cast<std::streamoff>(offset));
  f.put(static_cast<char>(c ^ 0x20));
}

// ---------------------------------------------------------------------------
// Resume equivalence: interrupt × method × kernel → bitwise-equal model
// ---------------------------------------------------------------------------

struct ResumeCase {
  Method method;
  bool gaussian;
  const char* faultSpec;  ///< how the first run is interrupted
  const char* tag;        ///< test-name suffix
  bool nystrom = false;   ///< run with the low-rank solver backend
};

/// gtest puts the printed parameter into each case's ctest name; its
/// default byte dump would carry the two string pointers, which move with
/// address-space randomization, so print the injected fault instead.
void PrintTo(const ResumeCase& rc, std::ostream* os) {
  *os << rc.faultSpec << (rc.nystrom ? " nystrom" : "");
}

class ResumeEquivalenceTest : public ::testing::TestWithParam<ResumeCase> {};

std::string resumeCaseName(const ::testing::TestParamInfo<ResumeCase>& info) {
  std::string name = methodName(info.param.method) + "_" +
                     (info.param.gaussian ? "gaussian" : "linear") + "_" +
                     info.param.tag;
  if (info.param.nystrom) name += "_nystrom";
  for (char& c : name) {
    if (c == '-') c = '_';
  }
  return name;
}

TrainConfig configFor(const ResumeCase& rc) {
  TrainConfig cfg = baseConfig(rc.method, rc.gaussian);
  if (rc.nystrom) {
    cfg.solverBackend = SolverBackend::Nystrom;
    cfg.nystromLandmarks = 48;
  }
  return cfg;
}

TEST_P(ResumeEquivalenceTest, InterruptedRunResumesBitwiseExact) {
  const ResumeCase& rc = GetParam();
  const std::vector<std::byte> expected =
      train(toy().train, configFor(rc)).model.pack();

  const std::string dir =
      freshDir(std::string("resume_") + resumeCaseName(
                   ::testing::TestParamInfo<ResumeCase>(rc, 0)));
  ckpt::CheckpointStore store(dir);

  // First run: interrupted by the injected fault. Partitioned methods
  // tolerate the crash (degraded run); tree methods fail fast — either way
  // the checkpoints written before the crash survive on disk.
  TrainConfig crashed = configFor(rc);
  crashed.checkpoints = &store;
  crashed.faults = net::FaultPlan::parse(rc.faultSpec);
  bool interrupted = false;
  if (isPartitionedMethod(rc.method)) {
    const TrainResult first = train(toy().train, crashed);
    interrupted = first.degraded;
  } else {
    try {
      (void)train(toy().train, crashed);
    } catch (const std::exception&) {
      interrupted = true;
    }
  }
  ASSERT_TRUE(interrupted) << "injected fault never fired: " << rc.faultSpec;

  // Second run: resume from the checkpoint directory, no faults.
  TrainConfig resumed = configFor(rc);
  resumed.checkpoints = &store;
  resumed.resume = true;
  const TrainResult res = train(toy().train, resumed);

  EXPECT_TRUE(res.resumed);
  EXPECT_GT(res.checkpointsLoaded, 0u);
  EXPECT_FALSE(res.degraded);
  EXPECT_TRUE(res.failedRanks.empty());
  EXPECT_EQ(res.model.pack(), expected) << "resumed model differs bitwise";
}

INSTANTIATE_TEST_SUITE_P(
    InterruptPoints, ResumeEquivalenceTest,
    ::testing::Values(
        // Partitioned (BKM-CA: collective partition phase + ratio balance
        // guarantees every part is two-class, so mid-solve faults can fire).
        ResumeCase{Method::BkmCa, true, "crash:rank=1,phase=train", "pretrain"},
        ResumeCase{Method::BkmCa, true, "crash:rank=1,phase=solve,nth=1",
                   "solve1"},
        ResumeCase{Method::BkmCa, true, "crash:rank=1,phase=solve,nth=3",
                   "solve3"},
        ResumeCase{Method::BkmCa, false, "crash:rank=1,phase=solve,nth=2",
                   "solve2"},
        // RA-CA casvm2: the zero-communication path decides resume locally.
        ResumeCase{Method::RaCa, true, "crash:rank=2,phase=solve,nth=2",
                   "solve2"},
        // Tree (Cascade: rank 0 is active at every layer, so its solve
        // checkpoints accumulate across layers).
        ResumeCase{Method::Cascade, true, "crash:rank=0,phase=train",
                   "pretrain"},
        ResumeCase{Method::Cascade, true, "crash:rank=0,phase=solve,nth=1",
                   "solve1"},
        ResumeCase{Method::Cascade, true, "crash:rank=0,phase=solve,nth=3",
                   "solve3"},
        ResumeCase{Method::Cascade, false, "crash:rank=0,phase=solve,nth=2",
                   "solve2"},
        // DC-Filter: K-means partition checkpoint + per-layer filtering.
        ResumeCase{Method::DcFilter, true, "crash:rank=0,phase=solve,nth=2",
                   "solve2"},
        // Global methods: every rank snapshots in lock-step, so a resume
        // re-enters the synchronized loop at a common iteration; the
        // replicated row store is rebuilt, changing only the traffic.
        ResumeCase{Method::DisSmo, true, "crash:rank=1,phase=solve,nth=2",
                   "solve2"},
        ResumeCase{Method::DisSmo, false, "crash:rank=2,phase=solve,nth=1",
                   "solve1"},
        ResumeCase{Method::DisSmoShrink, true,
                   "crash:rank=1,phase=solve,nth=2", "solve2"},
        ResumeCase{Method::Pbm, true, "crash:rank=1,phase=solve,nth=2",
                   "solve2"},
        ResumeCase{Method::Pbm, false, "crash:rank=3,phase=solve,nth=1",
                   "solve1"},
        // Nystrom backend: the checkpointed factor restores bitwise on the
        // partitioned path, rebuilds deterministically per tree layer, and
        // the global-landmark Dis-SMO path re-derives the identical factor
        // from the run seed — either way the resumed trajectory (and the
        // model) is bitwise the uninterrupted one.
        ResumeCase{Method::BkmCa, true, "crash:rank=1,phase=solve,nth=2",
                   "solve2", true},
        ResumeCase{Method::Cascade, true, "crash:rank=0,phase=solve,nth=2",
                   "solve2", true},
        ResumeCase{Method::DisSmo, true, "crash:rank=1,phase=solve,nth=2",
                   "solve2", true}),
    resumeCaseName);

// ---------------------------------------------------------------------------
// Shrink-engaged resume: the interrupt fires AFTER adaptive shrinking has
// committed a pass, so the restored active set is the shrunk one
// ---------------------------------------------------------------------------

TEST(ResumeTest, ShrinkEngagedDisSmoResumesBitwiseExact) {
  auto shrinkConfig = [] {
    TrainConfig cfg = baseConfig(Method::DisSmoShrink, true);
    cfg.solver.shrinkInterval = 64;
    cfg.checkpointEvery = 96;  // second snapshot lands after the first pass
    return cfg;
  };
  const TrainResult reference = train(toy().train, shrinkConfig());
  ASSERT_GE(reference.shrinkEngagedIteration, 0)
      << "cadence too slow: shrinking never engaged, test is vacuous";
  const std::vector<std::byte> expected = reference.model.pack();

  const std::string dir = freshDir("resume_shrink_engaged");
  ckpt::CheckpointStore store(dir);
  TrainConfig crashed = shrinkConfig();
  crashed.checkpoints = &store;
  crashed.faults = net::FaultPlan::parse("crash:rank=1,phase=solve,nth=2");
  bool interrupted = false;
  try {
    (void)train(toy().train, crashed);
  } catch (const std::exception&) {
    interrupted = true;
  }
  ASSERT_TRUE(interrupted);

  TrainConfig resumed = shrinkConfig();
  resumed.checkpoints = &store;
  resumed.resume = true;
  const TrainResult res = train(toy().train, resumed);
  EXPECT_TRUE(res.resumed);
  // The engagement iteration is a per-run statistic: a resume that
  // restores an already-shrunk snapshot reports its own (later)
  // engagement, not the original one. What must survive is the state —
  // everShrunk and the shrunk active set ride the snapshot, so the
  // trajectory (and hence the model) is bitwise the uninterrupted one.
  EXPECT_GE(res.shrinkEngagedIteration, 0);
  EXPECT_EQ(res.model.pack(), expected);
}

// ---------------------------------------------------------------------------
// Resume of a completed run short-circuits from checkpoints
// ---------------------------------------------------------------------------

TEST(ResumeTest, CompletedRunResumesToTheSameModelWithoutResolving) {
  const std::vector<std::byte> expected = baselineModel(Method::BkmCa, true);
  const std::string dir = freshDir("resume_completed");
  ckpt::CheckpointStore store(dir);

  TrainConfig cfg = baseConfig(Method::BkmCa, true);
  cfg.checkpoints = &store;
  const TrainResult first = train(toy().train, cfg);
  EXPECT_EQ(first.model.pack(), expected);
  EXPECT_FALSE(first.resumed);

  cfg.resume = true;
  const TrainResult again = train(toy().train, cfg);
  EXPECT_TRUE(again.resumed);
  // Every rank restores its partition and its finished sub-model: 2 * P.
  EXPECT_EQ(again.checkpointsLoaded, 2u * 4u);
  EXPECT_EQ(again.totalIterations, 0) << "resume should not re-solve";
  EXPECT_EQ(again.model.pack(), expected);
}

// ---------------------------------------------------------------------------
// Corrupt checkpoints: detected, skipped, previous generation used
// ---------------------------------------------------------------------------

TEST(ResumeTest, CorruptNewestGenerationFallsBackAndStaysExact) {
  const std::vector<std::byte> expected = baselineModel(Method::BkmCa, true);
  const std::string dir = freshDir("resume_corrupt");
  ckpt::CheckpointStore store(dir);

  // Two fresh runs stack two identical generations of every artifact.
  TrainConfig cfg = baseConfig(Method::BkmCa, true);
  cfg.checkpoints = &store;
  (void)train(toy().train, cfg);
  (void)train(toy().train, cfg);

  // Damage the newest generation of every rank's finished sub-model.
  std::size_t damaged = 0;
  for (const auto& entry : fs::directory_iterator(dir)) {
    const std::string f = entry.path().filename().string();
    if (f.rfind("model.r", 0) == 0 && f.find(".g2.") != std::string::npos) {
      flipByteInFile(entry.path().string(), fs::file_size(entry.path()) / 2);
      ++damaged;
    }
  }
  ASSERT_EQ(damaged, 4u);

  cfg.resume = true;
  const TrainResult res = train(toy().train, cfg);
  EXPECT_GE(store.corruptSkipped(), 4u) << "corruption went undetected";
  EXPECT_EQ(res.totalIterations, 0)
      << "the previous good generation should have been used";
  EXPECT_EQ(res.model.pack(), expected);
}

// ---------------------------------------------------------------------------
// In-run rank retry (partitioned methods)
// ---------------------------------------------------------------------------

TEST(RetryTest, CrashedRankRetriesBackToFullCoverage) {
  const std::vector<std::byte> expected = baselineModel(Method::RaCa, true);
  const std::string dir = freshDir("retry_full");
  ckpt::CheckpointStore store(dir);

  TrainConfig cfg = baseConfig(Method::RaCa, true);
  cfg.checkpoints = &store;
  cfg.rankRetries = 1;
  cfg.faults = net::FaultPlan::parse("crash:rank=2,phase=train");
  const TrainResult res = train(toy().train, cfg);

  EXPECT_FALSE(res.degraded);
  EXPECT_TRUE(res.failedRanks.empty());
  EXPECT_EQ(res.recoveredRanks, std::vector<int>{2});
  ASSERT_EQ(res.retriesPerRank.size(), 4u);
  EXPECT_EQ(res.retriesPerRank[2], 1);
  EXPECT_EQ(res.retriesPerRank[0], 0);
  EXPECT_DOUBLE_EQ(res.coveredFraction, 1.0);
  EXPECT_EQ(res.model.numModels(), 4u);
  EXPECT_EQ(res.model.pack(), expected) << "recovered model differs bitwise";
}

TEST(RetryTest, MidSolveCrashRetriesFromSnapshotBitwiseExact) {
  const std::vector<std::byte> expected = baselineModel(Method::BkmCa, true);
  const std::string dir = freshDir("retry_midsolve");
  ckpt::CheckpointStore store(dir);

  TrainConfig cfg = baseConfig(Method::BkmCa, true);
  cfg.checkpoints = &store;
  cfg.rankRetries = 2;
  // The crash fires at the rank's second solver snapshot; the snapshot is
  // written before the fault checkpoint, so the retry resumes mid-solve.
  cfg.faults = net::FaultPlan::parse("crash:rank=1,phase=solve,nth=2");
  const TrainResult res = train(toy().train, cfg);

  EXPECT_FALSE(res.degraded);
  EXPECT_EQ(res.recoveredRanks, std::vector<int>{1});
  EXPECT_GT(res.checkpointsLoaded, 0u) << "retry should restore a snapshot";
  EXPECT_EQ(res.model.pack(), expected);
}

TEST(RetryTest, RepeatedCrashesConsumeTheBudgetThenRecover) {
  const std::string dir = freshDir("retry_twice");
  ckpt::CheckpointStore store(dir);
  TrainConfig cfg = baseConfig(Method::RaCa, true);
  cfg.checkpoints = &store;
  cfg.rankRetries = 3;
  // times=2: the first two attempts die, the third succeeds.
  cfg.faults = net::FaultPlan::parse("crash:rank=2,phase=train,times=2");
  const TrainResult res = train(toy().train, cfg);
  EXPECT_FALSE(res.degraded);
  EXPECT_EQ(res.recoveredRanks, std::vector<int>{2});
  EXPECT_EQ(res.retriesPerRank[2], 2);
}

TEST(RetryTest, ExhaustedBudgetFallsBackToDegradedPath) {
  const std::string dir = freshDir("retry_exhausted");
  ckpt::CheckpointStore store(dir);
  TrainConfig cfg = baseConfig(Method::RaCa, true);
  cfg.checkpoints = &store;
  cfg.rankRetries = 2;
  // times=0 = crash every attempt: the budget runs out and the run
  // degrades exactly as without retries.
  cfg.faults = net::FaultPlan::parse("crash:rank=2,phase=train,times=0");
  const TrainResult res = train(toy().train, cfg);
  EXPECT_TRUE(res.degraded);
  EXPECT_EQ(res.failedRanks, std::vector<int>{2});
  EXPECT_TRUE(res.recoveredRanks.empty());
  EXPECT_EQ(res.model.numModels(), 3u);
  EXPECT_LT(res.coveredFraction, 1.0);
}

TEST(RetryTest, RetryWorksWithoutACheckpointStoreByResolving) {
  TrainConfig cfg = baseConfig(Method::RaCa, true);
  cfg.rankRetries = 1;
  cfg.faults = net::FaultPlan::parse("crash:rank=1,phase=train");
  const TrainResult res = train(toy().train, cfg);
  EXPECT_FALSE(res.degraded);
  EXPECT_EQ(res.recoveredRanks, std::vector<int>{1});
}

TEST(RetryTest, FreshRunInAReusedDirectoryRetriesFromItsOwnState) {
  // The first run dies mid-solve and leaves rank 2's snapshot behind.
  const std::string dir = freshDir("retry_reused_dir");
  ckpt::CheckpointStore store(dir);
  TrainConfig first = baseConfig(Method::RaCa, true);
  first.checkpoints = &store;
  first.faults = net::FaultPlan::parse("crash:rank=2,phase=solve,nth=3");
  ASSERT_TRUE(train(toy().train, first).degraded);
  ASSERT_TRUE(store.contains("solver.r2"));

  // A fresh run of another config in the same directory: its retry of
  // rank 2 must re-solve, not continue the first run's snapshot.
  TrainConfig second = baseConfig(Method::RaCa, true);
  second.solver.C = toy().suggestedC / 10;
  const std::vector<std::byte> expected =
      train(toy().train, second).model.pack();
  second.checkpoints = &store;
  second.rankRetries = 1;
  second.faults = net::FaultPlan::parse("crash:rank=2,phase=train");
  const TrainResult res = train(toy().train, second);
  EXPECT_FALSE(res.degraded);
  EXPECT_EQ(res.recoveredRanks, std::vector<int>{2});
  EXPECT_EQ(res.checkpointsLoaded, 0u)
      << "the retry restored the previous run's snapshot";
  EXPECT_EQ(res.model.pack(), expected);
}

// ---------------------------------------------------------------------------
// Run-identity guards
// ---------------------------------------------------------------------------

TEST(ResumeTest, ResumeAgainstDifferentConfigIsRefused) {
  const std::string dir = freshDir("resume_mismatch");
  ckpt::CheckpointStore store(dir);
  TrainConfig cfg = baseConfig(Method::BkmCa, true);
  cfg.checkpoints = &store;
  (void)train(toy().train, cfg);

  TrainConfig other = baseConfig(Method::BkmCa, true);
  other.solver.kernel = kernel::KernelParams::gaussian(9.9);  // different run
  other.checkpoints = &store;
  other.resume = true;
  EXPECT_THROW((void)train(toy().train, other), Error);
}

TEST(ResumeTest, ResumeWithoutAStoreIsRefused) {
  TrainConfig cfg = baseConfig(Method::RaCa, true);
  cfg.resume = true;
  EXPECT_THROW((void)train(toy().train, cfg), Error);
}

}  // namespace
}  // namespace casvm::core
