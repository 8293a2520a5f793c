// End-to-end training on the proc transport (casvm::core × casvm::net):
//
//  * Backend equivalence: the same config trained on the thread and proc
//    backends produces a BITWISE-identical model and identical traffic.
//  * Real-kill chaos: a worker process SIGKILLed mid-solve is respawned
//    by the supervisor, resumes from the newest checkpoint generation,
//    and the recovered run's model is bitwise-identical to the fault-free
//    run's (the acceptance property of the process-isolation PR), also
//    when an earlier run's checkpoints share the directory.
//  * Degraded fallback: a kill with no respawn budget — or a respawn that
//    finds no checkpoint to resume from — falls back to the surviving
//    P-1 partitions exactly like the thread backend's degraded path.

#include "casvm/core/train.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <string>
#include <vector>

#include "casvm/ckpt/store.hpp"
#include "casvm/data/registry.hpp"
#include "casvm/obs/trace.hpp"
#include "casvm/support/error.hpp"

namespace fs = std::filesystem;

namespace casvm::core {
namespace {

const data::NamedDataset& toy() {
  static const data::NamedDataset nd = data::standin("toy", 0.5);
  return nd;
}

TrainConfig procConfig(Method method = Method::BkmCa, int P = 4) {
  TrainConfig cfg;
  cfg.method = method;
  cfg.processes = P;
  cfg.solver.kernel = kernel::KernelParams::gaussian(toy().suggestedGamma);
  cfg.solver.C = toy().suggestedC;
  cfg.transport = net::TransportKind::Proc;
  cfg.transportTuning.commTimeoutMs = 20000;
  cfg.transportTuning.respawnBackoffMs = 10;
  cfg.checkpointEvery = 8;  // snapshot often so mid-solve kills can fire
  return cfg;
}

std::string freshDir(const std::string& leaf) {
  const std::string dir = ::testing::TempDir() + "/" + leaf;
  fs::remove_all(dir);
  return dir;
}

TEST(ProcTrainTest, ProcMatchesThreadBitwise) {
  TrainConfig threadCfg = procConfig();
  threadCfg.transport = net::TransportKind::Thread;
  const TrainResult threadRes = train(toy().train, threadCfg);
  const TrainResult procRes = train(toy().train, procConfig());
  EXPECT_EQ(threadRes.model.pack(), procRes.model.pack())
      << "models differ bitwise between backends";
  EXPECT_EQ(threadRes.totalIterations, procRes.totalIterations);
  EXPECT_EQ(threadRes.runStats.traffic.bytes, procRes.runStats.traffic.bytes);
  EXPECT_EQ(threadRes.runStats.traffic.ops, procRes.runStats.traffic.ops);
  EXPECT_EQ(threadRes.initTraffic.bytes, procRes.initTraffic.bytes);
  EXPECT_EQ(threadRes.trainTraffic.bytes, procRes.trainTraffic.bytes);
}

TEST(ProcTrainTest, ProcRunMergesWorkerTraceShards) {
  obs::TraceRecorder recorder;
  TrainConfig cfg = procConfig();
  cfg.trace = &recorder;
  const TrainResult res = train(toy().train, cfg);
  EXPECT_FALSE(res.degraded);
  // One lane per rank, each populated by its worker process and merged
  // from the result-frame shards.
  EXPECT_EQ(recorder.laneCount(), 4u);
  EXPECT_GT(recorder.eventCount(), 0u);
}

TEST(ProcTrainTest, KilledWorkerMidSolveRecoversBitwiseExact) {
  const std::vector<std::byte> expected =
      train(toy().train, procConfig()).model.pack();

  const std::string dir = freshDir("proc_kill_recover");
  ckpt::CheckpointStore store(dir);
  TrainConfig cfg = procConfig();
  cfg.checkpoints = &store;
  cfg.rankRetries = 2;
  cfg.faults = net::FaultPlan::parse("kill:rank=2,phase=solve");
  cfg.supervisorLog = dir + "/supervisor.log";
  const TrainResult res = train(toy().train, cfg);

  // The SIGKILLed worker was respawned and restored full coverage: the
  // run is NOT degraded and rank 2 reports recovered, not failed.
  EXPECT_FALSE(res.degraded);
  EXPECT_TRUE(res.failedRanks.empty());
  ASSERT_EQ(res.recoveredRanks, std::vector<int>{2});
  ASSERT_EQ(res.retriesPerRank.size(), 4u);
  EXPECT_GE(res.retriesPerRank[2], 1);
  EXPECT_GT(res.checkpointsLoaded, 0u);
  EXPECT_EQ(res.coveredFraction, 1.0);
  EXPECT_EQ(res.model.pack(), expected)
      << "recovered model differs from the fault-free run";
}

TEST(ProcTrainTest, RespawnInAReusedDirectoryTrustsOnlyItsOwnRun) {
  // The first run finishes and leaves every rank's sub-model behind.
  const std::string dir = freshDir("proc_reused_dir");
  ckpt::CheckpointStore store(dir);
  TrainConfig first = procConfig();
  first.checkpoints = &store;
  ASSERT_FALSE(train(toy().train, first).degraded);

  // A fresh run of another config in the same directory: the respawned
  // rank 2 must finish its own solve, not deposit the first run's model.
  TrainConfig second = procConfig();
  second.solver.C = toy().suggestedC / 10;
  const std::vector<std::byte> expected =
      train(toy().train, second).model.pack();
  second.checkpoints = &store;
  second.rankRetries = 1;
  second.faults = net::FaultPlan::parse("kill:rank=2,phase=solve");
  second.supervisorLog = dir + "/supervisor.log";
  const TrainResult res = train(toy().train, second);
  EXPECT_FALSE(res.degraded);
  ASSERT_EQ(res.recoveredRanks, std::vector<int>{2});
  ASSERT_EQ(res.iterationsPerRank.size(), 4u);
  EXPECT_GT(res.iterationsPerRank[2], 0)
      << "the respawned worker deposited the previous run's sub-model";
  EXPECT_EQ(res.model.pack(), expected)
      << "recovered model differs from the fault-free run";
}

TEST(ProcTrainTest, KillWithoutRespawnBudgetDegrades) {
  TrainConfig cfg = procConfig();
  // phase=train fires without a checkpoint store; rankRetries stays 0 so
  // the death is final and the run must degrade around partition 2.
  cfg.faults = net::FaultPlan::parse("kill:rank=2,phase=train");
  const TrainResult res = train(toy().train, cfg);
  EXPECT_TRUE(res.degraded);
  EXPECT_EQ(res.failedRanks, std::vector<int>{2});
  EXPECT_TRUE(res.recoveredRanks.empty());
  EXPECT_LT(res.coveredFraction, 1.0);
  ASSERT_EQ(res.coverage.size(), 4u);
  EXPECT_FALSE(res.coverage[2].survived);
  EXPECT_EQ(res.model.numModels(), 3u);
}

TEST(ProcTrainTest, RespawnWithoutCheckpointAbortsNamingRootCause) {
  const std::string dir = freshDir("proc_kill_no_anchor");
  ckpt::CheckpointStore store(dir);
  TrainConfig cfg = procConfig();
  cfg.checkpoints = &store;
  cfg.rankRetries = 1;
  // Killed before the partition checkpoint exists: the respawned worker
  // has no anchor to resume from, and the peers are still blocked in the
  // partitioning collectives, so — exactly like an init-phase crash on
  // the thread backend — the run must abort, and the error must name the
  // missing-anchor root cause rather than a cascade symptom.
  cfg.faults = net::FaultPlan::parse("kill:rank=2,phase=init");
  try {
    (void)train(toy().train, cfg);
    FAIL() << "expected the run to abort";
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("no partition checkpoint to resume from"),
              std::string::npos)
        << what;
    EXPECT_NE(what.find("rank 2"), std::string::npos) << what;
  }
}

TEST(ProcTrainTest, ThreadBackendRejectsKillPlans) {
  TrainConfig cfg = procConfig();
  cfg.transport = net::TransportKind::Thread;
  cfg.faults = net::FaultPlan::parse("kill:rank=2,phase=train");
  try {
    train(toy().train, cfg);
    FAIL() << "expected the thread backend to reject kill plans";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("--transport proc"),
              std::string::npos)
        << e.what();
  }
}

}  // namespace
}  // namespace casvm::core
