// casvm::obs tests: lane/recorder units, Chrome export shape, and the
// end-to-end bridges — a traced 4-rank cascade training run and a traced
// serving engine — that back ISSUE 4's acceptance criteria.

#include "casvm/obs/trace.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <string>

#include "casvm/core/train.hpp"
#include "casvm/data/registry.hpp"
#include "casvm/data/synth.hpp"
#include "casvm/obs/metrics.hpp"
#include "casvm/serve/engine.hpp"

namespace casvm::obs {
namespace {

TEST(LaneTest, SpanAndProgressRecordAllFields) {
  TraceRecorder rec;
  Lane& lane = rec.addLane(3, 0, "rank 3");
  lane.span("send", Cat::Comm, 1.0, 1.5, /*peer=*/2, /*bytes=*/800);
  lane.span("solve", Cat::Phase, 0.0, 4.0, -1, -1, /*detail=*/1);
  lane.progress(2.0, /*iter=*/512, /*active=*/100, /*gap=*/0.25,
                /*hitRate=*/0.75);

  ASSERT_EQ(lane.events().size(), 3u);
  const Event& comm = lane.events()[0];
  EXPECT_STREQ(comm.name, "send");
  EXPECT_EQ(comm.cat, Cat::Comm);
  EXPECT_FALSE(comm.instant);
  EXPECT_DOUBLE_EQ(comm.durationSeconds(), 0.5);
  EXPECT_EQ(comm.peer, 2);
  EXPECT_EQ(comm.bytes, 800);
  const Event& prog = lane.events()[2];
  EXPECT_TRUE(prog.instant);
  EXPECT_EQ(prog.iter, 512);
  EXPECT_EQ(prog.active, 100);
  EXPECT_DOUBLE_EQ(prog.gap, 0.25);
  EXPECT_DOUBLE_EQ(prog.hitRate, 0.75);

  EXPECT_EQ(rec.eventCount(), 3u);
  EXPECT_EQ(rec.spanCount(3, Cat::Comm), 1u);
  EXPECT_EQ(rec.spanCount(3, Cat::Phase), 1u);
  EXPECT_EQ(rec.spanCount(3, Cat::Solver), 0u);  // instants are not spans
  EXPECT_DOUBLE_EQ(rec.commSeconds(3), 0.5);
  EXPECT_DOUBLE_EQ(rec.commSeconds(0), 0.0);  // unknown pid is empty
}

TEST(TraceRecorderTest, LanesAreKeptPerPid) {
  TraceRecorder rec;
  rec.addLane(0, 0, "rank 0").span("recv", Cat::Comm, 0.0, 1.0);
  rec.addLane(1, 0, "rank 1").span("recv", Cat::Comm, 0.0, 2.0);
  rec.addLane(1, 1, "rank 1 aux").span("send", Cat::Comm, 2.0, 3.0);
  EXPECT_EQ(rec.laneCount(), 3u);
  EXPECT_EQ(rec.spanCount(0, Cat::Comm), 1u);
  EXPECT_EQ(rec.spanCount(1, Cat::Comm), 2u);
  EXPECT_DOUBLE_EQ(rec.commSeconds(0), 1.0);
  EXPECT_DOUBLE_EQ(rec.commSeconds(1), 3.0);  // summed across the pid's lanes
}

TEST(TraceRecorderTest, ShardRoundTripsAndWrappedLengthThrowsError) {
  TraceRecorder src;
  src.addLane(2, 0, "rank 2").span("send", Cat::Comm, 0.0, 1.0, 1, 64);
  std::vector<std::byte> shard = src.encodeShard();
  TraceRecorder copy;
  copy.absorbShard(shard);
  EXPECT_EQ(copy.encodeShard(), shard);

  // The lane name's u64 length follows the lane count, pid and tid. At
  // 2^64 - 1 the sum offset + length wraps below the shard size, so the
  // bound must compare the length with the bytes that remain.
  const std::uint64_t huge = ~std::uint64_t{0};
  std::memcpy(shard.data() + 8 + 4 + 4, &huge, sizeof huge);
  TraceRecorder dst;
  EXPECT_THROW(dst.absorbShard(shard), Error);
}

TEST(TraceRecorderTest, ChromeExportHasMetadataAndEvents) {
  TraceRecorder rec;
  Lane& lane = rec.addLane(0, 0, "rank 0");
  lane.span("allreduce", Cat::Comm, 0.001, 0.002, /*peer=*/-1, /*bytes=*/64);
  lane.progress(0.0015, 7, 3, 0.5, 0.0);
  const std::string json = rec.chromeTraceJson();

  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("process_name"), std::string::npos);  // "M" metadata
  EXPECT_NE(json.find("\"ph\": \"X\""), std::string::npos);  // complete span
  EXPECT_NE(json.find("\"ph\": \"i\""), std::string::npos);  // instant
  EXPECT_NE(json.find("allreduce"), std::string::npos);
  // Timestamps are microseconds: 0.001s -> 1000us.
  EXPECT_NE(json.find("\"ts\": 1000"), std::string::npos);
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '\n');
}

TEST(MetricsReportTest, JsonCarriesEveryField) {
  MetricsReport report;
  report.ranks = 2;
  report.wallSeconds = 0.125;
  report.perRank.push_back({0, 1.0, 0.25, 0.125, 0.26, 12});
  report.perRank.push_back({1, 0.5, 0.75, 0.5, 0.74, 9});
  report.phases.push_back({"init", 4096, 16});
  report.phases.push_back({"train", 1024, 4});
  report.traceEvents = 99;
  const std::string json = report.toJson();
  for (const char* key :
       {"\"ranks\": 2", "\"wall_seconds\"", "\"per_rank\"",
        "\"compute_seconds\"", "\"comm_seconds\"", "\"wait_seconds\"",
        "\"trace_comm_seconds\"", "\"comm_spans\"", "\"phases\"",
        "\"init\"", "\"train\"", "\"bytes\": 4096", "\"ops\": 16",
        "\"trace_events\": 99"}) {
    EXPECT_NE(json.find(key), std::string::npos) << key << " in " << json;
  }
}

// The acceptance bar for the training bridge: a 4-rank cascade run emits at
// least one comm span and one phase span per rank, solver progress events,
// and the trace-derived comm time agrees with the virtual clock.
TEST(TraceIntegrationTest, CascadeRunPopulatesEveryRankLane) {
  const data::NamedDataset& nd = data::standin("toy");
  TraceRecorder rec;
  core::TrainConfig cfg;
  cfg.method = core::Method::Cascade;
  cfg.processes = 4;
  cfg.solver.kernel = kernel::KernelParams::gaussian(nd.suggestedGamma);
  cfg.solver.C = nd.suggestedC;
  cfg.trace = &rec;
  const core::TrainResult res = core::train(nd.train, cfg);

  EXPECT_GT(rec.eventCount(), 0u);
  std::size_t progressEvents = 0;
  for (std::size_t i = 0; i < rec.laneCount(); ++i) {
    for (const Event& e : rec.lane(i).events()) {
      if (e.cat == Cat::Solver) ++progressEvents;
    }
  }
  EXPECT_GT(progressEvents, 0u);

  ASSERT_EQ(res.runStats.commSeconds.size(), 4u);
  for (int r = 0; r < 4; ++r) {
    EXPECT_GE(rec.spanCount(r, Cat::Comm), 1u) << "rank " << r;
    EXPECT_GE(rec.spanCount(r, Cat::Phase), 1u) << "rank " << r;
    // Comm spans wrap every clock-charging comm op and record exactly the
    // op's comm (+wait) charge, so per rank the spans sum back to the
    // clock's commSeconds.
    const double clockComm =
        res.runStats.commSeconds[static_cast<std::size_t>(r)];
    EXPECT_NEAR(rec.commSeconds(r), clockComm, 1e-9 + clockComm * 0.01)
        << "rank " << r;
  }

  // The export of a real run must still be well-formed.
  const std::string json = rec.chromeTraceJson();
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("solve"), std::string::npos);
}

TEST(TraceIntegrationTest, ServeEngineRecordsBatchSpans) {
  const auto train = data::generateTwoGaussians(120, 6, 4.0, 5);
  solver::SolverOptions opts;
  opts.kernel = kernel::KernelParams::gaussian(0.4);
  const auto compiled = serve::CompiledDistributedModel::compile(
      core::DistributedModel::single(
          solver::SmoSolver(opts).solve(train).model));

  TraceRecorder rec;
  serve::ServeConfig config;
  config.workers = 2;
  config.trace = &rec;
  serve::ServeEngine engine(compiled, config);
  std::vector<float> query(train.cols());
  train.copyRowDense(0, query);
  for (int i = 0; i < 8; ++i) {
    EXPECT_EQ(engine.score(query).code, serve::ServeCode::Ok);
  }
  engine.drain();

  // Worker lanes live under the dedicated serve pid and record one span
  // per scored micro-batch, tagged with the batch row count; the `serve
  // health` lane shares the pid with one span per health state.
  EXPECT_GE(rec.spanCount(serve::kServeTracePid, Cat::Serve), 1u);
  bool sawBatch = false;
  bool sawHealth = false;
  for (std::size_t i = 0; i < rec.laneCount(); ++i) {
    const bool healthLane = rec.lane(i).name() == "serve health";
    sawHealth |= healthLane;
    for (const Event& e : rec.lane(i).events()) {
      if (e.cat != Cat::Serve) continue;
      EXPECT_GE(e.durationSeconds(), 0.0);
      if (healthLane) continue;  // covered by ServeEngineTest's lane test
      EXPECT_STREQ(e.name, "batch");
      EXPECT_GE(e.detail, 1);  // rows scored
      sawBatch = true;
    }
  }
  EXPECT_TRUE(sawBatch);
  EXPECT_TRUE(sawHealth);
}

}  // namespace
}  // namespace casvm::obs
