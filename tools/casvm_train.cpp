// casvm-train: train a distributed SVM from the command line.
//
//   casvm-train --data train.libsvm --method ra-ca --procs 8
//               --gamma 0.5 --C 1 --out model.bin
//   casvm-train --standin ijcnn --method cp-svm --out model.bin
//
// Any registered method can be selected — the paper's eight plus the two
// middle-ground global methods (dis-smo-shrink, pbm); the model file is
// the DistributedModel serialization readable by casvm-predict.

#include <cstdio>
#include <limits>
#include <optional>

#include "casvm/ckpt/store.hpp"
#include "casvm/core/train.hpp"
#include "casvm/data/io.hpp"
#include "casvm/data/registry.hpp"
#include "casvm/obs/metrics.hpp"
#include "casvm/obs/trace.hpp"
#include "casvm/support/table.hpp"
#include "cli_common.hpp"

namespace {

constexpr const char* kUsage = R"(usage: casvm-train [options]
  --data <file>        LIBSVM training file (or --standin)
  --standin <name>     built-in synthetic dataset (adult, epsilon, face,
                       gisette, ijcnn, usps, webspam, forest, toy)
  --scale <f>          stand-in scale factor (default 1.0)
  --samples <m>        exact stand-in sample count via the chunked
                       generator (overrides --scale; million-sample safe)
  --method <name>      dis-smo | dis-smo-shrink | pbm | cascade | dc-svm |
                       dc-filter | cp-svm | bkm-ca | fcfs-ca | ra-ca
                       (default ra-ca)
  --procs <P>          simulated ranks (default 8)
  --kernel <name>      linear | polynomial | gaussian | sigmoid
  --gamma <g>          Gaussian gamma (default 1/features)
  --degree <d>         polynomial degree (default 3)
  --coef0 <r>          polynomial/sigmoid offset (default 0)
  --C <c>              regularization (default 1.0)
  --w-pos / --w-neg    per-class C weights (default 1.0)
  --tolerance <t>      KKT tolerance (default 1e-3)
  --shrinking          enable shrinking in the sub-solver
  --shrink-interval <n> iterations between shrink passes (serial shrinking
                       and dis-smo-shrink; default 1000)
  --dis-shrink         shorthand for --method dis-smo-shrink
  --backend <name>     exact | nystrom: kernel the sub-solvers train
                       against (default exact; nystrom trains on the
                       low-rank K ~ Z Z^T, prediction stays exact)
  --landmarks <L>      Nystrom landmarks per factor (default 64)
  --landmark-strategy <s> uniform | kmeans++ (default kmeans++)
  --cascade-passes <n> Cascade feedback passes (default 1)
  --pbm-rounds <n>     PBM outer block-solve rounds (default 8)
  --pbm-pair-iters <n> PBM pair corrections per round (default 256)
  --seed <s>           RNG seed (default 42)
  --fault-spec <s>     injected fault schedule, e.g.
                       "crash:rank=2,phase=train;slow:rank=1,factor=4"
                       (partitioned methods degrade, others fail fast);
                       kill:/hang: clauses deliver real SIGKILL/SIGSTOP
                       and need --transport proc
  --fault-seed <s>     seed for probabilistic fault clauses (default 0)
  --checkpoint-dir <d> persist training state into <d> (crash-consistent,
                       CRC-guarded); enables --resume, and lets
                       --rank-retries continue from a snapshot. A run
                       without --resume ignores what earlier runs left
  --checkpoint-every <n> solver snapshot cadence in iterations (default 4096)
  --resume             restart from the newest consistent checkpoints in
                       --checkpoint-dir (bitwise-identical final model)
  --rank-retries <n>   in-run retry budget per crashed rank before the
                       degraded path (partitioned methods; default 0).
                       Under --transport proc this is also the respawn
                       budget for killed worker processes
  --transport <name>   thread | proc: rank delivery backend (default
                       thread). proc forks one worker process per rank
                       over shared-memory rings, with per-rank heartbeats
                       and supervised respawn
  --heartbeat-ms <n>   proc worker heartbeat cadence (default 50; a rank
                       is declared hung past 10x this, floor 500ms)
  --comm-timeout-ms <n> proc bounded-receive timeout (default 30000)
  --respawn-backoff-ms <n> base rank-retry delay, doubled per attempt
                       (default 50): proc sleeps it before a respawn,
                       thread charges it to the rank's virtual clock
  --supervisor-log <f> append proc supervisor lifecycle events to <f>
  --trace <file>       write a Chrome trace (chrome://tracing) of the run
                       (flushed even when the run aborts)
  --metrics-json <file> write per-rank/per-phase metrics as JSON
  --out <file>         model output path (default casvm.model)
)";

/// Per-rank and per-phase rollup combining the engine's virtual clocks
/// with the trace recorder's span data and the phase traffic deltas.
casvm::obs::MetricsReport buildMetrics(const casvm::core::TrainResult& res,
                                       const casvm::obs::TraceRecorder& rec) {
  using namespace casvm;
  obs::MetricsReport report;
  report.ranks = res.runStats.size;
  report.wallSeconds = res.wallSeconds;
  report.traceEvents = rec.eventCount();
  for (int r = 0; r < res.runStats.size; ++r) {
    const auto ur = static_cast<std::size_t>(r);
    obs::RankMetrics rm;
    rm.rank = r;
    rm.computeSeconds = res.runStats.computeSeconds[ur];
    rm.commSeconds = res.runStats.commSeconds[ur];
    rm.waitSeconds =
        ur < res.runStats.waitSeconds.size() ? res.runStats.waitSeconds[ur]
                                             : 0.0;
    rm.traceCommSeconds = rec.commSeconds(r);
    rm.commSpans = rec.spanCount(r, obs::Cat::Comm);
    report.perRank.push_back(rm);
  }
  report.phases.push_back(obs::PhaseTraffic{
      "init", res.initTraffic.totalBytes(), res.initTraffic.totalOps()});
  report.phases.push_back(obs::PhaseTraffic{
      "train", res.trainTraffic.totalBytes(), res.trainTraffic.totalOps()});
  report.recovery.degraded = res.degraded;
  report.recovery.resumed = res.resumed;
  report.recovery.checkpointsLoaded = res.checkpointsLoaded;
  report.recovery.failedRanks = res.failedRanks;
  report.recovery.recoveredRanks = res.recoveredRanks;
  report.recovery.retriesPerRank = res.retriesPerRank;
  return report;
}

/// Flush the partial trace to disk before the process unwinds: a watchdog
/// abort or an unwound collective must still leave the evidence of what
/// every rank was doing on disk, or the trace is useless exactly when it
/// is most needed.
void flushTraceOnFailure(const casvm::obs::TraceRecorder* recorder,
                         const casvm::cli::Args& args) {
  if (recorder == nullptr || !args.has("trace")) return;
  const std::string path = args.get("trace", "trace.json");
  try {
    recorder->writeChromeTrace(path);
    std::fprintf(stderr, "casvm-train: partial trace flushed to %s\n",
                 path.c_str());
  } catch (const std::exception& e) {
    std::fprintf(stderr, "casvm-train: trace flush failed: %s\n", e.what());
  }
}

}  // namespace

int main(int argc, char** argv) {
  using namespace casvm;
  const cli::Args args(argc, argv,
                       {"shrinking", "dis-shrink", "help", "resume"});
  if (args.has("help") || argc == 1) cli::usage(kUsage);

  try {
    data::Dataset train;
    data::Dataset test;
    double defaultGamma = 0.0;
    if (args.has("data")) {
      train = data::readLibsvmFile(args.get("data", ""));
      defaultGamma = 1.0 / static_cast<double>(train.cols());
    } else if (args.has("standin")) {
      const auto seed = static_cast<std::uint64_t>(args.getInt("seed", 42));
      const data::NamedDataset nd =
          args.has("samples")
              ? data::standinSized(
                    args.get("standin", "toy"),
                    static_cast<std::size_t>(args.getInt("samples", 4000)),
                    seed)
              : data::standin(args.get("standin", "toy"),
                              args.getDouble("scale", 1.0), seed);
      train = nd.train;
      test = nd.test;
      defaultGamma = nd.suggestedGamma;
    } else {
      cli::usage(kUsage);
    }

    core::TrainConfig cfg;
    cfg.method = args.has("dis-shrink")
                     ? core::Method::DisSmoShrink
                     : core::methodFromName(args.get("method", "ra-ca"));
    cfg.processes = static_cast<int>(args.getInt("procs", 8));
    cfg.seed = static_cast<std::uint64_t>(args.getInt("seed", 42));
    cfg.cascadePasses = static_cast<int>(args.getInt("cascade-passes", 1));
    cfg.pbmRounds = static_cast<int>(args.getInt("pbm-rounds", cfg.pbmRounds));
    cfg.pbmPairIterations = static_cast<int>(
        args.getInt("pbm-pair-iters", cfg.pbmPairIterations));
    cfg.solverBackend = core::backendFromName(args.get("backend", "exact"));
    cfg.nystromLandmarks = static_cast<std::size_t>(
        args.getInt("landmarks",
                    static_cast<long long>(cfg.nystromLandmarks)));
    cfg.nystromStrategy = lowrank::strategyFromName(
        args.get("landmark-strategy", "kmeans++"));
    cfg.faults = cli::faultPlanFromArgs(args);

    const std::string kernelName = args.get("kernel", "gaussian");
    const double gamma = args.getDouble("gamma", defaultGamma);
    if (kernelName == "linear") {
      cfg.solver.kernel = kernel::KernelParams::linear();
    } else if (kernelName == "polynomial") {
      cfg.solver.kernel = kernel::KernelParams::polynomial(
          gamma, args.getDouble("coef0", 0.0),
          static_cast<int>(args.getInt("degree", 3)));
    } else if (kernelName == "sigmoid") {
      cfg.solver.kernel = kernel::KernelParams::sigmoid(
          gamma, args.getDouble("coef0", 0.0));
    } else {
      cfg.solver.kernel = kernel::KernelParams::gaussian(gamma);
    }
    cfg.solver.C = args.getDouble("C", 1.0);
    cfg.solver.positiveWeight = args.getDouble("w-pos", 1.0);
    cfg.solver.negativeWeight = args.getDouble("w-neg", 1.0);
    cfg.solver.tolerance = args.getDouble("tolerance", 1e-3);
    cfg.solver.shrinking = args.has("shrinking");
    cfg.solver.shrinkInterval = static_cast<std::size_t>(
        args.getInt("shrink-interval",
                    static_cast<long long>(cfg.solver.shrinkInterval)));

    std::optional<ckpt::CheckpointStore> store;
    if (args.has("checkpoint-dir")) {
      store.emplace(args.get("checkpoint-dir", "casvm-ckpt"));
      cfg.checkpoints = &*store;
      cfg.checkpointEvery =
          static_cast<std::size_t>(args.getInt("checkpoint-every", 4096));
      cfg.resume = args.has("resume");
    } else if (args.has("resume")) {
      std::fprintf(stderr, "casvm-train: --resume needs --checkpoint-dir\n");
      return 1;
    }
    // Retries work without a store too — each attempt just re-solves from
    // scratch instead of resuming from a snapshot.
    cfg.rankRetries = static_cast<int>(args.getInt("rank-retries", 0));

    const std::string transportName = args.get("transport", "thread");
    if (transportName == "proc") {
      cfg.transport = net::TransportKind::Proc;
    } else if (transportName != "thread") {
      throw Error("unknown transport '" + transportName +
                  "' (expected thread|proc)");
    }
    // Bounds-check before narrowing so a hostile 64-bit value cannot wrap
    // into a plausible tuning number; validate() then enforces the real
    // operational ranges with named errors.
    const auto tuningMs = [&](const char* name, int fallback) {
      const long long v = args.getInt(name, fallback);
      if (v < std::numeric_limits<int>::min() ||
          v > std::numeric_limits<int>::max()) {
        throw Error(std::string("--") + name + " value " + std::to_string(v) +
                    " is out of range");
      }
      return static_cast<int>(v);
    };
    cfg.transportTuning.heartbeatMs =
        tuningMs("heartbeat-ms", cfg.transportTuning.heartbeatMs);
    cfg.transportTuning.commTimeoutMs =
        tuningMs("comm-timeout-ms", cfg.transportTuning.commTimeoutMs);
    cfg.transportTuning.respawnBackoffMs =
        tuningMs("respawn-backoff-ms", cfg.transportTuning.respawnBackoffMs);
    cfg.transportTuning.validate();
    cfg.supervisorLog = args.get("supervisor-log", "");

    std::optional<obs::TraceRecorder> recorder;
    if (args.has("trace") || args.has("metrics-json")) {
      recorder.emplace();
      cfg.trace = &*recorder;
    }

    std::printf("training: %zu samples x %zu features, method %s, P=%d\n",
                train.rows(), train.cols(),
                core::methodName(cfg.method).c_str(), cfg.processes);
    if (cfg.solverBackend == core::SolverBackend::Nystrom) {
      std::printf("backend: nystrom (%zu landmarks per factor, %s)\n",
                  cfg.nystromLandmarks,
                  lowrank::strategyName(cfg.nystromStrategy).c_str());
    }
    std::optional<core::TrainResult> trained;
    try {
      trained = core::train(train, cfg);
    } catch (...) {
      // The run is unwinding (watchdog abort, unwound collective, injected
      // crash past tolerance): flush the partial trace before teardown.
      flushTraceOnFailure(recorder ? &*recorder : nullptr, args);
      throw;
    }
    const core::TrainResult& res = *trained;

    if (res.resumed && res.checkpointsLoaded > 0) {
      std::printf("resumed: %zu checkpoint artifact(s) restored from %s\n",
                  res.checkpointsLoaded,
                  args.get("checkpoint-dir", "casvm-ckpt").c_str());
    }
    if (!res.recoveredRanks.empty()) {
      std::string ranks;
      for (int r : res.recoveredRanks) {
        if (!ranks.empty()) ranks += ", ";
        ranks += std::to_string(r);
      }
      std::printf("recovered: rank(s) %s crashed and were retried back to "
                  "full coverage\n",
                  ranks.c_str());
    }
    if (res.degraded) {
      std::string ranks;
      for (int r : res.failedRanks) {
        if (!ranks.empty()) ranks += ", ";
        ranks += std::to_string(r);
      }
      std::printf(
          "degraded run: rank(s) %s crashed; %zu of %d partitions survived "
          "(%.1f%% of training data covered)\n",
          ranks.c_str(), res.model.numModels(), cfg.processes,
          100.0 * res.coveredFraction);
    }
    std::printf("iterations: %lld (critical path %lld)\n",
                res.totalIterations, res.criticalIterations);
    std::printf("time: init %.3fs + train %.3fs (virtual), wall %.3fs\n",
                res.initSeconds, res.trainSeconds, res.wallSeconds);
    std::printf("communication: %s in %s messages\n",
                TablePrinter::fmtBytes(
                    static_cast<double>(res.runStats.traffic.totalBytes()))
                    .c_str(),
                TablePrinter::fmtCount(
                    static_cast<long long>(res.runStats.traffic.totalOps()))
                    .c_str());
    std::printf("support vectors: %zu across %zu sub-models\n",
                res.model.totalSupportVectors(), res.model.numModels());
    if (!test.empty()) {
      std::printf("held-out accuracy: %.2f%%\n",
                  100.0 * res.model.accuracy(test));
    }

    if (recorder) {
      if (args.has("trace")) {
        const std::string path = args.get("trace", "trace.json");
        recorder->writeChromeTrace(path);
        std::printf("trace written to %s (%zu events; open in "
                    "chrome://tracing)\n",
                    path.c_str(), recorder->eventCount());
      }
      if (args.has("metrics-json")) {
        const std::string path = args.get("metrics-json", "metrics.json");
        buildMetrics(res, *recorder).writeFile(path);
        std::printf("metrics written to %s\n", path.c_str());
      }
    }

    const std::string out = args.get("out", "casvm.model");
    res.model.save(out);
    std::printf("model written to %s\n", out.c_str());
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "casvm-train: %s\n", e.what());
    return 1;
  }
}
