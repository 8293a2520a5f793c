#include "casvm/core/train.hpp"

#include <algorithm>

#include "casvm/ckpt/state.hpp"
#include "casvm/ckpt/store.hpp"
#include "casvm/cluster/partition.hpp"
#include "casvm/support/bytes.hpp"
#include "casvm/support/checksum.hpp"
#include "casvm/support/error.hpp"
#include "board_codec.hpp"
#include "methods.hpp"

namespace casvm::core {

namespace {

/// Initial per-rank data placement, modelling a dataset that lives
/// distributed on a parallel filesystem (or, for RA-CA casvm1, staged on
/// one node). This happens outside the engine and is not charged to any
/// phase — it is where the data *starts*, not something the method does.
std::vector<data::Dataset> initialPlacement(const data::Dataset& trainSet,
                                            const TrainConfig& config) {
  const int P = config.processes;
  std::vector<data::Dataset> blocks(static_cast<std::size_t>(P));
  if (config.method == Method::RaCa && !config.raInitialDataOnRoot) {
    // casvm2: random even parts are already in place on each node.
    const cluster::Partition part =
        cluster::randomPartition(trainSet, P, config.seed);
    const auto groups = part.groups();
    for (int r = 0; r < P; ++r) {
      blocks[static_cast<std::size_t>(r)] =
          trainSet.subset(groups[static_cast<std::size_t>(r)]);
    }
  } else if (config.method == Method::RaCa) {
    // casvm1: everything starts on rank 0.
    blocks[0] = trainSet;
  } else if (config.method == Method::Pbm) {
    // PBM warm-starts a serial SMO on every block each round: random even
    // parts keep each block two-class (a contiguous slice of a sorted
    // dataset would hand a rank a single-class block it cannot solve).
    const cluster::Partition part =
        cluster::randomPartition(trainSet, P, config.seed);
    const auto groups = part.groups();
    for (int r = 0; r < P; ++r) {
      blocks[static_cast<std::size_t>(r)] =
          trainSet.subset(groups[static_cast<std::size_t>(r)]);
    }
  } else {
    // Even contiguous blocks, the standard distributed starting layout.
    const cluster::Partition part = cluster::blockPartition(trainSet, P);
    const auto groups = part.groups();
    for (int r = 0; r < P; ++r) {
      blocks[static_cast<std::size_t>(r)] =
          trainSet.subset(groups[static_cast<std::size_t>(r)]);
    }
  }
  return blocks;
}

/// Identity hash of (config, dataset) for checkpoint-directory validation.
/// Fields are appended individually (never whole structs, whose padding
/// bytes are indeterminate) so the fingerprint is deterministic.
std::uint64_t runFingerprint(const data::Dataset& trainSet,
                             const TrainConfig& config) {
  support::ByteWriter w;
  w.scalar(static_cast<std::uint32_t>(config.method));
  w.scalar(static_cast<std::int64_t>(config.processes));
  w.scalar(config.seed);
  w.scalar(static_cast<std::uint64_t>(config.kmeansMaxLoops));
  w.scalar(config.kmeansChangeThreshold);
  w.scalar(static_cast<std::uint8_t>(config.raInitialDataOnRoot));
  w.scalar(static_cast<std::int64_t>(config.cascadePasses));
  w.scalar(static_cast<std::uint8_t>(config.treeWarmStart));
  w.scalar(static_cast<std::uint8_t>(config.ratioBalance));
  const solver::SolverOptions& s = config.solver;
  w.scalar(static_cast<std::uint8_t>(s.kernel.type));
  w.scalar(s.kernel.gamma);
  w.scalar(s.kernel.a);
  w.scalar(s.kernel.r);
  w.scalar(static_cast<std::int64_t>(s.kernel.degree));
  w.scalar(s.C);
  w.scalar(s.tolerance);
  w.scalar(static_cast<std::uint64_t>(s.maxIterations));
  w.scalar(static_cast<std::uint8_t>(s.selection));
  w.scalar(s.positiveWeight);
  w.scalar(s.negativeWeight);
  w.scalar(static_cast<std::uint8_t>(s.shrinking));
  w.scalar(static_cast<std::uint64_t>(s.shrinkInterval));
  w.scalar(static_cast<std::uint64_t>(config.checkpointEvery));
  w.scalar(static_cast<std::int64_t>(config.pbmRounds));
  w.scalar(static_cast<std::uint64_t>(config.pbmInnerIterations));
  w.scalar(static_cast<std::int64_t>(config.pbmPairIterations));
  w.scalar(static_cast<std::uint8_t>(config.solverBackend));
  w.scalar(static_cast<std::uint64_t>(config.nystromLandmarks));
  w.scalar(static_cast<std::uint8_t>(config.nystromStrategy));
  w.scalar(config.nystromEigenFloor);
  w.scalar(static_cast<std::uint64_t>(trainSet.rows()));
  w.scalar(static_cast<std::uint64_t>(trainSet.cols()));
  w.scalar(static_cast<std::uint64_t>(trainSet.positives()));
  const std::uint32_t lo = support::crc32(w.view());
  const std::uint32_t hi = support::crc32(w.view(), lo);
  return (static_cast<std::uint64_t>(hi) << 32) | lo;
}

long long LayerStatsMaxOf(const std::vector<long long>& v) {
  long long best = 0;
  for (long long x : v) best = std::max(best, x);
  return best;
}

}  // namespace

const char* backendName(SolverBackend backend) {
  switch (backend) {
    case SolverBackend::Exact:
      return "exact";
    case SolverBackend::Nystrom:
      return "nystrom";
  }
  return "exact";
}

SolverBackend backendFromName(std::string_view name) {
  if (name == "exact") return SolverBackend::Exact;
  if (name == "nystrom") return SolverBackend::Nystrom;
  CASVM_CHECK(false, "unknown solver backend (expected exact|nystrom)");
  return SolverBackend::Exact;
}

long long LayerStats::maxIterations() const {
  return LayerStatsMaxOf(iterationsPerNode);
}

long long LayerStats::totalSVs() const {
  long long total = 0;
  for (long long s : svsPerNode) total += s;
  return total;
}

double LayerStats::maxSeconds() const {
  double best = 0.0;
  for (double s : secondsPerNode) best = std::max(best, s);
  return best;
}

long long LayerStats::maxSamples() const {
  return LayerStatsMaxOf(samplesPerNode);
}

TrainResult train(const data::Dataset& trainSet, const TrainConfig& config) {
  const int P = config.processes;
  CASVM_CHECK(P >= 1, "need at least one process");
  CASVM_CHECK(trainSet.rows() >= static_cast<std::size_t>(P),
              "fewer samples than processes");
  if (config.solverBackend == SolverBackend::Nystrom) {
    CASVM_CHECK(config.method != Method::Pbm,
                "PBM does not support the Nystrom backend: its replicated "
                "line search is defined over exact cross-block kernel rows");
    CASVM_CHECK(config.nystromLandmarks > 0,
                "the Nystrom backend needs at least one landmark");
  }

  // Checkpoint-directory identity: a fresh run stamps the directory with
  // the run's fingerprint and hides whatever an earlier run left there (a
  // retry or respawn restores only this run's state); a resume refuses to
  // blend state from a different config or dataset into nonsense.
  if (config.checkpoints != nullptr) {
    CASVM_CHECK(config.checkpointEvery > 0,
                "checkpointEvery must be > 0 when checkpointing is enabled");
    config.checkpoints->beginRun(config.resume);
    ckpt::RunMeta meta;
    meta.fingerprint = runFingerprint(trainSet, config);
    meta.method = static_cast<std::uint32_t>(config.method);
    meta.processes = static_cast<std::uint32_t>(P);
    meta.rows = trainSet.rows();
    meta.cols = trainSet.cols();
    if (config.resume) {
      if (const auto payload =
              config.checkpoints->load("meta", ckpt::Kind::Meta)) {
        const ckpt::RunMeta prev = ckpt::decodeMeta(*payload);
        CASVM_CHECK(prev.fingerprint == meta.fingerprint &&
                        prev.method == meta.method &&
                        prev.processes == meta.processes &&
                        prev.rows == meta.rows && prev.cols == meta.cols,
                    "resume refused: the checkpoint directory was written "
                    "by a different run (config/dataset fingerprint "
                    "mismatch)");
      }
    }
    config.checkpoints->save("meta", ckpt::Kind::Meta, ckpt::encodeMeta(meta));
  } else {
    CASVM_CHECK(!config.resume,
                "resume requested without a checkpoint store");
  }

  const std::vector<data::Dataset> blocks = initialPlacement(trainSet, config);
  RankBoard board(P);
  detail::MethodContext mctx{config, blocks, board};

  net::Engine engine(P, config.cost);
  engine.setFaultPlan(config.faults);
  engine.setWatchdogSeconds(config.watchdogSeconds);
  engine.setTraceRecorder(config.trace);
  // Partitioned methods train P fully independent sub-SVMs, so a crashed
  // rank only costs its own partition; tree methods and Dis-SMO need every
  // rank and must fail fast instead.
  engine.setTolerateRankFailures(isPartitionedMethod(config.method));
  engine.setTransport(config.transport, config.transportTuning);
  if (config.transport == net::TransportKind::Proc) {
    // Workers are separate processes: board writes die with the worker, so
    // each rank ships its slots back through the engine's result channel.
    net::Engine::ResultChannel channel;
    channel.serialize = [&board](int rank) {
      return detail::encodeBoardSlot(board, rank);
    };
    channel.absorb = [&board](int rank, const std::vector<std::byte>& bytes) {
      detail::absorbBoardSlot(board, rank, bytes);
    };
    engine.setResultChannel(std::move(channel));
    engine.setSupervisorLogPath(config.supervisorLog);
    // A killed worker can be respawned against the newest agreed
    // checkpoint generation — but only for the partitioned methods, whose
    // training phase is collective-free (the checkpoint store is what the
    // replacement resumes from).
    if (config.checkpoints != nullptr && config.rankRetries > 0 &&
        isPartitionedMethod(config.method)) {
      engine.setRespawnBudget(config.rankRetries);
      engine.setRespawnFn([&mctx](net::Comm& comm, int attempt) {
        detail::resumeRankLocal(comm, mctx, attempt);
      });
    }
  }
  net::RunStats stats = engine.run(
      [&](net::Comm& comm) { detail::runMethod(comm, mctx); });

  CASVM_CHECK(stats.failures.size() < static_cast<std::size_t>(P),
              "every rank crashed — no surviving partition to build a "
              "model from");

  TrainResult out = detail::assembleFromBoard(
      config, board, P, stats.failures,
      static_cast<long long>(trainSet.rows()));
  out.runStats = stats;
  out.wallSeconds = stats.wallSeconds;

  // --- traffic ----------------------------------------------------------------
  out.initTraffic = board.initSnapshot;
  if (out.initTraffic.size == 0) {
    // Zero-communication path never snapshotted; synthesize an empty one.
    out.initTraffic.size = stats.size;
    out.initTraffic.bytes.assign(
        static_cast<std::size_t>(stats.size) * stats.size, 0);
    out.initTraffic.ops.assign(
        static_cast<std::size_t>(stats.size) * stats.size, 0);
  }
  out.trainTraffic = stats.traffic.since(out.initTraffic);
  return out;
}

namespace detail {

TrainResult assembleFromBoard(const TrainConfig& config, RankBoard& board,
                              int P,
                              const std::vector<net::RankFailure>& failures,
                              long long totalTrainRows) {
  TrainResult out;
  out.method = config.method;

  // --- fault-tolerance bookkeeping ------------------------------------------
  // A crashed rank's board slots past its crash point were never written:
  // its model is empty, its center is empty, its trainEndVirtual is 0.
  // Everything below must route around those holes.
  std::vector<char> survived(static_cast<std::size_t>(P), 1);
  for (const net::RankFailure& f : failures) {
    survived[static_cast<std::size_t>(f.rank)] = 0;
    out.failedRanks.push_back(f.rank);
  }
  std::sort(out.failedRanks.begin(), out.failedRanks.end());
  out.degraded = !failures.empty();

  // --- recovery bookkeeping -------------------------------------------------
  // Ranks that crashed but were brought back by in-run retry are NOT
  // failures: their partitions are covered and the run is not degraded on
  // their account.
  out.retriesPerRank.assign(board.retries.begin(), board.retries.end());
  out.resumed = config.resume;
  for (int r = 0; r < P; ++r) {
    const auto ur = static_cast<std::size_t>(r);
    if (board.recovered[ur] != 0) out.recoveredRanks.push_back(r);
    out.checkpointsLoaded +=
        static_cast<std::size_t>(board.checkpointsLoaded[ur]);
  }

  // --- model assembly ------------------------------------------------------
  if (isGlobalMethod(config.method)) {
    data::Dataset svs;
    std::vector<double> alphaY;
    for (int r = 0; r < P; ++r) {
      const solver::Model& fragment = board.models[static_cast<std::size_t>(r)];
      svs = data::Dataset::concat(svs, fragment.supportVectors());
      alphaY.insert(alphaY.end(), fragment.alphaY().begin(),
                    fragment.alphaY().end());
    }
    out.model = DistributedModel::single(solver::Model(
        config.solver.kernel, std::move(svs), std::move(alphaY),
        board.models[0].bias()));
  } else if (isTreeMethod(config.method)) {
    out.model = DistributedModel::single(board.models[0]);
  } else {
    // Partitioned methods: keep the surviving sub-models only. Prediction
    // routes by nearest center, so dropping a (model, center) pair sends
    // that partition's queries to the nearest surviving neighbour.
    std::vector<solver::Model> models;
    std::vector<std::vector<float>> centers;
    long long totalSamples = 0;
    long long coveredSamples = 0;
    for (int r = 0; r < P; ++r) {
      const auto ur = static_cast<std::size_t>(r);
      totalSamples += board.samples[ur];
      out.coverage.push_back(PartitionCoverage{
          r, board.samples[ur], survived[ur] != 0});
      if (survived[ur] != 0) {
        coveredSamples += board.samples[ur];
        models.push_back(board.models[ur]);
        centers.push_back(board.centers[ur]);
      }
    }
    // On the process transport a SIGKILLed rank never deposited its
    // sample count, so the board sum under-reports the total; the caller
    // passes the true dataset size to keep the fraction honest.
    if (totalTrainRows >= 0) totalSamples = totalTrainRows;
    if (totalSamples > 0) {
      out.coveredFraction =
          static_cast<double>(coveredSamples) / static_cast<double>(totalSamples);
    }
    out.model = DistributedModel::routed(std::move(models), std::move(centers));
  }

  // --- timing ---------------------------------------------------------------
  for (int r = 0; r < P; ++r) {
    const auto ur = static_cast<std::size_t>(r);
    out.initSeconds = std::max(out.initSeconds, board.initEndVirtual[ur]);
    if (survived[ur] == 0) continue;  // dead rank never marked train end
    out.trainSeconds = std::max(
        out.trainSeconds,
        board.trainEndVirtual[ur] - board.initEndVirtual[ur]);
  }

  // --- per-rank detail -------------------------------------------------------
  out.samplesPerRank = board.samples;
  out.svsPerRank = board.svs;
  out.positivesPerRank = board.positives;
  out.trainSecondsPerRank.resize(static_cast<std::size_t>(P));
  for (int r = 0; r < P; ++r) {
    const auto ur = static_cast<std::size_t>(r);
    out.trainSecondsPerRank[ur] =
        survived[ur] != 0
            ? board.trainEndVirtual[ur] - board.initEndVirtual[ur]
            : 0.0;
  }
  out.kmeansLoops = *std::max_element(board.kmeansLoops.begin(),
                                      board.kmeansLoops.end());

  // --- iterations ------------------------------------------------------------
  if (config.method == Method::DisSmo ||
      config.method == Method::DisSmoShrink) {
    // Lock-step global iterations: every rank executed the same count, so
    // the total IS the critical path (rank 0's counter is authoritative).
    out.iterationsPerRank = board.iterations;
    out.totalIterations = board.iterations[0];
    out.criticalIterations = board.iterations[0];
  } else if (config.method == Method::Pbm) {
    // Block solves run in parallel per rank; the pair corrections are
    // lock-step global iterations shared by everyone (rank 0's counter).
    out.iterationsPerRank = board.iterations;
    out.pairIterations = board.auxIterations[0];
    long long maxBlock = 0;
    for (long long it : board.iterations) {
      out.totalIterations += it;
      maxBlock = std::max(maxBlock, it);
    }
    out.totalIterations += board.auxIterations[0];
    out.criticalIterations = maxBlock + board.auxIterations[0];
  } else if (isTreeMethod(config.method)) {
    int maxLayer = 0;
    for (const auto& records : board.layerRecords) {
      for (const auto& rec : records) maxLayer = std::max(maxLayer, rec.layer);
    }
    for (int layer = 1; layer <= maxLayer; ++layer) {
      LayerStats ls;
      ls.layer = layer;
      for (int r = 0; r < P; ++r) {
        for (const auto& rec : board.layerRecords[static_cast<std::size_t>(r)]) {
          if (rec.layer != layer) continue;
          ++ls.nodesUsed;
          ls.samplesPerNode.push_back(rec.samples);
          ls.iterationsPerNode.push_back(rec.iterations);
          ls.svsPerNode.push_back(rec.svs);
          ls.secondsPerNode.push_back(rec.seconds);
          out.totalIterations += rec.iterations;
        }
      }
      out.criticalIterations += ls.maxIterations();
      out.layers.push_back(std::move(ls));
    }
  } else {
    out.iterationsPerRank = board.iterations;
    for (long long it : board.iterations) {
      out.totalIterations += it;
      out.criticalIterations = std::max(out.criticalIterations, it);
    }
  }

  // --- shrinking / caching detail (DisSmoShrink, Pbm; inert elsewhere) -----
  out.shrinkEngagedIteration = board.shrinkEngagedIter[0];
  for (long long skipped : board.rowBcastsSkipped) {
    out.electedRowBcastsSkipped += skipped;
  }

  return out;
}

/// Deterministic initial data placement, shared with the group-parallel
/// multiclass trainer (every rank recomputes the same placement locally).
std::vector<data::Dataset> placementFor(const data::Dataset& trainSet,
                                        const TrainConfig& config) {
  return initialPlacement(trainSet, config);
}

void runMethod(net::Comm& comm, const MethodContext& ctx) {
  comm.faultCheckpoint("init");
  switch (ctx.config.method) {
    case Method::DisSmo:
    case Method::DisSmoShrink:
      runDisSmo(comm, ctx);
      break;
    case Method::Pbm:
      runPbm(comm, ctx);
      break;
    case Method::Cascade:
    case Method::DcSvm:
    case Method::DcFilter:
      runTree(comm, ctx);
      break;
    default:
      runPartitioned(comm, ctx);
      break;
  }
}

}  // namespace detail

}  // namespace casvm::core
