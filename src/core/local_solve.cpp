// One rank's checkpointed local work, shared by every path that trains or
// recovers it: the partitioned methods' first attempt, their in-run retry,
// a cross-process --resume, the proc transport's respawned worker, and
// each layer of the reduction-tree methods.
//
// Everything here is collective-free except restorePartition's agreement,
// which is what lets a crashed partitioned rank recover on its own (paper
// §IV–V: training is P independent local solves).

#include <optional>
#include <string>

#include "casvm/ckpt/state.hpp"
#include "casvm/ckpt/store.hpp"
#include "casvm/lowrank/lowrank_kernel.hpp"
#include "casvm/lowrank/nystrom.hpp"
#include "methods.hpp"

namespace casvm::core::detail {

namespace {

std::string partitionName(const net::Comm& comm) {
  return "part.r" + std::to_string(comm.rank());
}

}  // namespace

std::optional<ckpt::PartitionState> restorePartition(net::Comm& comm,
                                                     const MethodContext& ctx,
                                                     bool collective) {
  std::optional<ckpt::PartitionState> part;
  if (const auto payload = ctx.config.checkpoints->load(
          partitionName(comm), ckpt::Kind::Partition)) {
    part = ckpt::decodePartition(*payload);
  }
  if (collective) {
    const int everyRank = comm.allreduce(
        part.has_value() ? 1 : 0, [](int a, int b) { return a < b ? a : b; });
    if (everyRank == 0) part.reset();
  }
  if (part.has_value()) {
    const auto urank = static_cast<std::size_t>(comm.rank());
    ctx.board.kmeansLoops[urank] = part->kmeansLoops;
    ++ctx.board.checkpointsLoaded[urank];
  }
  return part;
}

void savePartition(net::Comm& comm, const MethodContext& ctx,
                   const ckpt::PartitionState& part) {
  if (ctx.config.checkpoints == nullptr) return;
  ctx.config.checkpoints->save(partitionName(comm), ckpt::Kind::Partition,
                               ckpt::encodePartition(part));
}

CheckpointedSolve solveCheckpointed(net::Comm& comm, const MethodContext& ctx,
                                    const data::Dataset& data,
                                    const std::string& tag, bool restore,
                                    std::uint64_t nystromSalt,
                                    long long spanDetail,
                                    std::span<const double> warmStart) {
  const auto urank = static_cast<std::size_t>(comm.rank());
  RankBoard& board = ctx.board;
  ckpt::CheckpointStore* store = ctx.config.checkpoints;
  const bool restoring = store != nullptr && restore;
  const std::string solverName = "solver" + tag;
  const std::string factorName = "lowrank" + tag;

  solver::SolverOptions sopts = ctx.config.solver;
  if (comm.traceLane() != nullptr) {
    sopts.trace = comm.traceLane();
    sopts.traceTimeOffset = virtualNow(comm);
  }
  std::optional<solver::SolverSnapshot> resumeSnap;
  if (restoring) {
    if (const auto payload = store->load(solverName, ckpt::Kind::SolverState)) {
      resumeSnap = ckpt::decodeSolverState(*payload);
      if (resumeSnap->alpha.size() == data.rows()) {
        ++board.checkpointsLoaded[urank];
        sopts.resumeFrom = &*resumeSnap;
      }  // else a stale snapshot of different rows: solve from scratch
    }
  }
  if (store != nullptr) {
    sopts.snapshotInterval = ctx.config.checkpointEvery;
    sopts.snapshotSink = [&](const solver::SolverSnapshot& snap) {
      store->save(solverName, ckpt::Kind::SolverState,
                  ckpt::encodeSolverState(snap));
      // Durable-first ordering: when a crash fires at this solve
      // checkpoint, the snapshot it would resume from is already on disk,
      // so mid-solve interrupts are exactly resumable.
      comm.faultCheckpoint("solve");
    };
  }

  // Low-rank backend: the data being solved is this rank's cluster, so its
  // Nyström factor is built here from local rows with zero communication.
  // The factor is durable: a restore loads it instead of rebuilding, and
  // because the build is deterministic both yield the bitwise-same factor.
  std::optional<lowrank::LowRankKernel> lowrankSource;
  if (ctx.config.solverBackend == SolverBackend::Nystrom && data.rows() > 0) {
    std::optional<lowrank::NystromFactor> factor;
    if (restoring) {
      if (const auto payload =
              store->load(factorName, ckpt::Kind::LowRankFactor)) {
        lowrank::NystromFactor restored =
            lowrank::NystromFactor::decode(*payload);
        if (restored.rows() == data.rows()) {
          factor = std::move(restored);
          ++board.checkpointsLoaded[urank];
        }
      }
    }
    if (!factor.has_value()) {
      PhaseSpan span(comm, "lowrank", spanDetail);
      lowrank::NystromOptions nopts;
      nopts.landmarks = ctx.config.nystromLandmarks;
      nopts.strategy = ctx.config.nystromStrategy;
      nopts.eigenFloor = ctx.config.nystromEigenFloor;
      nopts.seed = ctx.config.seed ^ (0x9E3779B97F4A7C15ull * nystromSalt);
      const kernel::Kernel kern(sopts.kernel);
      factor = lowrank::NystromFactor::build(kern, data, nopts);
      if (store != nullptr) {
        store->save(factorName, ckpt::Kind::LowRankFactor, factor->encode());
      }
    }
    lowrankSource.emplace(std::move(*factor));
    sopts.rowSource = &*lowrankSource;
  }

  CheckpointedSolve out;
  const double t0 = virtualNow(comm);
  {
    PhaseSpan span(comm, "solve", spanDetail);
    out.solve = trainLocalSvm(data, sopts, warmStart);
  }
  out.seconds = virtualNow(comm) - t0;
  return out;
}

void finishRank(net::Comm& comm, const MethodContext& ctx,
                ckpt::PartitionState& part, int attempt) {
  const int rank = comm.rank();
  const auto urank = static_cast<std::size_t>(rank);
  RankBoard& board = ctx.board;
  ckpt::CheckpointStore* store = ctx.config.checkpoints;
  const std::string tag = ".r" + std::to_string(rank);
  const std::string modelName = "model" + tag;

  const auto deposit = [&](ckpt::SubModelState& sub, long long iterations) {
    markTrainEnd(comm, ctx);
    board.models[urank] = std::move(sub.model);
    board.centers[urank] = std::move(part.center);
    board.iterations[urank] = iterations;
    board.svs[urank] = sub.svs;
    board.retries[urank] = attempt;
    if (attempt > 0) board.recovered[urank] = 1;
  };

  // A finished sub-model this run may trust: a resumed run's previous
  // process, or a respawned worker's predecessor that died between the
  // save and its result frame, already did the work. Iteration counters
  // report solver work done in this run, so it cost zero iterations here.
  if (store != nullptr) {
    if (const auto payload = store->load(modelName, ckpt::Kind::SubModel)) {
      ckpt::SubModelState sub = ckpt::decodeSubModel(*payload);
      ++board.checkpointsLoaded[urank];
      deposit(sub, 0);
      return;
    }
  }

  // The phase=train crash point, inside the retry window (see
  // markInitEnd). A clause with times=N kills the first N attempts; a
  // respawned worker has no fault injector, so there it does nothing.
  comm.faultCheckpoint("train");

  // Every attempt after the first, and every resume, continues from the
  // newest snapshot and factor this run may trust.
  CheckpointedSolve done =
      solveCheckpointed(comm, ctx, part.local, tag,
                        ctx.config.resume || attempt > 0,
                        static_cast<std::uint64_t>(rank + 1));
  ckpt::SubModelState sub{std::move(done.solve.model), done.solve.iterations,
                          done.solve.svs};
  if (store != nullptr) {
    store->save(modelName, ckpt::Kind::SubModel, ckpt::encodeSubModel(sub));
    store->remove("solver" + tag);   // mid-solve state is now obsolete
    store->remove("lowrank" + tag);  // so is the low-rank factor
  }
  deposit(sub, sub.iterations);
}

}  // namespace casvm::core::detail
