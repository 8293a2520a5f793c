// Distributed SMO (the paper's Dis-SMO baseline, after Cao et al. 2006),
// plus the adaptive-shrinking variant (Narasimhan & Vishnu 2014).
//
// One global SMO solve runs across P ranks, each owning a block of rows.
// It is the serial solver's loop (casvm/solver/smo_loop.hpp) run through
// GlobalPairSource (global_common.hpp), so every iteration is
//   1. the local masked selection pass over the owned (active) rows,
//   2. two allreduce MINLOC/MAXLOC reductions electing (i_high, i_low),
//   3. two broadcasts shipping the elected samples to everyone,
//   4. a local gradient update of f over the owned active rows (eqn. 5),
//      one kernel column per elected sample from the kernel layer.
// This is exactly the 14 log P t_s + 2 n log P t_w per-iteration pattern of
// the paper's eqn. (9), and is why Dis-SMO's isoefficiency is W = Omega(P^3).
// This file owns what is Dis-SMO's alone: placement, the global Nyström
// landmark set, the agreed-generation resume, the snapshot sink and the
// board fields.
//
// Method::DisSmoShrink turns on the loop's shrink pass, whose thresholds
// and commit counts the ranks agree on by allreduce: each rank drops its
// bound-pinned out-of-contention rows, and the scan/gradient work falls to
// the surviving active set. It also hands the source a replicated
// GlobalRowStore from iteration 0, so a re-elected sample costs no
// broadcast: elections concentrate on the recurring support-vector core,
// and shrinking cuts both the O(m/P) compute term and the 2n log P t_w
// bandwidth term of eqn. (9). The store changes bytes, never iterates;
// plain Dis-SMO runs without it, because its traffic is the paper's
// baseline. Before convergence is declared the full gradient is rebuilt
// from the globally gathered support vectors and every row reactivated,
// exactly like the serial solver's unshrink.

#include <algorithm>
#include <numeric>
#include <optional>

#include "global_common.hpp"
#include "methods.hpp"
#include "casvm/ckpt/state.hpp"
#include "casvm/ckpt/store.hpp"
#include "casvm/lowrank/nystrom.hpp"
#include "casvm/obs/trace.hpp"
#include "casvm/support/error.hpp"

namespace casvm::core::detail {

void runDisSmo(net::Comm& comm, const MethodContext& ctx) {
  const int rank = comm.rank();
  const auto urank = static_cast<std::size_t>(rank);
  const data::Dataset& local = ctx.initialBlocks[urank];
  RankBoard& board = ctx.board;

  board.samples[urank] = static_cast<long long>(local.rows());
  board.positives[urank] = static_cast<long long>(local.positives());

  // Init phase: blocks are pre-placed; nothing to distribute.
  markInitEnd(comm, ctx);
  comm.faultCheckpoint("train");

  const solver::SolverOptions& opts = ctx.config.solver;
  const kernel::Kernel kern(opts.kernel);
  const std::size_t mLocal = local.rows();
  const std::size_t n = local.cols();
  const bool shrinking = ctx.config.method == Method::DisSmoShrink;

  // Low-rank backend: ONE global landmark set shared by every rank. Each
  // rank selects its deterministic share of the L landmarks from its own
  // block, an allgatherv concatenates the shares in rank order, and every
  // rank builds its local Z against the identical set. The z-map of a
  // broadcast row is then the same bytes everywhere, so the elected-pair
  // step (eta, deltas) stays replicated — the collective-safety invariant
  // survives the approximation. Per-rank landmark sets would break it:
  // K̃ would differ by rank and elections would diverge.
  const bool lowrankOn = ctx.config.solverBackend == SolverBackend::Nystrom;
  std::optional<lowrank::NystromFactor> lrFactor;
  if (lowrankOn) {
    PhaseSpan span(comm, "lowrank");
    const int P = comm.size();
    const std::size_t L = ctx.config.nystromLandmarks;
    std::size_t share = L / static_cast<std::size_t>(P) +
                        (static_cast<std::size_t>(rank) < L % static_cast<std::size_t>(P) ? 1 : 0);
    share = std::min(share, mLocal);
    const std::vector<std::size_t> mineIdx = lowrank::selectLandmarks(
        local, share, ctx.config.nystromStrategy,
        ctx.config.seed ^ (0x9E3779B97F4A7C15ull *
                           static_cast<std::uint64_t>(rank + 1)));
    const lowrank::LandmarkSet localSet =
        lowrank::extractLandmarks(local, mineIdx);
    lowrank::LandmarkSet globalSet;
    globalSet.features = n;
    globalSet.rows = comm.allgatherv(localSet.rows);
    globalSet.selfDots = comm.allgatherv(localSet.selfDots);
    lrFactor = lowrank::NystromFactor::buildWithLandmarks(
        kern, local, std::move(globalSet), ctx.config.nystromEigenFloor);
  }

  solver::SolverSnapshot state;
  state.alpha.assign(mLocal, 0.0);
  state.f.resize(mLocal);
  for (std::size_t i = 0; i < mLocal; ++i) state.f[i] = -double(local.label(i));
  state.active.resize(mLocal);
  std::iota(state.active.begin(), state.active.end(), 0);

  ckpt::CheckpointStore* store = ctx.config.checkpoints;
  const std::string solverName = "solver.r" + std::to_string(rank);

  if (store != nullptr && ctx.config.resume) {
    // Cross-process resume: snapshots are aligned at iteration multiples,
    // and the blocking collectives keep ranks within one iteration of each
    // other, so the agreed generation is the newest common iteration.
    if (auto snap = restoreAgreedGeneration(
            comm, *store, solverName, ckpt::Kind::DisSmoState, mLocal,
            ckpt::decodeSolverState,
            [](const solver::SolverSnapshot& s) { return s.iteration; })) {
      state = std::move(*snap);
      ++board.checkpointsLoaded[urank];
    }
  }

  const long long globalM = comm.allreduceSum(static_cast<long long>(mLocal));
  const std::size_t maxIters =
      opts.maxIterations > 0
          ? opts.maxIterations
          : static_cast<std::size_t>(100 * globalM + 10000);

  // The row store changes bytes, never iterates, and is deliberately not
  // checkpointed: a resume rebuilds it empty and only the communication
  // volume differs.
  std::optional<GlobalRowStore> rowStore;
  if (shrinking) rowStore.emplace(n, opts.cacheBytes);
  GlobalPairSource source(comm, local, kern, lrFactor ? &*lrFactor : nullptr,
                          rowStore ? &*rowStore : nullptr);

  solver::SolverOptions loopOpts = opts;
  loopOpts.shrinking = shrinking;
  loopOpts.trace = comm.traceLane();
  loopOpts.snapshotSink = nullptr;
  loopOpts.snapshotInterval = 0;
  if (store != nullptr && ctx.config.checkpointEvery > 0) {
    // Durable-first ordering: the fault checkpoint fires only after the
    // snapshot is on disk, so a crash at phase=solve is exactly resumable.
    loopOpts.snapshotInterval = ctx.config.checkpointEvery;
    loopOpts.snapshotSink = [&](const solver::SolverSnapshot& snap) {
      store->save(solverName, ckpt::Kind::DisSmoState,
                  ckpt::encodeSolverState(snap));
      comm.faultCheckpoint("solve");
    };
  }

  std::optional<PhaseSpan> solvePhase;
  solvePhase.emplace(comm, "solve");
  solver::SmoLoop loop(source, local, loopOpts, state);
  loop.run(maxIters);
  // Every rank saw the same final thresholds, so any rank's bias is
  // authoritative.
  const double bias = loop.finish();
  solvePhase.reset();  // end the "solve" span before train-end bookkeeping

  markTrainEnd(comm, ctx);

  // Deposit this rank's model fragment (its support vectors); the driver
  // concatenates fragments into the single global model.
  board.models[urank] =
      solver::Model::fromDual(opts.kernel, local, state.alpha, bias);
  board.iterations[urank] = static_cast<long long>(state.iteration);
  board.svs[urank] =
      static_cast<long long>(board.models[urank].numSupportVectors());
  // The engagement iteration is a per-run statistic: a resumed shrunk run
  // reports its resume point.
  board.shrinkEngagedIter[urank] = loop.shrinkEngaged();
  board.rowBcastsSkipped[urank] = rowStore ? rowStore->hits() : 0;
}

}  // namespace casvm::core::detail
