// Distributed SMO (the paper's Dis-SMO baseline, after Cao et al. 2006),
// plus the adaptive-shrinking variant (Narasimhan & Vishnu 2014).
//
// One global SMO solve runs across P ranks, each owning a block of rows.
// Every iteration is one globalPairStep (global_common.hpp):
//   1. local working-set scan over the owned (active) rows,
//   2. two allreduce MINLOC/MAXLOC reductions electing (i_high, i_low),
//   3. two broadcasts shipping the elected samples to everyone,
//   4. a local gradient update of f over the owned active rows (eqn. 5),
//      one kernel column per elected sample from the kernel layer.
// This is exactly the 14 log P t_s + 2 n log P t_w per-iteration pattern of
// the paper's eqn. (9), and is why Dis-SMO's isoefficiency is W = Omega(P^3).
// This file owns the policy around the step: snapshots, shrink passes,
// unshrinking, convergence and the degenerate retry.
//
// Method::DisSmoShrink adds distributed adaptive shrinking on top: every
// shrinkInterval iterations the ranks agree (one allreduce pair) on global
// shrink thresholds, each rank drops its bound-pinned out-of-contention
// rows, and the scan/gradient work falls to the surviving active set. It
// also hands the step a replicated GlobalRowStore from iteration 0, so a
// re-elected sample costs no broadcast: elections concentrate on the
// recurring support-vector core, and shrinking cuts both the O(m/P)
// compute term and the 2n log P t_w bandwidth term of eqn. (9). The store
// changes bytes, never iterates; plain Dis-SMO runs without it, because its
// traffic is the paper's baseline. Before convergence is declared the full
// gradient is rebuilt from the globally gathered support vectors and every
// row reactivated, exactly like the serial solver's unshrink.
//
// Every branch that changes collective structure (shrink commit, unshrink,
// convergence, degenerate bail, store hit/miss) is decided from allreduced
// or broadcast values, so all ranks take it together — the loop stays
// deadlock-free by construction.

#include <algorithm>
#include <cmath>
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
  const double cPos = opts.C * opts.positiveWeight;
  const double cNeg = opts.C * opts.negativeWeight;
  const double boundEps = solver::kBoundSlack * std::max(cPos, cNeg);
  const double tau = opts.tolerance;
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
  const GlobalDual prob{local, kern, cPos, cNeg, boundEps, tau,
                        lrFactor ? &*lrFactor : nullptr};

  std::vector<double> alpha(mLocal, 0.0);
  std::vector<double> f(mLocal);
  for (std::size_t i = 0; i < mLocal; ++i) f[i] = -double(local.label(i));

  std::vector<std::size_t> active(mLocal);
  std::iota(active.begin(), active.end(), 0);
  bool everShrunk = false;
  std::size_t startIter = 0;
  long long shrinkEngaged = -1;  ///< iteration the first shrink committed

  ckpt::CheckpointStore* store = ctx.config.checkpoints;
  const std::string solverName = "solver.r" + std::to_string(rank);

  if (store != nullptr && ctx.config.resume) {
    // Cross-process resume. Snapshots are written in lock-step (aligned at
    // iteration multiples, and the blocking collectives keep ranks within
    // one iteration of each other), so the allreduce-min of each rank's
    // newest snapshot iteration is a generation every rank still holds —
    // the store keeps two. The agreement is double-checked: a rank missing
    // the agreed generation (e.g. a corrupt file) vetoes the restore and
    // everyone starts fresh together.
    std::vector<solver::SolverSnapshot> snaps;
    for (const auto& payload :
         store->loadGenerations(solverName, ckpt::Kind::DisSmoState)) {
      solver::SolverSnapshot snap = ckpt::decodeDisSmoState(payload);
      // A snapshot of a different placement (row-count mismatch) is stale.
      if (snap.alpha.size() == mLocal) snaps.push_back(std::move(snap));
    }
    long long newest = -1;
    for (const auto& s : snaps) {
      newest = std::max(newest, static_cast<long long>(s.iteration));
    }
    const long long agreed =
        comm.allreduce(newest, [](long long a, long long b) {
          return a < b ? a : b;
        });
    if (agreed > 0) {
      const solver::SolverSnapshot* chosen = nullptr;
      for (const auto& s : snaps) {
        if (static_cast<long long>(s.iteration) == agreed) chosen = &s;
      }
      int canUse = chosen != nullptr ? 1 : 0;
      canUse = comm.allreduce(canUse, [](int a, int b) { return a < b ? a : b; });
      if (canUse != 0) {
        alpha = chosen->alpha;
        f = chosen->f;
        active = chosen->active;
        everShrunk = chosen->everShrunk;
        startIter = chosen->iteration;
        ++board.checkpointsLoaded[urank];
        // The engagement iteration is a per-run statistic: a resumed
        // shrunk run reports its resume point.
        if (shrinking && everShrunk) {
          shrinkEngaged = static_cast<long long>(startIter);
        }
      }
    }
  }

  const long long globalM = comm.allreduceSum(static_cast<long long>(mLocal));
  const std::size_t maxIters =
      opts.maxIterations > 0
          ? opts.maxIterations
          : static_cast<std::size_t>(100 * globalM + 10000);

  double bHigh = 0.0, bLow = 0.0;
  long long iters = static_cast<long long>(startIter);
  PairWorkspace ws(prob);
  // The row store changes bytes, never iterates, and is deliberately not
  // checkpointed: a resume rebuilds it empty and only the communication
  // volume differs.
  std::optional<GlobalRowStore> rowStore;
  if (shrinking) rowStore.emplace(n, opts.cacheBytes);

  // Rebuild the gradient of shrunk-out rows and reactivate everything.
  // Collective (one allgatherv round shipping the global support vectors);
  // callers gate it on `everShrunk`, which is derived from allreduced
  // values and therefore identical on every rank — never on the local
  // active size, which may legitimately differ. One column per gathered
  // support vector over the stale rows, against the SAME kernel the
  // iterations used: mixing exact rows into a low-rank trajectory would
  // desynchronize f from the alphas that produced it.
  auto unshrink = [&] {
    std::vector<std::size_t> nzIdx;
    for (std::size_t i = 0; i < mLocal; ++i) {
      if (alpha[i] != 0.0) nzIdx.push_back(i);
    }
    std::vector<float> rowsFlat(nzIdx.size() * n, 0.0f);
    std::vector<double> coefs(nzIdx.size());
    std::vector<double> dots(nzIdx.size());
    for (std::size_t k = 0; k < nzIdx.size(); ++k) {
      const std::size_t j = nzIdx[k];
      local.copyRowDense(j, std::span<float>(rowsFlat).subspan(k * n, n));
      coefs[k] = alpha[j] * double(local.label(j));
      dots[k] = local.selfDot(j);
    }
    const std::vector<float> allRows = comm.allgatherv(rowsFlat);
    const std::vector<double> allCoefs = comm.allgatherv(coefs);
    const std::vector<double> allDots = comm.allgatherv(dots);

    std::vector<bool> isActive(mLocal, false);
    for (std::size_t i : active) isActive[i] = true;
    std::vector<std::size_t> stale;
    for (std::size_t i = 0; i < mLocal; ++i) {
      if (isActive[i]) continue;
      stale.push_back(i);
      f[i] = -double(local.label(i));
    }
    const std::span<const float> rows(allRows);
    std::vector<double> col(mLocal);
    for (std::size_t j = 0; j < allCoefs.size(); ++j) {
      const std::span<const float> x = rows.subspan(j * n, n);
      if (lowrankOn) {
        // ws.zHigh is free between pair steps.
        lrFactor->map(kern, x, allDots[j], ws.zHigh);
        for (std::size_t i : stale) col[i] = lrFactor->zdot(i, ws.zHigh);
      } else {
        ws.fillColumn(x, allDots[j], stale, col);
      }
      for (std::size_t i : stale) f[i] += allCoefs[j] * col[i];
    }
    active.resize(mLocal);
    std::iota(active.begin(), active.end(), 0);
  };

  obs::Lane* lane = comm.traceLane();
  constexpr std::size_t kProgressInterval = 512;
  std::optional<PhaseSpan> solvePhase;
  solvePhase.emplace(comm, "solve");

  bool degenerateRetried = false;
  for (std::size_t it = startIter; it < maxIters; ++it) {
    // Snapshot at the top of the iteration, before any of its state
    // mutates — restoring here and continuing replays the run bitwise.
    // Skipped at iteration 0 and at the resume iteration itself (that
    // snapshot is already durable). Durable-first ordering: the fault
    // checkpoint fires only after the snapshot is on disk, so a crash at
    // phase=solve is exactly resumable.
    if (store != nullptr && ctx.config.checkpointEvery > 0 && it != 0 &&
        it != startIter && it % ctx.config.checkpointEvery == 0) {
      solver::SolverSnapshot snap;
      snap.iteration = it;
      snap.everShrunk = everShrunk;
      snap.alpha = alpha;
      snap.f = f;
      snap.active = active;
      store->save(solverName, ckpt::Kind::DisSmoState,
                  ckpt::encodeDisSmoState(snap));
      comm.faultCheckpoint("solve");
    }

    const PairStepResult step =
        globalPairStep(comm, prob, active, alpha, f, ws, bHigh, bLow,
                       rowStore ? &*rowStore : nullptr);
    if (step == PairStepResult::Converged) {
      // Converged over the (possibly shrunk) active set. The shrink rules
      // are heuristics: rebuild the full problem and re-check before
      // declaring victory. One reconstruction per convergence attempt.
      if (everShrunk) {
        unshrink();
        everShrunk = false;
        continue;
      }
      break;
    }
    if (step == PairStepResult::Degenerate) {
      // The maximal violating pair is pinned and cannot move. While shrunk
      // this can be an artifact of the shrunk set (the sample that would
      // free the pair was shrunk away): restore the full problem and retry
      // once before giving up. Both the bail and the retry derive from
      // broadcast values — every rank takes them together.
      if (everShrunk && !degenerateRetried) {
        unshrink();
        everShrunk = false;
        degenerateRetried = true;
        continue;
      }
      break;
    }
    // Both thresholds are finite after a step (an empty candidate set
    // leaves one at +-inf, which reads as converged).
    if (lane != nullptr && it % kProgressInterval == 0) {
      lane->progress(virtualNow(comm), static_cast<std::int64_t>(it),
                     static_cast<std::int64_t>(active.size()), bLow - bHigh,
                     0.0);
    }
    ++iters;

    // Periodic shrink pass (DisSmoShrink only): agree on global
    // thresholds over the post-update gradient, filter locally with the
    // serial solver's keep() rules, then commit only on a globally agreed
    // decision — the commit condition compares allreduced counts, so the
    // active sets shrink (or don't) in unison.
    if (shrinking && (it + 1) % opts.shrinkInterval == 0) {
      double sHighLocal = kGlobalInf, sLowLocal = -kGlobalInf;
      for (std::size_t k : active) {
        const std::int8_t y = local.label(k);
        const double a = alpha[k];
        const double ck = prob.boxOf(k);
        if (solver::inHighSet(y, a, ck, boundEps)) {
          sHighLocal = std::min(sHighLocal, f[k]);
        }
        if (solver::inLowSet(y, a, ck, boundEps)) {
          sLowLocal = std::max(sLowLocal, f[k]);
        }
      }
      const double sHigh = comm.allreduce(
          sHighLocal, [](double a, double b) { return std::min(a, b); });
      const double sLow = comm.allreduce(
          sLowLocal, [](double a, double b) { return std::max(a, b); });
      if (sLow > sHigh + 2.0 * tau) {
        const auto keep = [&](std::size_t i) {
          const std::int8_t y = local.label(i);
          const double a = alpha[i];
          const double ci = prob.boxOf(i);
          if (a <= boundEps) {
            // Lower bound: only ever a high candidate (y=+1) / low (y=-1).
            if (y == 1 && f[i] > sLow + tau) return false;
            if (y == -1 && f[i] < sHigh - tau) return false;
          } else if (a >= ci - boundEps) {
            // Upper bound: only ever a low candidate (y=+1) / high (y=-1).
            if (y == 1 && f[i] < sHigh - tau) return false;
            if (y == -1 && f[i] > sLow + tau) return false;
          }
          return true;
        };
        std::vector<std::size_t> stillActive;
        stillActive.reserve(active.size());
        for (std::size_t i : active) {
          if (keep(i)) stillActive.push_back(i);
        }
        const long long globalKeep =
            comm.allreduceSum(static_cast<long long>(stillActive.size()));
        const long long globalActive =
            comm.allreduceSum(static_cast<long long>(active.size()));
        // Never shrink below a workable global core, and only commit a
        // pass that actually dropped something somewhere.
        if (globalKeep >= 2 && globalKeep < globalActive) {
          active = std::move(stillActive);
          everShrunk = true;
          if (shrinkEngaged < 0) shrinkEngaged = static_cast<long long>(it);
        }
      }
    }
  }

  // Loop exits (iteration cap, degenerate bail) can leave rows shrunk out
  // with stale gradients; the bias fallback below and the reported state
  // must see the full problem.
  if (everShrunk) {
    unshrink();
    everShrunk = false;
  }

  // A warm start or degenerate box can leave an elected set empty and its
  // threshold at +-inf; fall back to finite KKT bounds like the serial
  // solver, with one allreduce pair in the both-empty case.
  ensureFiniteThresholds(comm, local, f, bHigh, bLow);

  solvePhase.reset();  // end the "solve" span before train-end bookkeeping

  markTrainEnd(comm, ctx);

  // Deposit this rank's model fragment (its support vectors); the driver
  // concatenates fragments into the single global model. Every rank saw the
  // same final thresholds, so any rank's bias is authoritative.
  const double bias = -(bHigh + bLow) / 2.0;
  std::vector<std::size_t> svIdx;
  std::vector<double> alphaY;
  for (std::size_t i = 0; i < mLocal; ++i) {
    if (alpha[i] > 0.0) {
      svIdx.push_back(i);
      alphaY.push_back(alpha[i] * double(local.label(i)));
    }
  }
  board.models[urank] = solver::Model(opts.kernel, local.subset(svIdx),
                                      std::move(alphaY), bias);
  board.iterations[urank] = iters;
  board.svs[urank] = static_cast<long long>(svIdx.size());
  board.shrinkEngagedIter[urank] = shrinkEngaged;
  board.rowBcastsSkipped[urank] = rowStore ? rowStore->hits() : 0;
}

}  // namespace casvm::core::detail
