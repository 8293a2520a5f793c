// Parallel Block Minimization (Hsieh, Si & Dhillon 2016) — the middle rung
// of the communication ladder between Dis-SMO (a collective round per SMO
// iteration) and the partitioned CA-SVM family (no training communication).
//
// Each outer round, every rank runs a warm-started serial SMO on its own
// block with the other blocks' alphas frozen, proposing a direction
// Delta = alpha_block_new - alpha_block_old. The ranks then take one
// GLOBAL line-search step alpha += beta * Delta along the combined
// direction: for the concave dual F(alpha + beta*Delta) = F + beta*g -
// 1/2 beta^2 h with
//     g = sum_i Delta_i dF/dalpha_i = -sum_i c_i f_i   (c_i = y_i Delta_i)
//     h = sum_ij c_i c_j K(x_i, x_j)   over the changed samples,
// so beta* = clamp(g/h, 0, 1). g needs one scalar allreduce; h is computed
// identically on every rank from the changed rows. Rows are immutable, so
// a replicated GlobalRowStore makes each sample's features cross the wire
// at most once for the whole run: the per-round allgatherv ships
// (key, coefficient) pairs for every changed sample but feature rows only
// for samples the store has never seen — the changed sets of consecutive
// warm-started rounds overlap heavily (the same support vectors keep
// moving), so steady-state round traffic is O(s) words, not O(s*n).
// Since every block's SMO preserves its own sum(y_i alpha_i), any
// beta in [0,1] keeps the global equality constraint intact, and concavity
// of F guarantees g >= 0 (each block improved F, so the combined direction
// is an ascent direction). With P = 1 the single "block" is the whole
// problem: the KKT multiplier signs give grad F(alpha*) . Delta >= 0 at
// the block optimum, hence beta* >= 1 clamps to exactly 1 and round 0
// reproduces the serial solve.
//
// Block solves cannot move mass across blocks (each preserves its local
// equality sum), so each round finishes with a few global
// maximal-violating-pair corrections — the one SMO loop run through
// GlobalPairSource, as runDisSmo runs it, capped and without shrinking —
// and a pure pair-correction tail polishes to the global KKT conditions
// after the rounds are spent. The line search's gradient refresh and the
// pair steps take their kernel columns from the kernel layer
// (ExactRowSource::fillColumn), rounded as the block solver's row cache
// rounds them; the curvature h stays on the exact kernel.

#include <algorithm>
#include <numeric>
#include <optional>

#include "global_common.hpp"
#include "methods.hpp"
#include "casvm/ckpt/state.hpp"
#include "casvm/ckpt/store.hpp"
#include "casvm/core/pbm_curvature.hpp"
#include "casvm/obs/trace.hpp"
#include "casvm/support/error.hpp"

namespace casvm::core::detail {

void runPbm(net::Comm& comm, const MethodContext& ctx) {
  // Defense in depth — train() rejects this combination up front.
  CASVM_CHECK(ctx.config.solverBackend != SolverBackend::Nystrom,
              "PBM does not support the Nystrom backend: its replicated "
              "line search is defined over exact cross-block kernel rows");
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
  const kernel::Kernel kern(opts.kernel);
  const std::size_t mLocal = local.rows();
  const std::size_t n = local.cols();

  const auto boxFor = [&](double y) { return y > 0.0 ? cPos : cNeg; };

  // The loop's state: alpha and f over the owned rows, all of them active
  // (the pair corrections never shrink), and the global pair-correction
  // count as its iteration.
  solver::SolverSnapshot state;
  std::vector<double>& alpha = state.alpha;
  std::vector<double>& f = state.f;
  alpha.assign(mLocal, 0.0);
  f.resize(mLocal);
  for (std::size_t i = 0; i < mLocal; ++i) f[i] = -double(local.label(i));
  state.active.resize(mLocal);
  std::iota(state.active.begin(), state.active.end(), 0);

  long long blockIters = 0;  ///< serial SMO iterations inside block solves
  std::size_t startRound = 0;

  ckpt::CheckpointStore* store = ctx.config.checkpoints;
  const std::string solverName = "solver.r" + std::to_string(rank);

  if (store != nullptr && ctx.config.resume) {
    // Snapshots are written in lock-step at the top of each round, so the
    // agreed generation is the newest round every rank holds.
    if (auto snap = restoreAgreedGeneration(
            comm, *store, solverName, ckpt::Kind::PbmRound, mLocal,
            ckpt::decodePbmRound,
            [](const ckpt::PbmRoundState& s) { return s.round; })) {
      alpha = std::move(snap->alpha);
      f = std::move(snap->f);
      blockIters = snap->blockIterations;
      state.iteration = static_cast<std::size_t>(snap->pairIterations);
      startRound = snap->round;
      ++board.checkpointsLoaded[urank];
    }
  }

  const long long globalM = comm.allreduceSum(static_cast<long long>(mLocal));
  const std::size_t maxIters =
      opts.maxIterations > 0
          ? opts.maxIterations
          : static_cast<std::size_t>(100 * globalM + 10000);

  const int rounds = std::max(1, ctx.config.pbmRounds);
  const int pairCap = std::max(0, ctx.config.pbmPairIterations);

  bool converged = false;
  bool sawThresholds = false;

  // Replicated immutable-row cache shared by the round sync and the pair
  // corrections. Deliberately not checkpointed: a resume rebuilds it empty
  // and only the communication volume differs, never the iterates.
  GlobalRowStore rowStore(n, opts.cacheBytes);
  GlobalPairSource source(comm, local, kern, nullptr, &rowStore);
  const std::vector<std::size_t>& allRows = state.active;
  std::vector<double> col(mLocal);

  obs::Lane* lane = comm.traceLane();
  solver::SolverOptions loopOpts = opts;
  loopOpts.shrinking = false;
  loopOpts.trace = lane;
  loopOpts.snapshotSink = nullptr;
  loopOpts.snapshotInterval = 0;
  solver::SmoLoop loop(source, local, loopOpts, state);

  std::optional<PhaseSpan> solvePhase;
  solvePhase.emplace(comm, "solve");

  for (std::size_t round = startRound;
       round < static_cast<std::size_t>(rounds) && !converged; ++round) {
    // Top-of-round snapshot (rounds are coarse, so every round is saved),
    // durable before the fault checkpoint — a phase=solve crash resumes
    // from exactly this state. Skipped at round 0 and the resume round.
    if (store != nullptr && round != 0 && round != startRound) {
      ckpt::PbmRoundState snap;
      snap.round = round;
      snap.blockIterations = blockIters;
      snap.pairIterations = static_cast<long long>(state.iteration);
      snap.alpha = alpha;
      snap.f = f;
      store->save(solverName, ckpt::Kind::PbmRound,
                  ckpt::encodePbmRound(snap));
      comm.faultCheckpoint("solve");
    }

    // --- block solve: warm-started serial SMO on the owned rows ----------
    // The resume snapshot restores alpha AND the gradient f verbatim: with
    // the other blocks frozen, the globally maintained f restricted to the
    // local rows IS the correct local gradient, and rebuilding it from the
    // local alphas alone would wrongly forget the other blocks' terms.
    std::vector<double> delta(mLocal, 0.0);
    const bool solvable =
        mLocal >= 2 && local.positives() > 0 && local.negatives() > 0;
    if (solvable) {
      solver::SolverOptions sopts = opts;
      sopts.trace = nullptr;  // rank-level progress is traced below
      sopts.snapshotSink = nullptr;
      sopts.snapshotInterval = 0;
      if (ctx.config.pbmInnerIterations > 0) {
        sopts.maxIterations = ctx.config.pbmInnerIterations;
      }
      solver::SolverSnapshot warm;
      warm.iteration = 0;
      warm.everShrunk = false;
      warm.alpha = alpha;
      warm.f = f;
      warm.active.resize(mLocal);
      std::iota(warm.active.begin(), warm.active.end(), 0);
      sopts.resumeFrom = &warm;
      const solver::SolverResult result = solver::SmoSolver(sopts).solve(local);
      blockIters += static_cast<long long>(result.iterations);
      for (std::size_t i = 0; i < mLocal; ++i) {
        delta[i] = result.alpha[i] - alpha[i];
      }
    }

    // --- global line search along the combined direction ------------------
    // (key, coefficient) pairs travel for every changed sample; feature
    // rows and self-dots only for samples the replicated store hasn't seen
    // (every rank mirrors every row it ever gathered, so the dedup decision
    // is identical everywhere).
    std::vector<std::size_t> changed;
    for (std::size_t i = 0; i < mLocal; ++i) {
      if (delta[i] != 0.0) changed.push_back(i);
    }
    std::vector<long long> keys(changed.size());
    std::vector<double> coefs(changed.size());  // c_i = y_i * Delta_i
    std::vector<long long> newKeys;
    std::vector<float> newRowsFlat;
    std::vector<double> newAux;  // [selfDot, y, pre-step alpha] per new row
    double gLocal = 0.0;
    for (std::size_t k = 0; k < changed.size(); ++k) {
      const std::size_t i = changed[k];
      keys[k] = rank * kRankStride + static_cast<long long>(i);
      coefs[k] = delta[i] * double(local.label(i));
      gLocal -= coefs[k] * f[i];  // Delta_i * dF/dalpha_i with dF = -y_i f_i
      if (!rowStore.contains(keys[k])) {
        newKeys.push_back(keys[k]);
        const std::size_t off = newRowsFlat.size();
        newRowsFlat.resize(off + n);
        local.copyRowDense(i, std::span<float>(newRowsFlat).subspan(off, n));
        newAux.push_back(local.selfDot(i));
        newAux.push_back(double(local.label(i)));
        newAux.push_back(alpha[i]);
      }
    }
    const double g = comm.allreduceSum(gLocal);
    const std::vector<long long> allKeys = comm.allgatherv(keys);
    const std::vector<double> allCoefs = comm.allgatherv(coefs);
    const std::vector<long long> allNewKeys = comm.allgatherv(newKeys);
    const std::vector<float> allNewRows = comm.allgatherv(newRowsFlat);
    const std::vector<double> allNewAux = comm.allgatherv(newAux);
    const std::size_t sGlobal = allKeys.size();

    // Mirror the first-time samples (identical allgatherv order
    // everywhere; the shipped pre-step alpha seeds the mirror and the
    // replicated beta update below brings it current), then resolve every
    // changed row to a borrowed view. A row missing from a full store is
    // still in this round's gathered payload. No inserts happen between
    // here and the last use of these pointers.
    const std::span<const float> fresh(allNewRows);
    for (std::size_t k = 0; k < allNewKeys.size(); ++k) {
      rowStore.insert(allNewKeys[k], fresh.subspan(k * n, n),
                      allNewAux[k * 3], allNewAux[k * 3 + 1],
                      allNewAux[k * 3 + 2]);
    }
    std::vector<const float*> rowPtr(sGlobal);
    std::vector<double> rowDot(sGlobal);
    {
      std::unordered_map<long long, std::size_t> freshIdx;
      for (std::size_t k = 0; k < allNewKeys.size(); ++k) {
        freshIdx.emplace(allNewKeys[k], k);
      }
      for (std::size_t j = 0; j < sGlobal; ++j) {
        if (rowStore.lookup(allKeys[j], rowPtr[j], rowDot[j])) continue;
        const auto it = freshIdx.find(allKeys[j]);
        CASVM_CHECK(it != freshIdx.end(),
                    "changed row neither cached nor shipped this round");
        rowPtr[j] = allNewRows.data() + it->second * n;
        rowDot[j] = allNewAux[it->second * 3];
      }
    }
    const auto rowOf = [&](std::size_t j) {
      return std::span<const float>(rowPtr[j], n);
    };

    // Curvature h = c^T K c, distributed: each rank evaluates only its
    // contiguous share of the per-sample terms (O(s^2 / P) kernel
    // evaluations instead of the full O(s^2) replicated on everyone), one
    // allgatherv concatenates the terms back in ascending-a order, and the
    // serial left-to-right term sum makes h bitwise-identical on every
    // rank — and invariant in P (see pbm_curvature.hpp).
    const auto [aBegin, aEnd] =
        pbmCurvatureBlock(sGlobal, rank, comm.size());
    const std::vector<double> myTerms = pbmCurvatureTerms(
        kern, allCoefs, rowOf, rowDot, aBegin, aEnd);
    const std::vector<double> allTerms = comm.allgatherv(myTerms);
    CASVM_ASSERT(allTerms.size() == sGlobal,
                 "curvature terms lost in the allgatherv");
    const double h = pbmCurvatureSum(allTerms);
    const double beta =
        h > 1e-300 ? std::clamp(g / h, 0.0, 1.0) : (g > 0.0 ? 1.0 : 0.0);

    if (sGlobal > 0 && beta > 0.0) {
      // Apply the step to the owned alphas, snapped to the per-class box
      // against floating-point drift (a full beta = 1 step lands the
      // block-solver's already-snapped values eps-close to the bound).
      for (std::size_t i : changed) {
        double a = alpha[i] + beta * delta[i];
        const double ci = boxFor(double(local.label(i)));
        if (a < boundEps) a = 0.0;
        if (a > ci - boundEps) a = ci;
        alpha[i] = a;
      }
      // Replicated mirror refresh: y * coef is exactly Delta (y in
      // {-1, +1}), so this recomputes the owner's snapped value bit for
      // bit on every rank for every mirrored changed sample.
      for (std::size_t j = 0; j < sGlobal; ++j) {
        double yj = 0.0, aj = 0.0;
        if (!rowStore.alphaOf(allKeys[j], yj, aj)) continue;
        double a = aj + beta * yj * allCoefs[j];
        const double cj = boxFor(yj);
        if (a < boundEps) a = 0.0;
        if (a > cj - boundEps) a = cj;
        rowStore.updateAlpha(allKeys[j], a);
      }
      // Gradient refresh over ALL owned rows from the gathered global
      // direction, with the raw beta-scaled coefficients (the eps-level
      // snap above is deliberately not folded in — same policy as the
      // serial solver's gradient update). One kernel column per changed
      // sample; each f[i] still adds its terms in ascending j.
      for (std::size_t j = 0; j < sGlobal; ++j) {
        source.fillColumn(rowOf(j), rowDot[j], allRows, col);
        const double c = beta * allCoefs[j];
        for (std::size_t i = 0; i < mLocal; ++i) f[i] += c * col[i];
      }
    }

    if (lane != nullptr) {
      lane->progress(virtualNow(comm), static_cast<std::int64_t>(round),
                     static_cast<std::int64_t>(sGlobal),
                     sawThresholds ? loop.gap() : 0.0, beta);
    }

    // --- pair-correction: move equality mass across blocks ----------------
    // A few plain Dis-SMO iterations per round; every outcome (stepped,
    // converged, degenerate) is derived from allreduced values, so all
    // ranks leave the loop together. A degenerate pair while blocks are
    // unconverged is usually freed by the next block solve — stop, don't
    // give up.
    if (pairCap > 0) {
      converged = loop.run(state.iteration + static_cast<std::size_t>(pairCap));
      sawThresholds = true;
    }
  }

  // Rounds exhausted without meeting the global KKT conditions: polish
  // with the pure pair-correction tail (plain Dis-SMO), capped by the
  // global iteration budget.
  if (!converged) loop.run(maxIters);

  // The last election's thresholds, with the loop's finite fallback for
  // the degenerate cases.
  const double bias = loop.finish();

  solvePhase.reset();  // end the "solve" span before train-end bookkeeping

  markTrainEnd(comm, ctx);

  // Deposit this rank's model fragment; the driver concatenates fragments
  // into the single global model. Every rank saw the same final
  // thresholds, so any rank's bias is authoritative.
  board.models[urank] = solver::Model::fromDual(opts.kernel, local, alpha, bias);
  board.iterations[urank] = blockIters;
  board.auxIterations[urank] = static_cast<long long>(state.iteration);
  board.svs[urank] =
      static_cast<long long>(board.models[urank].numSupportVectors());
  board.rowBcastsSkipped[urank] = rowStore.hits();
}

}  // namespace casvm::core::detail
