#pragma once

// Internal declarations of the per-method SPMD bodies. Each function is
// executed once per rank under the net::Engine; the shared MethodContext
// provides the configuration, the per-rank initial data placement and the
// deposit board the driver reads afterwards.

#include <cstdint>
#include <optional>
#include <span>
#include <string>

#include "casvm/ckpt/state.hpp"
#include "casvm/core/spmd.hpp"
#include "casvm/core/train.hpp"

namespace casvm::core::detail {

struct MethodContext {
  const TrainConfig& config;
  const std::vector<data::Dataset>& initialBlocks;  // one per rank
  RankBoard& board;
};

/// Mark the end of the init phase: records this rank's virtual time and
/// lets rank 0 take a consistent traffic snapshot (via an unrecorded
/// instrumentation fence, so the measurement never shows up as traffic).
/// Callers must place their own comm.faultCheckpoint("train") after this
/// — placed AFTER the fence a rank that dies there has met every
/// communication obligation of the init phase; for the partitioned
/// methods the rest of training is purely local, which is what makes a
/// phase=train crash survivable (and retryable: their checkpoint sits in
/// finishRank, inside the retry loop). It also gives zero-communication
/// runs (RA-CA casvm2) a deterministic crash point crash-at-op-N can never
/// provide.
void markInitEnd(net::Comm& comm, const MethodContext& ctx);

/// Mark the end of the training phase for this rank.
void markTrainEnd(net::Comm& comm, const MethodContext& ctx);

/// Dis-SMO and its adaptive-shrinking variant (DisSmoShrink): one global
/// SMO solve in lock-step collectives, with periodic globally-agreed
/// shrink passes and a replicated row store in the shrink variant.
void runDisSmo(net::Comm& comm, const MethodContext& ctx);
/// Parallel Block Minimization: per-rank warm-started block solves joined
/// by a global line search each round, plus pair-correction iterations.
void runPbm(net::Comm& comm, const MethodContext& ctx);
void runTree(net::Comm& comm, const MethodContext& ctx);
void runPartitioned(net::Comm& comm, const MethodContext& ctx);

/// Respawn entry for the proc transport (partitioned methods only): a
/// replacement worker loads its rank's partition checkpoint (the anchor)
/// and calls finishRank, with NO collectives (peers are mid-solve and will
/// not re-enter one). `attempt` is the 1-based respawn count. Throws
/// net::RankCrash when no partition checkpoint exists — the rank then
/// falls through to the engine's degraded path.
void resumeRankLocal(net::Comm& comm, const MethodContext& ctx, int attempt);

// --- one rank's checkpointed local work (local_solve.cpp) -----------------

/// Load this rank's partition checkpoint (`part.rR`; needs a store). When
/// `collective`, the partition phase it would skip is collective, so the
/// ranks agree by allreduce-min and all re-partition unless every rank
/// restored; otherwise (RA-CA casvm2, Cascade, a respawned rank) the rank
/// decides alone. A restore deposits the K-means loop count and counts the
/// load; nullopt means build the partition.
std::optional<ckpt::PartitionState> restorePartition(net::Comm& comm,
                                                     const MethodContext& ctx,
                                                     bool collective);

/// Save this rank's partition as `part.rR` when the run has a store.
void savePartition(net::Comm& comm, const MethodContext& ctx,
                   const ckpt::PartitionState& part);

struct CheckpointedSolve {
  LocalSolve solve;
  double seconds = 0.0;  ///< virtual seconds inside the "solve" span
};

/// The checkpointed local solve of `data`, whose checkpoints are named
/// `solver<tag>` (SMO snapshots, saved durable-first before the "solve"
/// fault point) and `lowrank<tag>` (the Nyström factor). With a store and
/// `restore`, a snapshot of matching row count and a matching factor are
/// loaded and counted; otherwise the solve starts cold (from `warmStart`)
/// and the factor is built with its seed salted by `nystromSalt`. The
/// "lowrank" and "solve" phase spans carry `spanDetail`. The caller saves
/// its result and then removes both checkpoints.
CheckpointedSolve solveCheckpointed(net::Comm& comm, const MethodContext& ctx,
                                    const data::Dataset& data,
                                    const std::string& tag, bool restore,
                                    std::uint64_t nystromSalt,
                                    long long spanDetail = -1,
                                    std::span<const double> warmStart = {});

/// Train a partitioned-method rank from its partition and deposit the
/// sub-model: the finished sub-model `model.rR` if the run may trust one,
/// otherwise pass the "train" fault point, solve (restoring on a resume or
/// when `attempt` > 0), save `model.rR` and drop the solve's checkpoints.
/// `attempt` > 0 marks the rank recovered. The in-run retry, --resume and
/// the proc respawn all finish a rank through here.
void finishRank(net::Comm& comm, const MethodContext& ctx,
                ckpt::PartitionState& part, int attempt);

/// Dispatch to the method body for `ctx.config.method`.
void runMethod(net::Comm& comm, const MethodContext& ctx);

/// Build the per-run TrainResult pieces derivable from the deposit board
/// (model, timing, iterations, per-rank detail). Traffic and RunStats are
/// filled by the caller, which owns the engine. `failures` lists ranks that
/// crashed under fault tolerance: their board slots are unfinished, so the
/// assembly routes the model around them and marks the result degraded.
/// `totalTrainRows` is the true training-set size, used as the covered-
/// fraction denominator: on the process transport a killed worker's
/// `board.samples` deposit dies with it, so summing board slots would
/// silently drop the dead partition from the total. Pass -1 to fall back
/// to the board sum (exact whenever every rank deposited).
TrainResult assembleFromBoard(const TrainConfig& config, RankBoard& board,
                              int P,
                              const std::vector<net::RankFailure>& failures = {},
                              long long totalTrainRows = -1);

/// Deterministic initial per-rank data placement for a method run.
std::vector<data::Dataset> placementFor(const data::Dataset& trainSet,
                                        const TrainConfig& config);

}  // namespace casvm::core::detail
