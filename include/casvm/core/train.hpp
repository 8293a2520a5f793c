#pragma once

/// \file train.hpp
/// Top-level distributed training driver.
///
/// train() spawns a casvm::net engine with P simulated ranks, runs the
/// selected method SPMD, and returns the combined model plus the
/// measurements the paper reports: init/training time, iteration counts
/// (total and per rank/layer), per-phase communication traffic and the
/// per-rank virtual clocks.

#include <cstdint>
#include <optional>
#include <string_view>
#include <vector>

#include "casvm/core/distributed_model.hpp"
#include "casvm/core/method.hpp"
#include "casvm/lowrank/landmarks.hpp"
#include "casvm/net/comm.hpp"
#include "casvm/solver/smo.hpp"

namespace casvm::obs {
class TraceRecorder;
}

namespace casvm::ckpt {
class CheckpointStore;
}

namespace casvm::core {

/// Kernel matrix the sub-solvers train against (see TrainConfig below).
enum class SolverBackend : std::uint8_t {
  Exact = 0,    ///< evaluate K(x_i, x_j) on demand (the default)
  Nystrom = 1,  ///< train against the low-rank K̃ = Z·Zᵀ (casvm::lowrank)
};

/// Stable names for CLI flags and run fingerprints.
const char* backendName(SolverBackend backend);
SolverBackend backendFromName(std::string_view name);

struct TrainConfig {
  Method method = Method::RaCa;
  int processes = 8;                  ///< simulated ranks P
  solver::SolverOptions solver;       ///< shared sub-solver settings
  std::size_t kmeansMaxLoops = 300;   ///< K-means loop cap
  double kmeansChangeThreshold = 0.0; ///< Algorithm 2's delta/m threshold
  std::uint64_t seed = 42;
  net::CostModel cost;                ///< alpha-beta model for virtual time
  /// RA-CA data placement: casvm1 stages the whole dataset on rank 0 and
  /// scatters it (communication!); casvm2 — the paper's CA-SVM — assumes
  /// the data is born distributed and needs no communication at all.
  bool raInitialDataOnRoot = false;
  /// Number of full Cascade passes (tree methods only). The paper's Fig. 2:
  /// "if the result at the bottom layer is not good enough, the user can
  /// distribute all the support vectors to all the nodes and re-do the
  /// whole pass" — pass 2+ broadcasts the final SV set and retrains every
  /// layer warm-started, with each node's original data augmented by the
  /// global SVs. "For most applications ... one pass is enough."
  int cascadePasses = 1;
  /// Pass the previous layer's alphas as a warm start when merging in the
  /// tree methods (the paper: it "can significantly reduce the iterations
  /// for convergence"). Off only for the ablation bench.
  bool treeWarmStart = true;
  /// Enforce per-class quotas in the BKM-CA / FCFS-CA partitioners (§IV-B1:
  /// equal data volume alone does not balance load; equal pos/neg ratios
  /// do). On by default, as in the paper's final methods; turn off to
  /// reproduce the Table VI/VII imbalance.
  bool ratioBalance = true;
  /// Deterministic fault schedule for the engine run (empty = fault-free).
  /// Partitioned methods survive an injected rank crash with a degraded
  /// model; tree methods and Dis-SMO fail fast naming the fault.
  net::FaultPlan faults;
  /// Engine deadlock watchdog timeout in wall seconds (<= 0 disables).
  double watchdogSeconds = 30.0;

  // --- transport (casvm::net backends) -------------------------------------
  /// Delivery backend: Thread (default, one thread per rank, bitwise the
  /// historical behaviour) or Proc (one forked worker process per rank
  /// over shared-memory rings, with supervised respawn and heartbeats —
  /// required for the kill:/hang: fault kinds, which deliver real
  /// signals). Excluded from the run fingerprint: the trained model is
  /// transport-invariant, so checkpoints interoperate across backends.
  net::TransportKind transport = net::TransportKind::Thread;
  /// Heartbeat cadence and receive timeout for the proc backend, and the
  /// retry backoff of both: the proc supervisor sleeps it before a
  /// respawn, the thread retry charges it to the virtual clock (validated
  /// when the engine is configured).
  net::TransportTuning transportTuning;
  /// Supervisor lifecycle log file (proc backend; empty = stderr).
  std::string supervisorLog;
  /// Optional trace recorder: when set, the engine opens one lane per rank
  /// and the run emits comm-op spans, phase spans and solver progress
  /// events into it (see casvm/obs/trace.hpp). Must outlive train().
  obs::TraceRecorder* trace = nullptr;

  // --- checkpoint / recovery (casvm::ckpt) --------------------------------
  /// Optional checkpoint store. When set, the run persists durable state:
  /// the partition assignment + routing centers, mid-solve SMO snapshots
  /// every `checkpointEvery` iterations, completed per-rank sub-models
  /// (partitioned methods) and per-layer outputs (tree methods). Must
  /// outlive train().
  ckpt::CheckpointStore* checkpoints = nullptr;
  /// Solver snapshot cadence in SMO iterations (used when `checkpoints`
  /// is set; must be > 0 then).
  std::size_t checkpointEvery = 4096;
  /// Restore from `checkpoints` instead of starting fresh: completed
  /// sub-problems are skipped and an interrupted solve re-enters
  /// mid-stream from its newest consistent snapshot. The resumed model is
  /// bitwise-identical to the uninterrupted run's.
  bool resume = false;
  /// In-run rank retry budget (partitioned methods): a rank killed during
  /// its local training restarts its own work up to this many times before
  /// the run falls back to the degraded P-1 path — from this run's newest
  /// checkpoint when `checkpoints` is set, from scratch otherwise. The
  /// backoff before each attempt is `transportTuning`'s.
  int rankRetries = 0;

  // --- PBM (Method::Pbm) ---------------------------------------------------
  /// Outer rounds of block-solve + global line search (the comm model's r;
  /// the pure pair-correction tail polishes whatever the rounds leave).
  int pbmRounds = 8;
  /// Iteration cap per warm-started block solve (0 = the solver's auto
  /// cap, 100*m_local + 10000).
  std::size_t pbmInnerIterations = 0;
  /// Global pair-correction (Dis-SMO) iterations appended to each round to
  /// move equality-constraint mass between blocks. Generous by default:
  /// with the replicated row store a correction of an already-seen sample
  /// costs only the two election allreduces, and letting rounds polish
  /// converges in fewer rounds — less sync traffic AND fewer block-solve
  /// iterations than a tight cap.
  int pbmPairIterations = 256;

  // --- solver backend (casvm::lowrank) -------------------------------------
  /// Which kernel matrix the sub-solvers train against. Exact evaluates
  /// K(x_i, x_j) on demand; Nystrom trains against the low-rank
  /// approximation K̃ = Z·Zᵀ (see lowrank/nystrom.hpp) — per-cluster
  /// landmark factors on the partitioned/tree paths, one global landmark
  /// set on Dis-SMO — trading ≤~1% accuracy for row fills over r ≪ n
  /// columns. Model extraction and prediction stay exact either way.
  /// Method::Pbm does not support the Nyström backend (its replicated
  /// line search is defined over exact cross-block rows) and rejects it.
  SolverBackend solverBackend = SolverBackend::Exact;
  /// Landmarks per factor (per cluster on partitioned/tree paths, total
  /// across ranks on Dis-SMO). The effective rank can be lower after
  /// eigenvalue truncation.
  std::size_t nystromLandmarks = 64;
  /// Landmark selection strategy (uniform | kmeans++).
  lowrank::LandmarkStrategy nystromStrategy = lowrank::LandmarkStrategy::KmeansPP;
  /// Relative eigenvalue floor for the factor's rank truncation.
  double nystromEigenFloor = 1e-10;
};

/// Per-layer profile of a tree method run (the paper's Table V).
struct LayerStats {
  int layer = 0;      ///< 1-based layer index
  int nodesUsed = 0;  ///< active ranks in this layer
  std::vector<long long> samplesPerNode;     ///< per active rank
  std::vector<long long> iterationsPerNode;  ///< per active rank
  std::vector<long long> svsPerNode;         ///< per active rank
  std::vector<double> secondsPerNode;        ///< per active rank (virtual)

  long long maxIterations() const;
  long long totalSVs() const;
  double maxSeconds() const;
  long long maxSamples() const;
};

/// Survival record for one partition of a partitioned-method run.
struct PartitionCoverage {
  int rank = -1;           ///< rank that owned the partition
  long long samples = 0;   ///< training samples the partition held
  bool survived = true;    ///< false when the owning rank crashed
};

struct TrainResult {
  Method method = Method::RaCa;
  DistributedModel model;

  // --- fault tolerance -----------------------------------------------------
  /// True when ranks crashed (injected faults) but training completed with
  /// the surviving partitions; the model then routes around the holes.
  bool degraded = false;
  /// Ranks that crashed during a degraded run, ascending.
  std::vector<int> failedRanks;
  /// Per-partition survival detail (partitioned methods only).
  std::vector<PartitionCoverage> coverage;
  /// Fraction of training samples covered by surviving partitions (1.0 for
  /// a fault-free run).
  double coveredFraction = 1.0;

  // --- recovery (casvm::ckpt) ----------------------------------------------
  /// Ranks that crashed mid-training but were recovered by in-run retry:
  /// their partitions ARE covered (they never appear in failedRanks), so a
  /// fully recovered run has degraded == false with P sub-models.
  std::vector<int> recoveredRanks;
  /// Retry attempts consumed per rank (size P; all zero without retries).
  std::vector<int> retriesPerRank;
  /// True when this run restored state from a checkpoint directory.
  bool resumed = false;
  /// Checkpoint artifacts restored across all ranks (resume + retry).
  std::size_t checkpointsLoaded = 0;

  // --- timing (virtual seconds: per-rank CPU + modeled communication) ----
  double initSeconds = 0.0;   ///< partitioning/distribution phase
  double trainSeconds = 0.0;  ///< SVM solve phase (critical path)
  double wallSeconds = 0.0;   ///< real elapsed time of the engine run

  // --- iterations ---------------------------------------------------------
  /// Summed over every rank and layer (what Tables XIII-XVIII report).
  long long totalIterations = 0;
  /// Critical path: per layer the max over active ranks, summed over layers.
  long long criticalIterations = 0;

  /// Per-rank detail for single-layer methods (empty for tree methods).
  std::vector<long long> iterationsPerRank;
  std::vector<long long> samplesPerRank;
  std::vector<long long> svsPerRank;
  std::vector<long long> positivesPerRank;
  std::vector<double> trainSecondsPerRank;

  /// Per-layer detail for tree methods (empty otherwise).
  std::vector<LayerStats> layers;

  /// K-means convergence loops (methods that run K-means; 0 otherwise).
  std::size_t kmeansLoops = 0;

  /// First global iteration at which adaptive shrinking committed a pass
  /// (DisSmoShrink), -1 when it never engaged (other methods: always -1).
  long long shrinkEngagedIteration = -1;
  /// Elected-row broadcasts served from the replicated row store instead
  /// of the wire, summed over ranks (DisSmoShrink and Pbm; 0 otherwise).
  long long electedRowBcastsSkipped = 0;
  /// Global pair-correction iterations (Method::Pbm; 0 otherwise).
  long long pairIterations = 0;

  // --- communication -------------------------------------------------------
  net::TrafficSnapshot initTraffic;   ///< partitioning/distribution traffic
  net::TrafficSnapshot trainTraffic;  ///< SVM-phase traffic
  net::RunStats runStats;             ///< full engine statistics

  /// Convenience: bytes moved during training (the paper's Table X value
  /// counts the whole algorithm: init + train).
  std::size_t totalTrafficBytes() const {
    return runStats.traffic.totalBytes();
  }
};

/// Train `trainSet` with the configured method. The dataset is split into
/// its initial per-rank placement outside the engine (modelling data that
/// lives distributed on a parallel filesystem), then the method runs SPMD.
TrainResult train(const data::Dataset& trainSet, const TrainConfig& config);

}  // namespace casvm::core
