// The single-layer partitioned methods: CP-SVM and the CA-SVM family
// (BKM-CA, FCFS-CA, RA-CA).
//
// All four partition the data into P parts, train P fully independent
// sub-SVMs, and keep P model files routed by nearest data center at
// prediction time (paper Fig. 3 / Algorithm 6). They differ only in the
// partitioner: K-means (CP-SVM), ratio-balanced balanced-K-means (BKM-CA),
// ratio-balanced FCFS (FCFS-CA) or a random even split (RA-CA). RA-CA in
// its casvm2 placement — data born distributed — performs zero
// communication during the entire training process, which is the paper's
// headline communication-avoiding property.

#include <algorithm>
#include <optional>

#include "casvm/ckpt/state.hpp"
#include "casvm/net/fault.hpp"
#include "casvm/cluster/balanced_kmeans.hpp"
#include "casvm/cluster/fcfs.hpp"
#include "casvm/cluster/kmeans.hpp"
#include "methods.hpp"
#include "casvm/support/error.hpp"

namespace casvm::core::detail {

namespace {

constexpr int kScatterTag = 300;

/// Mean of all local rows (eqn. 14): the data center a RA-CA rank
/// publishes for prediction routing. Purely local.
std::vector<float> localMeanCenter(const data::Dataset& ds) {
  std::vector<float> center(ds.cols(), 0.0f);
  if (ds.rows() == 0) return center;
  std::vector<double> sum(ds.cols(), 0.0);
  for (std::size_t i = 0; i < ds.rows(); ++i) ds.addRowTo(i, sum);
  for (std::size_t k = 0; k < ds.cols(); ++k) {
    center[k] = static_cast<float>(sum[k] / double(ds.rows()));
  }
  return center;
}

/// Run the method's partitioner and place the parts: this rank's samples,
/// its routing center and the K-means loop count, saved when the run has a
/// store.
ckpt::PartitionState buildPartition(net::Comm& comm, const MethodContext& ctx) {
  const int rank = comm.rank();
  const auto urank = static_cast<std::size_t>(rank);
  const int P = comm.size();
  const data::Dataset& initial = ctx.initialBlocks[urank];
  ckpt::PartitionState part;
  switch (ctx.config.method) {
  case Method::CpSvm: {
    cluster::KMeansResult result;
    {
      PhaseSpan span(comm, "partition");
      cluster::KMeansOptions km;
      km.clusters = P;
      km.maxLoops = ctx.config.kmeansMaxLoops;
      km.changeThreshold = ctx.config.kmeansChangeThreshold;
      km.seed = ctx.config.seed;
      result = cluster::kmeansDistributed(comm, initial, km);
    }
    part.kmeansLoops = result.loops;
    {
      PhaseSpan span(comm, "scatter");
      part.local = exchangeToOwners(comm, initial, result.partition.assign);
    }
    part.center = result.partition.centers[urank];
    break;
  }
  case Method::BkmCa: {
    cluster::BalancedKMeansResult result;
    {
      PhaseSpan span(comm, "partition");
      cluster::BalancedKMeansOptions bkm;
      bkm.parts = P;
      bkm.ratioBalanced = ctx.config.ratioBalance;
      bkm.maxKmeansLoops = ctx.config.kmeansMaxLoops;
      bkm.kmeansChangeThreshold = ctx.config.kmeansChangeThreshold;
      bkm.seed = ctx.config.seed;
      result = cluster::balancedKmeansDistributed(comm, initial, bkm);
    }
    part.kmeansLoops = result.kmeansLoops;
    {
      PhaseSpan span(comm, "scatter");
      part.local = exchangeToOwners(comm, initial, result.partition.assign);
    }
    part.center = result.partition.centers[urank];
    break;
  }
  case Method::FcfsCa: {
    cluster::Partition partition;
    {
      PhaseSpan span(comm, "partition");
      cluster::FcfsOptions fcfs;
      fcfs.parts = P;
      fcfs.ratioBalanced = ctx.config.ratioBalance;
      fcfs.seed = ctx.config.seed;
      partition = cluster::fcfsPartitionDistributed(comm, initial, fcfs);
    }
    {
      PhaseSpan span(comm, "scatter");
      part.local = exchangeToOwners(comm, initial, partition.assign);
    }
    part.center = partition.centers[urank];
    break;
  }
  case Method::RaCa: {
    if (ctx.config.raInitialDataOnRoot) {
      // casvm1: the whole dataset starts on rank 0, which deals random
      // even parts to everyone — this distribution is RA-CA's only
      // communication, shown in the paper's Fig. 9 as casvm1.
      PhaseSpan span(comm, "scatter");
      if (rank == 0) {
        const cluster::Partition random = cluster::randomPartition(
            initial, P, ctx.config.seed);
        const auto groups = random.groups();
        for (int dst = 1; dst < P; ++dst) {
          const std::vector<std::byte> packed =
              initial.pack(groups[static_cast<std::size_t>(dst)]);
          comm.sendBytes(dst, kScatterTag, packed.data(), packed.size());
        }
        part.local = initial.subset(groups[0]);
      } else {
        part.local = data::Dataset::unpack(comm.recvBytes(0, kScatterTag));
      }
    } else {
      // casvm2: data is born distributed; no communication at all.
      PhaseSpan span(comm, "partition");
      part.local = initial;
    }
    part.center = localMeanCenter(part.local);
    break;
  }
  default:
    throw Error("runPartitioned called with a non-partitioned method");
  }
  ctx.board.kmeansLoops[urank] = part.kmeansLoops;
  savePartition(comm, ctx, part);
  return part;
}

}  // namespace

void runPartitioned(net::Comm& comm, const MethodContext& ctx) {
  const auto urank = static_cast<std::size_t>(comm.rank());
  RankBoard& board = ctx.board;

  // --- init phase: build (or, on resume, restore) the partition ----------
  // Skipping the partition phase needs every rank's agreement where it is
  // collective (K-means rounds, the all-to-all exchange, the casvm1
  // scatter). RA-CA casvm2 partitions with zero communication, so each
  // rank decides alone and the method's headline property holds on resume.
  std::optional<ckpt::PartitionState> part;
  if (ctx.config.checkpoints != nullptr && ctx.config.resume) {
    const bool localPlacement =
        ctx.config.method == Method::RaCa && !ctx.config.raInitialDataOnRoot;
    part = restorePartition(comm, ctx, !localPlacement);
  }
  if (!part.has_value()) part = buildPartition(comm, ctx);

  board.samples[urank] = static_cast<long long>(part->local.rows());
  board.positives[urank] = static_cast<long long>(part->local.positives());
  markInitEnd(comm, ctx);

  // --- training phase: one fully independent sub-SVM ----------------------
  // From here to the board deposits this rank performs no communication
  // (that is the point of the partitioned methods), so an injected crash
  // can be retried locally: no peer is waiting on a collective we would
  // re-enter. The partition stays in memory, so a retry needs no store.
  const int maxAttempts = 1 + std::max(0, ctx.config.rankRetries);
  for (int attempt = 0;; ++attempt) {
    try {
      finishRank(comm, ctx, *part, attempt);
      return;
    } catch (const net::RankCrash&) {
      board.retries[urank] = attempt;
      if (attempt + 1 >= maxAttempts) throw;  // budget spent: degraded path
      // The respawn backoff of both transports, charged to the virtual
      // clock like any local work (a real system would sleep first).
      comm.clock().addCompute(
          ctx.config.transportTuning.backoffForAttemptMs(attempt + 1) /
          1000.0);
    }
  }
}

void resumeRankLocal(net::Comm& comm, const MethodContext& ctx, int attempt) {
  // Collective-free by construction: this runs in a respawned worker whose
  // peers are mid-solve (or finished) and will never re-enter a collective
  // with us. Everything below is checkpoint loads and local compute, which
  // is exactly what the partitioned methods' training phase consists of —
  // the property that makes a real process kill survivable at all.
  const int rank = comm.rank();
  const auto urank = static_cast<std::size_t>(rank);
  RankBoard& board = ctx.board;
  CASVM_CHECK(ctx.config.checkpoints != nullptr,
              "resumeRankLocal needs a checkpoint store (the driver only "
              "installs a respawn entry when one is configured)");

  // The partition is the resume anchor: without it there is no local data
  // to retrain on, so the rank stays dead and the run degrades around it.
  std::optional<ckpt::PartitionState> part =
      restorePartition(comm, ctx, /*collective=*/false);
  if (!part.has_value()) {
    throw net::RankCrash(
        rank, "respawned rank " + std::to_string(rank) +
                  " found no partition checkpoint to resume from (the worker "
                  "died before the partition phase completed)");
  }
  board.samples[urank] = static_cast<long long>(part->local.rows());
  board.positives[urank] = static_cast<long long>(part->local.positives());
  // The respawned incarnation's clock starts fresh; its init phase is the
  // checkpoint load that just happened. No instrumentation fence — that is
  // a collective, and the fence already ran in the first incarnation.
  board.initEndVirtual[urank] = virtualNow(comm);
  finishRank(comm, ctx, *part, attempt);
}

}  // namespace casvm::core::detail
