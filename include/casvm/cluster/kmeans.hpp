#pragma once

/// \file kmeans.hpp
/// Lloyd's K-means (the paper's Algorithm 2), serial and distributed.
///
/// K-means is the partitioning substep of DC-SVM, DC-Filter, CP-SVM and
/// BKM-CA: it groups samples by Euclidean proximity, which for the Gaussian
/// kernel means samples that actually interact (K(xi, xj) far from 0) land
/// in the same part (§IV-A). The distributed version mirrors a standard
/// MPI K-means: local assignment, allreduce of per-center sums and counts.

#include <cstdint>

#include "casvm/cluster/partition.hpp"
#include "casvm/kernel/kernel.hpp"
#include "casvm/net/comm.hpp"

namespace casvm::cluster {

struct KMeansOptions {
  int clusters = 8;
  std::size_t maxLoops = 300;
  /// Stop when the fraction of samples that changed assignment in a loop
  /// drops to or below this threshold (Algorithm 2's delta/m test).
  double changeThreshold = 0.0;
  /// Seed centers with k-means++ (D^2 sampling) instead of the paper's
  /// uniform random pick. Off by default for fidelity to Algorithm 2;
  /// available because random init can land in poor local optima.
  bool plusPlusInit = false;
  /// Independent Lloyd runs (serial kmeans only); the run with the lowest
  /// within-cluster sum of squares wins. 1 = single run, as in the paper.
  int restarts = 1;
  std::uint64_t seed = 42;
};

struct KMeansResult {
  Partition partition;
  std::size_t loops = 0;    ///< assignment loops executed (winning run)
  bool converged = false;   ///< threshold reached before maxLoops
  double sse = 0.0;         ///< within-cluster sum of squared distances
};

/// Serial Lloyd's K-means over the whole dataset.
KMeansResult kmeans(const data::Dataset& ds, const KMeansOptions& options);

/// kmeans() through the caller's workspace (see the distributed form).
KMeansResult kmeans(const data::Dataset& ds, const KMeansOptions& options,
                    kernel::RowWorkspace& ws);

/// Distributed K-means over an SPMD communicator. `local` is this rank's
/// block of the (conceptually concatenated) dataset. Initial centers are
/// sampled on rank 0 and broadcast; each loop does a local assignment pass
/// and one allreduce of center sums/counts plus one of the change count.
/// The returned partition covers only local rows; centers are global.
KMeansResult kmeansDistributed(net::Comm& comm, const data::Dataset& local,
                               const KMeansOptions& options);

/// kmeansDistributed() through the caller's workspace, so a later pass
/// over the same block (balanced K-means' rebalance) reuses its tiles
/// instead of packing the block again.
KMeansResult kmeansDistributed(net::Comm& comm, const data::Dataset& local,
                               const KMeansOptions& options,
                               kernel::RowWorkspace& ws);

}  // namespace casvm::cluster
