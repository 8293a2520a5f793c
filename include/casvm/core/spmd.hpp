#pragma once

/// \file spmd.hpp
/// SPMD building blocks shared by the method implementations (and reusable
/// for new methods): guarded local sub-SVM training, all-to-all sample
/// exchange after a partitioning step, and the deposit board through which
/// ranks publish their results to the driver without generating network
/// traffic (rank-disjoint shared-memory slots; this models local disk
/// output, not communication, so it must not pollute the traffic matrix).

#include <vector>

#include "casvm/cluster/partition.hpp"
#include "casvm/net/comm.hpp"
#include "casvm/solver/smo.hpp"

namespace casvm::core {

/// Outcome of one local sub-SVM solve.
struct LocalSolve {
  solver::Model model;
  std::vector<double> alpha;  ///< full-length alpha over the local rows
  long long iterations = 0;
  long long svs = 0;
};

/// Train a sub-SVM on `local`, handling the degenerate cases partitioning
/// can produce: an empty part yields an empty model, and a single-class
/// part (a pure K-means cluster) yields a constant classifier with bias
/// equal to the class label — the correct local decision rule when every
/// nearby training point agrees.
LocalSolve trainLocalSvm(const data::Dataset& local,
                         const solver::SolverOptions& options,
                         std::span<const double> initialAlpha = {});

/// All-to-all exchange moving each local sample to the rank that owns its
/// part: after this call rank r holds exactly the samples with
/// assign[i] == r across all ranks. Used by every K-means-partitioned
/// method to turn a logical partition into a physical one.
data::Dataset exchangeToOwners(net::Comm& comm, const data::Dataset& local,
                               const std::vector<int>& assign);

/// Per-rank result board: rank-indexed slots the SPMD function fills and
/// the driver reads after the run. Writes are disjoint by rank, so no
/// synchronization (beyond thread join) is needed.
struct RankBoard {
  explicit RankBoard(int size)
      : models(static_cast<std::size_t>(size)),
        alphas(static_cast<std::size_t>(size)),
        centers(static_cast<std::size_t>(size)),
        iterations(static_cast<std::size_t>(size), 0),
        samples(static_cast<std::size_t>(size), 0),
        svs(static_cast<std::size_t>(size), 0),
        positives(static_cast<std::size_t>(size), 0),
        initEndVirtual(static_cast<std::size_t>(size), 0.0),
        trainEndVirtual(static_cast<std::size_t>(size), 0.0),
        kmeansLoops(static_cast<std::size_t>(size), 0),
        layerRecords(static_cast<std::size_t>(size)),
        retries(static_cast<std::size_t>(size), 0),
        recovered(static_cast<std::size_t>(size), 0),
        checkpointsLoaded(static_cast<std::size_t>(size), 0),
        auxIterations(static_cast<std::size_t>(size), 0),
        shrinkEngagedIter(static_cast<std::size_t>(size), -1),
        rowBcastsSkipped(static_cast<std::size_t>(size), 0) {}

  std::vector<solver::Model> models;
  std::vector<std::vector<double>> alphas;
  std::vector<std::vector<float>> centers;
  std::vector<long long> iterations;
  std::vector<long long> samples;
  std::vector<long long> svs;
  std::vector<long long> positives;
  std::vector<double> initEndVirtual;
  std::vector<double> trainEndVirtual;
  std::vector<std::size_t> kmeansLoops;

  /// One record per layer a rank was active in (tree methods).
  struct LayerRecord {
    int layer = 0;
    long long samples = 0;
    long long iterations = 0;
    long long svs = 0;
    double seconds = 0.0;
  };
  std::vector<std::vector<LayerRecord>> layerRecords;

  /// Recovery bookkeeping (casvm::ckpt): retry attempts consumed, whether
  /// the rank crashed-then-recovered in-run, and checkpoints restored.
  std::vector<int> retries;
  std::vector<char> recovered;
  std::vector<long long> checkpointsLoaded;

  /// Secondary iteration counter for methods with two kinds of work:
  /// PBM records its global pair-correction iterations here (identical on
  /// every rank) next to the per-rank block-solve iterations above.
  std::vector<long long> auxIterations;
  /// First global iteration at which an adaptive shrink pass committed
  /// (DisSmoShrink), -1 if shrinking never engaged.
  std::vector<long long> shrinkEngagedIter;
  /// Elected-row broadcasts served from the replicated row store instead
  /// of the wire (DisSmoShrink, Pbm).
  std::vector<long long> rowBcastsSkipped;

  /// Traffic snapshot at the init/train boundary, written by rank 0.
  net::TrafficSnapshot initSnapshot;
};

/// Current virtual time of this rank (samples the CPU clock first).
double virtualNow(net::Comm& comm);

/// RAII phase span on the comm's trace lane: records a Cat::Phase span
/// from construction to destruction on the rank's virtual timeline. No-op
/// (two pointer tests) when the comm has no lane. `name` must be a string
/// literal (the recorder stores the pointer); `detail` is a free-form
/// integer rendered into the span args (tree methods pass the layer).
class PhaseSpan {
 public:
  PhaseSpan(net::Comm& comm, const char* name, long long detail = -1);
  ~PhaseSpan();
  PhaseSpan(const PhaseSpan&) = delete;
  PhaseSpan& operator=(const PhaseSpan&) = delete;

 private:
  net::Comm& comm_;
  const char* name_;
  long long detail_;
  double start_ = 0.0;
};

}  // namespace casvm::core
