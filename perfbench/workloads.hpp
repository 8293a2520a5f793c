#pragma once

/// \file workloads.hpp
/// The benchmark workloads, the helpers they share and the per-layer
/// probes of the traced run.

#include <cstdint>
#include <string>
#include <vector>

#include "bench.hpp"
#include "casvm/core/train.hpp"
#include "casvm/data/registry.hpp"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string workDir;  ///< scratch directory inside the checkout
};

/// Operations attempted and their outcomes, printed per workload.
struct Counts {
  long trainsStarted = 0;
  long trainsFailed = 0;
  long sent = 0;
  long ok = 0;
  long shed = 0;
  long timedOut = 0;
  long stopped = 0;
  long badRequest = 0;
};

/// Everything one invocation produces: untraced end-to-end metrics,
/// traced per-layer metrics, gate results and operation counts.
struct Run {
  Options opt;
  SpanLog spans;
  Metrics e2e;
  Metrics layer;
  Gates gates;
  Counts counts;
  std::vector<std::string> notes;  ///< extra human-readable lines
};

const std::vector<std::string>& workloadNames();

/// Run `run.opt.workload`. Gate violations land in run.gates; an exception
/// means the workload could not run at all.
void runWorkload(Run& run);

// --- shared by the workloads ------------------------------------------------

/// One workload's training shape.
struct Shape {
  std::size_t samples;            ///< training rows per data draw
  std::size_t heldOut;            ///< held-out rows per data draw
  casvm::core::Method method;
  int procs;
  casvm::net::TransportKind transport;
  /// The solver's kernel-row cache per rank is the library default
  /// divided by this.
  std::size_t cacheDivisor;
  /// Nominal wall seconds per draw: a run trains --seconds / this many
  /// independent data draws.
  double secondsPerDraw;
};

/// Held-out accuracy every trained model must reach (a correctness gate).
constexpr double kAccuracyFloor = 0.9;

Shape shapeOf(const std::string& workload);

double median(std::vector<double> v);

/// Rows of window `window` of the benchmark's fixed distribution: the
/// training rows, or the held-out rows that follow them.
casvm::data::Dataset windowRows(Run& run, const Shape& shape,
                                std::uint64_t window, bool heldOut);

casvm::core::TrainConfig configFor(const Run& run, const Shape& shape);

struct Timed {
  casvm::core::TrainResult result;
  double seconds = 0.0;     ///< wall time of the call
  double cpuSeconds = 0.0;  ///< CPU time of the call, workers included
  std::size_t events = 0;  ///< trace events recorded (traced calls only)
  bool ok = false;

  /// The slowest rank's time: per-rank thread CPU plus modelled
  /// communication, partitioning phase and solve phase.
  double criticalSeconds() const {
    return result.initSeconds + result.trainSeconds;
  }
};

/// One core::train() call; only the call itself is timed, in wall and in
/// CPU time.
Timed timedTrain(Run& run, const casvm::data::Dataset& train,
                 casvm::core::TrainConfig cfg, bool traced);

/// Sums over the traced training calls, reported as per-call means.
struct TracedTrains {
  int calls = 0;
  double seconds = 0.0;
  double untracedSeconds = 0.0;  ///< the same calls' untraced times
  double engineSeconds = 0.0;
  double criticalIterations = 0.0;
  double bytes = 0.0;
  double messages = 0.0;
  double respawns = 0.0;
  double recoveredRanks = 0.0;
  double checkpointsLoaded = 0.0;
  double events = 0.0;

  void add(const Timed& traced, double untracedSeconds);
  void report(Run& run) const;
};

/// Alpha/beta probes on both transports at the workload's P. Must run
/// before the workload starts any thread, because the proc backend forks.
void probeTransports(Run& run, const Shape& shape);

/// The serve workload (serving.cpp).
void runServe(Run& run, const Shape& shape);

/// A training workload's traced run measures the serve layer on its own
/// model briefly, so every per-layer metric is measured on every workload.
void probeServeLayer(Run& run, const casvm::core::DistributedModel& model,
                     const casvm::data::Dataset& queries);

// --- per-layer probes (probes.cpp) -----------------------------------------

/// Measured alpha/beta of one transport at `procs` ranks through the public
/// net::Engine: 8-byte allreduce latency and multi-MB bcast bandwidth.
struct NetProbe {
  double allreduceUs = 0.0;
  double alphaUs = 0.0;    ///< allreduceUs / sequential hops of the tree
  double bcastGbps = 0.0;  ///< per-hop bandwidth of a 4 MiB bcast
};
NetProbe probeNet(casvm::net::TransportKind kind, int procs,
                  const std::string& supervisorLog);

/// cluster.*, solver.* and kernel.* on the workload's own data: the
/// method's partitioner at the workload's P (serial balanced k-means for
/// BKM-CA), SmoSolver::solve on every part in parallel (the slowest is
/// reported), and ExactRowSource::fillRow on the largest part. Dis-SMO's
/// single global problem is solved whole. Returns the largest part's row
/// count (the checkpoint probe's size).
std::size_t probeTrainingLayers(Run& run, const casvm::data::Dataset& train,
                                const casvm::core::TrainConfig& cfg);

/// ckpt.save_ms / ckpt.load_ms: CheckpointStore round trip of one encoded
/// solver snapshot of `rows` rows.
void probeCheckpoint(Run& run, std::size_t rows);

/// serve.score_us_per_row (compiled decisionBatch at batch 32) next to the
/// scalar DistributedModel::accuracy path's cost per row.
void probeScoring(Run& run, const casvm::core::DistributedModel& model,
                  const casvm::data::Dataset& test, double predictSeconds);

}  // namespace perfbench
