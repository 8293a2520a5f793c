#include "workloads.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>

#include "casvm/ckpt/store.hpp"
#include "casvm/data/synth.hpp"
#include "casvm/net/fault.hpp"
#include "casvm/obs/trace.hpp"

namespace perfbench {

using casvm::core::DistributedModel;
using casvm::core::Method;
using casvm::core::TrainConfig;
using casvm::data::Dataset;
using casvm::net::TransportKind;

namespace {

namespace fs = std::filesystem;

// Every run draws its rows from one fixed distribution: the epsilon
// stand-in's mixture geometry at the registry's default seed. The run seed
// only picks which windows of that distribution's virtual sample set are
// used. (standinSized would also move the mixture geometry with the seed;
// the cost of the same workload then varied by 1.7x between seeds.)
constexpr std::size_t kVirtualSamples = std::size_t{1} << 24;
constexpr std::uint64_t kGeometrySeed = 42;

std::size_t windowCount(const Shape& shape) {
  return kVirtualSamples / (shape.samples + shape.heldOut);
}

std::string join(const std::vector<double>& v) {
  std::string s;
  char buf[32];
  for (double x : v) {
    std::snprintf(buf, sizeof(buf), "%s%.3f", s.empty() ? "" : " ", x);
    s += buf;
  }
  return s;
}

/// How many draws a run trains: --seconds at the shape's nominal wall time
/// per draw. The work of a run is fixed by --seconds and --seed, not by
/// how fast the host happens to be.
std::size_t drawCount(const Run& run, const Shape& shape) {
  return std::max<std::size_t>(
      2, static_cast<std::size_t>(
             std::lround(run.opt.seconds / shape.secondsPerDraw)));
}

/// One independent data draw of a training workload. Only the draw being
/// trained is resident: its rows are generated when its turn comes.
struct Draw {
  Dataset train;
  Dataset test;
  TrainConfig cfg;
  std::vector<std::byte> reference;  ///< the model every call must train
  DistributedModel model;
};

/// Sums over a run's draws.
struct Tally {
  std::size_t draws = 0;
  double rows = 0.0;
  double setupCpu = 0.0;  ///< generating every draw's rows
  double trainCpu = 0.0;  ///< CPU time of the timed train() calls
  double critical = 0.0;  ///< their slowest-rank times
  double wall = 0.0;      ///< their wall times
  std::vector<double> walls;
  double predictSeconds = 0.0;
  double firstPredictSeconds = 0.0;
  double accuracy = 0.0;
  std::vector<double> peakRss;  ///< per-draw high-water marks, MB

  void add(const Timed& t, std::size_t trainRows) {
    ++draws;
    rows += static_cast<double>(trainRows);
    trainCpu += t.cpuSeconds;
    critical += t.criticalSeconds();
    wall += t.seconds;
    walls.push_back(t.seconds);
  }
};

/// Set up draw `index` of `count`: generate its rows, in CPU time, which
/// the run's setup_s sums over its draws.
Draw setUpDraw(Run& run, const Shape& shape, std::size_t index,
               std::size_t count, Tally& tally) {
  const double start = cpuSeconds();
  const std::uint64_t window =
      (run.opt.seed * count + index) % windowCount(shape);
  Draw d;
  d.train = windowRows(run, shape, window, false);
  d.test = windowRows(run, shape, window, true);
  d.cfg = configFor(run, shape);
  tally.setupCpu += cpuSeconds() - start;
  return d;
}

/// Every call on a draw must train its reference model bitwise: the first
/// call's, unless the workload set it from a separate call.
void checkSameModel(Run& run, Draw& d, const Timed& t, std::size_t index) {
  const std::vector<std::byte> pack = t.result.model.pack();
  if (d.reference.empty()) {
    d.reference = pack;
    return;
  }
  run.gates.check(pack == d.reference,
                  "draw " + std::to_string(index) +
                      ": two train() calls gave different models");
}

/// The offline Algorithm-6 predict path, DistributedModel::accuracy, on
/// the draw's held-out rows, outside every timed call.
void predictDraw(Run& run, const Draw& d, Tally& tally) {
  SpanLog::Scope span(run.spans, "core.DistributedModel.accuracy");
  const double acc = d.model.accuracy(d.test);
  const double seconds = span.close();
  run.gates.check(gate::accuracyFloor(acc, kAccuracyFloor),
                  "held-out accuracy " + std::to_string(acc) +
                      " below floor " + std::to_string(kAccuracyFloor));
  if (tally.draws == 1) tally.firstPredictSeconds = seconds;
  tally.predictSeconds += seconds;
  tally.accuracy += acc;
}

/// Train each of the run's draws once in a timed call and evaluate its
/// model. Outside the timed calls, `prepare` may set the draw's config and
/// reference model, and the first draw (every draw, traced, in the traced
/// run) is trained a second time: both calls must give the same model.
/// Returns false when a call failed. The traced run keeps the first draw in
/// `first` for the layer probes.
template <class Prepare, class Call>
bool trainDraws(Run& run, const Shape& shape, Tally& tally,
                TracedTrains& traced, Draw& first, Prepare&& prepare,
                Call&& call) {
  const std::size_t count = drawCount(run, shape);
  for (std::size_t i = 0; i < count; ++i) {
    resetPeakRss();
    Draw d = setUpDraw(run, shape, i, count, tally);
    if (!prepare(d)) return false;
    const Timed t = call(d, false);
    if (!t.ok) return false;
    tally.add(t, d.train.rows());
    checkSameModel(run, d, t, i);
    if (i == 0 || run.opt.trace) {
      const Timed again = call(d, run.opt.trace);
      if (!again.ok) return false;
      checkSameModel(run, d, again, i);
      if (run.opt.trace) traced.add(again, t.seconds);
    }
    d.model = t.result.model;
    predictDraw(run, d, tally);
    tally.peakRss.push_back(peakRssMb());
    if (i == 0 && run.opt.trace) first = std::move(d);
  }
  return true;
}

/// The end-to-end metrics of a training run, and its wall-clock figures.
void reportTally(Run& run, const Tally& tally) {
  const double n = static_cast<double>(tally.draws);
  run.e2e.set("cpu_us_per_row", tally.trainCpu * 1e6 / tally.rows, "us");
  run.e2e.set("critical_us_per_row", tally.critical * 1e6 / tally.rows,
              "us");
  run.e2e.set("accuracy", tally.accuracy / n, "fraction");
  run.e2e.set("setup_s", tally.setupCpu, "s");
  run.e2e.set("peak_rss_mb", median(tally.peakRss), "MB");
  run.layer.set("core.rows_per_s", tally.rows / tally.wall, "1/s");
  run.notes.push_back(
      "train_s " + std::to_string(median(tally.walls)) +
      " s wall, median over " + std::to_string(tally.draws) + " draws (" +
      join(tally.walls) + "); " + std::to_string(tally.rows / tally.wall) +
      " rows/s wall, " + std::to_string(tally.trainCpu / n) + " CPU-s and " +
      std::to_string(tally.critical / n) + " slowest-rank s per draw");
  run.notes.push_back("predict_s " + std::to_string(tally.predictSeconds / n) +
                      " s per draw (scalar DistributedModel::accuracy)");
}

/// Dual objective recomputed from a model's SV expansion (alphaY = a_i y_i),
/// as the global-method tests do.
double dualObjective(const casvm::solver::Model& model) {
  const Dataset& svs = model.supportVectors();
  const std::vector<double>& ay = model.alphaY();
  const casvm::kernel::Kernel kern(model.kernelParams());
  double linear = 0.0;
  double quad = 0.0;
  for (std::size_t i = 0; i < ay.size(); ++i) {
    linear += std::abs(ay[i]);
    quad += ay[i] * ay[i] * kern.eval(svs, i, i);
    for (std::size_t j = i + 1; j < ay.size(); ++j) {
      quad += 2.0 * ay[i] * ay[j] * kern.eval(svs, i, j);
    }
  }
  return linear - 0.5 * quad;
}

std::size_t directoryBytes(const fs::path& dir) {
  std::size_t bytes = 0;
  for (const auto& e : fs::recursive_directory_iterator(dir)) {
    if (e.is_regular_file()) bytes += e.file_size();
  }
  return bytes;
}

/// The traced run's layer probes on the first draw.
void probeLayers(Run& run, const Draw& d, double predictSeconds,
                 double storeBytes) {
  const std::size_t rows = probeTrainingLayers(run, d.train, d.cfg);
  probeCheckpoint(run, rows);
  probeScoring(run, d.model, d.test, predictSeconds);
  run.layer.set("ckpt.bytes", storeBytes, "bytes");
  probeServeLayer(run, d.model, d.test);
}

void runTraining(Run& run, const Shape& shape) {
  if (run.opt.trace) probeTransports(run, shape);
  Tally tally;
  TracedTrains traced;
  Draw first;
  const bool ok = trainDraws(
      run, shape, tally, traced, first, [](Draw&) { return true; },
      [&](Draw& d, bool t) {
        Timed call = timedTrain(run, d.train, d.cfg, t);
        if (!call.ok || shape.method != Method::DisSmo) return call;
        // Dis-SMO solves the serial problem exactly: its objective must
        // match a serial SmoSolver run on the same data.
        SpanLog::Scope span(run.spans, "gate.serial_solve");
        const casvm::solver::SolverResult serial =
            casvm::solver::SmoSolver(d.cfg.solver).solve(d.train);
        span.close();
        const double objective = dualObjective(call.result.model.model(0));
        run.gates.check(serial.converged, "serial reference did not converge");
        run.gates.check(
            gate::objectiveMatches(objective, serial.objective, 1e-3),
            "dis-smo objective " + std::to_string(objective) + " vs serial " +
                std::to_string(serial.objective));
        return call;
      });
  if (!ok) return;
  reportTally(run, tally);
  if (!run.opt.trace) return;
  traced.report(run);
  probeLayers(run, first, tally.firstPredictSeconds, 0.0);
}

void runRecover(Run& run, const Shape& shape) {
  if (run.opt.trace) probeTransports(run, shape);
  run.notes.push_back("fault: kill the critical-path rank at its 3rd of ~6 "
                      "solver snapshots, one respawn allowed");
  const fs::path dir = fs::path(run.opt.workDir) / "ckpt";
  double storeBytes = 0.0;
  Tally tally;
  TracedTrains traced;
  Draw first;
  // Outside every timed call, each draw's fault-free model on the thread
  // transport is the reference every recovered call must reproduce
  // bitwise, so its accuracy is ca-train's on that draw. It also names the
  // rank to kill.
  const auto prepare = [&](Draw& d) {
    TrainConfig ref = d.cfg;
    ref.transport = TransportKind::Thread;
    SpanLog::Scope span(run.spans, "gate.reference_train");
    const Timed t = timedTrain(run, d.train, ref, false);
    if (!t.ok) return false;
    d.reference = t.result.model.pack();
    const std::vector<long long>& iters = t.result.iterationsPerRank;
    const auto critical = static_cast<std::size_t>(
        std::max_element(iters.begin(), iters.end()) - iters.begin());
    // Six snapshots on the critical-path rank; it is killed right after
    // the third, half way through its solve, and must be respawned.
    d.cfg.checkpointEvery = std::max<std::size_t>(
        64, static_cast<std::size_t>(iters[critical] / 6));
    d.cfg.rankRetries = 1;
    d.cfg.faults = casvm::net::FaultPlan::parse(
        "kill:rank=" + std::to_string(critical) + ",phase=solve,nth=3");
    return true;
  };
  const bool ok = trainDraws(
      run, shape, tally, traced, first, prepare, [&](Draw& d, bool t) {
        fs::remove_all(dir);
        fs::create_directories(dir);
        casvm::ckpt::CheckpointStore store(dir.string());
        TrainConfig cfg = d.cfg;
        cfg.checkpoints = &store;
        Timed call = timedTrain(run, d.train, cfg, t);
        if (call.ok) {
          run.gates.check(gate::recovered(call.result),
                          "the killed rank was not recovered to full coverage");
          if (storeBytes == 0.0) {
            storeBytes = static_cast<double>(directoryBytes(dir));
          }
        }
        return call;
      });
  fs::remove_all(dir);
  if (!ok) return;
  reportTally(run, tally);
  if (!run.opt.trace) return;
  traced.report(run);
  probeLayers(run, first, tally.firstPredictSeconds, storeBytes);
}

}  // namespace

Shape shapeOf(const std::string& workload) {
  // ca-train, ra-train and ca-recover: each of the four ranks holds 4k
  // rows, so its kernel matrix (4k rows x 32 KB = 128 MB) is 8x its row
  // cache, a quarter of the default: the ratio a 32k-row run has with the
  // default cache. serve trains its model on 32k rows with the defaults.
  // global-train: the local kernel matrix fits in the cache and
  // per-message latency dominates.
  if (workload == "global-train") {
    return {600, 150, Method::DisSmo, 2, TransportKind::Proc, 1, 3.75};
  }
  if (workload == "serve") {  // one served model, no draws
    return {32000, 6400, Method::BkmCa, 4, TransportKind::Thread, 1, 0.0};
  }
  if (workload == "ra-train") {
    return {16000, 800, Method::RaCa, 4, TransportKind::Thread, 4, 1.5};
  }
  const bool recover = workload == "ca-recover";
  return {16000, 800, Method::BkmCa, 4,
          recover ? TransportKind::Proc : TransportKind::Thread, 4,
          recover ? 15.0 / 14.0 : 0.75};
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

Dataset windowRows(Run& run, const Shape& shape, std::uint64_t window,
                   bool heldOut) {
  const casvm::data::StandinSpec& standin =
      casvm::data::standinSpec("epsilon");
  casvm::data::MixtureSpec spec = standin.mixture;
  spec.samples = kVirtualSamples;
  spec.seed = kGeometrySeed;
  const std::size_t begin = window * (shape.samples + shape.heldOut);
  SpanLog::Scope span(run.spans, "data.generateMixtureChunk");
  Dataset rows =
      heldOut ? casvm::data::generateMixtureChunk(
                    spec, begin + shape.samples, shape.heldOut)
              : casvm::data::generateMixtureChunk(spec, begin, shape.samples);
  const double seconds = span.close();
  if (!heldOut) run.layer.set("data.gen_s", seconds, "s");
  return rows;
}

TrainConfig configFor(const Run& run, const Shape& shape) {
  const casvm::data::StandinSpec& standin =
      casvm::data::standinSpec("epsilon");
  TrainConfig cfg;
  cfg.method = shape.method;
  cfg.processes = shape.procs;
  cfg.solver.kernel = casvm::kernel::KernelParams::gaussian(standin.gamma);
  cfg.solver.C = standin.C;
  cfg.solver.cacheBytes /= shape.cacheDivisor;
  cfg.transport = shape.transport;
  cfg.supervisorLog = run.opt.workDir + "/supervisor.log";
  return cfg;
}

Timed timedTrain(Run& run, const Dataset& train, TrainConfig cfg,
                 bool traced) {
  Timed t;
  casvm::obs::TraceRecorder recorder;
  if (traced) cfg.trace = &recorder;
  ++run.counts.trainsStarted;
  try {
    const double cpuStart = cpuSeconds();
    SpanLog::Scope span(run.spans,
                        traced ? "core.train(traced)" : "core.train");
    t.result = casvm::core::train(train, cfg);
    t.seconds = span.close();
    t.cpuSeconds = cpuSeconds() - cpuStart;
    t.ok = true;
  } catch (const std::exception& e) {
    ++run.counts.trainsFailed;
    run.gates.check(false, std::string("core::train threw: ") + e.what());
  }
  t.events = recorder.eventCount();
  return t;
}

void TracedTrains::add(const Timed& traced, double untraced) {
  const casvm::core::TrainResult& r = traced.result;
  ++calls;
  seconds += traced.seconds;
  untracedSeconds += untraced;
  engineSeconds += r.wallSeconds;
  criticalIterations += static_cast<double>(r.criticalIterations);
  bytes += static_cast<double>(r.totalTrafficBytes());
  messages += static_cast<double>(r.runStats.traffic.totalOps());
  for (int n : r.retriesPerRank) respawns += n;
  recoveredRanks += static_cast<double>(r.recoveredRanks.size());
  checkpointsLoaded += static_cast<double>(r.checkpointsLoaded);
  events += static_cast<double>(traced.events);
}

void TracedTrains::report(Run& run) const {
  const double n = calls > 0 ? calls : 1;
  run.layer.set("core.engine_s", engineSeconds / n, "s");
  run.layer.set("core.outside_engine_s", (seconds - engineSeconds) / n, "s");
  run.layer.set("solver.critical_iterations", criticalIterations / n,
                "count");
  run.layer.set("net.bytes", bytes / n, "bytes");
  run.layer.set("net.messages", messages / n, "count");
  run.layer.set("net.respawns", respawns / n, "count");
  run.layer.set("net.recovered_ranks", recoveredRanks / n, "count");
  run.layer.set("ckpt.loaded", checkpointsLoaded / n, "count");
  run.layer.set("obs.events", events / n, "count");
  run.layer.set("obs.trace_overhead", seconds / untracedSeconds - 1.0,
                "fraction");
}

void probeTransports(Run& run, const Shape& shape) {
  const std::string log = run.opt.workDir + "/probe-supervisor.log";
  const NetProbe proc = probeNet(TransportKind::Proc, shape.procs, log);
  const NetProbe thread = probeNet(TransportKind::Thread, shape.procs, log);
  const NetProbe& mine =
      shape.transport == TransportKind::Proc ? proc : thread;
  run.layer.set("net.allreduce_us", mine.allreduceUs, "us");
  run.layer.set("net.bcast_gbps", mine.bcastGbps, "GB/s");
  run.layer.set("net.alpha_us.thread", thread.alphaUs, "us");
  run.layer.set("net.alpha_us.proc", proc.alphaUs, "us");
  run.layer.set("net.bcast_gbps.thread", thread.bcastGbps, "GB/s");
  run.layer.set("net.bcast_gbps.proc", proc.bcastGbps, "GB/s");
  const casvm::net::CostModel model;
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "alpha-beta at P=%d: thread alpha %.2f us, beta %.3g s/B | "
                "proc alpha %.2f us, beta %.3g s/B | CostModel alpha %.2f us, "
                "beta %.3g s/B",
                shape.procs, thread.alphaUs, 1e-9 / thread.bcastGbps,
                proc.alphaUs, 1e-9 / proc.bcastGbps, model.alpha * 1e6,
                model.beta);
  run.notes.push_back(buf);
}

const std::vector<std::string>& workloadNames() {
  static const std::vector<std::string> names = {
      "ca-train", "ra-train", "global-train", "serve", "ca-recover"};
  return names;
}

void runWorkload(Run& run) {
  const Shape shape = shapeOf(run.opt.workload);
  if (run.opt.workload == "serve") {
    runServe(run, shape);
  } else if (run.opt.workload == "ca-recover") {
    runRecover(run, shape);
  } else {
    runTraining(run, shape);
  }
}

}  // namespace perfbench
