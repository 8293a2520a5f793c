// Per-layer probes of the traced run. Each one times calls into one
// module's public API on the workload's own data, from this file.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <functional>
#include <thread>

#include "casvm/ckpt/state.hpp"
#include "casvm/ckpt/store.hpp"
#include "casvm/cluster/balanced_kmeans.hpp"
#include "casvm/kernel/row_source.hpp"
#include "casvm/serve/compiled_ensemble.hpp"
#include "casvm/solver/smo.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

double elapsed(std::chrono::steady_clock::time_point since) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - since)
      .count();
}

double medianOf(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v[v.size() / 2];
}

/// Sequential message hops of one binomial-tree pass over `procs` ranks.
int treeHops(int procs) {
  int hops = 0;
  for (int span = 1; span < procs; span <<= 1) ++hops;
  return hops;
}

}  // namespace

NetProbe probeNet(casvm::net::TransportKind kind, int procs,
                  const std::string& supervisorLog) {
  using casvm::net::TransportKind;
  // Rounds of timed collectives; the proc transport's per-message latency
  // is two orders of magnitude above the thread transport's.
  const int rounds = 5;
  const int allreduces = kind == TransportKind::Proc ? 100 : 2000;
  const int bcasts = 4;
  const std::size_t bcastDoubles = (4u << 20) / sizeof(double);

  // [allreduce seconds per op, bcast seconds per op] per round, measured
  // on rank 0. On the proc backend rank 0 is a forked worker, so the
  // numbers travel back through the engine's result channel.
  std::vector<double> timings(2 * rounds, 0.0);
  casvm::net::Engine engine(procs);
  engine.setTransport(kind);
  engine.setSupervisorLogPath(supervisorLog);
  casvm::net::Engine::ResultChannel channel;
  channel.serialize = [&timings](int rank) {
    std::vector<std::byte> out;
    if (rank != 0) return out;
    out.resize(timings.size() * sizeof(double));
    std::memcpy(out.data(), timings.data(), out.size());
    return out;
  };
  channel.absorb = [&timings](int rank, const std::vector<std::byte>& in) {
    if (rank == 0 && in.size() == timings.size() * sizeof(double)) {
      std::memcpy(timings.data(), in.data(), in.size());
    }
  };
  engine.setResultChannel(channel);
  engine.run([&](casvm::net::Comm& comm) {
    double sink = 0.0;
    std::vector<double> payload(bcastDoubles, 1.0);
    for (int i = 0; i < allreduces / 10; ++i) {  // warm-up
      sink += comm.allreduce(1.0, std::plus<double>());
    }
    for (int r = 0; r < rounds; ++r) {
      comm.barrier();
      auto start = std::chrono::steady_clock::now();
      for (int i = 0; i < allreduces; ++i) {
        sink += comm.allreduce(1.0, std::plus<double>());
      }
      const double allreduce = elapsed(start) / allreduces;
      comm.barrier();
      start = std::chrono::steady_clock::now();
      for (int i = 0; i < bcasts; ++i) comm.bcast(payload, 0);
      comm.barrier();
      const double bcast = elapsed(start) / bcasts;
      if (comm.rank() == 0) {
        timings[2 * static_cast<std::size_t>(r)] = allreduce;
        timings[2 * static_cast<std::size_t>(r) + 1] = bcast;
      }
    }
    CASVM_CHECK(sink > 0.0, "allreduce probe lost its values");
  });

  std::vector<double> allreduce;
  std::vector<double> bcast;
  for (int r = 0; r < rounds; ++r) {
    allreduce.push_back(timings[2 * static_cast<std::size_t>(r)]);
    bcast.push_back(timings[2 * static_cast<std::size_t>(r) + 1]);
  }
  NetProbe probe;
  const int hops = std::max(1, treeHops(procs));
  probe.allreduceUs = medianOf(allreduce) * 1e6;
  // Allreduce is a reduce then a bcast: two tree passes of 8-byte messages.
  probe.alphaUs = probe.allreduceUs / (2.0 * hops);
  probe.bcastGbps = static_cast<double>(bcastDoubles * sizeof(double)) *
                    hops / medianOf(bcast) / 1e9;
  return probe;
}

std::size_t probeTrainingLayers(Run& run, const casvm::data::Dataset& train,
                                const casvm::core::TrainConfig& cfg) {
  std::vector<casvm::data::Dataset> parts;
  if (cfg.method == casvm::core::Method::DisSmo) {
    // Dis-SMO splits rows into blocks without clustering and solves one
    // global problem, so the solver and kernel probes take it whole.
    SpanLog::Scope span(run.spans, "cluster.blockPartition");
    const casvm::cluster::Partition block =
        casvm::cluster::blockPartition(train, cfg.processes);
    run.layer.set("cluster.partition_s", span.close(), "s");
    run.layer.set("cluster.kmeans_loops", 0.0, "count");
    run.layer.set("cluster.imbalance", block.imbalance(), "ratio");
    parts.push_back(train);
  } else if (cfg.method == casvm::core::Method::RaCa) {
    // RA-CA's partitioner: random even parts, no k-means.
    SpanLog::Scope span(run.spans, "cluster.randomPartition");
    const casvm::cluster::Partition random =
        casvm::cluster::randomPartition(train, cfg.processes, cfg.seed);
    run.layer.set("cluster.partition_s", span.close(), "s");
    run.layer.set("cluster.kmeans_loops", 0.0, "count");
    run.layer.set("cluster.imbalance", random.imbalance(), "ratio");
    for (const auto& rows : random.groups()) {
      parts.push_back(train.subset(rows));
    }
  } else {
    // The serial balanced k-means at the workload's P.
    casvm::cluster::BalancedKMeansOptions bkm;
    bkm.parts = cfg.processes;
    bkm.ratioBalanced = cfg.ratioBalance;
    bkm.maxKmeansLoops = cfg.kmeansMaxLoops;
    bkm.kmeansChangeThreshold = cfg.kmeansChangeThreshold;
    bkm.seed = cfg.seed;
    SpanLog::Scope span(run.spans, "cluster.balancedKmeans");
    const casvm::cluster::BalancedKMeansResult result =
        casvm::cluster::balancedKmeans(train, bkm);
    run.layer.set("cluster.partition_s", span.close(), "s");
    run.layer.set("cluster.kmeans_loops",
                  static_cast<double>(result.kmeansLoops), "count");
    run.layer.set("cluster.imbalance", result.partition.imbalance(), "ratio");
    for (const auto& rows : result.partition.groups()) {
      parts.push_back(train.subset(rows));
    }
  }

  // solver: every part solved at once, one thread each, as the ranks do.
  std::vector<casvm::solver::SolverResult> results(parts.size());
  std::vector<double> seconds(parts.size(), 0.0);
  {
    SpanLog::Scope span(run.spans, "solver.SmoSolver.solve");
    std::vector<std::thread> threads;
    for (std::size_t p = 0; p < parts.size(); ++p) {
      threads.emplace_back([&, p] {
        const auto start = std::chrono::steady_clock::now();
        results[p] = casvm::solver::SmoSolver(cfg.solver).solve(parts[p]);
        seconds[p] = elapsed(start);
      });
    }
    for (std::thread& t : threads) t.join();
  }
  const std::size_t slowest = static_cast<std::size_t>(
      std::max_element(seconds.begin(), seconds.end()) - seconds.begin());
  const casvm::solver::SolverResult& slow = results[slowest];
  run.layer.set("solver.solve_s", seconds[slowest], "s");
  run.layer.set("solver.iterations", static_cast<double>(slow.iterations),
                "count");
  run.layer.set("solver.iters_per_s",
                static_cast<double>(slow.iterations) / seconds[slowest], "1/s");
  const double lookups =
      static_cast<double>(slow.kernelRowsComputed + slow.kernelRowHits);
  run.layer.set("kernel.rows_computed",
                static_cast<double>(slow.kernelRowsComputed), "count");
  run.layer.set("kernel.row_hit_rate",
                lookups > 0 ? static_cast<double>(slow.kernelRowHits) / lookups
                            : 0.0,
                "fraction");

  // kernel: full-row fills on the largest part.
  std::size_t largest = 0;
  for (std::size_t p = 0; p < parts.size(); ++p) {
    if (parts[p].rows() > parts[largest].rows()) largest = p;
  }
  const casvm::data::Dataset& part = parts[largest];
  const casvm::kernel::Kernel kernel(cfg.solver.kernel);
  casvm::kernel::ExactRowSource source(kernel, part);
  std::vector<double> row(part.rows());
  const std::size_t fills = std::min<std::size_t>(256, part.rows());
  double checksum = 0.0;
  {
    SpanLog::Scope span(run.spans, "kernel.ExactRowSource.fillRow");
    for (std::size_t i = 0; i < fills; ++i) {
      source.fillRow(i, row);
      checksum += row[i];
    }
    const double s = span.close();
    run.layer.set("kernel.fill_us_per_row",
                  s * 1e6 / static_cast<double>(fills), "us");
    // One multiply-add per feature per kernel entry (computed, not counted).
    run.layer.set("kernel.tile_gflops",
                  2.0 * static_cast<double>(fills * part.rows() * part.cols()) /
                      s / 1e9,
                  "GFLOP/s");
  }
  // A Gaussian kernel row holds 1 on its diagonal.
  run.gates.check(std::abs(checksum - static_cast<double>(fills)) <
                      1e-6 * static_cast<double>(fills),
                  "kernel probe rows lost their unit diagonal");
  return part.rows();
}

void probeCheckpoint(Run& run, std::size_t rows) {
  namespace fs = std::filesystem;
  casvm::solver::SolverSnapshot snap;
  snap.iteration = rows;
  snap.alpha.resize(rows);
  snap.f.resize(rows);
  snap.active.resize(rows);
  for (std::size_t i = 0; i < rows; ++i) {
    snap.alpha[i] = static_cast<double>(i % 7) * 0.125;
    snap.f[i] = -1.0 + static_cast<double>(i) * 1e-6;
    snap.active[i] = i;
  }
  const fs::path dir = fs::path(run.opt.workDir) / "ckpt-probe";
  fs::remove_all(dir);
  fs::create_directories(dir);
  casvm::ckpt::CheckpointStore store(dir.string());
  std::vector<double> saves;
  std::vector<double> loads;
  bool same = true;
  for (int i = 0; i < 5; ++i) {
    {
      SpanLog::Scope span(run.spans, "ckpt.CheckpointStore.save");
      store.save("probe", casvm::ckpt::Kind::SolverState,
                 casvm::ckpt::encodeSolverState(snap));
      saves.push_back(span.close());
    }
    SpanLog::Scope span(run.spans, "ckpt.CheckpointStore.load");
    const auto payload =
        store.load("probe", casvm::ckpt::Kind::SolverState);
    const casvm::solver::SolverSnapshot back =
        casvm::ckpt::decodeSolverState(*payload);
    loads.push_back(span.close());
    same = same && back.alpha == snap.alpha && back.f == snap.f &&
           back.active == snap.active;
  }
  fs::remove_all(dir);
  run.gates.check(same, "checkpoint probe round trip changed the snapshot");
  run.layer.set("ckpt.save_ms", medianOf(saves) * 1e3, "ms");
  run.layer.set("ckpt.load_ms", medianOf(loads) * 1e3, "ms");
}

void probeScoring(Run& run, const casvm::core::DistributedModel& model,
                  const casvm::data::Dataset& test, double predictSeconds) {
  const casvm::serve::CompiledDistributedModel compiled =
      casvm::serve::CompiledDistributedModel::compile(model);
  casvm::serve::BatchScratch scratch;
  constexpr std::size_t kBatch = 32;
  const std::size_t batches = test.rows() / kBatch;
  std::vector<std::size_t> rows(kBatch);
  std::vector<double> out(kBatch);
  SpanLog::Scope span(run.spans, "serve.decisionBatch");
  for (std::size_t b = 0; b < batches; ++b) {
    for (std::size_t j = 0; j < kBatch; ++j) rows[j] = b * kBatch + j;
    compiled.decisionBatch(test, rows, out, scratch);
  }
  const double scoreUs =
      span.close() * 1e6 / static_cast<double>(batches * kBatch);
  bool bitwise = batches > 0;
  for (std::size_t j = 0; j < kBatch && bitwise; ++j) {
    bitwise = gate::bitwiseEqual(out[j], model.decisionFor(test, rows[j]));
  }
  run.gates.check(bitwise, "decisionBatch differs from scalar decisionFor");

  const double predictUs =
      predictSeconds * 1e6 / static_cast<double>(test.rows());
  run.layer.set("serve.score_us_per_row", scoreUs, "us");
  run.layer.set("core.predict_us_per_row", predictUs, "us");
  char buf[200];
  std::snprintf(buf, sizeof(buf),
                "predict path: DistributedModel::accuracy %.1f us/row (scalar) "
                "vs decisionBatch %.1f us/row at batch 32 (%.1fx)",
                predictUs, scoreUs, predictUs / scoreUs);
  run.notes.push_back(buf);
}

}  // namespace perfbench
