// The serve workload: a trained CA-SVM model compiled and served by
// ServeEngine, driven from one generator thread.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <deque>
#include <future>
#include <memory>
#include <thread>

#include "casvm/obs/trace.hpp"
#include "casvm/serve/compiled_ensemble.hpp"
#include "casvm/serve/engine.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using casvm::core::DistributedModel;
using casvm::data::Dataset;
using casvm::serve::CompiledDistributedModel;
using casvm::serve::ServeCode;
using casvm::serve::ServeEngine;
using casvm::serve::ServeReply;
using Clock = std::chrono::steady_clock;

// An open loop at a fixed rate about a quarter of capacity, then a closed
// loop holding a fixed window outstanding and republishing every kSwapEvery.
constexpr double kOpenRate = 4000.0;  ///< requests per second
constexpr std::size_t kWindow = 256;
constexpr std::size_t kSwapEvery = 4096;
/// Bias offset of the alternate model generation, so a reply's decision
/// tells which generation scored it.
constexpr double kGenerationShift = 1e-6;
/// One Ok reply in this many is checked bitwise against decisionFor.
constexpr std::size_t kSampleEvery = 16;
constexpr int kSetupReps = 3;  ///< set-up timed this often; median kept
constexpr double kStatWindow = 0.5;  ///< seconds per statistics window

struct Pending {
  std::size_t row = 0;
  Clock::time_point due;
  Clock::time_point sent;
  std::uint64_t genAtSubmit = 0;
  std::future<ServeReply> reply;
};

struct Sample {
  std::size_t row;
  std::uint64_t generation;
  double decision;
};

struct Traffic {
  long sent = 0, ok = 0, shed = 0, timedOut = 0, stopped = 0, bad = 0;
  long correct = 0;
  std::vector<double> openLatency;    ///< scheduled send -> reply, seconds
  std::vector<double> engineLatency;  ///< ServeReply::latencySeconds
  double maxLateness = 0.0;           ///< generator lateness, seconds
  long closedOk = 0;
  double closedSeconds = 0.0;
  std::vector<double> closedDone;     ///< Ok reply times from phase start
  double batchRows = 0.0;             ///< summed over closed-loop Ok replies
  std::vector<double> swapSeconds;    ///< publish -> first reply of new gen
  std::vector<Sample> samples;
  bool generationsInWindow = true;
};

/// Two model generations that differ only in bias, so the scalar reference
/// of each sampled reply is the generation that scored it.
std::vector<DistributedModel> generationVariants(const DistributedModel& m) {
  std::vector<casvm::solver::Model> shifted;
  for (std::size_t i = 0; i < m.numModels(); ++i) {
    const casvm::solver::Model& sub = m.model(i);
    shifted.emplace_back(sub.kernelParams(), sub.supportVectors(),
                         sub.alphaY(), sub.bias() + kGenerationShift);
  }
  DistributedModel alt =
      m.isRouted()
          ? DistributedModel::routed(std::move(shifted), m.centers())
          : DistributedModel::single(std::move(shifted.front()));
  return {m, std::move(alt)};
}

class Generator {
 public:
  Generator(ServeEngine& engine, const Dataset& test,
            const std::vector<CompiledDistributedModel>& packs)
      : engine_(engine), test_(test), packs_(packs) {
    for (std::size_t i = 0; i < test.rows(); ++i) {
      const auto row = test.denseRow(i);
      queries_.emplace_back(row.begin(), row.end());
    }
    variantOf_.assign(engine.modelGeneration() + 1, 0);
  }

  /// Open loop: request i is due at start + i / rate regardless of replies.
  void openLoop(double seconds, double rate, Traffic& out) {
    std::vector<Pending> pending;
    pending.reserve(static_cast<std::size_t>(seconds * rate) + 1);
    const Clock::time_point start = Clock::now();
    for (std::size_t i = 0;; ++i) {
      const auto due = start + std::chrono::duration_cast<Clock::duration>(
                                   std::chrono::duration<double>(
                                       static_cast<double>(i) / rate));
      if (due - start >= std::chrono::duration<double>(seconds)) break;
      std::this_thread::sleep_until(due);
      pending.push_back(submit(i % queries_.size(), due, out));
      out.maxLateness = std::max(
          out.maxLateness,
          std::chrono::duration<double>(pending.back().sent - due).count());
    }
    for (Pending& p : pending) {
      const ServeReply r = p.reply.get();
      if (record(p, r, out)) {
        out.openLatency.push_back(
            std::chrono::duration<double>(p.sent - p.due).count() +
            r.latencySeconds);
        out.engineLatency.push_back(r.latencySeconds);
      }
    }
  }

  /// Closed loop: keep `window` requests outstanding for `seconds`,
  /// republishing the alternate generation every `swapEvery` submits.
  void closedLoop(double seconds, std::size_t window, std::size_t swapEvery,
                  Traffic& out) {
    std::deque<Pending> inFlight;
    std::size_t submitted = 0;
    std::uint64_t swapGen = 0;
    Clock::time_point swapAt;
    const Clock::time_point start = Clock::now();
    auto next = [&] {
      if (swapEvery > 0 && submitted > 0 && submitted % swapEvery == 0) {
        const std::size_t variant = (variantOf_.back() + 1) % packs_.size();
        swapAt = Clock::now();
        swapGen = engine_.publish(packs_[variant]);
        variantOf_.resize(swapGen + 1, variant);
      }
      inFlight.push_back(submit(submitted % queries_.size(), Clock::now(), out));
      ++submitted;
    };
    while (submitted < window) next();
    Clock::time_point last = start;
    while (!inFlight.empty()) {
      Pending p = std::move(inFlight.front());
      inFlight.pop_front();
      const ServeReply r = p.reply.get();
      last = Clock::now();
      if (record(p, r, out)) {
        ++out.closedOk;
        out.closedDone.push_back(
            std::chrono::duration<double>(last - start).count());
        out.batchRows += static_cast<double>(r.batchRows);
        if (swapGen != 0 && r.modelGeneration >= swapGen) {
          out.swapSeconds.push_back(
              std::chrono::duration<double>(last - swapAt).count());
          swapGen = 0;
        }
      }
      if (last - start < std::chrono::duration<double>(seconds)) next();
    }
    out.closedSeconds = std::chrono::duration<double>(last - start).count();
  }

  /// Scalar reference of each sampled reply, outside every timed phase.
  void checkSamples(const std::vector<DistributedModel>& variants,
                    const Traffic& traffic, Gates& gates) const {
    std::size_t mismatches = 0;
    for (const Sample& s : traffic.samples) {
      const DistributedModel& m = variants[variantOf_[s.generation]];
      if (!gate::bitwiseEqual(s.decision, m.decisionFor(test_, s.row))) {
        ++mismatches;
      }
    }
    gates.check(!traffic.samples.empty() && mismatches == 0,
                std::to_string(mismatches) + " of " +
                    std::to_string(traffic.samples.size()) +
                    " sampled replies differ from scalar decisionFor");
    gates.check(traffic.generationsInWindow,
                "a reply was scored by a generation outside its "
                "[submit, read] window");
  }

 private:
  Pending submit(std::size_t row, Clock::time_point due, Traffic& out) {
    Pending p;
    p.row = row;
    p.due = due;
    p.genAtSubmit = engine_.modelGeneration();
    p.sent = Clock::now();
    p.reply = engine_.submit(queries_[row]);
    ++out.sent;
    return p;
  }

  /// Classify a reply; true when it is Ok.
  bool record(const Pending& p, const ServeReply& r, Traffic& out) {
    switch (r.code) {
      case ServeCode::Ok: break;
      case ServeCode::Shed: ++out.shed; return false;
      case ServeCode::Timeout: ++out.timedOut; return false;
      case ServeCode::Stopped: ++out.stopped; return false;
      case ServeCode::BadRequest: ++out.bad; return false;
    }
    ++out.ok;
    out.correct += r.label == test_.label(p.row);
    if (!gate::generationInWindow(r.modelGeneration, p.genAtSubmit,
                                  engine_.modelGeneration()) ||
        r.modelGeneration >= variantOf_.size()) {
      out.generationsInWindow = false;
    } else if (out.ok % kSampleEvery == 0) {
      out.samples.push_back({p.row, r.modelGeneration, r.decision});
    }
    return true;
  }

  ServeEngine& engine_;
  const Dataset& test_;
  const std::vector<CompiledDistributedModel>& packs_;
  std::vector<std::vector<float>> queries_;
  std::vector<std::size_t> variantOf_;  ///< generation -> variant index
};

/// Ok replies per second in each kStatWindow of a phase, from the first to
/// the last reply inside the window. Host stalls (CPU steal) come in
/// bursts, so the median window is what repeats.
std::vector<double> windowRates(const std::vector<double>& done,
                                double phaseSeconds) {
  const auto windows = static_cast<std::size_t>(phaseSeconds / kStatWindow);
  std::vector<std::vector<double>> byWindow(windows);
  for (double t : done) {
    const auto w = static_cast<std::size_t>(t / kStatWindow);
    if (w < windows) byWindow[w].push_back(t);
  }
  std::vector<double> rates;
  for (const std::vector<double>& w : byWindow) {
    if (w.size() > 1 && w.back() > w.front()) {
      rates.push_back(static_cast<double>(w.size() - 1) /
                      (w.back() - w.front()));
    }
  }
  return rates;
}

double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto idx = static_cast<std::size_t>(q * static_cast<double>(v.size() - 1));
  return v[idx];
}

/// Serve phases on `model`: the serve workload's measured traffic, or the
/// short serve-layer probe of a training workload's traced run.
void serveModel(Run& run, ServeEngine& engine, const Dataset& test,
                const std::vector<DistributedModel>& variants,
                const std::vector<CompiledDistributedModel>& packs,
                double openSeconds, double closedSeconds,
                std::size_t swapEvery, bool workload) {
  Generator gen(engine, test, packs);
  Traffic t;
  {
    SpanLog::Scope span(run.spans, "serve.open_loop");
    gen.openLoop(openSeconds, kOpenRate, t);
  }
  const double cpuStart = cpuSeconds();
  {
    SpanLog::Scope span(run.spans, "serve.closed_loop");
    gen.closedLoop(closedSeconds, kWindow, swapEvery, t);
  }
  const double closedCpu = cpuSeconds() - cpuStart;
  engine.drain();
  gen.checkSamples(variants, t, run.gates);

  const double p50 = percentile(t.openLatency, 0.50);
  const double p99 = percentile(t.openLatency, 0.99);
  const double p99Beyond = static_cast<double>(t.openLatency.size()) * 0.01;
  const std::vector<double> rates = windowRates(t.closedDone, closedSeconds);
  const double qps = median(rates);
  const double accuracy =
      t.ok > 0 ? static_cast<double>(t.correct) / static_cast<double>(t.ok) : 0.0;
  if (workload) {
    run.counts.sent += t.sent;
    run.counts.ok += t.ok;
    run.counts.shed += t.shed;
    run.counts.timedOut += t.timedOut;
    run.counts.stopped += t.stopped;
    run.counts.badRequest += t.bad;
    run.e2e.set("cpu_us_per_row",
                closedCpu * 1e6 / static_cast<double>(t.closedOk), "us");
    run.e2e.set("critical_us_per_row", 1e6 / qps, "us");
    run.e2e.set("accuracy", accuracy, "fraction");
    run.gates.check(gate::accuracyFloor(accuracy, kAccuracyFloor),
                    "Ok-reply accuracy " + std::to_string(accuracy) +
                        " below floor " + std::to_string(kAccuracyFloor));
  }
  char buf[320];
  std::snprintf(buf, sizeof(buf),
                "%s: open loop %.0f req/s -> p50 %.3f ms, p99 %.3f ms "
                "(%zu samples, %.0f beyond p99), generator late by up to "
                "%.2f ms; closed loop window %zu -> %.0f Ok/s over %.2f s, "
                "%.1f CPU-us per reply, %zu swaps",
                workload ? "serve" : "serve probe", kOpenRate, p50 * 1e3,
                p99 * 1e3, t.openLatency.size(), p99Beyond,
                t.maxLateness * 1e3, kWindow, qps, t.closedSeconds,
                closedCpu * 1e6 / static_cast<double>(t.closedOk),
                t.swapSeconds.size());
  run.notes.push_back(buf);
  if (!rates.empty()) {
    std::snprintf(buf, sizeof(buf),
                  "closed loop per %.1f s window: %.0f..%.0f Ok/s (median %.0f)",
                  kStatWindow, *std::min_element(rates.begin(), rates.end()),
                  *std::max_element(rates.begin(), rates.end()), qps);
    run.notes.push_back(buf);
  }
  if (!run.opt.trace) return;
  run.layer.set("serve.qps", qps, "1/s");
  run.layer.set("serve.open_p50_ms", p50 * 1e3, "ms");
  run.layer.set("serve.engine_p50_ms", percentile(t.engineLatency, 0.5) * 1e3,
                "ms");
  run.layer.set("serve.p99_ms", p99 * 1e3, "ms");
  run.layer.set("serve.p99_samples", static_cast<double>(t.openLatency.size()),
                "count");
  run.layer.set("serve.gen_late_ms", t.maxLateness * 1e3, "ms");
  run.layer.set("serve.batch_rows",
                t.closedOk > 0 ? t.batchRows / static_cast<double>(t.closedOk)
                               : 0.0,
                "rows");
  run.layer.set("serve.swap_ms", median(t.swapSeconds) * 1e3, "ms");
  run.layer.set("serve.failed", static_cast<double>(t.sent - t.ok), "count");
}

std::vector<CompiledDistributedModel> compileVariants(
    const std::vector<DistributedModel>& variants) {
  std::vector<CompiledDistributedModel> packs;
  for (const DistributedModel& m : variants) {
    packs.push_back(CompiledDistributedModel::compile(m));
  }
  return packs;
}

}  // namespace

void probeServeLayer(Run& run, const DistributedModel& model,
                     const Dataset& queries) {
  const std::vector<DistributedModel> variants = generationVariants(model);
  const std::vector<CompiledDistributedModel> packs = compileVariants(variants);
  ServeEngine engine(packs.front(), casvm::serve::ServeConfig{});
  serveModel(run, engine, queries, variants, packs, 0.5, 0.5, kSwapEvery / 4,
             false);
}

void runServe(Run& run, const Shape& shape) {
  if (run.opt.trace) probeTransports(run, shape);
  casvm::obs::TraceRecorder serveTrace;
  casvm::serve::ServeConfig config;
  if (run.opt.trace) config.trace = &serveTrace;

  // The served model is fixed: trained on the distribution's first window.
  // The run seed picks the queries, the held-out rows of another window.
  // Set-up (data, training, compiling, engine start and warm-up) is timed
  // kSetupReps times; the last engine serves the measured phases.
  const casvm::core::TrainConfig cfg = configFor(run, shape);
  const std::uint64_t queryWindow = 1 + run.opt.seed % 256;
  Dataset train;
  Dataset queries;
  std::vector<double> setups;
  std::vector<double> trains;
  std::vector<DistributedModel> variants;
  std::vector<CompiledDistributedModel> packs;
  std::unique_ptr<ServeEngine> engine;
  for (int i = 0; i < kSetupReps; ++i) {
    if (engine) engine->drain();
    engine.reset();
    const double start = cpuSeconds();
    train = windowRows(run, shape, 0, false);
    queries = windowRows(run, shape, queryWindow, true);
    const Timed t = timedTrain(run, train, cfg, false);
    if (!t.ok) return;
    trains.push_back(t.seconds);
    {
      SpanLog::Scope span(run.spans, "serve.compile");
      variants = generationVariants(t.result.model);
      packs = compileVariants(variants);
    }
    engine = std::make_unique<ServeEngine>(packs.front(), config);
    {
      SpanLog::Scope span(run.spans, "serve.warm_up");
      Generator warm(*engine, queries, packs);
      Traffic ignored;
      warm.closedLoop(0.3, kWindow, 0, ignored);
      run.gates.check(ignored.ok == ignored.sent, "a warm-up request failed");
    }
    setups.push_back(cpuSeconds() - start);
  }
  run.e2e.set("setup_s", median(setups), "s");
  run.notes.push_back("train_s " + std::to_string(median(trains)) +
                      " s (set-up trainings of the served model)");

  // One traced training of the served model gives the core/net/obs layers.
  TracedTrains traced;
  if (run.opt.trace) {
    const Timed t = timedTrain(run, train, cfg, true);
    if (!t.ok) return;
    traced.add(t, median(trains));
    run.layer.set("core.rows_per_s",
                  static_cast<double>(train.rows()) / median(trains), "1/s");
  }

  serveModel(run, *engine, queries, variants, packs, 0.5 * run.opt.seconds,
             0.5 * run.opt.seconds, kSwapEvery, true);
  run.e2e.set("peak_rss_mb", peakRssMb(), "MB");
  if (!run.opt.trace) return;
  traced.events += static_cast<double>(serveTrace.eventCount());
  traced.report(run);
  const DistributedModel& model = variants.front();
  SpanLog::Scope span(run.spans, "core.DistributedModel.accuracy");
  model.accuracy(queries);
  const double predictSeconds = span.close();
  const std::size_t rows = probeTrainingLayers(run, train, cfg);
  probeCheckpoint(run, rows);
  probeScoring(run, model, queries, predictSeconds);
  run.layer.set("ckpt.bytes", 0.0, "bytes");
}

}  // namespace perfbench
