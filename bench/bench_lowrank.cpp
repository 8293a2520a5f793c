// Low-rank backend benchmark — exact vs Nyström training at scale (see
// README "Training at scale" and DESIGN.md §12).
//
// Trains the same partitioned run twice on an epsilon-shaped stand-in
// generated through the chunked (million-sample-safe) generator: once with
// the exact kernel backend and once with `--backend nystrom`, then reports
// wall-clock speedup and held-out accuracy delta in BENCH_LOWRANK.json.
//
// The Nyström run wins because an approximate kernel row is a tile-dot
// over r ≤ L columns with no transcendental per entry, while the exact
// Gaussian row pays an n-wide dot plus a kernel::exp per entry (the AVX2
// row pass, four lanes at a time) — so the gap widens with the feature
// count and with the row volume the solver pulls.
//
// Options:
//   --samples <m>        training rows (default 100000; --smoke: 4000)
//   --landmarks <L>      Nyström landmarks per cluster factor (default 64)
//   --procs <p>          simulated ranks (default 8)
//   --method <name>      partitioned method (default bkm-ca)
//   --seed <s>           dataset RNG seed (default 42)
//   --out <f>            output path (default BENCH_LOWRANK.json)
//   --smoke              small sizes for CI smoke runs
//   --check              gate: exit 1 unless speedup >= --min-speedup and
//                        accuracy delta <= --max-acc-delta
//   --min-speedup <x>    required wall-clock ratio exact/nystrom (default 5)
//   --max-acc-delta <d>  allowed held-out accuracy loss (default 0.01)

#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "casvm/core/train.hpp"
#include "casvm/data/registry.hpp"

namespace {

struct Options {
  std::size_t samples = 100000;
  std::size_t landmarks = 64;
  int procs = 8;
  std::string method = "bkm-ca";
  std::uint64_t seed = 42;
  std::string out = "BENCH_LOWRANK.json";
  bool smoke = false;
  bool check = false;
  double minSpeedup = 5.0;
  double maxAccDelta = 0.01;
};

Options parseArgs(int argc, char** argv) {
  Options opts;
  bool samplesSet = false;
  for (int i = 1; i < argc; ++i) {
    auto next = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n", flag);
        std::exit(2);
      }
      return argv[++i];
    };
    if (std::strcmp(argv[i], "--samples") == 0) {
      opts.samples = static_cast<std::size_t>(std::atoll(next("--samples")));
      samplesSet = true;
    } else if (std::strcmp(argv[i], "--landmarks") == 0) {
      opts.landmarks =
          static_cast<std::size_t>(std::atoll(next("--landmarks")));
    } else if (std::strcmp(argv[i], "--procs") == 0) {
      opts.procs = std::atoi(next("--procs"));
    } else if (std::strcmp(argv[i], "--method") == 0) {
      opts.method = next("--method");
    } else if (std::strcmp(argv[i], "--seed") == 0) {
      opts.seed = static_cast<std::uint64_t>(std::atoll(next("--seed")));
    } else if (std::strcmp(argv[i], "--out") == 0) {
      opts.out = next("--out");
    } else if (std::strcmp(argv[i], "--smoke") == 0) {
      opts.smoke = true;
    } else if (std::strcmp(argv[i], "--check") == 0) {
      opts.check = true;
    } else if (std::strcmp(argv[i], "--min-speedup") == 0) {
      opts.minSpeedup = std::atof(next("--min-speedup"));
    } else if (std::strcmp(argv[i], "--max-acc-delta") == 0) {
      opts.maxAccDelta = std::atof(next("--max-acc-delta"));
    } else if (std::strcmp(argv[i], "--scale") == 0) {
      // Accepted for smoke-harness uniformity; use --samples instead.
      (void)next("--scale");
    } else if (std::strcmp(argv[i], "--help") == 0) {
      std::printf(
          "options: --samples <m> --landmarks <L> --procs <p> "
          "--method <name> --seed <s> --out <f> --smoke --check "
          "--min-speedup <x> --max-acc-delta <d>\n");
      std::exit(0);
    } else {
      std::fprintf(stderr, "unknown option: %s\n", argv[i]);
      std::exit(2);
    }
  }
  if (opts.smoke && !samplesSet) opts.samples = 4000;
  return opts;
}

struct RunStats {
  double wallSeconds = 0.0;
  double accuracy = 0.0;
  long long iterations = 0;
  std::size_t supportVectors = 0;
};

RunStats runOnce(const casvm::data::NamedDataset& nd,
                 const casvm::core::TrainConfig& cfg) {
  const auto t0 = std::chrono::steady_clock::now();
  const casvm::core::TrainResult res = casvm::core::train(nd.train, cfg);
  const auto t1 = std::chrono::steady_clock::now();
  RunStats stats;
  stats.wallSeconds = std::chrono::duration<double>(t1 - t0).count();
  stats.accuracy = res.model.accuracy(nd.test);
  stats.iterations = res.totalIterations;
  stats.supportVectors = res.model.totalSupportVectors();
  return stats;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace casvm;
  const Options opts = parseArgs(argc, argv);

  std::printf("generating epsilon stand-in: %zu train rows (chunked)\n",
              opts.samples);
  std::fflush(stdout);
  const data::NamedDataset nd =
      data::standinSized("epsilon", opts.samples, opts.seed);

  core::TrainConfig cfg;
  cfg.method = core::methodFromName(opts.method);
  cfg.processes = opts.procs;
  cfg.solver.kernel = kernel::KernelParams::gaussian(nd.suggestedGamma);
  cfg.solver.C = nd.suggestedC;

  std::printf("exact backend: training %zu x %zu on %d ranks (%s)...\n",
              nd.train.rows(), nd.train.cols(), opts.procs,
              opts.method.c_str());
  std::fflush(stdout);
  const RunStats exact = runOnce(nd, cfg);
  std::printf("  %.3fs, accuracy %.4f, %lld iterations, %zu SVs\n",
              exact.wallSeconds, exact.accuracy, exact.iterations,
              exact.supportVectors);

  cfg.solverBackend = core::SolverBackend::Nystrom;
  cfg.nystromLandmarks = opts.landmarks;
  std::printf("nystrom backend: %zu landmarks per cluster factor...\n",
              opts.landmarks);
  std::fflush(stdout);
  const RunStats low = runOnce(nd, cfg);
  std::printf("  %.3fs, accuracy %.4f, %lld iterations, %zu SVs\n",
              low.wallSeconds, low.accuracy, low.iterations,
              low.supportVectors);

  const double speedup =
      low.wallSeconds > 0.0 ? exact.wallSeconds / low.wallSeconds : 0.0;
  const double accDelta = exact.accuracy - low.accuracy;
  std::printf("speedup %.2fx, accuracy delta %+.4f\n", speedup, accDelta);

  std::FILE* f = std::fopen(opts.out.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s for writing\n", opts.out.c_str());
    return 1;
  }
  std::fprintf(f, "{\n");
  std::fprintf(f, "  \"bench\": \"lowrank\",\n");
  std::fprintf(f, "  \"dataset\": \"epsilon\",\n");
  std::fprintf(f, "  \"samples\": %zu,\n", nd.train.rows());
  std::fprintf(f, "  \"features\": %zu,\n", nd.train.cols());
  std::fprintf(f, "  \"test_samples\": %zu,\n", nd.test.rows());
  std::fprintf(f, "  \"method\": \"%s\",\n", opts.method.c_str());
  std::fprintf(f, "  \"procs\": %d,\n", opts.procs);
  std::fprintf(f, "  \"landmarks\": %zu,\n", opts.landmarks);
  std::fprintf(f, "  \"seed\": %" PRIu64 ",\n", opts.seed);
  std::fprintf(f, "  \"smoke\": %s,\n", opts.smoke ? "true" : "false");
  std::fprintf(f,
               "  \"exact\": {\"wall_seconds\": %.6f, \"accuracy\": %.6f, "
               "\"iterations\": %lld, \"support_vectors\": %zu},\n",
               exact.wallSeconds, exact.accuracy, exact.iterations,
               exact.supportVectors);
  std::fprintf(f,
               "  \"nystrom\": {\"wall_seconds\": %.6f, \"accuracy\": %.6f, "
               "\"iterations\": %lld, \"support_vectors\": %zu},\n",
               low.wallSeconds, low.accuracy, low.iterations,
               low.supportVectors);
  std::fprintf(f, "  \"speedup\": %.4f,\n", speedup);
  std::fprintf(f, "  \"accuracy_delta\": %.6f\n", accDelta);
  std::fprintf(f, "}\n");
  std::fclose(f);
  std::printf("wrote %s\n", opts.out.c_str());

  if (opts.check) {
    bool ok = true;
    if (speedup < opts.minSpeedup) {
      std::fprintf(stderr, "CHECK FAILED: speedup %.2fx < required %.2fx\n",
                   speedup, opts.minSpeedup);
      ok = false;
    }
    if (accDelta > opts.maxAccDelta) {
      std::fprintf(stderr,
                   "CHECK FAILED: accuracy delta %.4f > allowed %.4f\n",
                   accDelta, opts.maxAccDelta);
      ok = false;
    }
    if (!ok) return 1;
    std::printf("CHECK PASSED: speedup >= %.2fx, accuracy delta <= %.4f\n",
                opts.minSpeedup, opts.maxAccDelta);
  }
  return 0;
}
