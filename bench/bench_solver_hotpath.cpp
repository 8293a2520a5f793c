// Solver hot-path benchmark — the first point of the BENCH_*.json perf
// trajectory (see README "Benchmarks").
//
// Runs the single-node SMO solver over a fixed matrix of configurations:
// seeded epsilon/ijcnn stand-ins, m in {2k, 8k}, linear + gaussian kernels,
// first-order (WSS-1) and second-order working-set selection, shrinking on
// and off. Emits BENCH_SOLVER.json with iterations, wall seconds, kernel
// rows computed, the row fills' sweeps and rows filled ahead, and cache
// hit rate per configuration.
//
// Iteration counts and objectives are deterministic in the seed, so runs of
// this bench on two builds are directly comparable: a hot-path change that
// claims "same math, less time" must keep `iterations` and `objective`
// identical while `wall_seconds` drops.
//
// Options:
//   --smoke      tiny problem sizes (CI): m in {256, 1024}
//   --seed <s>   dataset RNG seed (default 42)
//   --out <f>    output path (default BENCH_SOLVER.json)

#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "casvm/data/registry.hpp"
#include "casvm/solver/smo.hpp"

namespace {

struct Options {
  bool smoke = false;
  std::uint64_t seed = 42;
  std::string out = "BENCH_SOLVER.json";
};

Options parseArgs(int argc, char** argv) {
  Options opts;
  for (int i = 1; i < argc; ++i) {
    auto next = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n", flag);
        std::exit(2);
      }
      return argv[++i];
    };
    if (std::strcmp(argv[i], "--smoke") == 0) {
      opts.smoke = true;
    } else if (std::strcmp(argv[i], "--seed") == 0) {
      opts.seed = static_cast<std::uint64_t>(std::atoll(next("--seed")));
    } else if (std::strcmp(argv[i], "--out") == 0) {
      opts.out = next("--out");
    } else if (std::strcmp(argv[i], "--scale") == 0) {
      // Accepted for smoke-harness uniformity; sizes are fixed by design.
      (void)next("--scale");
    } else if (std::strcmp(argv[i], "--help") == 0) {
      std::printf("options: --smoke --seed <s> --out <f>\n");
      std::exit(0);
    } else {
      std::fprintf(stderr, "unknown option: %s\n", argv[i]);
      std::exit(2);
    }
  }
  return opts;
}

struct Record {
  std::string dataset;
  std::size_t m = 0;
  std::string kernel;
  std::string selection;
  bool shrinking = false;
  casvm::solver::SolverResult result;
};

double hitRate(const casvm::solver::SolverResult& r) {
  const std::size_t total = r.kernelRowsComputed + r.kernelRowHits;
  return total == 0 ? 0.0
                    : static_cast<double>(r.kernelRowHits) /
                          static_cast<double>(total);
}

void writeJson(const Options& opts, const std::vector<Record>& records) {
  std::FILE* f = std::fopen(opts.out.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s for writing\n", opts.out.c_str());
    std::exit(1);
  }
  std::fprintf(f, "{\n");
  std::fprintf(f, "  \"bench\": \"solver_hotpath\",\n");
  std::fprintf(f, "  \"seed\": %" PRIu64 ",\n", opts.seed);
  std::fprintf(f, "  \"smoke\": %s,\n", opts.smoke ? "true" : "false");
  std::fprintf(f, "  \"configs\": [\n");
  for (std::size_t i = 0; i < records.size(); ++i) {
    const Record& r = records[i];
    std::fprintf(f, "    {\"dataset\": \"%s\", \"m\": %zu, ",
                 r.dataset.c_str(), r.m);
    std::fprintf(f, "\"kernel\": \"%s\", \"selection\": \"%s\", ",
                 r.kernel.c_str(), r.selection.c_str());
    std::fprintf(f, "\"shrinking\": %s, ", r.shrinking ? "true" : "false");
    std::fprintf(f, "\"iterations\": %zu, \"converged\": %s, ",
                 r.result.iterations, r.result.converged ? "true" : "false");
    std::fprintf(f, "\"objective\": %.12g, \"wall_seconds\": %.6f, ",
                 r.result.objective, r.result.seconds);
    std::fprintf(f, "\"kernel_rows_computed\": %zu, ",
                 r.result.kernelRowsComputed);
    std::fprintf(f, "\"kernel_fill_sweeps\": %zu, \"kernel_rows_ahead\": %zu, ",
                 r.result.kernelFillSweeps, r.result.kernelRowsAhead);
    std::fprintf(f, "\"cache_hits\": %zu, ", r.result.kernelRowHits);
    std::fprintf(f, "\"cache_hit_rate\": %.4f}%s\n", hitRate(r.result),
                 i + 1 < records.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("wrote %s (%zu configs)\n", opts.out.c_str(), records.size());
}

}  // namespace

int main(int argc, char** argv) {
  using namespace casvm;
  const Options opts = parseArgs(argc, argv);

  // Base stand-in sizes at scale 1.0 (see data/registry.cpp).
  struct DatasetSpec {
    const char* name;
    std::size_t baseRows;
  };
  const std::vector<DatasetSpec> datasets = {{"epsilon", 4000},
                                             {"ijcnn", 5000}};
  const std::vector<std::size_t> sizes =
      opts.smoke ? std::vector<std::size_t>{256, 1024}
                 : std::vector<std::size_t>{2000, 8000};

  std::printf("%-8s %6s %-9s %-12s %-6s %9s %5s %10s %8s %7s %7s %7s %7s\n",
              "dataset", "m", "kernel", "selection", "shrink", "iters",
              "conv", "objective", "seconds", "hit%", "rows", "sweeps",
              "ahead");
  std::vector<Record> records;
  for (const DatasetSpec& spec : datasets) {
    for (std::size_t m : sizes) {
      const double scale =
          static_cast<double>(m) / static_cast<double>(spec.baseRows);
      const data::NamedDataset nd = data::standin(spec.name, scale, opts.seed);
      for (bool gaussian : {false, true}) {
        for (solver::Selection sel :
             {solver::Selection::FirstOrder, solver::Selection::SecondOrder}) {
          for (bool shrinking : {false, true}) {
            solver::SolverOptions so;
            so.kernel = gaussian
                            ? kernel::KernelParams::gaussian(nd.suggestedGamma)
                            : kernel::KernelParams::linear();
            so.C = nd.suggestedC;
            so.selection = sel;
            so.shrinking = shrinking;
            // Bound the linear-kernel runs on non-separable data; the JSON
            // records converged=false when the cap bites.
            so.maxIterations = opts.smoke ? 20000 : 50000;
            const solver::SolverResult res =
                solver::SmoSolver(so).solve(nd.train);
            Record rec{spec.name,
                       nd.train.rows(),
                       gaussian ? "gaussian" : "linear",
                       sel == solver::Selection::FirstOrder ? "first-order"
                                                            : "second-order",
                       shrinking,
                       res};
            std::printf(
                "%-8s %6zu %-9s %-12s %-6s %9zu %5s %10.4f %8.3f %6.1f%% "
                "%7zu %7zu %7zu\n",
                rec.dataset.c_str(), rec.m, rec.kernel.c_str(),
                rec.selection.c_str(), shrinking ? "on" : "off",
                res.iterations, res.converged ? "yes" : "no", res.objective,
                res.seconds, 100.0 * hitRate(res), res.kernelRowsComputed,
                res.kernelFillSweeps, res.kernelRowsAhead);
            std::fflush(stdout);
            records.push_back(std::move(rec));
          }
        }
      }
    }
  }
  writeJson(opts, records);
  return 0;
}
