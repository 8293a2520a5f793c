// The repository benchmark: one workload per invocation.
//
//   perfbench --workload <ca-train|ra-train|global-train|serve|ca-recover>
//             --seed <n> --seconds <s> --trace <0|1> --work-dir <dir>
//
// Untraced runs (--trace 0) report the end-to-end metrics; the traced run
// (--trace 1) reports the per-layer metrics and writes the benchmark's own
// spans to <dir>/spans.<workload>.<seed>.json. Human-readable lines come
// first; the last line of stdout is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// The exit code is 0 only when every correctness gate passed.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <string>

#include "bench.hpp"
#include "workloads.hpp"

namespace {

using perfbench::Metric;

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> --work-dir <dir>\n",
               why.c_str());
  std::exit(2);
}

perfbench::Options parseArgs(int argc, char** argv) {
  perfbench::Options opt;
  bool haveWorkload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) usage("missing value for " + key);
    const std::string value = argv[++i];
    try {
      if (key == "--workload") {
        opt.workload = value;
        haveWorkload = true;
      } else if (key == "--seed") {
        opt.seed = std::stoull(value);
      } else if (key == "--seconds") {
        opt.seconds = std::stod(value);
      } else if (key == "--trace") {
        if (value != "0" && value != "1") usage("--trace takes 0 or 1");
        opt.trace = value == "1";
      } else if (key == "--work-dir") {
        opt.workDir = value;
      } else {
        usage("unknown option " + key);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + key + ": " + value);
    }
  }
  const auto& names = perfbench::workloadNames();
  if (!haveWorkload ||
      std::find(names.begin(), names.end(), opt.workload) == names.end()) {
    usage("unknown workload '" + opt.workload + "'");
  }
  if (!(opt.seconds > 0.0 && opt.seconds <= 600.0)) {
    usage("--seconds must be in (0, 600]");
  }
  if (opt.workDir.empty()) usage("--work-dir is required");
  return opt;
}

std::string jsonMetrics(const std::vector<Metric>& metrics, bool& finite) {
  std::string out = "{";
  char buf[128];
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    finite = finite && std::isfinite(m.value);
    std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.17g, ",
                  i == 0 ? "" : ", ", m.name.c_str(),
                  std::isfinite(m.value) ? m.value : 0.0);
    out += buf;
    out += "\"unit\": \"" + m.unit + "\"}";
  }
  return out + "}";
}

void printMetrics(const char* title, const std::vector<Metric>& metrics) {
  std::printf("%s\n", title);
  for (const Metric& m : metrics) {
    std::printf("  %-28s %14.6g %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Run run;
  run.opt = parseArgs(argc, argv);
  perfbench::nowSeconds();  // start the clock
  std::filesystem::create_directories(run.opt.workDir);

  for (const std::string& broken : perfbench::selfCheckGates()) {
    run.gates.check(false, "gate self-check: " + broken +
                               " does not trip on a wrong value");
  }
  const perfbench::HostSample before = perfbench::sampleHost();
  try {
    perfbench::runWorkload(run);
  } catch (const std::exception& e) {
    run.gates.check(false, std::string("workload aborted: ") + e.what());
  }
  const perfbench::HostSample after = perfbench::sampleHost();
  const double ticks = static_cast<double>(after.total - before.total);
  const double steal =
      ticks > 0 ? static_cast<double>(after.steal - before.steal) / ticks : 0.0;
  const double nivcsw = static_cast<double>(after.nivcsw - before.nivcsw);
  if (run.opt.trace) {
    run.layer.set("host.steal_frac", steal, "fraction");
    run.layer.set("host.nivcsw", nivcsw, "count");
  }

  const perfbench::Counts& c = run.counts;
  const long attempted = c.trainsStarted + c.sent;
  const long failed = c.trainsFailed + (c.sent - c.ok);
  std::printf("workload %s  seed %llu  seconds %g  trace %d\n",
              run.opt.workload.c_str(),
              static_cast<unsigned long long>(run.opt.seed), run.opt.seconds,
              run.opt.trace ? 1 : 0);
  for (const std::string& note : run.notes) std::printf("  %s\n", note.c_str());
  std::printf("operations: training runs started %ld, failed %ld; requests "
              "sent %ld, ok %ld, shed %ld, timed out %ld, stopped %ld, bad "
              "%ld\n",
              c.trainsStarted, c.trainsFailed, c.sent, c.ok, c.shed,
              c.timedOut, c.stopped, c.badRequest);
  std::printf("host: steal %.4f of cpu time, %.0f involuntary context "
              "switches\n",
              steal, nivcsw);
  if (run.opt.trace) {
    printMetrics("per-layer metrics (traced run):", run.layer.list());
    const std::string path = run.opt.workDir + "/spans." + run.opt.workload +
                             "." + std::to_string(run.opt.seed) + ".json";
    run.spans.write(path);
    std::printf("spans: %zu written to %s\n", run.spans.size(), path.c_str());
  } else {
    printMetrics("end-to-end metrics:", run.e2e.list());
  }
  std::printf("gates: %zu checked, %zu failed\n", run.gates.checked(),
              run.gates.failures().size());
  for (const std::string& f : run.gates.failures()) {
    std::printf("  GATE FAILED: %s\n", f.c_str());
  }

  bool finite = true;
  const std::string metrics =
      jsonMetrics(run.opt.trace ? run.layer.list() : run.e2e.list(), finite);
  if (!finite) std::printf("  GATE FAILED: a metric is not finite\n");
  const bool correct = run.gates.passed() && finite;
  std::printf("{\"correct\": %s, \"attempted\": %ld, \"failed\": %ld, "
              "\"metrics\": %s}\n",
              correct ? "true" : "false", attempted, failed, metrics.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}
