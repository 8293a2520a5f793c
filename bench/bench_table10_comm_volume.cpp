// Reproduces Table X: communication volume of each approach — the
// closed-form model prediction next to the byte-exact volume measured by
// the runtime's traffic matrix on a real run (the paper's ijcnn-on-8-nodes
// experiment). CA-SVM's row must be exactly zero in both columns. The two
// middle-ground methods (dis-smo-shrink, pbm) postdate the paper, so their
// "paper measured" column is a dash; the claims they add are checkable
// instead: both cut Dis-SMO's traffic while matching the exact serial
// solver's dual objective. Run with --check to turn those claims (and the
// CA-SVM zero) into hard assertions.

#include <cmath>

#include "bench_common.hpp"
#include "casvm/perf/comm_model.hpp"
#include "casvm/solver/smo.hpp"

using namespace casvm;

namespace {

// Dual objective sum(alpha) - 1/2 sum_ij alpha_i alpha_j y_i y_j K(i,j)
// recomputed from a finished model's support-vector expansion (alphaY
// carries alpha_i y_i, so |alphaY| is alpha and the products need no y).
double dualObjective(const solver::Model& model) {
  const data::Dataset& svs = model.supportVectors();
  const std::vector<double>& ay = model.alphaY();
  const kernel::Kernel kern(model.kernelParams());
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

}  // namespace

int main(int argc, char** argv) {
  const bench::Options opts = bench::parseArgs(argc, argv);
  bench::requirePowerOfTwoProcs(opts);
  bench::heading("Table X: modeled vs measured communication volume",
                 "paper Table X (ijcnn dataset, 8 nodes)");

  const data::NamedDataset nd = bench::loadDataset("ijcnn", opts);

  struct Entry {
    core::Method method;
    const char* paperMeasured;
  };
  const Entry entries[] = {
      {core::Method::DisSmo, "34MB"}, {core::Method::DisSmoShrink, "-"},
      {core::Method::Pbm, "-"},       {core::Method::Cascade, "8.4MB"},
      {core::Method::DcSvm, "29MB"},  {core::Method::DcFilter, "18MB"},
      {core::Method::CpSvm, "17MB"},  {core::Method::RaCa, "0MB"},
  };

  // The exact serial solution the global methods must all converge to.
  const core::TrainConfig refCfg =
      bench::makeConfig(nd, core::Method::DisSmo, opts);
  solver::SmoSolver exact(refCfg.solver);
  const double exactObjective = exact.solve(nd.train).objective;

  TablePrinter table({"method", "formula (words)", "model prediction",
                      "measured here", "paper measured"});
  double disSmoBytes = 0.0, shrinkBytes = 0.0, pbmBytes = 0.0;
  double raBytes = -1.0;
  long long shrinkEngaged = -1, bcastsSkipped = 0;
  double shrinkObjective = 0.0, pbmObjective = 0.0;
  for (const Entry& entry : entries) {
    core::TrainConfig cfg = bench::makeConfig(nd, entry.method, opts);
    if (entry.method == core::Method::DisSmoShrink) {
      // Default shrink cadence (1000) is tuned for full-size runs; at
      // stand-in scale lower it so shrinking actually engages mid-run.
      cfg.solver.shrinkInterval = 128;
    }
    const core::TrainResult res = core::train(nd.train, cfg);

    perf::CommModelParams q;
    q.m = static_cast<long long>(nd.train.rows());
    q.n = static_cast<long long>(nd.train.cols());
    q.s = static_cast<long long>(res.model.totalSupportVectors());
    q.I = res.totalIterations;
    q.k = static_cast<long long>(res.kmeansLoops);
    q.p = opts.procs;
    if (entry.method == core::Method::Pbm) {
      q.r = cfg.pbmRounds;
      q.I = res.pairIterations;
    }

    const double measured = static_cast<double>(res.totalTrafficBytes());
    table.addRow({methodName(entry.method), perf::commFormula(entry.method),
                  TablePrinter::fmtBytes(
                      perf::predictedCommBytes(entry.method, q)),
                  TablePrinter::fmtBytes(measured), entry.paperMeasured});
    switch (entry.method) {
      case core::Method::DisSmo: disSmoBytes = measured; break;
      case core::Method::DisSmoShrink:
        shrinkBytes = measured;
        shrinkEngaged = res.shrinkEngagedIteration;
        bcastsSkipped = res.electedRowBcastsSkipped;
        shrinkObjective = dualObjective(res.model.model(0));
        break;
      case core::Method::Pbm:
        pbmBytes = measured;
        pbmObjective = dualObjective(res.model.model(0));
        std::printf("pbm: %lld block iters, %lld pair iters\n",
                    res.totalIterations - res.pairIterations,
                    res.pairIterations);
        break;
      case core::Method::RaCa: raBytes = measured; break;
      default: break;
    }
  }
  table.print();
  bench::note(
      "absolute volumes differ from the paper (smaller stand-in dataset, "
      "different collective implementations); the shape to check is the "
      "ordering Dis-SMO > DC-SVM > DC-Filter ~ CP-SVM > Cascade, the exact "
      "0 for CA-SVM, and pbm / dis-smo-shrink landing under Dis-SMO at the "
      "exact solver's objective.");

  const double tol = 1e-3 * std::abs(exactObjective);
  std::printf(
      "\nexact serial objective %.6f | dis-smo-shrink %.6f (engaged at it "
      "%lld, %lld row bcasts absorbed) | pbm %.6f\n",
      exactObjective, shrinkObjective, shrinkEngaged, bcastsSkipped,
      pbmObjective);
  std::printf("traffic: dis-smo %.0fB, dis-smo-shrink %.0fB, pbm %.0fB\n",
              disSmoBytes, shrinkBytes, pbmBytes);

  if (!opts.check) return 0;
  int failures = 0;
  auto expect = [&](bool ok, const char* what) {
    if (!ok) {
      std::fprintf(stderr, "FAIL: %s\n", what);
      ++failures;
    }
  };
  expect(raBytes == 0.0, "ca-svm (ra-ca) must measure exactly 0 bytes");
  expect(pbmBytes < disSmoBytes,
         "pbm must move fewer bytes than dis-smo (allreduce totals)");
  expect(shrinkBytes < disSmoBytes,
         "dis-smo-shrink must move fewer bytes than dis-smo");
  expect(shrinkEngaged >= 0, "shrinking never engaged at bench scale");
  expect(bcastsSkipped > 0,
         "the row store absorbed no elected-row broadcasts");
  expect(std::abs(pbmObjective - exactObjective) <= tol,
         "pbm objective not within 1e-3 relative of the exact solver");
  expect(std::abs(shrinkObjective - exactObjective) <= tol,
         "dis-smo-shrink objective not within 1e-3 relative of the exact "
         "solver");
  if (failures == 0) std::printf("check: all %d assertions passed\n", 7);
  return failures == 0 ? 0 : 1;
}
