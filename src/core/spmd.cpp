#include "casvm/core/spmd.hpp"

#include <utility>

#include "casvm/obs/trace.hpp"
#include "casvm/support/error.hpp"

namespace casvm::core {

LocalSolve trainLocalSvm(const data::Dataset& local,
                         const solver::SolverOptions& options,
                         std::span<const double> initialAlpha) {
  LocalSolve out;
  if (local.empty()) {
    out.model = solver::Model(options.kernel, data::Dataset(), {}, 0.0);
    return out;
  }
  const std::size_t pos = local.positives();
  if (local.rows() < 2 || pos == 0 || pos == local.rows()) {
    // Single-class part: every neighbour agrees, so the local decision
    // rule is the constant class label.
    const double bias = local.label(0) >= 0 ? 1.0 : -1.0;
    out.model = solver::Model(options.kernel, data::Dataset(), {}, bias);
    out.alpha.assign(local.rows(), 0.0);
    return out;
  }
  solver::SmoSolver solver(options);
  solver::SolverResult res = solver.solve(local, initialAlpha);
  out.model = std::move(res.model);
  out.alpha = std::move(res.alpha);
  out.iterations = static_cast<long long>(res.iterations);
  out.svs = static_cast<long long>(out.model.numSupportVectors());
  return out;
}

data::Dataset exchangeToOwners(net::Comm& comm, const data::Dataset& local,
                               const std::vector<int>& assign) {
  const int size = comm.size();
  const int rank = comm.rank();
  CASVM_CHECK(assign.size() == local.rows(),
              "assignment length must match local rows");

  // Bucket local row indices by destination rank.
  std::vector<std::vector<std::size_t>> buckets(
      static_cast<std::size_t>(size));
  for (std::size_t i = 0; i < assign.size(); ++i) {
    CASVM_CHECK(assign[i] >= 0 && assign[i] < size,
                "assignment targets a rank outside the communicator");
    buckets[static_cast<std::size_t>(assign[i])].push_back(i);
  }

  // One personalized all-to-all moves every sample to its owner.
  std::vector<std::vector<std::byte>> outgoing(
      static_cast<std::size_t>(size));
  for (int dst = 0; dst < size; ++dst) {
    if (dst == rank) continue;  // own bucket stays local, unserialized
    outgoing[static_cast<std::size_t>(dst)] =
        local.pack(buckets[static_cast<std::size_t>(dst)]);
  }
  const std::vector<std::vector<std::byte>> incoming =
      comm.alltoallvBytes(std::move(outgoing));

  // The own bucket first, then every other rank's in rank order, merged in
  // one allocation.
  std::vector<data::Dataset> parts;
  parts.reserve(static_cast<std::size_t>(size));
  parts.push_back(local.subset(buckets[static_cast<std::size_t>(rank)]));
  for (int src = 0; src < size; ++src) {
    if (src == rank) continue;
    data::Dataset part =
        data::Dataset::unpack(incoming[static_cast<std::size_t>(src)]);
    if (!part.empty()) parts.push_back(std::move(part));
  }
  std::vector<const data::Dataset*> merged;
  merged.reserve(parts.size());
  for (const data::Dataset& part : parts) merged.push_back(&part);
  return data::Dataset::concat(merged);
}

double virtualNow(net::Comm& comm) {
  comm.clock().sampleCompute();
  return comm.clock().now();
}

PhaseSpan::PhaseSpan(net::Comm& comm, const char* name, long long detail)
    : comm_(comm), name_(name), detail_(detail) {
  if (comm_.traceLane() == nullptr) return;
  start_ = virtualNow(comm_);
}

PhaseSpan::~PhaseSpan() {
  obs::Lane* lane = comm_.traceLane();
  if (lane == nullptr) return;
  lane->span(name_, obs::Cat::Phase, start_, virtualNow(comm_), -1, -1,
             detail_);
}

}  // namespace casvm::core
