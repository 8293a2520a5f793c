#include "casvm/core/distributed_model.hpp"

#include <limits>

#include "casvm/serve/compiled_ensemble.hpp"
#include "casvm/support/atomic_file.hpp"
#include "casvm/support/bytes.hpp"
#include "casvm/support/error.hpp"

namespace casvm::core {

DistributedModel DistributedModel::single(solver::Model model) {
  DistributedModel dm;
  dm.models_.push_back(std::move(model));
  return dm;
}

DistributedModel DistributedModel::routed(
    std::vector<solver::Model> models,
    std::vector<std::vector<float>> centers) {
  CASVM_CHECK(!models.empty(), "routed model needs at least one sub-model");
  CASVM_CHECK(models.size() == centers.size(),
              "one center per sub-model required");
  DistributedModel dm;
  dm.models_ = std::move(models);
  dm.centers_ = std::move(centers);
  dm.centerSelfDots_.reserve(dm.centers_.size());
  for (const auto& c : dm.centers_) {
    double s = 0.0;
    for (float v : c) s += double(v) * double(v);
    dm.centerSelfDots_.push_back(s);
  }
  return dm;
}

std::size_t DistributedModel::totalSupportVectors() const {
  std::size_t total = 0;
  for (const auto& m : models_) total += m.numSupportVectors();
  return total;
}

std::size_t DistributedModel::route(const data::Dataset& ds,
                                    std::size_t i) const {
  if (!isRouted()) return 0;
  std::size_t best = 0;
  double bestDist = std::numeric_limits<double>::infinity();
  for (std::size_t c = 0; c < centers_.size(); ++c) {
    const double d =
        ds.squaredDistanceTo(i, centers_[c], centerSelfDots_[c]);
    if (d < bestDist) {
      bestDist = d;
      best = c;
    }
  }
  return best;
}

double DistributedModel::decisionFor(const data::Dataset& ds,
                                     std::size_t i) const {
  CASVM_CHECK(!models_.empty(), "empty distributed model");
  return models_[route(ds, i)].decisionFor(ds, i);
}

double DistributedModel::accuracy(const data::Dataset& testSet) const {
  // Batch path: routing and scoring through the compiled model, whose
  // decisions are bitwise-identical to decisionFor.
  serve::BatchScratch scratch;
  return serve::CompiledDistributedModel::compile(*this).accuracy(testSet,
                                                                 scratch);
}

std::vector<std::byte> DistributedModel::pack() const {
  support::ByteWriter w;
  w.scalar<std::uint64_t>(models_.size());
  w.scalar<std::uint64_t>(isRouted() ? 1 : 0);
  for (const auto& m : models_) w.vec(m.pack());
  if (isRouted()) {
    const std::uint64_t dim = centers_.empty() ? 0 : centers_[0].size();
    w.scalar(dim);
    for (const auto& c : centers_) {
      CASVM_CHECK(c.size() == dim, "center dimensions differ");
      w.array(c);
    }
  }
  return w.take();
}

DistributedModel DistributedModel::unpack(std::span<const std::byte> bytes) {
  support::ByteReader r(bytes, "distributed model unpack");
  const auto count = r.scalar<std::uint64_t>();
  const auto routedFlag = r.scalar<std::uint64_t>();
  std::vector<solver::Model> models;
  // Every sub-model carries at least its u64 length.
  models.reserve(r.count(count, sizeof(std::uint64_t)));
  for (std::uint64_t i = 0; i < count; ++i) {
    models.push_back(solver::Model::unpack(r.bytes()));
  }
  if (routedFlag == 0) {
    r.check(count == 1, "single model must have exactly one sub-model");
    r.expectEnd();
    return single(std::move(models.front()));
  }
  const auto dim = r.scalar<std::uint64_t>();
  std::vector<std::vector<float>> centers;
  centers.reserve(count);
  for (std::uint64_t i = 0; i < count; ++i) {
    centers.push_back(r.array<float>(dim));
  }
  r.expectEnd();
  return routed(std::move(models), std::move(centers));
}

void DistributedModel::save(const std::string& path) const {
  // Atomic temp-file + rename: a crash mid-save leaves either the previous
  // model or none — never a truncated file a later load would trip over.
  support::writeFileAtomic(path, std::span<const std::byte>(pack()));
}

DistributedModel DistributedModel::load(const std::string& path) {
  return unpack(support::readFileBytes(path));
}

}  // namespace casvm::core
