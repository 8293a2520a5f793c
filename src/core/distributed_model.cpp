#include "casvm/core/distributed_model.hpp"

#include <cstring>
#include <fstream>
#include <limits>

#include "casvm/serve/compiled_ensemble.hpp"
#include "casvm/support/atomic_file.hpp"
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
  std::vector<std::byte> out;
  auto append = [&out](const void* data, std::size_t bytes) {
    const std::size_t off = out.size();
    out.resize(off + bytes);
    std::memcpy(out.data() + off, data, bytes);
  };
  const std::uint64_t count = models_.size();
  const std::uint64_t routedFlag = isRouted() ? 1 : 0;
  append(&count, sizeof(count));
  append(&routedFlag, sizeof(routedFlag));
  for (const auto& m : models_) {
    const std::vector<std::byte> bytes = m.pack();
    const std::uint64_t len = bytes.size();
    append(&len, sizeof(len));
    append(bytes.data(), bytes.size());
  }
  if (isRouted()) {
    const std::uint64_t dim = centers_.empty() ? 0 : centers_[0].size();
    append(&dim, sizeof(dim));
    for (const auto& c : centers_) {
      CASVM_CHECK(c.size() == dim, "center dimensions differ");
      append(c.data(), c.size() * sizeof(float));
    }
  }
  return out;
}

DistributedModel DistributedModel::unpack(std::span<const std::byte> bytes) {
  auto read = [&bytes](void* data, std::size_t count) {
    CASVM_CHECK(bytes.size() >= count, "distributed model unpack: truncated");
    std::memcpy(data, bytes.data(), count);
    bytes = bytes.subspan(count);
  };
  std::uint64_t count = 0, routedFlag = 0;
  read(&count, sizeof(count));
  read(&routedFlag, sizeof(routedFlag));
  // Every sub-model needs at least its 8-byte length prefix, so a count
  // larger than that bound is corrupt; check before reserving anything.
  CASVM_CHECK(count <= bytes.size() / sizeof(std::uint64_t),
              "distributed model unpack: sub-model count exceeds payload");
  std::vector<solver::Model> models;
  models.reserve(count);
  for (std::uint64_t i = 0; i < count; ++i) {
    std::uint64_t len = 0;
    read(&len, sizeof(len));
    CASVM_CHECK(bytes.size() >= len, "distributed model unpack: truncated");
    models.push_back(solver::Model::unpack(bytes.subspan(0, len)));
    bytes = bytes.subspan(len);
  }
  if (routedFlag == 0) {
    CASVM_CHECK(count == 1, "single model must have exactly one sub-model");
    return single(std::move(models.front()));
  }
  std::uint64_t dim = 0;
  read(&dim, sizeof(dim));
  CASVM_CHECK(dim <= bytes.size() / sizeof(float),
              "distributed model unpack: center dimension exceeds payload");
  std::vector<std::vector<float>> centers(count, std::vector<float>(dim));
  for (auto& c : centers) read(c.data(), dim * sizeof(float));
  CASVM_CHECK(bytes.empty(), "distributed model unpack: trailing bytes");
  return routed(std::move(models), std::move(centers));
}

void DistributedModel::save(const std::string& path) const {
  // Atomic temp-file + rename: a crash mid-save leaves either the previous
  // model or none — never a truncated file a later load would trip over.
  support::writeFileAtomic(path, std::span<const std::byte>(pack()));
}

DistributedModel DistributedModel::load(const std::string& path) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  CASVM_CHECK(in.good(), "cannot open model file: " + path);
  const std::streamsize size = in.tellg();
  in.seekg(0);
  std::vector<std::byte> bytes(static_cast<std::size_t>(size));
  in.read(reinterpret_cast<char*>(bytes.data()), size);
  CASVM_CHECK(in.good(), "model read failed: " + path);
  return unpack(bytes);
}

}  // namespace casvm::core
