#include "casvm/serve/compiled_ensemble.hpp"

#include <cmath>
#include <cstring>
#include <limits>
#include <map>
#include <numeric>
#include <string>
#include <unordered_map>

#include "casvm/support/error.hpp"

namespace casvm::serve {

CompiledModel compile(const solver::Model& model) {
  return CompiledModel(model.kernelParams(), model.supportVectors(),
                       model.alphaY(), model.bias());
}

// --- CompiledDistributedModel ----------------------------------------------

CompiledDistributedModel CompiledDistributedModel::compile(
    const core::DistributedModel& model) {
  CASVM_CHECK(model.numModels() > 0, "empty distributed model");
  CompiledDistributedModel cm;
  cm.models_.reserve(model.numModels());
  for (std::size_t i = 0; i < model.numModels(); ++i) {
    cm.models_.push_back(serve::compile(model.model(i)));
  }
  cm.centers_ = model.centers();
  cm.centerSelfDots_.reserve(cm.centers_.size());
  for (const auto& c : cm.centers_) {
    // Same accumulation as DistributedModel::routed's cached norms.
    double s = 0.0;
    for (float v : c) s += double(v) * double(v);
    cm.centerSelfDots_.push_back(s);
  }
  return cm;
}

std::size_t CompiledDistributedModel::totalSupportVectors() const {
  std::size_t total = 0;
  for (const auto& m : models_) total += m.numSupportVectors();
  return total;
}

std::size_t CompiledDistributedModel::cols() const {
  for (const auto& m : models_) {
    if (!m.empty()) return m.cols();
  }
  return 0;
}

std::size_t CompiledDistributedModel::packedBytes() const {
  std::size_t total = 0;
  for (const auto& m : models_) total += m.supportVectors().packedBytes();
  return total;
}

std::size_t CompiledDistributedModel::route(const data::Dataset& ds,
                                            std::size_t i) const {
  if (!isRouted()) return 0;
  std::size_t best = 0;
  double bestDist = std::numeric_limits<double>::infinity();
  for (std::size_t c = 0; c < centers_.size(); ++c) {
    const double d = ds.squaredDistanceTo(i, centers_[c], centerSelfDots_[c]);
    if (d < bestDist) {
      bestDist = d;
      best = c;
    }
  }
  return best;
}

void CompiledDistributedModel::decisionBatch(const data::Dataset& ds,
                                             std::span<const std::size_t> rows,
                                             std::span<double> out,
                                             BatchScratch& scratch) const {
  CASVM_CHECK(!models_.empty(), "empty distributed model");
  CASVM_CHECK(out.size() >= rows.size(), "output buffer too small");
  if (!isRouted()) {
    models_[0].decisionBatch(ds, rows, out, scratch);
    return;
  }
  scratch.route.resize(rows.size());
  for (std::size_t j = 0; j < rows.size(); ++j) {
    scratch.route[j] = route(ds, rows[j]);
  }
  for (std::size_t g = 0; g < models_.size(); ++g) {
    scratch.groupRows.clear();
    scratch.groupPos.clear();
    for (std::size_t j = 0; j < rows.size(); ++j) {
      if (scratch.route[j] == g) {
        scratch.groupRows.push_back(rows[j]);
        scratch.groupPos.push_back(j);
      }
    }
    if (scratch.groupRows.empty()) continue;
    scratch.sub.resize(scratch.groupRows.size());
    models_[g].decisionBatch(ds, scratch.groupRows, scratch.sub, scratch);
    for (std::size_t k = 0; k < scratch.groupPos.size(); ++k) {
      out[scratch.groupPos[k]] = scratch.sub[k];
    }
  }
}

void CompiledDistributedModel::decisionAll(const data::Dataset& ds,
                                           std::span<double> out,
                                           BatchScratch& scratch) const {
  CASVM_CHECK(out.size() >= ds.rows(), "output buffer too small");
  std::vector<std::size_t> rows(ds.rows());
  std::iota(rows.begin(), rows.end(), std::size_t{0});
  decisionBatch(ds, rows, out, scratch);
}

double CompiledDistributedModel::decision(std::span<const float> x,
                                          BatchScratch& scratch) const {
  CASVM_CHECK(!models_.empty(), "empty distributed model");
  if (!isRouted()) return models_[0].decision(x, scratch);
  double xSelf = 0.0;
  for (float v : x) xSelf += double(v) * double(v);
  std::size_t best = 0;
  double bestDist = std::numeric_limits<double>::infinity();
  for (std::size_t c = 0; c < centers_.size(); ++c) {
    const auto& center = centers_[c];
    CASVM_CHECK(center.size() == x.size(), "query/center dimensions differ");
    double dot = 0.0;
    for (std::size_t k = 0; k < center.size(); ++k) {
      dot += double(x[k]) * double(center[k]);
    }
    const double d = xSelf + centerSelfDots_[c] - 2.0 * dot;
    if (d < bestDist) {
      bestDist = d;
      best = c;
    }
  }
  return models_[best].decision(x, scratch);
}

double CompiledDistributedModel::accuracy(const data::Dataset& testSet,
                                          BatchScratch& scratch) const {
  CASVM_CHECK(testSet.rows() > 0, "empty test set");
  std::vector<double> dec(testSet.rows());
  decisionAll(testSet, dec, scratch);
  std::size_t correct = 0;
  for (std::size_t i = 0; i < testSet.rows(); ++i) {
    const std::int8_t label = dec[i] >= 0.0 ? 1 : -1;
    correct += (label == testSet.label(i));
  }
  return static_cast<double>(correct) / static_cast<double>(testSet.rows());
}

// --- CompiledMulticlassModel ------------------------------------------------

namespace {

bool sameParams(const kernel::KernelParams& a, const kernel::KernelParams& b) {
  return a.type == b.type && a.gamma == b.gamma && a.a == b.a && a.r == b.r &&
         a.degree == b.degree;
}

/// Content key of one SV row (features only — labels don't enter kernels).
std::string rowKey(const data::Dataset& ds, std::size_t i) {
  std::string key;
  if (ds.storage() == data::Storage::Dense) {
    const auto r = ds.denseRow(i);
    key.assign(reinterpret_cast<const char*>(r.data()),
               r.size() * sizeof(float));
    return key;
  }
  const auto idx = ds.sparseIndices(i);
  const auto val = ds.sparseValues(i);
  const std::uint64_t nnz = idx.size();
  key.append(reinterpret_cast<const char*>(&nnz), sizeof(nnz));
  key.append(reinterpret_cast<const char*>(idx.data()),
             idx.size() * sizeof(std::uint32_t));
  key.append(reinterpret_cast<const char*>(val.data()),
             val.size() * sizeof(float));
  return key;
}

}  // namespace

CompiledMulticlassModel CompiledMulticlassModel::compile(
    const core::MulticlassModel& model) {
  CASVM_CHECK(!model.pairs().empty(), "empty multiclass model");
  CompiledMulticlassModel cm;
  cm.classes_ = model.classes();

  // Shared-pool eligibility: every pair is a single non-routed sub-model
  // with identical kernel parameters, and all non-empty SV sets agree on
  // storage and feature count.
  bool eligible = true;
  const kernel::KernelParams* params = nullptr;
  const data::Dataset* shape = nullptr;
  for (const auto& pair : model.pairs()) {
    if (pair.model.isRouted() || pair.model.numModels() != 1) {
      eligible = false;
      break;
    }
    const solver::Model& sub = pair.model.model(0);
    if (params == nullptr) {
      params = &sub.kernelParams();
    } else if (!sameParams(*params, sub.kernelParams())) {
      eligible = false;
      break;
    }
    if (sub.empty()) continue;
    const data::Dataset& svs = sub.supportVectors();
    if (shape == nullptr) {
      shape = &svs;
    } else if (svs.storage() != shape->storage() ||
               svs.cols() != shape->cols()) {
      eligible = false;
      break;
    }
  }

  if (!eligible) {
    for (const auto& pair : model.pairs()) {
      cm.fallback_.push_back({pair.positiveClass, pair.negativeClass,
                              CompiledDistributedModel::compile(pair.model)});
    }
    return cm;
  }

  cm.sharedPool_ = true;
  cm.params_ = *params;
  const bool dense =
      shape == nullptr || shape->storage() == data::Storage::Dense;
  const std::size_t cols = shape == nullptr ? 0 : shape->cols();

  std::unordered_map<std::string, std::uint32_t> slots;
  std::vector<float> poolDense;
  std::vector<std::size_t> poolRowPtr{0};
  std::vector<std::uint32_t> poolColIdx;
  std::vector<float> poolVals;
  std::vector<std::int8_t> poolLabels;  // placeholder +1 per pooled SV

  for (const auto& pair : model.pairs()) {
    const solver::Model& sub = pair.model.model(0);
    PairRef ref;
    ref.positiveClass = pair.positiveClass;
    ref.negativeClass = pair.negativeClass;
    ref.bias = sub.bias();
    ref.alphaY = sub.alphaY();
    const data::Dataset& svs = sub.supportVectors();
    ref.poolIdx.reserve(svs.rows());
    for (std::size_t s = 0; s < svs.rows(); ++s) {
      const std::string key = rowKey(svs, s);
      auto [it, inserted] =
          slots.emplace(key, static_cast<std::uint32_t>(poolLabels.size()));
      if (inserted) {
        if (dense) {
          const auto r = svs.denseRow(s);
          poolDense.insert(poolDense.end(), r.begin(), r.end());
        } else {
          const auto idx = svs.sparseIndices(s);
          const auto val = svs.sparseValues(s);
          poolColIdx.insert(poolColIdx.end(), idx.begin(), idx.end());
          poolVals.insert(poolVals.end(), val.begin(), val.end());
          poolRowPtr.push_back(poolColIdx.size());
        }
        poolLabels.push_back(1);
      }
      ref.poolIdx.push_back(it->second);
    }
    cm.pairRefs_.push_back(std::move(ref));
  }

  if (!poolLabels.empty()) {
    const data::Dataset pool =
        dense ? data::Dataset::fromDense(cols, std::move(poolDense),
                                         std::move(poolLabels))
              : data::Dataset::fromSparse(cols, std::move(poolRowPtr),
                                          std::move(poolColIdx),
                                          std::move(poolVals),
                                          std::move(poolLabels));
    cm.pool_ = CompiledSvSet(pool);
  }
  return cm;
}

std::size_t CompiledMulticlassModel::pairSvTotal() const {
  std::size_t total = 0;
  if (sharedPool_) {
    for (const auto& p : pairRefs_) total += p.alphaY.size();
  } else {
    for (const auto& p : fallback_) total += p.model.totalSupportVectors();
  }
  return total;
}

int CompiledMulticlassModel::voteFrom(
    std::span<const double> pairDecisions) const {
  // Replicates MulticlassModel::predictFor's vote and tie-break exactly.
  std::map<int, int> votes;
  std::map<int, double> margin;
  for (std::size_t p = 0; p < pairDecisions.size(); ++p) {
    const double d = pairDecisions[p];
    const int pos =
        sharedPool_ ? pairRefs_[p].positiveClass : fallback_[p].positiveClass;
    const int neg =
        sharedPool_ ? pairRefs_[p].negativeClass : fallback_[p].negativeClass;
    const int winner = d >= 0.0 ? pos : neg;
    ++votes[winner];
    margin[winner] += std::abs(d);
  }
  int best = classes_.front();
  int bestVotes = -1;
  double bestMargin = -1.0;
  for (int cls : classes_) {
    const int v = votes.count(cls) ? votes.at(cls) : 0;
    const double g = margin.count(cls) ? margin.at(cls) : 0.0;
    if (v > bestVotes || (v == bestVotes && g > bestMargin)) {
      best = cls;
      bestVotes = v;
      bestMargin = g;
    }
  }
  return best;
}

void CompiledMulticlassModel::predictBatch(const data::Dataset& ds,
                                           std::span<const std::size_t> rows,
                                           std::span<int> out,
                                           BatchScratch& scratch) const {
  CASVM_CHECK(numPairs() > 0, "empty multiclass model");
  CASVM_CHECK(out.size() >= rows.size(), "output buffer too small");
  const std::size_t pairs = numPairs();
  if (sharedPool_) {
    scratch.pairDecisions.resize(pairs);
    if (!pool_.empty()) scratch.kval.resize(pool_.size());
    for (std::size_t j = 0; j < rows.size(); ++j) {
      const std::size_t i = rows[j];
      if (!pool_.empty()) {
        // One kernel row over the deduplicated pool serves every pair.
        pool_.dotRow(ds, i, scratch.kval, scratch);
        kernel::Kernel(params_).transformDots(pool_.selfDots(), ds.selfDot(i),
                                              scratch.kval);
      }
      for (std::size_t p = 0; p < pairs; ++p) {
        const PairRef& ref = pairRefs_[p];
        double acc = ref.bias;
        for (std::size_t s = 0; s < ref.alphaY.size(); ++s) {
          acc += ref.alphaY[s] * scratch.kval[ref.poolIdx[s]];
        }
        scratch.pairDecisions[p] = acc;
      }
      out[j] = voteFrom(scratch.pairDecisions);
    }
    return;
  }
  // Fallback: one batched decision pass per pair, then the vote per row.
  scratch.pairDecisions.resize(pairs * rows.size());
  std::vector<double> one(rows.size());
  for (std::size_t p = 0; p < pairs; ++p) {
    fallback_[p].model.decisionBatch(ds, rows, one, scratch);
    std::copy(one.begin(), one.end(),
              scratch.pairDecisions.begin() + p * rows.size());
  }
  std::vector<double> column(pairs);
  for (std::size_t j = 0; j < rows.size(); ++j) {
    for (std::size_t p = 0; p < pairs; ++p) {
      column[p] = scratch.pairDecisions[p * rows.size() + j];
    }
    out[j] = voteFrom(column);
  }
}

void CompiledMulticlassModel::predictAll(const data::Dataset& ds,
                                         std::span<int> out,
                                         BatchScratch& scratch) const {
  CASVM_CHECK(out.size() >= ds.rows(), "output buffer too small");
  std::vector<std::size_t> rows(ds.rows());
  std::iota(rows.begin(), rows.end(), std::size_t{0});
  predictBatch(ds, rows, out, scratch);
}

double CompiledMulticlassModel::accuracy(const data::Dataset& ds,
                                         const std::vector<int>& labels,
                                         BatchScratch& scratch) const {
  CASVM_CHECK(ds.rows() == labels.size(), "label count mismatch");
  CASVM_CHECK(ds.rows() > 0, "empty test set");
  std::vector<int> pred(ds.rows());
  predictAll(ds, pred, scratch);
  std::size_t correct = 0;
  for (std::size_t i = 0; i < ds.rows(); ++i) {
    correct += (pred[i] == labels[i]);
  }
  return static_cast<double>(correct) / static_cast<double>(ds.rows());
}

}  // namespace casvm::serve
