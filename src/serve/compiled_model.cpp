#include "casvm/serve/compiled_model.hpp"

#include <algorithm>

#include "casvm/kernel/tile_kernel.hpp"
#include "casvm/support/error.hpp"

namespace casvm::serve {

CompiledSvSet::CompiledSvSet(const data::Dataset& svs)
    : count_(svs.rows()), cols_(svs.cols()),
      dense_(svs.storage() == data::Storage::Dense) {
  selfDots_.reserve(count_);
  for (std::size_t s = 0; s < count_; ++s) selfDots_.push_back(svs.selfDot(s));
  if (count_ == 0) return;
  if (dense_) {
    kernel::tile::pack(svs, tiles_);
    return;
  }
  rowPtr_.reserve(count_ + 1);
  rowPtr_.push_back(0);
  for (std::size_t s = 0; s < count_; ++s) {
    const auto idx = svs.sparseIndices(s);
    const auto val = svs.sparseValues(s);
    colIdx_.insert(colIdx_.end(), idx.begin(), idx.end());
    vals_.insert(vals_.end(), val.begin(), val.end());
    rowPtr_.push_back(colIdx_.size());
  }
}

std::size_t CompiledSvSet::packedBytes() const {
  return tiles_.size() * sizeof(float) + vals_.size() * sizeof(float) +
         colIdx_.size() * sizeof(std::uint32_t) +
         rowPtr_.size() * sizeof(std::size_t) +
         selfDots_.size() * sizeof(double);
}

void CompiledSvSet::dotAgainstScratch(std::span<double> kval,
                                      BatchScratch& scratch) const {
  if (dense_) {
    double* const out[] = {kval.data()};
    kernel::tile::dotFn()(tiles_.data(), scratch.xd.data(), 1, count_, cols_,
                          out);
    return;
  }
  // CSR scatter: the query sits densified in scratch.xd; each SV streams
  // its nonzeros against it in ascending-column order, which is
  // bitwise-identical to Dataset::dotWith / the sparse-sparse merge join
  // (zero products never perturb the running sum).
  for (std::size_t s = 0; s < count_; ++s) {
    double acc = 0.0;
    for (std::size_t p = rowPtr_[s]; p < rowPtr_[s + 1]; ++p) {
      acc += double(vals_[p]) * scratch.xd[colIdx_[p]];
    }
    kval[s] = acc;
  }
}

void CompiledSvSet::dotRow(const data::Dataset& ds, std::size_t i,
                           std::span<double> kval,
                           BatchScratch& scratch) const {
  CASVM_CHECK(ds.cols() == cols_, "query feature count differs from SVs");
  CASVM_CHECK(kval.size() >= count_, "kernel value buffer too small");
  scratch.xd.assign(cols_, 0.0);
  if (ds.storage() == data::Storage::Dense) {
    const std::span<const float> r = ds.denseRow(i);
    for (std::size_t k = 0; k < cols_; ++k) scratch.xd[k] = double(r[k]);
  } else {
    const auto idx = ds.sparseIndices(i);
    const auto val = ds.sparseValues(i);
    for (std::size_t p = 0; p < idx.size(); ++p) {
      scratch.xd[idx[p]] = double(val[p]);
    }
  }
  dotAgainstScratch(kval, scratch);
}

void CompiledSvSet::dotVector(std::span<const float> x, std::span<double> kval,
                              BatchScratch& scratch) const {
  CASVM_CHECK(x.size() == cols_, "query feature count differs from SVs");
  CASVM_CHECK(kval.size() >= count_, "kernel value buffer too small");
  scratch.xd.resize(cols_);
  for (std::size_t k = 0; k < cols_; ++k) scratch.xd[k] = double(x[k]);
  dotAgainstScratch(kval, scratch);
}

CompiledModel::CompiledModel(kernel::KernelParams params,
                             const data::Dataset& svs,
                             std::vector<double> alphaY, double bias)
    : params_(params), svs_(svs), alphaY_(std::move(alphaY)), bias_(bias) {
  CASVM_CHECK(svs_.size() == alphaY_.size(),
              "one coefficient per support vector required");
}

double CompiledModel::reduce(std::span<const double> kval) const {
  double acc = bias_;
  for (std::size_t s = 0; s < alphaY_.size(); ++s) {
    acc += alphaY_[s] * kval[s];
  }
  return acc;
}

void CompiledModel::decisionBatch(const data::Dataset& ds,
                                  std::span<const std::size_t> rows,
                                  std::span<double> out,
                                  BatchScratch& scratch) const {
  CASVM_CHECK(out.size() >= rows.size(), "output buffer too small");
  if (svs_.empty()) {
    for (std::size_t j = 0; j < rows.size(); ++j) out[j] = bias_;
    return;
  }
  scratch.kval.resize(svs_.size());
  for (std::size_t j = 0; j < rows.size(); ++j) {
    const std::size_t i = rows[j];
    svs_.dotRow(ds, i, scratch.kval, scratch);
    kernel::Kernel(params_).transformDots(svs_.selfDots(), ds.selfDot(i),
                                          scratch.kval);
    out[j] = reduce(scratch.kval);
  }
}

void CompiledModel::decisionAll(const data::Dataset& ds, std::span<double> out,
                                BatchScratch& scratch) const {
  CASVM_CHECK(out.size() >= ds.rows(), "output buffer too small");
  if (svs_.empty()) {
    for (std::size_t i = 0; i < ds.rows(); ++i) out[i] = bias_;
    return;
  }
  scratch.kval.resize(svs_.size());
  for (std::size_t i = 0; i < ds.rows(); ++i) {
    svs_.dotRow(ds, i, scratch.kval, scratch);
    kernel::Kernel(params_).transformDots(svs_.selfDots(), ds.selfDot(i),
                                          scratch.kval);
    out[i] = reduce(scratch.kval);
  }
}

double CompiledModel::decision(std::span<const float> x,
                               BatchScratch& scratch) const {
  if (svs_.empty()) return bias_;
  // Same accumulation order as Model::decision's xSelf.
  double xSelf = 0.0;
  for (float v : x) xSelf += double(v) * double(v);
  scratch.kval.resize(svs_.size());
  svs_.dotVector(x, scratch.kval, scratch);
  kernel::Kernel(params_).transformDots(svs_.selfDots(), xSelf, scratch.kval);
  return reduce(scratch.kval);
}

}  // namespace casvm::serve
