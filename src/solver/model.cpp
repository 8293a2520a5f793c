#include "casvm/solver/model.hpp"

#include "casvm/serve/compiled_model.hpp"
#include "casvm/support/atomic_file.hpp"
#include "casvm/support/bytes.hpp"
#include "casvm/support/error.hpp"

namespace casvm::solver {

Model::Model(kernel::KernelParams params, data::Dataset supportVectors,
             std::vector<double> alphaY, double bias)
    : params_(params), kernel_(params), svs_(std::move(supportVectors)),
      alphaY_(std::move(alphaY)), bias_(bias) {
  CASVM_CHECK(svs_.rows() == alphaY_.size(),
              "one coefficient per support vector required");
}

double Model::decision(std::span<const float> x) const {
  double xSelf = 0.0;
  for (float v : x) xSelf += double(v) * double(v);
  double acc = bias_;
  for (std::size_t i = 0; i < svs_.rows(); ++i) {
    acc += alphaY_[i] * kernel_.evalWith(svs_, i, x, xSelf);
  }
  return acc;
}

double Model::decisionFor(const data::Dataset& ds, std::size_t i) const {
  double acc = bias_;
  for (std::size_t s = 0; s < svs_.rows(); ++s) {
    acc += alphaY_[s] * kernel_.evalCross(svs_, s, ds, i);
  }
  return acc;
}

double Model::accuracy(const data::Dataset& testSet) const {
  CASVM_CHECK(testSet.rows() > 0, "empty test set");
  // Batch path: one compiled SV pack scores the whole test set through the
  // tiled micro-kernel; decisions are bitwise-identical to decisionFor.
  const serve::CompiledModel compiled(params_, svs_, alphaY_, bias_);
  serve::BatchScratch scratch;
  std::vector<double> decisions(testSet.rows(), 0.0);
  compiled.decisionAll(testSet, decisions, scratch);
  std::size_t correct = 0;
  for (std::size_t i = 0; i < testSet.rows(); ++i) {
    const std::int8_t label = decisions[i] >= 0.0 ? 1 : -1;
    correct += (label == testSet.label(i));
  }
  return static_cast<double>(correct) / static_cast<double>(testSet.rows());
}

std::vector<std::byte> Model::pack() const {
  const std::vector<std::byte> svBytes = svs_.packAll();
  support::ByteWriter w(sizeof(params_) + sizeof(bias_) +
                        sizeof(std::uint64_t) +
                        alphaY_.size() * sizeof(double) + svBytes.size());
  // KernelParams as the struct it was once written as: every member in
  // declaration order, its padding as zeros, so identical models always
  // pack to identical bytes (checkpoint resume compares packs bitwise).
  w.scalar(params_.type);
  w.zeros(7);
  w.scalar(params_.gamma);
  w.scalar(params_.a);
  w.scalar(params_.r);
  w.scalar<std::int32_t>(params_.degree);
  w.zeros(4);
  w.scalar(bias_);
  w.vec(alphaY_);
  w.array(svBytes);
  return w.take();
}

Model Model::unpack(std::span<const std::byte> bytes) {
  support::ByteReader r(bytes, "model unpack");
  Model m;
  m.params_.type = r.scalar<kernel::KernelType>();
  r.check(m.params_.type <= kernel::KernelType::Sigmoid, "unknown kernel type");
  r.skip(7);
  m.params_.gamma = r.scalar<double>();
  m.params_.a = r.scalar<double>();
  m.params_.r = r.scalar<double>();
  m.params_.degree = r.scalar<std::int32_t>();
  r.skip(4);
  m.bias_ = r.scalar<double>();
  m.alphaY_ = r.vec<double>();
  m.kernel_ = kernel::Kernel(m.params_);
  m.svs_ = data::Dataset::unpack(r.rest());
  r.check(m.svs_.rows() == m.alphaY_.size(), "SV/coefficient count mismatch");
  return m;
}

void Model::save(const std::string& path) const {
  // Atomic temp-file + rename: a crash mid-save leaves either the previous
  // model or none — never a truncated file a later load would trip over.
  support::writeFileAtomic(path, std::span<const std::byte>(pack()));
}

Model Model::load(const std::string& path) {
  return unpack(support::readFileBytes(path));
}

}  // namespace casvm::solver
