#include "casvm/solver/model.hpp"

#include <cstring>
#include <fstream>

#include "casvm/serve/compiled_model.hpp"
#include "casvm/support/atomic_file.hpp"
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
  std::vector<std::byte> out;
  out.reserve(sizeof(params_) + sizeof(bias_) + sizeof(std::uint64_t) +
              alphaY_.size() * sizeof(double) + svBytes.size());
  auto append = [&out](const void* data, std::size_t bytes) {
    const std::size_t off = out.size();
    out.resize(off + bytes);
    if (bytes > 0) std::memcpy(out.data() + off, data, bytes);
  };
  // KernelParams has internal padding whose bytes are indeterminate; pack a
  // zeroed copy written member by member so identical models always pack to
  // identical bytes (checkpoint resume compares raw pack() output bitwise).
  kernel::KernelParams cleanParams;
  std::memset(&cleanParams, 0, sizeof(cleanParams));
  cleanParams.type = params_.type;
  cleanParams.gamma = params_.gamma;
  cleanParams.a = params_.a;
  cleanParams.r = params_.r;
  cleanParams.degree = params_.degree;
  append(&cleanParams, sizeof(cleanParams));
  append(&bias_, sizeof(bias_));
  const std::uint64_t count = alphaY_.size();
  append(&count, sizeof(count));
  append(alphaY_.data(), alphaY_.size() * sizeof(double));
  append(svBytes.data(), svBytes.size());
  return out;
}

Model Model::unpack(std::span<const std::byte> bytes) {
  auto read = [&bytes](void* data, std::size_t count) {
    CASVM_CHECK(bytes.size() >= count, "model unpack: truncated");
    if (count > 0) std::memcpy(data, bytes.data(), count);
    bytes = bytes.subspan(count);
  };
  Model m;
  read(&m.params_, sizeof(m.params_));
  read(&m.bias_, sizeof(m.bias_));
  std::uint64_t count = 0;
  read(&count, sizeof(count));
  // A corrupt header can claim an absurd coefficient count; validate it
  // against the remaining payload before sizing any allocation. Dividing
  // (instead of multiplying count by sizeof(double)) avoids the overflow a
  // hostile count could use to sneak past the check.
  CASVM_CHECK(count <= bytes.size() / sizeof(double),
              "model unpack: coefficient count exceeds payload");
  m.alphaY_.resize(count);
  read(m.alphaY_.data(), count * sizeof(double));
  m.kernel_ = kernel::Kernel(m.params_);
  m.svs_ = data::Dataset::unpack(bytes);
  CASVM_CHECK(m.svs_.rows() == m.alphaY_.size(),
              "model unpack: SV/coefficient count mismatch");
  return m;
}

void Model::save(const std::string& path) const {
  // Atomic temp-file + rename: a crash mid-save leaves either the previous
  // model or none — never a truncated file a later load would trip over.
  support::writeFileAtomic(path, std::span<const std::byte>(pack()));
}

Model Model::load(const std::string& path) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  CASVM_CHECK(in.good(), "cannot open model file: " + path);
  const std::streamsize size = in.tellg();
  in.seekg(0);
  std::vector<std::byte> bytes(static_cast<std::size_t>(size));
  in.read(reinterpret_cast<char*>(bytes.data()), size);
  CASVM_CHECK(in.good(), "model read failed: " + path);
  return unpack(bytes);
}

}  // namespace casvm::solver
