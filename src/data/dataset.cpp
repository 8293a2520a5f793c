#include "casvm/data/dataset.hpp"

#include <algorithm>

#include "casvm/support/bytes.hpp"
#include "casvm/support/error.hpp"
#include "casvm/support/isa.hpp"

namespace casvm::data {

namespace {

/// Storage byte, 7 bytes of padding, then rows, cols and nnz as u64.
constexpr std::size_t kPackHeaderBytes = 32;

void checkLabels(const std::vector<std::int8_t>& labels) {
  for (std::int8_t y : labels) {
    CASVM_CHECK(y == 1 || y == -1, "labels must be +1 or -1");
  }
}

}  // namespace

Dataset Dataset::fromDense(std::size_t cols, std::vector<float> values,
                           std::vector<std::int8_t> labels) {
  CASVM_CHECK(cols > 0 || labels.empty(),
              "non-empty dataset needs at least one feature");
  // Divide rather than multiply: a hostile cols * rows could wrap to the
  // values' size.
  CASVM_CHECK(labels.empty() ? values.empty()
                             : values.size() % labels.size() == 0 &&
                                   values.size() / labels.size() == cols,
              "values size must be rows*cols");
  checkLabels(labels);
  Dataset ds;
  ds.storage_ = Storage::Dense;
  ds.cols_ = cols;
  ds.dense_ = std::move(values);
  ds.labels_ = std::move(labels);
  ds.computeSelfDots();
  return ds;
}

Dataset Dataset::fromSparse(std::size_t cols, std::vector<std::size_t> rowPtr,
                            std::vector<std::uint32_t> colIdx,
                            std::vector<float> values,
                            std::vector<std::int8_t> labels) {
  CASVM_CHECK(cols > 0 || labels.empty(),
              "non-empty dataset needs at least one feature");
  CASVM_CHECK(rowPtr.size() == labels.size() + 1,
              "rowPtr must have rows+1 entries");
  CASVM_CHECK(rowPtr.front() == 0 && rowPtr.back() == colIdx.size(),
              "rowPtr must start at 0 and end at nnz");
  CASVM_CHECK(colIdx.size() == values.size(), "colIdx/values size mismatch");
  checkLabels(labels);
  for (std::size_t i = 0; i + 1 < rowPtr.size(); ++i) {
    CASVM_CHECK(rowPtr[i] <= rowPtr[i + 1], "rowPtr must be nondecreasing");
    for (std::size_t k = rowPtr[i]; k + 1 < rowPtr[i + 1]; ++k) {
      CASVM_CHECK(colIdx[k] < colIdx[k + 1],
                  "column indices must be strictly increasing per row");
    }
  }
  for (std::uint32_t c : colIdx) {
    CASVM_CHECK(c < cols, "column index out of range");
  }
  Dataset ds;
  ds.storage_ = Storage::Sparse;
  ds.cols_ = cols;
  ds.rowPtr_ = std::move(rowPtr);
  ds.colIdx_ = std::move(colIdx);
  ds.sparseVals_ = std::move(values);
  ds.labels_ = std::move(labels);
  ds.computeSelfDots();
  return ds;
}

std::size_t Dataset::positives() const {
  std::size_t count = 0;
  for (std::int8_t y : labels_) count += (y == 1);
  return count;
}

std::size_t Dataset::nonzeros() const {
  return storage_ == Storage::Dense ? rows() * cols_ : sparseVals_.size();
}

std::size_t Dataset::sampleBytes() const {
  if (storage_ == Storage::Dense) return dense_.size() * sizeof(float);
  return colIdx_.size() * sizeof(std::uint32_t) +
         sparseVals_.size() * sizeof(float) +
         rowPtr_.size() * sizeof(std::size_t);
}

std::span<const float> Dataset::denseRow(std::size_t i) const {
  CASVM_ASSERT(storage_ == Storage::Dense, "denseRow on sparse dataset");
  CASVM_ASSERT(i < rows(), "row out of range");
  return {dense_.data() + i * cols_, cols_};
}

std::span<const std::uint32_t> Dataset::sparseIndices(std::size_t i) const {
  CASVM_ASSERT(storage_ == Storage::Sparse, "sparseIndices on dense dataset");
  CASVM_ASSERT(i < rows(), "row out of range");
  return {colIdx_.data() + rowPtr_[i], rowPtr_[i + 1] - rowPtr_[i]};
}

std::span<const float> Dataset::sparseValues(std::size_t i) const {
  CASVM_ASSERT(storage_ == Storage::Sparse, "sparseValues on dense dataset");
  CASVM_ASSERT(i < rows(), "row out of range");
  return {sparseVals_.data() + rowPtr_[i], rowPtr_[i + 1] - rowPtr_[i]};
}

double Dataset::dot(std::size_t i, std::size_t j) const {
  CASVM_ASSERT(i < rows() && j < rows(), "row out of range");
  if (storage_ == Storage::Dense) {
    const float* a = dense_.data() + i * cols_;
    const float* b = dense_.data() + j * cols_;
    double acc = 0.0;
    for (std::size_t k = 0; k < cols_; ++k) acc += double(a[k]) * double(b[k]);
    return acc;
  }
  // Sparse-sparse merge join over sorted column indices.
  std::size_t pa = rowPtr_[i], ea = rowPtr_[i + 1];
  std::size_t pb = rowPtr_[j], eb = rowPtr_[j + 1];
  double acc = 0.0;
  while (pa < ea && pb < eb) {
    const std::uint32_t ca = colIdx_[pa], cb = colIdx_[pb];
    if (ca == cb) {
      acc += double(sparseVals_[pa]) * double(sparseVals_[pb]);
      ++pa;
      ++pb;
    } else if (ca < cb) {
      ++pa;
    } else {
      ++pb;
    }
  }
  return acc;
}

double Dataset::dotWith(std::size_t i, std::span<const float> x) const {
  CASVM_ASSERT(i < rows(), "row out of range");
  CASVM_CHECK(x.size() == cols_, "external vector has wrong length");
  double acc = 0.0;
  if (storage_ == Storage::Dense) {
    const float* a = dense_.data() + i * cols_;
    for (std::size_t k = 0; k < cols_; ++k) acc += double(a[k]) * double(x[k]);
    return acc;
  }
  for (std::size_t p = rowPtr_[i]; p < rowPtr_[i + 1]; ++p) {
    acc += double(sparseVals_[p]) * double(x[colIdx_[p]]);
  }
  return acc;
}

namespace {

/// acc[k] += row[k] for k < n: one row into a center sum, each feature
/// its own sum, so the rows it adds in index order sum in index order.
CASVM_ISA_CLONES void addRow(const float* __restrict row,
                             double* __restrict acc, std::size_t n) {
  for (std::size_t k = 0; k < n; ++k) acc[k] += row[k];
}

}  // namespace

void Dataset::addRowTo(std::size_t i, std::span<double> acc) const {
  CASVM_ASSERT(i < rows(), "row out of range");
  CASVM_CHECK(acc.size() == cols_, "accumulator has wrong length");
  if (storage_ == Storage::Dense) {
    addRow(dense_.data() + i * cols_, acc.data(), cols_);
    return;
  }
  for (std::size_t p = rowPtr_[i]; p < rowPtr_[i + 1]; ++p) {
    acc[colIdx_[p]] += sparseVals_[p];
  }
}

void Dataset::copyRowDense(std::size_t i, std::span<float> out) const {
  CASVM_ASSERT(i < rows(), "row out of range");
  CASVM_CHECK(out.size() == cols_, "output has wrong length");
  if (storage_ == Storage::Dense) {
    const float* a = dense_.data() + i * cols_;
    std::copy(a, a + cols_, out.begin());
    return;
  }
  std::fill(out.begin(), out.end(), 0.0f);
  for (std::size_t p = rowPtr_[i]; p < rowPtr_[i + 1]; ++p) {
    out[colIdx_[p]] = sparseVals_[p];
  }
}

Dataset Dataset::subset(std::span<const std::size_t> idx) const {
  Dataset ds;
  ds.storage_ = storage_;
  ds.cols_ = cols_;
  ds.labels_.reserve(idx.size());
  ds.selfDots_.reserve(idx.size());
  for (std::size_t i : idx) {
    CASVM_CHECK(i < rows(), "subset index out of range");
    ds.labels_.push_back(labels_[i]);
    ds.selfDots_.push_back(selfDots_[i]);
  }
  if (storage_ == Storage::Dense) {
    ds.dense_.reserve(idx.size() * cols_);
    for (std::size_t i : idx) {
      const float* a = dense_.data() + i * cols_;
      ds.dense_.insert(ds.dense_.end(), a, a + cols_);
    }
    return ds;
  }
  ds.rowPtr_.reserve(idx.size() + 1);
  ds.rowPtr_.push_back(0);
  for (std::size_t i : idx) {
    ds.colIdx_.insert(ds.colIdx_.end(), colIdx_.begin() + rowPtr_[i],
                      colIdx_.begin() + rowPtr_[i + 1]);
    ds.sparseVals_.insert(ds.sparseVals_.end(),
                          sparseVals_.begin() + rowPtr_[i],
                          sparseVals_.begin() + rowPtr_[i + 1]);
    ds.rowPtr_.push_back(ds.colIdx_.size());
  }
  return ds;
}

Dataset Dataset::concat(const Dataset& a, const Dataset& b) {
  const Dataset* const parts[] = {&a, &b};
  return concat(parts);
}

Dataset Dataset::concat(std::span<const Dataset* const> parts) {
  const Dataset* first = nullptr;
  std::size_t nonEmpty = 0, rows = 0, nnz = 0;
  for (const Dataset* p : parts) {
    if (p->empty()) continue;
    if (first == nullptr) first = p;
    CASVM_CHECK(p->cols_ == first->cols_, "concat: feature counts differ");
    CASVM_CHECK(p->storage_ == first->storage_, "concat: storage kinds differ");
    ++nonEmpty;
    rows += p->rows();
    nnz += p->storage_ == Storage::Dense ? p->dense_.size()
                                         : p->sparseVals_.size();
  }
  if (nonEmpty <= 1) {
    if (first != nullptr) return *first;
    return parts.empty() ? Dataset() : *parts.back();
  }
  Dataset ds;
  ds.storage_ = first->storage_;
  ds.cols_ = first->cols_;
  ds.labels_.reserve(rows);
  ds.selfDots_.reserve(rows);
  const bool dense = ds.storage_ == Storage::Dense;
  if (dense) {
    ds.dense_.reserve(nnz);
  } else {
    ds.rowPtr_.reserve(rows + 1);
    ds.rowPtr_.push_back(0);
    ds.colIdx_.reserve(nnz);
    ds.sparseVals_.reserve(nnz);
  }
  for (const Dataset* p : parts) {
    if (p->empty()) continue;
    ds.labels_.insert(ds.labels_.end(), p->labels_.begin(), p->labels_.end());
    ds.selfDots_.insert(ds.selfDots_.end(), p->selfDots_.begin(),
                        p->selfDots_.end());
    if (dense) {
      ds.dense_.insert(ds.dense_.end(), p->dense_.begin(), p->dense_.end());
      continue;
    }
    const std::size_t offset = ds.sparseVals_.size();
    for (std::size_t i = 1; i < p->rowPtr_.size(); ++i) {
      ds.rowPtr_.push_back(p->rowPtr_[i] + offset);
    }
    ds.colIdx_.insert(ds.colIdx_.end(), p->colIdx_.begin(), p->colIdx_.end());
    ds.sparseVals_.insert(ds.sparseVals_.end(), p->sparseVals_.begin(),
                          p->sparseVals_.end());
  }
  return ds;
}

Dataset Dataset::relabel(Dataset ds, std::vector<std::int8_t> labels) {
  CASVM_CHECK(labels.size() == ds.rows(), "one label per row required");
  checkLabels(labels);
  ds.labels_ = std::move(labels);
  return ds;
}

std::vector<std::byte> Dataset::pack(std::span<const std::size_t> idx) const {
  const bool dense = storage_ == Storage::Dense;
  std::uint64_t nnz = 0;
  if (dense) {
    nnz = idx.size() * cols_;
  } else {
    for (std::size_t i : idx) nnz += rowPtr_[i + 1] - rowPtr_[i];
  }
  // Header, one label byte per row, then the values: dense rows as floats,
  // sparse rows as a u64 length, column indices and values.
  const std::size_t body =
      dense ? nnz * sizeof(float)
            : idx.size() * sizeof(std::uint64_t) +
                  nnz * (sizeof(std::uint32_t) + sizeof(float));
  support::ByteWriter w(kPackHeaderBytes + idx.size() + body);
  // The header keeps the layout of the struct it once was, padding zeroed.
  w.scalar(static_cast<std::uint8_t>(storage_));
  w.zeros(7);
  w.scalar<std::uint64_t>(idx.size());
  w.scalar<std::uint64_t>(cols_);
  w.scalar(nnz);
  for (std::size_t i : idx) w.scalar(labels_[i]);
  for (std::size_t i : idx) {
    if (dense) {
      w.array(std::span(dense_.data() + i * cols_, cols_));
      continue;
    }
    const std::size_t len = rowPtr_[i + 1] - rowPtr_[i];
    w.scalar<std::uint64_t>(len);
    w.array(std::span(colIdx_.data() + rowPtr_[i], len));
    w.array(std::span(sparseVals_.data() + rowPtr_[i], len));
  }
  return w.take();
}

std::vector<std::byte> Dataset::packAll() const {
  std::vector<std::size_t> idx(rows());
  for (std::size_t i = 0; i < rows(); ++i) idx[i] = i;
  return pack(idx);
}

Dataset Dataset::unpack(std::span<const std::byte> bytes) {
  support::ByteReader r(bytes, "dataset unpack");
  const auto storage = r.scalar<std::uint8_t>();
  r.skip(7);
  const auto m = r.scalar<std::uint64_t>();
  const auto n = r.scalar<std::uint64_t>();
  const auto nnz = r.scalar<std::uint64_t>();
  std::vector<std::int8_t> labels = r.array<std::int8_t>(m);

  if (storage == static_cast<std::uint8_t>(Storage::Dense)) {
    std::vector<float> values = r.array<float>(r.count(m, n, sizeof(float)));
    r.expectEnd();
    return fromDense(n, std::move(values), std::move(labels));
  }
  r.check(storage == static_cast<std::uint8_t>(Storage::Sparse),
          "unknown storage kind");
  std::vector<std::size_t> rowPtr{0};
  std::vector<std::uint32_t> colIdx;
  std::vector<float> values;
  // Every nonzero carries a column index and a value.
  colIdx.reserve(r.count(nnz, sizeof(std::uint32_t) + sizeof(float)));
  values.reserve(nnz);
  for (std::size_t i = 0; i < m; ++i) {
    const auto len = r.scalar<std::uint64_t>();
    r.append(colIdx, len);
    r.append(values, len);
    rowPtr.push_back(colIdx.size());
  }
  r.expectEnd();
  r.check(colIdx.size() == nnz, "nonzero count mismatch");
  return fromSparse(n, std::move(rowPtr), std::move(colIdx), std::move(values),
                    std::move(labels));
}

void Dataset::computeSelfDots() {
  const std::size_t m = rows();
  selfDots_.resize(m);
  std::size_t i = 0;
  if (storage_ == Storage::Dense) {
    // Four rows side by side: four independent chains, each row still one
    // serial sum over ascending k.
    for (; i + 4 <= m; i += 4) {
      const float* a = dense_.data() + i * cols_;
      const float* b = a + cols_;
      const float* c = b + cols_;
      const float* d = c + cols_;
      double sa = 0.0, sb = 0.0, sc = 0.0, sd = 0.0;
      for (std::size_t k = 0; k < cols_; ++k) {
        sa += double(a[k]) * double(a[k]);
        sb += double(b[k]) * double(b[k]);
        sc += double(c[k]) * double(c[k]);
        sd += double(d[k]) * double(d[k]);
      }
      selfDots_[i] = sa;
      selfDots_[i + 1] = sb;
      selfDots_[i + 2] = sc;
      selfDots_[i + 3] = sd;
    }
  }
  for (; i < m; ++i) {
    double acc = 0.0;
    if (storage_ == Storage::Dense) {
      const float* a = dense_.data() + i * cols_;
      for (std::size_t k = 0; k < cols_; ++k) acc += double(a[k]) * double(a[k]);
    } else {
      for (std::size_t p = rowPtr_[i]; p < rowPtr_[i + 1]; ++p) {
        acc += double(sparseVals_[p]) * double(sparseVals_[p]);
      }
    }
    selfDots_[i] = acc;
  }
}

}  // namespace casvm::data
