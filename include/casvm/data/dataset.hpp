#pragma once

/// \file dataset.hpp
/// Training data container for casvm.
///
/// A Dataset is an immutable-shape collection of m labeled samples with n
/// features, stored either dense (row-major float) or sparse (CSR). All
/// kernel-relevant primitives (dot products, squared distances, row
/// accumulation) are provided here so the kernel/solver layers never touch
/// the storage layout. Squared norms of every row are precomputed, since
/// the Gaussian kernel evaluates ||xi - xj||^2 = |xi|^2 + |xj|^2 - 2 xi.xj
/// on every SMO step.
///
/// Labels are binary, stored as +1 / -1 (the paper's two-class setting;
/// multi-class SVMs decompose into independent binary problems).

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace casvm::data {

enum class Storage : std::uint8_t { Dense = 0, Sparse = 1 };

class Dataset {
 public:
  Dataset() = default;

  /// Build a dense dataset from row-major values (m*n floats) and labels.
  static Dataset fromDense(std::size_t cols, std::vector<float> values,
                           std::vector<std::int8_t> labels);

  /// Build a sparse (CSR) dataset. rowPtr has m+1 entries.
  static Dataset fromSparse(std::size_t cols, std::vector<std::size_t> rowPtr,
                            std::vector<std::uint32_t> colIdx,
                            std::vector<float> values,
                            std::vector<std::int8_t> labels);

  std::size_t rows() const { return labels_.size(); }
  std::size_t cols() const { return cols_; }
  bool empty() const { return labels_.empty(); }
  Storage storage() const { return storage_; }

  /// Label of sample i: +1 or -1.
  std::int8_t label(std::size_t i) const { return labels_[i]; }
  const std::vector<std::int8_t>& labels() const { return labels_; }

  /// Number of samples with label +1 / label -1.
  std::size_t positives() const;
  std::size_t negatives() const { return rows() - positives(); }

  /// Stored nonzeros (== rows*cols for dense).
  std::size_t nonzeros() const;

  /// Approximate in-memory footprint of the sample data in bytes; this is
  /// also the wire size used when samples move between ranks.
  std::size_t sampleBytes() const;

  /// Dense row view; only valid for Storage::Dense.
  std::span<const float> denseRow(std::size_t i) const;

  /// Sparse row views; only valid for Storage::Sparse.
  std::span<const std::uint32_t> sparseIndices(std::size_t i) const;
  std::span<const float> sparseValues(std::size_t i) const;

  // --- kernel primitives (work for both storages) -----------------------

  /// xi . xj between two rows of this dataset.
  double dot(std::size_t i, std::size_t j) const;

  /// Cached ||xi||^2.
  double selfDot(std::size_t i) const { return selfDots_[i]; }

  /// Every row's cached ||xi||^2, by row.
  std::span<const double> selfDots() const { return selfDots_; }

  /// ||xi - xj||^2 via the cached norms.
  double squaredDistance(std::size_t i, std::size_t j) const {
    return selfDots_[i] + selfDots_[j] - 2.0 * dot(i, j);
  }

  /// xi . x for an external dense vector x of length cols().
  double dotWith(std::size_t i, std::span<const float> x) const;

  /// ||xi - x||^2 given the caller-computed ||x||^2.
  double squaredDistanceTo(std::size_t i, std::span<const float> x,
                           double xSelfDot) const {
    return selfDots_[i] + xSelfDot - 2.0 * dotWith(i, x);
  }

  /// acc += xi, densifying on the fly; acc must have cols() entries.
  void addRowTo(std::size_t i, std::span<double> acc) const;

  /// Densify row i into out (cols() floats, zero-filled first).
  void copyRowDense(std::size_t i, std::span<float> out) const;

  // --- restructuring -----------------------------------------------------

  // subset() and concat() carry each row's cached squared norm with it: a
  // norm is a function of the row's bytes alone.

  /// New dataset containing rows idx[0], idx[1], ... in that order.
  Dataset subset(std::span<const std::size_t> idx) const;

  /// Concatenate two datasets with identical cols() and storage.
  static Dataset concat(const Dataset& a, const Dataset& b);

  /// The rows of parts[0], parts[1], ... in that order, built in one
  /// allocation per array. Empty parts are skipped; the others must agree
  /// on cols() and storage. With no non-empty part the result is a copy of
  /// the last part (or an empty dataset when there is none).
  static Dataset concat(std::span<const Dataset* const> parts);

  /// Same samples with replaced labels (one +-1 label per row). Used by
  /// the multi-class decomposition to remap class pairs onto +-1.
  static Dataset relabel(Dataset ds, std::vector<std::int8_t> labels);

  // --- wire format --------------------------------------------------------

  /// Self-describing serialization of the selected rows (for Comm).
  std::vector<std::byte> pack(std::span<const std::size_t> idx) const;

  /// Serialize all rows.
  std::vector<std::byte> packAll() const;

  /// Inverse of pack().
  static Dataset unpack(std::span<const std::byte> bytes);

 private:
  void computeSelfDots();

  Storage storage_ = Storage::Dense;
  std::size_t cols_ = 0;
  std::vector<std::int8_t> labels_;
  std::vector<double> selfDots_;

  // Dense storage: rows()*cols() row-major.
  std::vector<float> dense_;

  // Sparse storage (CSR).
  std::vector<std::size_t> rowPtr_;
  std::vector<std::uint32_t> colIdx_;
  std::vector<float> sparseVals_;
};

}  // namespace casvm::data
