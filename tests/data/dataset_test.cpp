#include "casvm/data/dataset.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <random>
#include <vector>

#include "casvm/support/bytes.hpp"
#include "casvm/support/error.hpp"

namespace casvm::data {
namespace {

Dataset smallDense() {
  // 3 samples, 2 features.
  return Dataset::fromDense(2, {1.0f, 2.0f, 3.0f, 4.0f, -1.0f, 0.5f},
                            {1, -1, 1});
}

Dataset smallSparse() {
  // Same values as smallDense but stored CSR (no explicit zeros to drop).
  return Dataset::fromSparse(2, {0, 2, 4, 6}, {0, 1, 0, 1, 0, 1},
                             {1.0f, 2.0f, 3.0f, 4.0f, -1.0f, 0.5f},
                             {1, -1, 1});
}

TEST(DatasetTest, BasicShape) {
  const Dataset ds = smallDense();
  EXPECT_EQ(ds.rows(), 3u);
  EXPECT_EQ(ds.cols(), 2u);
  EXPECT_EQ(ds.storage(), Storage::Dense);
  EXPECT_FALSE(ds.empty());
  EXPECT_EQ(ds.label(0), 1);
  EXPECT_EQ(ds.label(1), -1);
  EXPECT_EQ(ds.positives(), 2u);
  EXPECT_EQ(ds.negatives(), 1u);
  EXPECT_EQ(ds.nonzeros(), 6u);
}

TEST(DatasetTest, InvalidLabelRejected) {
  EXPECT_THROW(Dataset::fromDense(1, {1.0f}, {0}), Error);
  EXPECT_THROW(Dataset::fromDense(1, {1.0f}, {2}), Error);
}

TEST(DatasetTest, SizeMismatchRejected) {
  EXPECT_THROW(Dataset::fromDense(2, {1.0f, 2.0f, 3.0f}, {1, -1}), Error);
}

TEST(DatasetTest, SparseValidation) {
  // rowPtr not ending at nnz.
  EXPECT_THROW(Dataset::fromSparse(2, {0, 1, 3}, {0, 1}, {1.0f, 2.0f},
                                   {1, -1}),
               Error);
  // Column index out of range.
  EXPECT_THROW(Dataset::fromSparse(2, {0, 1}, {5}, {1.0f}, {1}), Error);
  // Decreasing indices within a row.
  EXPECT_THROW(Dataset::fromSparse(3, {0, 2}, {2, 0}, {1.0f, 2.0f}, {1}),
               Error);
}

TEST(DatasetTest, DotDense) {
  const Dataset ds = smallDense();
  EXPECT_DOUBLE_EQ(ds.dot(0, 1), 1.0 * 3.0 + 2.0 * 4.0);
  EXPECT_DOUBLE_EQ(ds.dot(0, 0), 5.0);
}

TEST(DatasetTest, SelfDotCached) {
  const Dataset ds = smallDense();
  EXPECT_DOUBLE_EQ(ds.selfDot(0), 5.0);
  EXPECT_DOUBLE_EQ(ds.selfDot(2), 1.0 + 0.25);
}

TEST(DatasetTest, SquaredDistance) {
  const Dataset ds = smallDense();
  const double expected = (1.0 - 3.0) * (1.0 - 3.0) + (2.0 - 4.0) * (2.0 - 4.0);
  EXPECT_NEAR(ds.squaredDistance(0, 1), expected, 1e-12);
  EXPECT_NEAR(ds.squaredDistance(1, 1), 0.0, 1e-12);
}

TEST(DatasetTest, SparseMatchesDense) {
  const Dataset dense = smallDense();
  const Dataset sparse = smallSparse();
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_DOUBLE_EQ(dense.selfDot(i), sparse.selfDot(i));
    for (std::size_t j = 0; j < 3; ++j) {
      EXPECT_DOUBLE_EQ(dense.dot(i, j), sparse.dot(i, j));
      EXPECT_NEAR(dense.squaredDistance(i, j), sparse.squaredDistance(i, j),
                  1e-12);
    }
  }
}

TEST(DatasetTest, DotWithExternalVector) {
  const Dataset dense = smallDense();
  const Dataset sparse = smallSparse();
  const std::vector<float> x{2.0f, -1.0f};
  EXPECT_DOUBLE_EQ(dense.dotWith(0, x), 2.0 - 2.0);
  EXPECT_DOUBLE_EQ(sparse.dotWith(0, x), dense.dotWith(0, x));
  EXPECT_THROW(dense.dotWith(0, std::vector<float>{1.0f}), Error);
}

TEST(DatasetTest, SquaredDistanceToExternalVector) {
  const Dataset ds = smallDense();
  const std::vector<float> x{0.0f, 0.0f};
  EXPECT_NEAR(ds.squaredDistanceTo(0, x, 0.0), 5.0, 1e-12);
}

TEST(DatasetTest, AddRowToAccumulates) {
  const Dataset dense = smallDense();
  const Dataset sparse = smallSparse();
  std::vector<double> accD(2, 0.0), accS(2, 0.0);
  for (std::size_t i = 0; i < 3; ++i) {
    dense.addRowTo(i, accD);
    sparse.addRowTo(i, accS);
  }
  EXPECT_DOUBLE_EQ(accD[0], 3.0);
  EXPECT_DOUBLE_EQ(accD[1], 6.5);
  EXPECT_EQ(accD, accS);
}

TEST(DatasetTest, CopyRowDense) {
  const Dataset sparse = smallSparse();
  std::vector<float> out(2, 99.0f);
  sparse.copyRowDense(2, out);
  EXPECT_EQ(out[0], -1.0f);
  EXPECT_EQ(out[1], 0.5f);
}

TEST(DatasetTest, SubsetPreservesContent) {
  const Dataset ds = smallDense();
  const std::vector<std::size_t> idx{2, 0};
  const Dataset sub = ds.subset(idx);
  EXPECT_EQ(sub.rows(), 2u);
  EXPECT_EQ(sub.label(0), 1);
  EXPECT_DOUBLE_EQ(sub.selfDot(0), ds.selfDot(2));
  EXPECT_DOUBLE_EQ(sub.dot(0, 1), ds.dot(2, 0));
}

TEST(DatasetTest, SubsetSparse) {
  const Dataset ds = smallSparse();
  const std::vector<std::size_t> idx{1};
  const Dataset sub = ds.subset(idx);
  EXPECT_EQ(sub.rows(), 1u);
  EXPECT_EQ(sub.storage(), Storage::Sparse);
  EXPECT_DOUBLE_EQ(sub.selfDot(0), 25.0);
}

TEST(DatasetTest, SubsetOutOfRangeThrows) {
  const Dataset ds = smallDense();
  const std::vector<std::size_t> idx{5};
  EXPECT_THROW((void)ds.subset(idx), Error);
}

TEST(DatasetTest, EmptySubset) {
  const Dataset ds = smallDense();
  const Dataset sub = ds.subset(std::vector<std::size_t>{});
  EXPECT_TRUE(sub.empty());
  EXPECT_EQ(sub.cols(), 2u);
}

TEST(DatasetTest, ConcatDense) {
  const Dataset a = smallDense();
  const Dataset b = smallDense();
  const Dataset c = Dataset::concat(a, b);
  EXPECT_EQ(c.rows(), 6u);
  EXPECT_DOUBLE_EQ(c.dot(0, 3), a.dot(0, 0));
  EXPECT_EQ(c.label(4), -1);
}

TEST(DatasetTest, ConcatSparse) {
  const Dataset a = smallSparse();
  const Dataset c = Dataset::concat(a, a);
  EXPECT_EQ(c.rows(), 6u);
  EXPECT_EQ(c.storage(), Storage::Sparse);
  EXPECT_DOUBLE_EQ(c.dot(1, 4), a.selfDot(1));
}

TEST(DatasetTest, ConcatWithEmpty) {
  const Dataset a = smallDense();
  const Dataset c = Dataset::concat(Dataset(), a);
  EXPECT_EQ(c.rows(), 3u);
  const Dataset d = Dataset::concat(a, Dataset());
  EXPECT_EQ(d.rows(), 3u);
}

TEST(DatasetTest, ConcatMismatchThrows) {
  const Dataset a = smallDense();
  const Dataset b = Dataset::fromDense(3, {1, 2, 3}, {1});
  EXPECT_THROW((void)Dataset::concat(a, b), Error);
  EXPECT_THROW((void)Dataset::concat(a, smallSparse()), Error);
}

/// Random rows over `cols` features in either storage; about a third of
/// the sparse entries are absent.
Dataset randomRows(Storage storage, std::size_t rows, std::size_t cols,
                   std::mt19937& rng) {
  std::uniform_real_distribution<float> u(-3.0f, 3.0f);
  std::vector<float> dense(rows * cols);
  std::vector<std::int8_t> labels(rows);
  std::vector<std::size_t> rowPtr{0};
  std::vector<std::uint32_t> colIdx;
  std::vector<float> values;
  for (std::size_t i = 0; i < rows; ++i) {
    labels[i] = rng() % 2 == 0 ? 1 : -1;
    for (std::size_t k = 0; k < cols; ++k) {
      dense[i * cols + k] = u(rng);
      if (rng() % 3 != 0) {
        colIdx.push_back(static_cast<std::uint32_t>(k));
        values.push_back(dense[i * cols + k]);
      }
    }
    rowPtr.push_back(colIdx.size());
  }
  if (storage == Storage::Dense) {
    return Dataset::fromDense(cols, std::move(dense), std::move(labels));
  }
  return Dataset::fromSparse(cols, std::move(rowPtr), std::move(colIdx),
                             std::move(values), std::move(labels));
}

/// Every self-dot is its row's serial sum, however many rows are summed
/// side by side, and subset() and concat() carry them: merging subsets of
/// a dataset, empty ones among them, gives the rows, labels and self-dots
/// (bit for bit) of the dataset built afresh from the same rows.
TEST(DatasetTest, ManyPartConcatCarriesSelfDots) {
  std::mt19937 rng(7);
  for (const Storage storage : {Storage::Dense, Storage::Sparse}) {
    const Dataset ds = randomRows(storage, 11, 37, rng);
    for (std::size_t i = 0; i < ds.rows(); ++i) {
      EXPECT_EQ(std::bit_cast<std::uint64_t>(ds.selfDot(i)),
                std::bit_cast<std::uint64_t>(ds.dot(i, i)))
          << "row " << i;
    }
    const std::vector<std::size_t> front{0, 4, 9}, back{10, 2, 5, 7};
    const Dataset a = ds.subset(front);
    const Dataset b = ds.subset(back);
    const Dataset none = ds.subset(std::vector<std::size_t>{});
    const Dataset* const parts[] = {&none, &a, &none, &b, &a};
    const Dataset merged = Dataset::concat(parts);
    std::vector<std::size_t> order = front;
    order.insert(order.end(), back.begin(), back.end());
    order.insert(order.end(), front.begin(), front.end());
    const Dataset fresh = Dataset::unpack(ds.pack(order));
    ASSERT_EQ(merged.rows(), order.size());
    EXPECT_EQ(merged.storage(), storage);
    EXPECT_EQ(merged.packAll(), fresh.packAll());
    for (std::size_t i = 0; i < order.size(); ++i) {
      EXPECT_EQ(std::bit_cast<std::uint64_t>(merged.selfDot(i)),
                std::bit_cast<std::uint64_t>(fresh.selfDot(i)))
          << "row " << i;
    }
    const Dataset* const empties[] = {&none, &none};
    EXPECT_TRUE(Dataset::concat(empties).empty());
    EXPECT_EQ(Dataset::concat(empties).cols(), ds.cols());
  }
}

TEST(DatasetPackTest, DenseRoundTrip) {
  const Dataset ds = smallDense();
  const Dataset back = Dataset::unpack(ds.packAll());
  ASSERT_EQ(back.rows(), ds.rows());
  EXPECT_EQ(back.cols(), ds.cols());
  EXPECT_EQ(back.storage(), Storage::Dense);
  for (std::size_t i = 0; i < ds.rows(); ++i) {
    EXPECT_EQ(back.label(i), ds.label(i));
    for (std::size_t j = 0; j < ds.rows(); ++j) {
      EXPECT_DOUBLE_EQ(back.dot(i, j), ds.dot(i, j));
    }
  }
}

TEST(DatasetPackTest, SparseRoundTrip) {
  const Dataset ds = smallSparse();
  const Dataset back = Dataset::unpack(ds.packAll());
  EXPECT_EQ(back.storage(), Storage::Sparse);
  ASSERT_EQ(back.rows(), ds.rows());
  for (std::size_t i = 0; i < ds.rows(); ++i) {
    EXPECT_DOUBLE_EQ(back.selfDot(i), ds.selfDot(i));
  }
}

TEST(DatasetPackTest, PackSelectedRows) {
  const Dataset ds = smallDense();
  const std::vector<std::size_t> idx{1, 2};
  const Dataset back = Dataset::unpack(ds.pack(idx));
  ASSERT_EQ(back.rows(), 2u);
  EXPECT_EQ(back.label(0), -1);
  EXPECT_DOUBLE_EQ(back.selfDot(1), ds.selfDot(2));
}

TEST(DatasetPackTest, EmptyPackRoundTrip) {
  const Dataset ds = smallDense();
  const Dataset back = Dataset::unpack(ds.pack(std::vector<std::size_t>{}));
  EXPECT_TRUE(back.empty());
  EXPECT_EQ(back.cols(), 2u);
}

TEST(DatasetPackTest, TruncatedPayloadThrows) {
  const Dataset ds = smallDense();
  std::vector<std::byte> bytes = ds.packAll();
  bytes.resize(bytes.size() - 4);
  EXPECT_THROW((void)Dataset::unpack(bytes), Error);
}

/// A pack header: storage byte, 7 bytes of padding, rows, cols, nnz.
support::ByteWriter packHeader(Storage storage, std::uint64_t rows,
                               std::uint64_t cols, std::uint64_t nnz) {
  support::ByteWriter w;
  w.scalar(static_cast<std::uint8_t>(storage));
  w.zeros(7);
  w.scalar(rows);
  w.scalar(cols);
  w.scalar(nnz);
  return w;
}

TEST(DatasetPackTest, HostileColumnCountThrows) {
  // Two rows of 2^63 columns: rows * cols wraps to 0, so a decoder that
  // multiplied would read no values and then index rows of 2^63 floats.
  support::ByteWriter w =
      packHeader(Storage::Dense, 2, std::uint64_t{1} << 63, 0);
  w.scalar<std::int8_t>(1);
  w.scalar<std::int8_t>(-1);
  const std::vector<std::byte> bytes = w.take();
  ASSERT_EQ(bytes.size(), 34u);
  EXPECT_THROW((void)Dataset::unpack(bytes), Error);
  // fromDense's own shape check divides rather than multiplies.
  EXPECT_THROW((void)Dataset::fromDense(std::size_t{1} << 63, {}, {1, -1}),
               Error);
}

TEST(DatasetPackTest, HostileNonzeroCountThrows) {
  // A sparse header whose nonzero count no payload could hold must be
  // rejected before it sizes the index and value buffers.
  support::ByteWriter w =
      packHeader(Storage::Sparse, 1, 4, std::uint64_t{1} << 62);
  w.scalar<std::int8_t>(1);
  w.scalar<std::uint64_t>(0);  // the row is empty
  EXPECT_THROW((void)Dataset::unpack(w.take()), Error);
}

TEST(DatasetTest, SampleBytesPositive) {
  EXPECT_GT(smallDense().sampleBytes(), 0u);
  EXPECT_GT(smallSparse().sampleBytes(), 0u);
}

}  // namespace
}  // namespace casvm::data
