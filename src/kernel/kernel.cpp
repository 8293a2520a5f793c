#include "casvm/kernel/kernel.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "casvm/kernel/exp.hpp"
#include "casvm/kernel/tile_kernel.hpp"
#include "casvm/support/error.hpp"

namespace casvm::kernel {

std::string kernelName(KernelType type) {
  switch (type) {
    case KernelType::Linear: return "linear";
    case KernelType::Polynomial: return "polynomial";
    case KernelType::Gaussian: return "gaussian";
    case KernelType::Sigmoid: return "sigmoid";
  }
  return "unknown";
}

double Kernel::fromDot(double dot, double selfI, double selfJ) const {
  switch (params_.type) {
    case KernelType::Linear:
      return dot;
    case KernelType::Polynomial:
      return std::pow(params_.a * dot + params_.r, params_.degree);
    case KernelType::Gaussian: {
      const double d2 = selfI + selfJ - 2.0 * dot;
      // Guard tiny negative values from floating-point cancellation.
      return kernel::exp(-params_.gamma * (d2 > 0.0 ? d2 : 0.0));
    }
    case KernelType::Sigmoid:
      return std::tanh(params_.a * dot + params_.r);
  }
  throw Error("unknown kernel type");
}

double Kernel::eval(const data::Dataset& ds, std::size_t i,
                    std::size_t j) const {
  return fromDot(ds.dot(i, j), ds.selfDot(i), ds.selfDot(j));
}

double Kernel::evalWith(const data::Dataset& ds, std::size_t i,
                        std::span<const float> x, double xSelfDot) const {
  return fromDot(ds.dotWith(i, x), ds.selfDot(i), xSelfDot);
}

double Kernel::evalCross(const data::Dataset& a, std::size_t i,
                         const data::Dataset& b, std::size_t j) const {
  CASVM_CHECK(a.cols() == b.cols(), "cross-kernel feature counts differ");
  double dot = 0.0;
  if (b.storage() == data::Storage::Dense) {
    dot = a.dotWith(i, b.denseRow(j));
  } else if (a.storage() == data::Storage::Dense) {
    dot = b.dotWith(j, a.denseRow(i));
  } else {
    // Sparse x sparse across datasets: merge join.
    const auto ia = a.sparseIndices(i);
    const auto va = a.sparseValues(i);
    const auto ib = b.sparseIndices(j);
    const auto vb = b.sparseValues(j);
    std::size_t pa = 0, pb = 0;
    while (pa < ia.size() && pb < ib.size()) {
      if (ia[pa] == ib[pb]) {
        dot += double(va[pa]) * double(vb[pb]);
        ++pa;
        ++pb;
      } else if (ia[pa] < ib[pb]) {
        ++pa;
      } else {
        ++pb;
      }
    }
  }
  return fromDot(dot, a.selfDot(i), b.selfDot(j));
}

double Kernel::evalVectors(std::span<const float> x, double xSelfDot,
                           std::span<const float> z, double zSelfDot) const {
  CASVM_CHECK(x.size() == z.size(), "vector lengths differ");
  double dot = 0.0;
  for (std::size_t k = 0; k < x.size(); ++k) {
    dot += double(x[k]) * double(z[k]);
  }
  return fromDot(dot, xSelfDot, zSelfDot);
}

namespace {

/// Scatter sparse row i into the dense buffer `xd` (resized to cols()).
void scatterSparseRow(const data::Dataset& ds, std::size_t i,
                      std::vector<float>& xd) {
  xd.assign(ds.cols(), 0.0f);
  const auto idx = ds.sparseIndices(i);
  const auto val = ds.sparseValues(i);
  for (std::size_t p = 0; p < idx.size(); ++p) xd[idx[p]] = val[p];
}

/// out[j] = xi . xj for j in [0, m), CSR storage: row i is scattered into a
/// dense buffer once, then each row j streams its nonzeros against it. The
/// nonzero products accumulate in the same ascending-column order as the
/// sparse-sparse merge join, so sums are bitwise-identical to Dataset::dot.
void sparseDotRow(const data::Dataset& ds, std::size_t i,
                  std::span<double> out, std::vector<float>& xd) {
  scatterSparseRow(ds, i, xd);
  const std::size_t m = ds.rows();
  for (std::size_t j = 0; j < m; ++j) {
    const auto ji = ds.sparseIndices(j);
    const auto jv = ds.sparseValues(j);
    double acc = 0.0;
    for (std::size_t p = 0; p < ji.size(); ++p) {
      acc += double(jv[p]) * double(xd[ji[p]]);
    }
    out[j] = acc;
  }
}

}  // namespace

// The workspace keeps the dense matrix in the blocked k-major tiling of
// kernel::tile (see tile_kernel.hpp); fills run through tile::dotFn(), the
// same runtime-dispatched micro-kernel the Nyström factor and the serve
// engine's compiled models use.

void RowWorkspace::bind(const data::Dataset& ds) {
  if (bound_ == &ds && rows_ == ds.rows() && cols_ == ds.cols()) return;
  bound_ = &ds;
  rows_ = ds.rows();
  cols_ = ds.cols();
  if (ds.storage() == data::Storage::Dense) {
    tile::pack(ds, tiles_);
    xd_.resize(tile::kMaxQueries * cols_);
  } else {
    tiles_.clear();
    xd_.clear();
  }
}

void Kernel::transformDots(std::span<const double> selfDots, double selfX,
                           std::span<double> out) const {
  CASVM_CHECK(out.size() >= selfDots.size(),
              "kernel transform output is shorter than its norms");
  const std::size_t m = selfDots.size();
  switch (params_.type) {
    case KernelType::Linear:
      break;
    case KernelType::Polynomial:
      for (std::size_t j = 0; j < m; ++j) {
        out[j] = std::pow(params_.a * out[j] + params_.r, params_.degree);
      }
      break;
    case KernelType::Gaussian:
      // The exponents first, then one vector exp pass over them: the same
      // operations as fromDot, element for element. eval adds the two
      // self-dots in this order and evalWith (row j first) in the other;
      // IEEE addition is commutative, so both match bit for bit.
      for (std::size_t j = 0; j < m; ++j) {
        const double d2 = selfX + selfDots[j] - 2.0 * out[j];
        out[j] = -params_.gamma * (d2 > 0.0 ? d2 : 0.0);
      }
      expRowFn()(out.data(), m);
      break;
    case KernelType::Sigmoid:
      for (std::size_t j = 0; j < m; ++j) {
        out[j] = std::tanh(params_.a * out[j] + params_.r);
      }
      break;
  }
}

// A dense row is the column against the row's own bytes.
void Kernel::row(const data::Dataset& ds, std::size_t i, std::span<double> out,
                 RowWorkspace& ws) const {
  if (ds.storage() == data::Storage::Dense) {
    rowWith(ds, ds.denseRow(i), ds.selfDot(i), out, ws);
    return;
  }
  CASVM_CHECK(out.size() == ds.rows(), "kernel row output has wrong length");
  ws.bind(ds);
  sparseDotRow(ds, i, out, ws.scatter_);
  transformDots(ds.selfDots(), ds.selfDot(i), out);
}

void Kernel::rows(const data::Dataset& ds, std::span<const std::size_t> idx,
                  std::span<const std::span<double>> outs,
                  RowWorkspace& ws) const {
  CASVM_CHECK(idx.size() == outs.size(), "one output per kernel row");
  if (ds.storage() == data::Storage::Dense) {
    CASVM_CHECK(idx.size() <= tile::kMaxQueries, "too many rows for one pass");
    std::span<const float> xs[tile::kMaxQueries];
    double selfDots[tile::kMaxQueries];
    for (std::size_t t = 0; t < idx.size(); ++t) {
      xs[t] = ds.denseRow(idx[t]);
      selfDots[t] = ds.selfDot(idx[t]);
    }
    rowsWith(ds, std::span(xs, idx.size()), std::span(selfDots, idx.size()),
             outs, ws);
    return;
  }
  for (std::size_t t = 0; t < idx.size(); ++t) row(ds, idx[t], outs[t], ws);
}

void Kernel::transformSubset(const data::Dataset& ds, double selfX,
                             std::span<const std::size_t> subset,
                             std::span<double> out) const {
  switch (params_.type) {
    case KernelType::Linear:
      break;
    case KernelType::Polynomial:
      for (std::size_t j : subset) {
        out[j] = std::pow(params_.a * out[j] + params_.r, params_.degree);
      }
      break;
    case KernelType::Gaussian: {
      // The scattered exponents are gathered a block at a time for the
      // vector exp pass (exp() bit for bit, several times its speed).
      constexpr std::size_t kBlock = 64;
      double block[kBlock];
      const ExpRowFn expRow = expRowFn();
      for (std::size_t b = 0; b < subset.size(); b += kBlock) {
        const std::size_t n = std::min(kBlock, subset.size() - b);
        for (std::size_t t = 0; t < n; ++t) {
          const std::size_t j = subset[b + t];
          const double d2 = selfX + ds.selfDot(j) - 2.0 * out[j];
          block[t] = -params_.gamma * (d2 > 0.0 ? d2 : 0.0);
        }
        expRow(block, n);
        for (std::size_t t = 0; t < n; ++t) out[subset[b + t]] = block[t];
      }
      break;
    }
    case KernelType::Sigmoid:
      for (std::size_t j : subset) {
        out[j] = std::tanh(params_.a * out[j] + params_.r);
      }
      break;
  }
}

void Kernel::row(const data::Dataset& ds, std::size_t i,
                 std::span<const std::size_t> subset, std::span<double> out,
                 RowWorkspace& ws) const {
  CASVM_CHECK(out.size() == ds.rows(), "kernel row output has wrong length");
  ws.bind(ds);
  if (ds.storage() == data::Storage::Dense) {
    const std::span<const float> xi = ds.denseRow(i);
    const std::size_t n = ds.cols();
    for (std::size_t j : subset) {
      const float* rj = ds.denseRow(j).data();
      double acc = 0.0;
      for (std::size_t k = 0; k < n; ++k) acc += double(xi[k]) * double(rj[k]);
      out[j] = acc;
    }
  } else {
    std::vector<float>& xd = ws.scatter_;
    scatterSparseRow(ds, i, xd);
    for (std::size_t j : subset) {
      const auto ji = ds.sparseIndices(j);
      const auto jv = ds.sparseValues(j);
      double acc = 0.0;
      for (std::size_t p = 0; p < ji.size(); ++p) {
        acc += double(jv[p]) * double(xd[ji[p]]);
      }
      out[j] = acc;
    }
  }
  transformSubset(ds, ds.selfDot(i), subset, out);
}

void Kernel::rowWith(const data::Dataset& ds, std::span<const float> x,
                     double xSelfDot, std::span<const std::size_t> subset,
                     std::span<double> out) const {
  CASVM_CHECK(out.size() == ds.rows(), "kernel column output has wrong length");
  CASVM_CHECK(x.size() == ds.cols(), "external vector has wrong length");
  for (std::size_t j : subset) out[j] = ds.dotWith(j, x);
  transformSubset(ds, xSelfDot, subset, out);
}

void Kernel::rowWith(const data::Dataset& ds, std::span<const float> x,
                     double xSelfDot, std::span<double> out,
                     RowWorkspace& ws) const {
  const std::span<const float> xs[] = {x};
  const double selfDots[] = {xSelfDot};
  const std::span<double> outs[] = {out};
  rowsWith(ds, xs, selfDots, outs, ws);
}

void Kernel::rowsWith(const data::Dataset& ds,
                      std::span<const std::span<const float>> xs,
                      std::span<const double> xSelfDots,
                      std::span<const std::span<double>> outs,
                      RowWorkspace& ws) const {
  const std::size_t q = xs.size();
  CASVM_CHECK(q >= 1 && q <= tile::kMaxQueries && xSelfDots.size() == q &&
                  outs.size() == q,
              "one to four queries, each with a norm and an output");
  for (std::size_t t = 0; t < q; ++t) {
    CASVM_CHECK(outs[t].size() == ds.rows(),
                "kernel column output has wrong length");
    CASVM_CHECK(xs[t].size() == ds.cols(), "external vector has wrong length");
  }
  ws.bind(ds);
  if (ds.storage() == data::Storage::Dense) {
    double* out[tile::kMaxQueries];
    for (std::size_t t = 0; t < q; ++t) {
      std::copy(xs[t].begin(), xs[t].end(), ws.xd_.begin() + t * ws.cols_);
      out[t] = outs[t].data();
    }
    tile::dotFn()(ws.tiles_.data(), ws.xd_.data(), q, ws.rows_, ws.cols_, out);
  } else {
    for (std::size_t t = 0; t < q; ++t) {
      for (std::size_t j = 0; j < ds.rows(); ++j) {
        outs[t][j] = ds.dotWith(j, xs[t]);
      }
    }
  }
  for (std::size_t t = 0; t < q; ++t) {
    transformDots(ds.selfDots(), xSelfDots[t], outs[t]);
  }
}

void Kernel::diagonal(const data::Dataset& ds, std::span<double> out) const {
  CASVM_CHECK(out.size() == ds.rows(), "kernel diagonal output has wrong length");
  const std::size_t m = ds.rows();
  // selfDot accumulates in the same order as dot(j, j), so every branch
  // below is bitwise-identical to eval(ds, j, j).
  switch (params_.type) {
    case KernelType::Linear:
      for (std::size_t j = 0; j < m; ++j) out[j] = ds.selfDot(j);
      break;
    case KernelType::Polynomial:
      for (std::size_t j = 0; j < m; ++j) {
        out[j] = std::pow(params_.a * ds.selfDot(j) + params_.r, params_.degree);
      }
      break;
    case KernelType::Gaussian:
      // d2 = selfDot + selfDot - 2*dot(j, j) == 0 exactly.
      for (std::size_t j = 0; j < m; ++j) out[j] = 1.0;
      break;
    case KernelType::Sigmoid:
      for (std::size_t j = 0; j < m; ++j) {
        out[j] = std::tanh(params_.a * ds.selfDot(j) + params_.r);
      }
      break;
  }
}

void squaredDistances(const data::Dataset& ds, std::span<const float> x,
                      double xSelfDot, std::span<double> out,
                      RowWorkspace& ws) {
  Kernel(KernelParams::linear()).rowWith(ds, x, xSelfDot, out, ws);
  // Same operand order as Dataset::squaredDistanceTo.
  for (std::size_t j = 0; j < out.size(); ++j) {
    out[j] = ds.selfDot(j) + xSelfDot - 2.0 * out[j];
  }
}

double Kernel::flopsPerEval(const data::Dataset& ds) const {
  // Dominated by the dot product: ~2 flops per stored nonzero per row pair.
  const double avgNnzPerRow =
      ds.rows() == 0 ? 0.0
                     : static_cast<double>(ds.nonzeros()) /
                           static_cast<double>(ds.rows());
  return 2.0 * avgNnzPerRow + 4.0;
}

}  // namespace casvm::kernel
