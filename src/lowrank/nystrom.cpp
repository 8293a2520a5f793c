#include "casvm/lowrank/nystrom.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "casvm/kernel/tile_kernel.hpp"
#include "casvm/support/bytes.hpp"
#include "casvm/support/error.hpp"

namespace casvm::lowrank {

void jacobiEigenSymmetric(std::vector<double>& a, std::size_t s,
                          std::vector<double>& eigenvalues,
                          std::vector<double>& vectors) {
  CASVM_CHECK(a.size() == s * s, "jacobi: matrix size mismatch");
  vectors.assign(s * s, 0.0);
  for (std::size_t i = 0; i < s; ++i) vectors[i * s + i] = 1.0;

  // Cyclic sweeps in fixed (p, q) order: the rotation sequence — and with
  // it every rounding — depends only on the input bytes, so identical
  // matrices decompose identically on every rank.
  constexpr int kMaxSweeps = 64;
  for (int sweep = 0; sweep < kMaxSweeps; ++sweep) {
    double off = 0.0;
    for (std::size_t p = 0; p < s; ++p) {
      for (std::size_t q = p + 1; q < s; ++q) {
        off += a[p * s + q] * a[p * s + q];
      }
    }
    if (off <= 1e-30) break;
    for (std::size_t p = 0; p + 1 < s; ++p) {
      for (std::size_t q = p + 1; q < s; ++q) {
        const double apq = a[p * s + q];
        if (std::abs(apq) <= 1e-300) continue;
        const double theta = (a[q * s + q] - a[p * s + p]) / (2.0 * apq);
        const double t =
            (theta >= 0.0 ? 1.0 : -1.0) /
            (std::abs(theta) + std::sqrt(theta * theta + 1.0));
        const double c = 1.0 / std::sqrt(t * t + 1.0);
        const double sn = t * c;
        // Rotate rows/columns p and q of `a`.
        for (std::size_t k = 0; k < s; ++k) {
          const double akp = a[k * s + p];
          const double akq = a[k * s + q];
          a[k * s + p] = c * akp - sn * akq;
          a[k * s + q] = sn * akp + c * akq;
        }
        for (std::size_t k = 0; k < s; ++k) {
          const double apk = a[p * s + k];
          const double aqk = a[q * s + k];
          a[p * s + k] = c * apk - sn * aqk;
          a[q * s + k] = sn * apk + c * aqk;
        }
        // Accumulate the rotation into the eigenvector columns.
        for (std::size_t k = 0; k < s; ++k) {
          const double vkp = vectors[k * s + p];
          const double vkq = vectors[k * s + q];
          vectors[k * s + p] = c * vkp - sn * vkq;
          vectors[k * s + q] = sn * vkp + c * vkq;
        }
      }
    }
  }

  eigenvalues.resize(s);
  for (std::size_t i = 0; i < s; ++i) eigenvalues[i] = a[i * s + i];

  // Sort descending by eigenvalue; ties keep the lower original column
  // first, so the ordering is total and deterministic.
  std::vector<std::size_t> order(s);
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t x, std::size_t y) {
                     return eigenvalues[x] > eigenvalues[y];
                   });
  std::vector<double> sortedEv(s);
  std::vector<double> sortedVec(s * s);
  for (std::size_t t = 0; t < s; ++t) {
    sortedEv[t] = eigenvalues[order[t]];
    for (std::size_t k = 0; k < s; ++k) {
      sortedVec[k * s + t] = vectors[k * s + order[t]];
    }
  }
  eigenvalues = std::move(sortedEv);
  vectors = std::move(sortedVec);
}

NystromFactor NystromFactor::build(const kernel::Kernel& kern,
                                   const data::Dataset& ds,
                                   const NystromOptions& opts) {
  const std::vector<std::size_t> indices =
      selectLandmarks(ds, opts.landmarks, opts.strategy, opts.seed);
  return buildWithLandmarks(kern, ds, extractLandmarks(ds, indices),
                            opts.eigenFloor);
}

NystromFactor NystromFactor::buildWithLandmarks(const kernel::Kernel& kern,
                                                const data::Dataset& ds,
                                                LandmarkSet landmarks,
                                                double eigenFloor) {
  CASVM_CHECK(landmarks.count() > 0, "nystrom: empty landmark set");
  CASVM_CHECK(landmarks.features == ds.cols(),
              "nystrom: landmark feature count does not match the dataset");
  CASVM_CHECK(eigenFloor >= 0.0, "nystrom: eigenvalue floor must be >= 0");

  NystromFactor f;
  f.m_ = ds.rows();
  f.landmarks_ = std::move(landmarks);
  const std::size_t L = f.landmarks_.count();

  // Landmark Gram matrix K_LL (symmetric bitwise: evalVectors' serial dot
  // is commutative term by term).
  std::vector<double> kll(L * L);
  for (std::size_t p = 0; p < L; ++p) {
    for (std::size_t q = 0; q < L; ++q) {
      kll[p * L + q] =
          kern.evalVectors(f.landmarks_.row(p), f.landmarks_.selfDots[p],
                           f.landmarks_.row(q), f.landmarks_.selfDots[q]);
    }
  }

  std::vector<double> ev, vec;
  jacobiEigenSymmetric(kll, L, ev, vec);

  // Pseudo-inverse square root: truncate eigenpairs below the relative
  // floor (and any non-positive ones — K_LL is PSD up to rounding).
  const double lambdaMax = ev.empty() ? 0.0 : ev[0];
  const double floor = lambdaMax > 0.0 ? eigenFloor * lambdaMax : 0.0;
  std::size_t r = 0;
  while (r < L && ev[r] > floor && ev[r] > 0.0) ++r;
  if (r == 0) {
    // Fully degenerate landmark Gram matrix (e.g. all-zero rows): keep a
    // single zero column so downstream shapes stay valid; K̃ is then 0 and
    // the solver's eta floor takes over.
    f.r_ = 1;
    f.w_.assign(L, 0.0);
  } else {
    f.r_ = r;
    f.w_.assign(L * r, 0.0);
    for (std::size_t t = 0; t < r; ++t) {
      const double inv = 1.0 / std::sqrt(ev[t]);
      for (std::size_t l = 0; l < L; ++l) {
        f.w_[l * r + t] = vec[l * L + t] * inv;
      }
    }
  }

  // Z = K_{m,L} W, accumulated in doubles column-of-K at a time: each
  // landmark's kernel column comes from one tiled rowWith() fill, then
  // rank-1 updates into the m×r accumulator. Ascending-l order fixes the
  // accumulation rounding.
  const std::size_t m = f.m_;
  const std::size_t rr = f.r_;
  std::vector<double> zd(m * rr, 0.0);
  std::vector<double> col(m);
  kernel::RowWorkspace ws;
  for (std::size_t l = 0; l < L; ++l) {
    kern.rowWith(ds, f.landmarks_.row(l), f.landmarks_.selfDots[l], col, ws);
    const double* wl = &f.w_[l * rr];
    for (std::size_t j = 0; j < m; ++j) {
      const double cj = col[j];
      double* zj = &zd[j * rr];
      for (std::size_t t = 0; t < rr; ++t) zj[t] += cj * wl[t];
    }
  }

  // Pack Z into the 16-row k-major float tiling (tail block zero-padded) —
  // the same layout tile::dotFn streams, so an approximate row fill is one
  // tile-dot over rr columns.
  f.tiles_.assign(kernel::tile::blockCount(m) * rr * kernel::tile::kRows,
                  0.0f);
  for (std::size_t j = 0; j < m; ++j) {
    const std::size_t block = j / kernel::tile::kRows;
    const std::size_t lane = j % kernel::tile::kRows;
    for (std::size_t k = 0; k < rr; ++k) {
      f.tiles_[(block * rr + k) * kernel::tile::kRows + lane] =
          static_cast<float>(zd[j * rr + k]);
    }
  }
  f.xd_.resize(2 * rr);
  return f;
}

void NystromFactor::widenRow(std::size_t i, std::size_t slot) {
  const std::size_t block = i / kernel::tile::kRows;
  const std::size_t lane = i % kernel::tile::kRows;
  double* xd = xd_.data() + slot * r_;
  for (std::size_t k = 0; k < r_; ++k) {
    xd[k] = double(tiles_[(block * r_ + k) * kernel::tile::kRows + lane]);
  }
}

void NystromFactor::fillRow(std::size_t i, std::span<double> out) {
  CASVM_CHECK(i < m_, "nystrom row out of range");
  CASVM_CHECK(out.size() == m_, "nystrom row output has wrong length");
  widenRow(i);
  kernel::tile::dotFn()(tiles_.data(), xd_.data(), m_, r_, out.data());
}

void NystromFactor::fillRows(std::size_t i, std::size_t j,
                             std::span<double> outI, std::span<double> outJ) {
  CASVM_CHECK(i < m_ && j < m_, "nystrom row out of range");
  CASVM_CHECK(outI.size() == m_ && outJ.size() == m_,
              "nystrom row output has wrong length");
  widenRow(i, 0);
  widenRow(j, 1);
  kernel::tile::dot2Fn()(tiles_.data(), xd_.data(), xd_.data() + r_, m_, r_,
                         outI.data(), outJ.data());
}

void NystromFactor::fillRowSubset(std::size_t i,
                                  std::span<const std::size_t> active,
                                  std::span<double> out) {
  CASVM_CHECK(i < m_, "nystrom row out of range");
  CASVM_CHECK(out.size() == m_, "nystrom row output has wrong length");
  widenRow(i);
  // Serial ascending-k accumulation per row: bitwise-identical to the
  // tile-dot's per-row sum, so partial and full fills agree.
  for (std::size_t j : active) {
    const std::size_t block = j / kernel::tile::kRows;
    const std::size_t lane = j % kernel::tile::kRows;
    double acc = 0.0;
    for (std::size_t k = 0; k < r_; ++k) {
      acc += xd_[k] *
             double(tiles_[(block * r_ + k) * kernel::tile::kRows + lane]);
    }
    out[j] = acc;
  }
}

void NystromFactor::fillDiagonal(std::span<double> out) {
  CASVM_CHECK(out.size() == m_, "nystrom diagonal output has wrong length");
  for (std::size_t j = 0; j < m_; ++j) {
    const std::size_t block = j / kernel::tile::kRows;
    const std::size_t lane = j % kernel::tile::kRows;
    double acc = 0.0;
    for (std::size_t k = 0; k < r_; ++k) {
      const double z =
          double(tiles_[(block * r_ + k) * kernel::tile::kRows + lane]);
      acc += z * z;
    }
    out[j] = acc;
  }
}

void NystromFactor::map(const kernel::Kernel& kern, std::span<const float> x,
                        double xSelfDot, std::span<double> z) const {
  CASVM_CHECK(x.size() == landmarks_.features,
              "nystrom map: vector has wrong length");
  CASVM_CHECK(z.size() == r_, "nystrom map: output has wrong length");
  std::fill(z.begin(), z.end(), 0.0);
  // z = Wᵀ k_L(x), ascending-l accumulation: every rank that receives the
  // same x bytes computes the same z bitwise (W and the landmark set are
  // replicated).
  for (std::size_t l = 0; l < landmarks_.count(); ++l) {
    const double kl = kern.evalVectors(landmarks_.row(l),
                                       landmarks_.selfDots[l], x, xSelfDot);
    const double* wl = &w_[l * r_];
    for (std::size_t t = 0; t < r_; ++t) z[t] += kl * wl[t];
  }
}

// Cache-line aligned: the serial accumulation loop below is the hot loop
// of the Nyström Dis-SMO gradient, and its speed depends on placement.
// In one GCC 12 Release build the loop straddled two 64-byte lines and ran
// that solve 20-40% slower on a 4-core Xeon than with the function start
// aligned. The attribute only fixes where the function starts; where the
// loop lands inside it is the compiler's, and no other compiler was
// measured.
[[gnu::aligned(64)]] double NystromFactor::zdot(
    std::size_t i, std::span<const double> z) const {
  CASVM_CHECK(i < m_, "nystrom zdot row out of range");
  CASVM_CHECK(z.size() == r_, "nystrom zdot: vector has wrong length");
  const std::size_t block = i / kernel::tile::kRows;
  const std::size_t lane = i % kernel::tile::kRows;
  double acc = 0.0;
  for (std::size_t k = 0; k < r_; ++k) {
    acc += double(tiles_[(block * r_ + k) * kernel::tile::kRows + lane]) *
           z[k];
  }
  return acc;
}

std::vector<std::byte> NystromFactor::encode() const {
  support::ByteWriter w;
  w.scalar<std::uint64_t>(m_);
  w.scalar<std::uint64_t>(r_);
  w.scalar<std::uint64_t>(landmarks_.count());
  w.scalar<std::uint64_t>(landmarks_.features);
  w.array(landmarks_.rows);
  w.array(landmarks_.selfDots);
  w.array(w_);
  w.array(tiles_);
  return w.take();
}

NystromFactor NystromFactor::decode(std::span<const std::byte> bytes) {
  support::ByteReader r(bytes, "nystrom decode");
  NystromFactor f;
  f.m_ = r.scalar<std::uint64_t>();
  f.r_ = r.scalar<std::uint64_t>();
  const auto L = r.scalar<std::uint64_t>();
  f.landmarks_.features = r.scalar<std::uint64_t>();
  r.check(f.r_ > 0 && L > 0, "degenerate shape");
  f.landmarks_.rows =
      r.array<float>(r.count(L, f.landmarks_.features, sizeof(float)));
  f.landmarks_.selfDots = r.array<double>(L);
  f.w_ = r.array<double>(r.count(L, f.r_, sizeof(double)));
  // blockCount(m_) without the m_ + 15 that a hostile m_ could wrap.
  const std::uint64_t blocks =
      f.m_ / kernel::tile::kRows + (f.m_ % kernel::tile::kRows != 0);
  f.tiles_ = r.array<float>(
      r.count(blocks, f.r_ * kernel::tile::kRows, sizeof(float)));
  r.expectEnd();
  f.xd_.resize(2 * f.r_);
  return f;
}

}  // namespace casvm::lowrank
