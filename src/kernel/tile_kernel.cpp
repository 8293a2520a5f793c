#include "casvm/kernel/tile_kernel.hpp"

#include <algorithm>
#include <cstring>

#if defined(__x86_64__) && defined(__GNUC__)
#define CASVM_TILE_X86 1
#include <immintrin.h>
#endif

namespace casvm::kernel::tile {

void pack(const data::Dataset& ds, std::vector<float>& tiles) {
  const std::size_t m = ds.rows(), n = ds.cols();
  const std::size_t blocks = blockCount(m);
  tiles.assign(blocks * n * kRows, 0.0f);
  for (std::size_t j = 0; j < m; ++j) {
    const float* r = ds.denseRow(j).data();
    float* base = tiles.data() + (j / kRows) * n * kRows + j % kRows;
    for (std::size_t k = 0; k < n; ++k) base[k * kRows] = r[k];
  }
}

void dotPortable(const float* tiles, const double* xd, std::size_t m,
                 std::size_t n, double* out) {
  const std::size_t blocks = blockCount(m);
  for (std::size_t b = 0; b < blocks; ++b) {
    const float* t = tiles + b * n * kRows;
    double acc[kRows] = {};
    for (std::size_t k = 0; k < n; ++k) {
      const double x = xd[k];
      for (std::size_t l = 0; l < kRows; ++l) {
        acc[l] += x * double(t[k * kRows + l]);
      }
    }
    const std::size_t base = b * kRows;
    const std::size_t cnt = std::min(kRows, m - base);
    std::memcpy(out + base, acc, cnt * sizeof(double));
  }
}

void dot2Portable(const float* tiles, const double* x0, const double* x1,
                  std::size_t m, std::size_t n, double* out0, double* out1) {
  const std::size_t blocks = blockCount(m);
  for (std::size_t b = 0; b < blocks; ++b) {
    const float* t = tiles + b * n * kRows;
    double acc0[kRows] = {};
    double acc1[kRows] = {};
    for (std::size_t k = 0; k < n; ++k) {
      const double a = x0[k];
      const double c = x1[k];
      for (std::size_t l = 0; l < kRows; ++l) {
        const double v = double(t[k * kRows + l]);
        acc0[l] += a * v;
        acc1[l] += c * v;
      }
    }
    const std::size_t base = b * kRows;
    const std::size_t cnt = std::min(kRows, m - base);
    std::memcpy(out0 + base, acc0, cnt * sizeof(double));
    std::memcpy(out1 + base, acc1, cnt * sizeof(double));
  }
}

namespace {

#ifdef CASVM_TILE_X86
// Multiplies must stay separate from adds (no FMA contraction) so lane
// rounding matches the scalar path exactly.
#define CASVM_AVX2_INLINE __attribute__((target("avx2"), always_inline)) inline

/// Lanes 4q..4q+3 of tile row tk, widened to double.
CASVM_AVX2_INLINE __m256d lanes(const float* tk, int q) {
  return _mm256_cvtps_pd(_mm_loadu_ps(tk + 4 * q));
}

/// Store one block's four accumulators: all 16 rows, or the first `cnt`
/// of a ragged tail block.
CASVM_AVX2_INLINE void storeBlock(double* out, std::size_t cnt, __m256d a0,
                                  __m256d a1, __m256d a2, __m256d a3) {
  double buf[kRows];
  double* dst = cnt >= kRows ? out : buf;
  _mm256_storeu_pd(dst, a0);
  _mm256_storeu_pd(dst + 4, a1);
  _mm256_storeu_pd(dst + 8, a2);
  _mm256_storeu_pd(dst + 12, a3);
  if (dst == buf) std::memcpy(out, buf, cnt * sizeof(double));
}

// One query sweeps two blocks at a time: eight independent accumulator
// chains in flight instead of four. An odd last block sweeps alone.
__attribute__((target("avx2")))
void dotAvx2(const float* tiles, const double* xd, std::size_t m,
             std::size_t n, double* out) {
  const std::size_t blocks = blockCount(m);
  const std::size_t stride = n * kRows;
  std::size_t b = 0;
  for (; b + 2 <= blocks; b += 2) {
    const float* t = tiles + b * stride;
    const float* u = t + stride;
    __m256d a0 = _mm256_setzero_pd(), a1 = _mm256_setzero_pd();
    __m256d a2 = _mm256_setzero_pd(), a3 = _mm256_setzero_pd();
    __m256d c0 = _mm256_setzero_pd(), c1 = _mm256_setzero_pd();
    __m256d c2 = _mm256_setzero_pd(), c3 = _mm256_setzero_pd();
    for (std::size_t k = 0; k < n; ++k) {
      const __m256d x = _mm256_broadcast_sd(xd + k);
      const float* tk = t + k * kRows;
      const float* uk = u + k * kRows;
      a0 = _mm256_add_pd(a0, _mm256_mul_pd(x, lanes(tk, 0)));
      a1 = _mm256_add_pd(a1, _mm256_mul_pd(x, lanes(tk, 1)));
      a2 = _mm256_add_pd(a2, _mm256_mul_pd(x, lanes(tk, 2)));
      a3 = _mm256_add_pd(a3, _mm256_mul_pd(x, lanes(tk, 3)));
      c0 = _mm256_add_pd(c0, _mm256_mul_pd(x, lanes(uk, 0)));
      c1 = _mm256_add_pd(c1, _mm256_mul_pd(x, lanes(uk, 1)));
      c2 = _mm256_add_pd(c2, _mm256_mul_pd(x, lanes(uk, 2)));
      c3 = _mm256_add_pd(c3, _mm256_mul_pd(x, lanes(uk, 3)));
    }
    const std::size_t base = b * kRows;
    storeBlock(out + base, kRows, a0, a1, a2, a3);
    storeBlock(out + base + kRows, m - base - kRows, c0, c1, c2, c3);
  }
  if (b < blocks) {
    const float* t = tiles + b * stride;
    __m256d a0 = _mm256_setzero_pd(), a1 = _mm256_setzero_pd();
    __m256d a2 = _mm256_setzero_pd(), a3 = _mm256_setzero_pd();
    for (std::size_t k = 0; k < n; ++k) {
      const __m256d x = _mm256_broadcast_sd(xd + k);
      const float* tk = t + k * kRows;
      a0 = _mm256_add_pd(a0, _mm256_mul_pd(x, lanes(tk, 0)));
      a1 = _mm256_add_pd(a1, _mm256_mul_pd(x, lanes(tk, 1)));
      a2 = _mm256_add_pd(a2, _mm256_mul_pd(x, lanes(tk, 2)));
      a3 = _mm256_add_pd(a3, _mm256_mul_pd(x, lanes(tk, 3)));
    }
    const std::size_t base = b * kRows;
    storeBlock(out + base, m - base, a0, a1, a2, a3);
  }
}

// Two queries share each widened tile lane group: eight accumulators, two
// broadcasts and one lane group fit AVX2's sixteen registers.
__attribute__((target("avx2")))
void dot2Avx2(const float* tiles, const double* x0, const double* x1,
              std::size_t m, std::size_t n, double* out0, double* out1) {
  const std::size_t blocks = blockCount(m);
  for (std::size_t b = 0; b < blocks; ++b) {
    const float* t = tiles + b * n * kRows;
    __m256d a0 = _mm256_setzero_pd(), a1 = _mm256_setzero_pd();
    __m256d a2 = _mm256_setzero_pd(), a3 = _mm256_setzero_pd();
    __m256d c0 = _mm256_setzero_pd(), c1 = _mm256_setzero_pd();
    __m256d c2 = _mm256_setzero_pd(), c3 = _mm256_setzero_pd();
    for (std::size_t k = 0; k < n; ++k) {
      const __m256d x = _mm256_broadcast_sd(x0 + k);
      const __m256d z = _mm256_broadcast_sd(x1 + k);
      const float* tk = t + k * kRows;
      const __m256d v0 = lanes(tk, 0);
      a0 = _mm256_add_pd(a0, _mm256_mul_pd(x, v0));
      c0 = _mm256_add_pd(c0, _mm256_mul_pd(z, v0));
      const __m256d v1 = lanes(tk, 1);
      a1 = _mm256_add_pd(a1, _mm256_mul_pd(x, v1));
      c1 = _mm256_add_pd(c1, _mm256_mul_pd(z, v1));
      const __m256d v2 = lanes(tk, 2);
      a2 = _mm256_add_pd(a2, _mm256_mul_pd(x, v2));
      c2 = _mm256_add_pd(c2, _mm256_mul_pd(z, v2));
      const __m256d v3 = lanes(tk, 3);
      a3 = _mm256_add_pd(a3, _mm256_mul_pd(x, v3));
      c3 = _mm256_add_pd(c3, _mm256_mul_pd(z, v3));
    }
    const std::size_t base = b * kRows;
    storeBlock(out0 + base, m - base, a0, a1, a2, a3);
    storeBlock(out1 + base, m - base, c0, c1, c2, c3);
  }
}

#undef CASVM_AVX2_INLINE
#endif  // CASVM_TILE_X86

}  // namespace

DotFn dotFn() {
#ifdef CASVM_TILE_X86
  static const DotFn fn =
      __builtin_cpu_supports("avx2") ? &dotAvx2 : &dotPortable;
#else
  static const DotFn fn = &dotPortable;
#endif
  return fn;
}

Dot2Fn dot2Fn() {
#ifdef CASVM_TILE_X86
  static const Dot2Fn fn =
      __builtin_cpu_supports("avx2") ? &dot2Avx2 : &dot2Portable;
#else
  static const Dot2Fn fn = &dot2Portable;
#endif
  return fn;
}

}  // namespace casvm::kernel::tile
