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

void dotPortable(const float* tiles, const double* xs, std::size_t q,
                 std::size_t m, std::size_t n, double* const* out) {
  const std::size_t blocks = blockCount(m);
  for (std::size_t b = 0; b < blocks; ++b) {
    const float* t = tiles + b * n * kRows;
    double acc[kMaxQueries][kRows] = {};
    for (std::size_t k = 0; k < n; ++k) {
      for (std::size_t l = 0; l < kRows; ++l) {
        const double v = double(t[k * kRows + l]);
        for (std::size_t s = 0; s < q; ++s) acc[s][l] += xs[s * n + k] * v;
      }
    }
    const std::size_t base = b * kRows;
    const std::size_t cnt = std::min(kRows, m - base);
    for (std::size_t s = 0; s < q; ++s) {
      std::memcpy(out[s] + base, acc[s], cnt * sizeof(double));
    }
  }
}

namespace {

#ifdef CASVM_TILE_X86
// The AVX2 lanes keep multiplies separate from adds (no FMA contraction),
// so lane rounding matches the scalar path exactly.
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
void dot1Avx2(const float* tiles, const double* xd, std::size_t m,
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

/// More than two queries' accumulators do not fit AVX2's sixteen
/// registers, so three to eight queries take one sweep per pair, an odd
/// one alone.
__attribute__((target("avx2")))
void dotAvx2(const float* tiles, const double* xs, std::size_t q,
             std::size_t m, std::size_t n, double* const* out) {
  std::size_t s = 0;
  for (; s + 2 <= q; s += 2) {
    dot2Avx2(tiles, xs + s * n, xs + (s + 1) * n, m, n, out[s], out[s + 1]);
  }
  if (s < q) dot1Avx2(tiles, xs + s * n, m, n, out[s]);
}

#undef CASVM_AVX2_INLINE

#define CASVM_AVX512_INLINE \
  __attribute__((target("avx512f"), always_inline)) inline

/// Rows 0-7 and 8-15 of tile row tk, widened to double. (The zero-masked
/// form under an all-ones mask is the plain conversion; GCC 12's unmasked
/// intrinsic warns on its own body.)
CASVM_AVX512_INLINE __m512d lanesLo(const float* tk) {
  return _mm512_maskz_cvtps_pd(0xFF, _mm256_loadu_ps(tk));
}
CASVM_AVX512_INLINE __m512d lanesHi(const float* tk) {
  return _mm512_maskz_cvtps_pd(0xFF, _mm256_loadu_ps(tk + 8));
}

/// Store one block's two accumulators: all 16 rows, or the first `cnt` of
/// a ragged tail block.
CASVM_AVX512_INLINE void storeBlock512(double* out, std::size_t cnt,
                                       __m512d lo, __m512d hi) {
  const __mmask8 mLo =
      cnt >= 8 ? 0xFF : static_cast<__mmask8>((1u << cnt) - 1);
  _mm512_mask_storeu_pd(out, mLo, lo);
  if (cnt > 8) {
    const __mmask8 mHi =
        cnt >= kRows ? 0xFF : static_cast<__mmask8>((1u << (cnt - 8)) - 1);
    _mm512_mask_storeu_pd(out + 8, mHi, hi);
  }
}

// Q queries per sweep of each 16-row block: two zmm accumulators per query
// (rows 0-7 and 8-15), each chain a serial sum over ascending k; at Q = 8
// the sixteen accumulators, two tile lanes and a broadcast fit the 32
// registers. Each pair of conversions a block's tile row costs is shared
// by all Q queries, so wider passes widen fewer tiles per output. The fused
// multiply-add is bitwise the separate multiply and add here (see the
// header): both factors are widened floats, so the product is exact.
template <std::size_t Q>
__attribute__((target("avx512f")))
void dotAvx512Q(const float* tiles, const double* xs, std::size_t m,
                std::size_t n, double* const* out) {
  const std::size_t blocks = blockCount(m);
  for (std::size_t b = 0; b < blocks; ++b) {
    const float* t = tiles + b * n * kRows;
    // The accumulator arrays stay in registers only when the loops over
    // the queries unroll, which GCC's -O2 does not do unasked.
    __m512d lo[Q], hi[Q];
#pragma GCC unroll 8
    for (std::size_t s = 0; s < Q; ++s) {
      lo[s] = _mm512_setzero_pd();
      hi[s] = _mm512_setzero_pd();
    }
    for (std::size_t k = 0; k < n; ++k) {
      const float* tk = t + k * kRows;
      const __m512d v0 = lanesLo(tk);
      const __m512d v1 = lanesHi(tk);
#pragma GCC unroll 8
      for (std::size_t s = 0; s < Q; ++s) {
        const __m512d x = _mm512_set1_pd(xs[s * n + k]);
        lo[s] = _mm512_fmadd_pd(x, v0, lo[s]);
        hi[s] = _mm512_fmadd_pd(x, v1, hi[s]);
      }
    }
    const std::size_t base = b * kRows;
#pragma GCC unroll 8
    for (std::size_t s = 0; s < Q; ++s) {
      storeBlock512(out[s] + base, m - base, lo[s], hi[s]);
    }
  }
}

// One query steps four blocks at a time: eight accumulator chains in
// flight, where a one-block step has two and waits on the fma latency.
// A ragged end of one to three blocks runs the Q = 1 body.
__attribute__((target("avx512f")))
void dot1Avx512(const float* tiles, const double* xd, std::size_t m,
                std::size_t n, double* out) {
  constexpr std::size_t kStep = 4;
  const std::size_t blocks = blockCount(m);
  const std::size_t stride = n * kRows;
  std::size_t b = 0;
  for (; b + kStep <= blocks; b += kStep) {
    const float* t = tiles + b * stride;
    __m512d lo[kStep], hi[kStep];
#pragma GCC unroll 4
    for (std::size_t s = 0; s < kStep; ++s) {
      lo[s] = _mm512_setzero_pd();
      hi[s] = _mm512_setzero_pd();
    }
    for (std::size_t k = 0; k < n; ++k) {
      const __m512d x = _mm512_set1_pd(xd[k]);
#pragma GCC unroll 4
      for (std::size_t s = 0; s < kStep; ++s) {
        const float* tk = t + s * stride + k * kRows;
        lo[s] = _mm512_fmadd_pd(x, lanesLo(tk), lo[s]);
        hi[s] = _mm512_fmadd_pd(x, lanesHi(tk), hi[s]);
      }
    }
#pragma GCC unroll 4
    for (std::size_t s = 0; s < kStep; ++s) {
      const std::size_t base = (b + s) * kRows;
      storeBlock512(out + base, m - base, lo[s], hi[s]);
    }
  }
  if (b < blocks) {
    double* const rest[] = {out + b * kRows};
    dotAvx512Q<1>(tiles + b * stride, xd, m - b * kRows, n, rest);
  }
}

void dotAvx512(const float* tiles, const double* xs, std::size_t q,
               std::size_t m, std::size_t n, double* const* out) {
  switch (q) {
    case 1: dot1Avx512(tiles, xs, m, n, out[0]); return;
    case 2: dotAvx512Q<2>(tiles, xs, m, n, out); return;
    case 3: dotAvx512Q<3>(tiles, xs, m, n, out); return;
    case 4: dotAvx512Q<4>(tiles, xs, m, n, out); return;
    case 5: dotAvx512Q<5>(tiles, xs, m, n, out); return;
    case 6: dotAvx512Q<6>(tiles, xs, m, n, out); return;
    case 7: dotAvx512Q<7>(tiles, xs, m, n, out); return;
    default: dotAvx512Q<8>(tiles, xs, m, n, out); return;
  }
}

#undef CASVM_AVX512_INLINE
#endif  // CASVM_TILE_X86

}  // namespace

DotFn dotFnFor(Isa isa) {
  if (!cpuHas(isa)) return nullptr;
#ifdef CASVM_TILE_X86
  switch (isa) {
    case Isa::Avx2: return &dotAvx2;
    case Isa::Avx512: return &dotAvx512;
  }
#endif
  return nullptr;
}

DotFn dotFn() {
  static const DotFn fn = widest(&dotFnFor, &dotPortable);
  return fn;
}

std::size_t sweepWidth() {
  static const std::size_t width =
      dotFn() == dotFnFor(Isa::Avx512) ? kMaxQueries : 4;
  return width;
}

}  // namespace casvm::kernel::tile
