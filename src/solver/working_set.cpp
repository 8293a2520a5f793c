#include "casvm/solver/working_set.hpp"

#include <cstring>
#include <limits>

#if defined(__x86_64__) && defined(__GNUC__)
#define CASVM_SELECT_X86 1
#include <immintrin.h>
#endif

namespace casvm::solver {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// The scalar rule over samples [begin, m), which all follow whatever `p`
/// already holds: a strict comparison keeps the first index of a tie and
/// never takes a NaN.
void scanFrom(PairPick& p, const double* f, const std::uint8_t* high,
              const std::uint8_t* low, std::size_t begin, std::size_t m) {
  for (std::size_t i = begin; i < m; ++i) {
    if (high[i] != 0 && f[i] < p.bHigh) {
      p.bHigh = f[i];
      p.high = i;
    }
    if (low[i] != 0 && f[i] > p.bLow) {
      p.bLow = f[i];
      p.low = i;
    }
  }
}

}  // namespace

PairPick selectPortable(const double* f, const std::uint8_t* high,
                        const std::uint8_t* low, std::size_t m) {
  PairPick p{m, m, kInf, -kInf};
  scanFrom(p, f, high, low, 0, m);
  return p;
}

namespace {

#ifdef CASVM_SELECT_X86
#define CASVM_AVX2_INLINE __attribute__((target("avx2"), always_inline)) inline

/// Membership bytes p[0..3] as four all-ones (member) or zero lanes.
CASVM_AVX2_INLINE __m256d memberLanes(const std::uint8_t* p) {
  std::int32_t w;
  std::memcpy(&w, p, sizeof w);
  const __m256i b = _mm256_cvtepu8_epi64(_mm_cvtsi32_si128(w));
  return _mm256_castsi256_pd(_mm256_cmpgt_epi64(b, _mm256_setzero_si256()));
}

/// Running per-lane argmin and argmax over lanes whose indices ascend by
/// four per step, so a strict comparison keeps each lane's first index.
/// Indices are carried as doubles (exact below 2^53).
struct Lanes {
  __m256d hv, hi, lv, li;
};

CASVM_AVX2_INLINE void step(Lanes& s, __m256d v, __m256d idx, __m256d mh,
                            __m256d ml) {
  // Ordered compares: a NaN in f never wins.
  const __m256d lt = _mm256_and_pd(mh, _mm256_cmp_pd(v, s.hv, _CMP_LT_OQ));
  const __m256d gt = _mm256_and_pd(ml, _mm256_cmp_pd(v, s.lv, _CMP_GT_OQ));
  s.hv = _mm256_blendv_pd(s.hv, v, lt);
  s.hi = _mm256_blendv_pd(s.hi, idx, lt);
  s.lv = _mm256_blendv_pd(s.lv, v, gt);
  s.li = _mm256_blendv_pd(s.li, idx, gt);
}

/// Fold one set of lanes into the pick: the smaller value wins, and on a
/// tie (including +0.0 against -0.0) the smaller index.
CASVM_AVX2_INLINE void fold(PairPick& p, const Lanes& s) {
  alignas(32) double hv[4], hi[4], lv[4], li[4];
  _mm256_store_pd(hv, s.hv);
  _mm256_store_pd(hi, s.hi);
  _mm256_store_pd(lv, s.lv);
  _mm256_store_pd(li, s.li);
  for (int l = 0; l < 4; ++l) {
    const auto h = static_cast<std::size_t>(hi[l]);
    if (hv[l] < p.bHigh || (hv[l] == p.bHigh && h < p.high)) {
      p.bHigh = hv[l];
      p.high = h;
    }
    const auto w = static_cast<std::size_t>(li[l]);
    if (lv[l] > p.bLow || (lv[l] == p.bLow && w < p.low)) {
      p.bLow = lv[l];
      p.low = w;
    }
  }
}

// Two sets of lanes (eight samples a step) keep two compare-and-blend
// chains in flight; the tail past the last full step runs the scalar rule.
__attribute__((target("avx2")))
PairPick selectAvx2(const double* f, const std::uint8_t* high,
                    const std::uint8_t* low, std::size_t m) {
  const __m256d inf = _mm256_set1_pd(kInf);
  const __m256d none = _mm256_set1_pd(double(m));
  Lanes a{inf, none, _mm256_set1_pd(-kInf), none};
  Lanes b = a;
  __m256d idx = _mm256_setr_pd(0.0, 1.0, 2.0, 3.0);
  const __m256d four = _mm256_set1_pd(4.0);
  const __m256d eight = _mm256_set1_pd(8.0);
  std::size_t i = 0;
  for (; i + 8 <= m; i += 8) {
    step(a, _mm256_loadu_pd(f + i), idx, memberLanes(high + i),
         memberLanes(low + i));
    step(b, _mm256_loadu_pd(f + i + 4), _mm256_add_pd(idx, four),
         memberLanes(high + i + 4), memberLanes(low + i + 4));
    idx = _mm256_add_pd(idx, eight);
  }
  PairPick p{m, m, kInf, -kInf};
  fold(p, a);
  fold(p, b);
  scanFrom(p, f, high, low, i, m);
  return p;
}

#undef CASVM_AVX2_INLINE
#endif  // CASVM_SELECT_X86

}  // namespace

SelectFn selectFn() {
#ifdef CASVM_SELECT_X86
  static const SelectFn fn =
      __builtin_cpu_supports("avx2") ? &selectAvx2 : &selectPortable;
#else
  static const SelectFn fn = &selectPortable;
#endif
  return fn;
}

}  // namespace casvm::solver
