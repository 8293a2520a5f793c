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

/// The update as one plain loop; each variant below is this loop compiled
/// for its instruction set.
[[gnu::always_inline]] inline void updateLoop(double* __restrict f,
                                              const float* __restrict h,
                                              const float* __restrict l,
                                              double a, double b,
                                              std::size_t m) {
  for (std::size_t k = 0; k < m; ++k) {
    f[k] += a * double(h[k]) + b * double(l[k]);
  }
}

}  // namespace

PairPick selectPortable(const double* f, const std::uint8_t* high,
                        const std::uint8_t* low, std::size_t m) {
  PairPick p{m, m, kInf, -kInf};
  scanFrom(p, f, high, low, 0, m);
  return p;
}

void updatePortable(double* f, const float* h, const float* l, double a,
                    double b, std::size_t m) {
  updateLoop(f, h, l, a, b, m);
}

namespace {

#ifdef CASVM_SELECT_X86
CASVM_NO_FMA_BEGIN
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

/// Fold one lane into the pick: the smaller value wins, and on a tie
/// (including +0.0 against -0.0) the smaller index. Lanes that never took
/// a sample hold +-inf with index m and lose every fold.
void foldLane(PairPick& p, double hv, std::size_t hi, double lv,
              std::size_t li) {
  if (hv < p.bHigh || (hv == p.bHigh && hi < p.high)) {
    p.bHigh = hv;
    p.high = hi;
  }
  if (lv > p.bLow || (lv == p.bLow && li < p.low)) {
    p.bLow = lv;
    p.low = li;
  }
}

CASVM_AVX2_INLINE void fold(PairPick& p, const Lanes& s) {
  alignas(32) double hv[4], hi[4], lv[4], li[4];
  _mm256_store_pd(hv, s.hv);
  _mm256_store_pd(hi, s.hi);
  _mm256_store_pd(lv, s.lv);
  _mm256_store_pd(li, s.li);
  for (int l = 0; l < 4; ++l) {
    foldLane(p, hv[l], static_cast<std::size_t>(hi[l]), lv[l],
             static_cast<std::size_t>(li[l]));
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

__attribute__((target("avx2")))
void updateAvx2(double* f, const float* h, const float* l, double a, double b,
                std::size_t m) {
  updateLoop(f, h, l, a, b, m);
}

#undef CASVM_AVX2_INLINE
#define CASVM_AVX512_INLINE \
  __attribute__((target("avx512f"), always_inline)) inline

/// Membership bytes p[0..7] as an eight-lane mask (a nonzero byte is a
/// member). (The zero-masked widening under an all-ones mask is the plain
/// one; GCC 12's unmasked intrinsic warns on its own body.)
CASVM_AVX512_INLINE __mmask8 memberMask(const std::uint8_t* p) {
  const __m512i b = _mm512_maskz_cvtepu8_epi64(
      0xFF, _mm_loadl_epi64(reinterpret_cast<const __m128i*>(p)));
  return _mm512_test_epi64_mask(b, b);
}

/// Lanes in eight lanes, with the indices as integers.
struct Lanes512 {
  __m512d hv, lv;
  __m512i hi, li;
};

CASVM_AVX512_INLINE void step(Lanes512& s, __m512d v, __m512i idx,
                              __mmask8 mh, __mmask8 ml) {
  // Ordered compares under the membership masks: a NaN never wins.
  const __mmask8 lt = _mm512_mask_cmp_pd_mask(mh, v, s.hv, _CMP_LT_OQ);
  const __mmask8 gt = _mm512_mask_cmp_pd_mask(ml, v, s.lv, _CMP_GT_OQ);
  s.hv = _mm512_mask_mov_pd(s.hv, lt, v);
  s.hi = _mm512_mask_mov_epi64(s.hi, lt, idx);
  s.lv = _mm512_mask_mov_pd(s.lv, gt, v);
  s.li = _mm512_mask_mov_epi64(s.li, gt, idx);
}

CASVM_AVX512_INLINE void fold(PairPick& p, const Lanes512& s) {
  alignas(64) double hv[8], lv[8];
  alignas(64) std::uint64_t hi[8], li[8];
  _mm512_store_pd(hv, s.hv);
  _mm512_store_pd(lv, s.lv);
  _mm512_store_si512(hi, s.hi);
  _mm512_store_si512(li, s.li);
  for (int l = 0; l < 8; ++l) foldLane(p, hv[l], hi[l], lv[l], li[l]);
}

// Two sets of eight lanes (sixteen samples a step), as in the AVX2 pass.
__attribute__((target("avx512f")))
PairPick selectAvx512(const double* f, const std::uint8_t* high,
                      const std::uint8_t* low, std::size_t m) {
  const __m512i none = _mm512_set1_epi64(static_cast<long long>(m));
  Lanes512 a{_mm512_set1_pd(kInf), _mm512_set1_pd(-kInf), none, none};
  Lanes512 b = a;
  __m512i idx = _mm512_setr_epi64(0, 1, 2, 3, 4, 5, 6, 7);
  const __m512i eight = _mm512_set1_epi64(8);
  const __m512i sixteen = _mm512_set1_epi64(16);
  std::size_t i = 0;
  for (; i + 16 <= m; i += 16) {
    step(a, _mm512_loadu_pd(f + i), idx, memberMask(high + i),
         memberMask(low + i));
    step(b, _mm512_loadu_pd(f + i + 8), _mm512_add_epi64(idx, eight),
         memberMask(high + i + 8), memberMask(low + i + 8));
    idx = _mm512_add_epi64(idx, sixteen);
  }
  PairPick p{m, m, kInf, -kInf};
  fold(p, a);
  fold(p, b);
  scanFrom(p, f, high, low, i, m);
  return p;
}

__attribute__((target("avx512f")))
void updateAvx512(double* f, const float* h, const float* l, double a,
                  double b, std::size_t m) {
  updateLoop(f, h, l, a, b, m);
}

#undef CASVM_AVX512_INLINE
CASVM_NO_FMA_END
#endif  // CASVM_SELECT_X86

}  // namespace

SelectFn selectFnFor(Isa isa) {
  if (!cpuHas(isa)) return nullptr;
#ifdef CASVM_SELECT_X86
  switch (isa) {
    case Isa::Avx2: return &selectAvx2;
    case Isa::Avx512: return &selectAvx512;
  }
#endif
  return nullptr;
}

SelectFn selectFn() {
  static const SelectFn fn = widest(&selectFnFor, &selectPortable);
  return fn;
}

UpdateFn updateFnFor(Isa isa) {
  if (!cpuHas(isa)) return nullptr;
#ifdef CASVM_SELECT_X86
  switch (isa) {
    case Isa::Avx2: return &updateAvx2;
    case Isa::Avx512: return &updateAvx512;
  }
#endif
  return nullptr;
}

UpdateFn updateFn() {
  static const UpdateFn fn = widest(&updateFnFor, &updatePortable);
  return fn;
}

}  // namespace casvm::solver
