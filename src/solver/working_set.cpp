#include "casvm/solver/working_set.hpp"

#include <algorithm>
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

/// A sample's ranking score: its distance to the threshold of each set it
/// belongs to, the smaller one, or +inf. Strict comparisons drop a NaN
/// distance.
inline double rankScore(double f, bool inHigh, bool inLow, double bHigh,
                        double bLow) {
  double score = kInf;
  const double toHigh = f - bHigh;
  if (inHigh && toHigh < score) score = toHigh;
  const double toLow = bLow - f;
  if (inLow && toLow < score) score = toLow;
  return score;
}

/// The samples a ranking pass keeps, smallest score first.
class Ranked {
 public:
  Ranked(std::size_t room, std::size_t* out)
      : room_(std::min(room, kMaxRanked)), out_(out) {
    std::fill_n(key_, kMaxRanked, kInf);
  }

  std::size_t room() const { return room_; }
  std::size_t count() const { return count_; }
  /// The score a sample must beat to be kept: the last kept key, +inf
  /// while room is left. A +inf or NaN score never beats it.
  double bar() const { return key_[room_ - 1]; }

  /// Keep sample j, whose score beats bar(): after every equal key, so
  /// offered in ascending index order the first index keeps a tie.
  void offer(double score, std::size_t j) {
    std::size_t p = room_ - 1;
    for (; p > 0 && score < key_[p - 1]; --p) {
      key_[p] = key_[p - 1];
      out_[p] = out_[p - 1];
    }
    key_[p] = score;
    out_[p] = j;
    count_ = std::min(count_ + 1, room_);
  }

  /// Offer sample j if it beats bar() and is not the pair.
  void consider(double score, std::size_t j, const PairPick& pair) {
    if (score < bar() && j != pair.high && j != pair.low) offer(score, j);
  }

 private:
  std::size_t room_;
  std::size_t* out_;
  double key_[kMaxRanked];
  std::size_t count_ = 0;
};

/// The scalar ranking over samples [begin, m).
void rankFrom(Ranked& r, const double* f, const std::uint8_t* high,
              const std::uint8_t* low, const std::uint8_t* held,
              const PairPick& pair, std::size_t begin, std::size_t m) {
  for (std::size_t j = begin; j < m; ++j) {
    if (held[j] != 0) continue;
    r.consider(rankScore(f[j], high[j] != 0, low[j] != 0, pair.bHigh,
                         pair.bLow),
               j, pair);
  }
}

/// The update as one plain loop: the portable pass, and the ragged tail
/// of each fused variant below.
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

PairPick updateSelectPortable(double* f, const float* h, const float* l,
                              double a, double b, const std::uint8_t* high,
                              const std::uint8_t* low, std::size_t m) {
  updatePortable(f, h, l, a, b, m);
  return selectPortable(f, high, low, m);
}

std::size_t rankPortable(const double* f, const std::uint8_t* high,
                         const std::uint8_t* low, const std::uint8_t* held,
                         std::size_t m, const PairPick& pair,
                         std::size_t room, std::size_t* out) {
  Ranked r(room, out);
  if (r.room() == 0) return 0;
  rankFrom(r, f, high, low, held, pair, 0, m);
  return r.count();
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

/// f[k..k+3] + (a h + b l), as updateLoop rounds it, stored back.
CASVM_AVX2_INLINE __m256d updateLanes(double* f, const float* h,
                                      const float* l, __m256d a, __m256d b) {
  const __m256d v = _mm256_add_pd(
      _mm256_loadu_pd(f),
      _mm256_add_pd(_mm256_mul_pd(a, _mm256_cvtps_pd(_mm_loadu_ps(h))),
                    _mm256_mul_pd(b, _mm256_cvtps_pd(_mm_loadu_ps(l)))));
  _mm256_storeu_pd(f, v);
  return v;
}

// selectAvx2 over the values the update stores, eight samples a step;
// the tail runs the scalar update, then the scalar rule.
__attribute__((target("avx2")))
PairPick updateSelectAvx2(double* f, const float* h, const float* l, double a,
                          double b, const std::uint8_t* high,
                          const std::uint8_t* low, std::size_t m) {
  const __m256d av = _mm256_set1_pd(a), bv = _mm256_set1_pd(b);
  const __m256d inf = _mm256_set1_pd(kInf);
  const __m256d none = _mm256_set1_pd(double(m));
  Lanes x{inf, none, _mm256_set1_pd(-kInf), none};
  Lanes y = x;
  __m256d idx = _mm256_setr_pd(0.0, 1.0, 2.0, 3.0);
  const __m256d four = _mm256_set1_pd(4.0);
  const __m256d eight = _mm256_set1_pd(8.0);
  std::size_t i = 0;
  for (; i + 8 <= m; i += 8) {
    step(x, updateLanes(f + i, h + i, l + i, av, bv), idx,
         memberLanes(high + i), memberLanes(low + i));
    step(y, updateLanes(f + i + 4, h + i + 4, l + i + 4, av, bv),
         _mm256_add_pd(idx, four), memberLanes(high + i + 4),
         memberLanes(low + i + 4));
    idx = _mm256_add_pd(idx, eight);
  }
  updateLoop(f + i, h + i, l + i, a, b, m - i);
  PairPick p{m, m, kInf, -kInf};
  fold(p, x);
  fold(p, y);
  scanFrom(p, f, high, low, i, m);
  return p;
}

// Four samples a step: the scores as rankScore computes them, then one
// compare against the bar; the few lanes that beat it are offered in
// index order, each checked again against the bar it has then.
__attribute__((target("avx2")))
std::size_t rankAvx2(const double* f, const std::uint8_t* high,
                     const std::uint8_t* low, const std::uint8_t* held,
                     std::size_t m, const PairPick& pair, std::size_t room,
                     std::size_t* out) {
  Ranked r(room, out);
  if (r.room() == 0) return 0;
  const __m256d inf = _mm256_set1_pd(kInf);
  const __m256d bHigh = _mm256_set1_pd(pair.bHigh);
  const __m256d bLow = _mm256_set1_pd(pair.bLow);
  std::size_t i = 0;
  for (; i + 4 <= m; i += 4) {
    const __m256d v = _mm256_loadu_pd(f + i);
    const __m256d toHigh = _mm256_sub_pd(v, bHigh);
    const __m256d toLow = _mm256_sub_pd(bLow, v);
    __m256d take = _mm256_and_pd(memberLanes(high + i),
                                 _mm256_cmp_pd(toHigh, inf, _CMP_LT_OQ));
    __m256d score = _mm256_blendv_pd(inf, toHigh, take);
    take = _mm256_and_pd(memberLanes(low + i),
                         _mm256_cmp_pd(toLow, score, _CMP_LT_OQ));
    score = _mm256_blendv_pd(score, toLow, take);
    const __m256d beats = _mm256_andnot_pd(
        memberLanes(held + i),
        _mm256_cmp_pd(score, _mm256_set1_pd(r.bar()), _CMP_LT_OQ));
    int hit = _mm256_movemask_pd(beats);
    if (hit == 0) continue;
    alignas(32) double s[4];
    _mm256_store_pd(s, score);
    for (; hit != 0; hit &= hit - 1) {
      const int l = __builtin_ctz(static_cast<unsigned>(hit));
      r.consider(s[l], i + static_cast<std::size_t>(l), pair);
    }
  }
  rankFrom(r, f, high, low, held, pair, i, m);
  return r.count();
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

/// f[k..k+7] + (a h + b l), as updateLoop rounds it, stored back. (The
/// zero-masked widening under an all-ones mask is the plain one.)
CASVM_AVX512_INLINE __m512d updateLanes(double* f, const float* h,
                                        const float* l, __m512d a,
                                        __m512d b) {
  const __m512d hv = _mm512_maskz_cvtps_pd(0xFF, _mm256_loadu_ps(h));
  const __m512d lv = _mm512_maskz_cvtps_pd(0xFF, _mm256_loadu_ps(l));
  const __m512d v = _mm512_add_pd(
      _mm512_loadu_pd(f),
      _mm512_add_pd(_mm512_mul_pd(a, hv), _mm512_mul_pd(b, lv)));
  _mm512_storeu_pd(f, v);
  return v;
}

// selectAvx512 over the values the update stores, sixteen samples a step;
// the tail runs the scalar update, then the scalar rule.
__attribute__((target("avx512f")))
PairPick updateSelectAvx512(double* f, const float* h, const float* l,
                            double a, double b, const std::uint8_t* high,
                            const std::uint8_t* low, std::size_t m) {
  const __m512d av = _mm512_set1_pd(a), bv = _mm512_set1_pd(b);
  const __m512i none = _mm512_set1_epi64(static_cast<long long>(m));
  Lanes512 x{_mm512_set1_pd(kInf), _mm512_set1_pd(-kInf), none, none};
  Lanes512 y = x;
  __m512i idx = _mm512_setr_epi64(0, 1, 2, 3, 4, 5, 6, 7);
  const __m512i eight = _mm512_set1_epi64(8);
  const __m512i sixteen = _mm512_set1_epi64(16);
  std::size_t i = 0;
  for (; i + 16 <= m; i += 16) {
    step(x, updateLanes(f + i, h + i, l + i, av, bv), idx,
         memberMask(high + i), memberMask(low + i));
    step(y, updateLanes(f + i + 8, h + i + 8, l + i + 8, av, bv),
         _mm512_add_epi64(idx, eight), memberMask(high + i + 8),
         memberMask(low + i + 8));
    idx = _mm512_add_epi64(idx, sixteen);
  }
  updateLoop(f + i, h + i, l + i, a, b, m - i);
  PairPick p{m, m, kInf, -kInf};
  fold(p, x);
  fold(p, y);
  scanFrom(p, f, high, low, i, m);
  return p;
}

// Eight samples a step, as in the AVX2 pass, with the membership and
// residency bytes as masks.
__attribute__((target("avx512f")))
std::size_t rankAvx512(const double* f, const std::uint8_t* high,
                       const std::uint8_t* low, const std::uint8_t* held,
                       std::size_t m, const PairPick& pair, std::size_t room,
                       std::size_t* out) {
  Ranked r(room, out);
  if (r.room() == 0) return 0;
  const __m512d inf = _mm512_set1_pd(kInf);
  const __m512d bHigh = _mm512_set1_pd(pair.bHigh);
  const __m512d bLow = _mm512_set1_pd(pair.bLow);
  std::size_t i = 0;
  for (; i + 8 <= m; i += 8) {
    const __m512d v = _mm512_loadu_pd(f + i);
    const __m512d toHigh = _mm512_sub_pd(v, bHigh);
    const __m512d toLow = _mm512_sub_pd(bLow, v);
    __mmask8 take =
        _mm512_mask_cmp_pd_mask(memberMask(high + i), toHigh, inf, _CMP_LT_OQ);
    __m512d score = _mm512_mask_mov_pd(inf, take, toHigh);
    take = _mm512_mask_cmp_pd_mask(memberMask(low + i), toLow, score,
                                   _CMP_LT_OQ);
    score = _mm512_mask_mov_pd(score, take, toLow);
    const __mmask8 free = static_cast<__mmask8>(~memberMask(held + i));
    unsigned hit = _mm512_mask_cmp_pd_mask(
        free, score, _mm512_set1_pd(r.bar()), _CMP_LT_OQ);
    if (hit == 0) continue;
    alignas(64) double s[8];
    _mm512_store_pd(s, score);
    for (; hit != 0; hit &= hit - 1) {
      const int l = __builtin_ctz(hit);
      r.consider(s[l], i + static_cast<std::size_t>(l), pair);
    }
  }
  rankFrom(r, f, high, low, held, pair, i, m);
  return r.count();
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

UpdateSelectFn updateSelectFnFor(Isa isa) {
  if (!cpuHas(isa)) return nullptr;
#ifdef CASVM_SELECT_X86
  switch (isa) {
    case Isa::Avx2: return &updateSelectAvx2;
    case Isa::Avx512: return &updateSelectAvx512;
  }
#endif
  return nullptr;
}

UpdateSelectFn updateSelectFn() {
  static const UpdateSelectFn fn =
      widest(&updateSelectFnFor, &updateSelectPortable);
  return fn;
}

RankFn rankFnFor(Isa isa) {
  if (!cpuHas(isa)) return nullptr;
#ifdef CASVM_SELECT_X86
  switch (isa) {
    case Isa::Avx2: return &rankAvx2;
    case Isa::Avx512: return &rankAvx512;
  }
#endif
  return nullptr;
}

RankFn rankFn() {
  static const RankFn fn = widest(&rankFnFor, &rankPortable);
  return fn;
}

}  // namespace casvm::solver
