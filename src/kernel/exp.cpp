#include "casvm/kernel/exp.hpp"

#include <bit>
#include <cstdint>

#if defined(__x86_64__) && defined(__GNUC__)
#define CASVM_EXP_X86 1
#include <immintrin.h>
#endif

namespace casvm::kernel {

namespace {

// fdlibm's e_exp.c constants. kLn2Hi has 32 significant bits, so k * kLn2Hi
// is exact for every |k| the clamp below allows.
constexpr double kLn2Hi = 6.93147180369123816490e-01;
constexpr double kLn2Lo = 1.90821492927058770002e-10;
constexpr double kInvLn2 = 1.44269504088896338700e+00;
constexpr double kP1 = 1.66666666666666019037e-01;
constexpr double kP2 = -2.77777777770155933842e-03;
constexpr double kP3 = 6.61375632143793436117e-05;
constexpr double kP4 = -1.65339022054652515390e-06;
constexpr double kP5 = 4.13813679705723846039e-08;

/// Adding and subtracting 1.5 * 2^52 rounds a double below 2^51 in
/// magnitude to the nearest integer (ties to even), and while the sum is
/// held its low mantissa bits are that integer in two's complement.
constexpr double kShifter = 0x1.8p52;

/// Arguments are clamped here first: exp underflows to 0 below -745.14 and
/// overflows past 709.79, and within the clamp |k| <= 1587, so both halves
/// of the 2^k scale stay normal powers of two.
constexpr double kClamp = 1100.0;

constexpr std::uint64_t kExpBias = std::uint64_t{1023} << 52;

/// 2^k for an integer-valued k in [-1022, 1023].
inline double pow2(double k) {
  return std::bit_cast<double>(
      (std::bit_cast<std::uint64_t>(k + kShifter) << 52) + kExpBias);
}

}  // namespace

double exp(double x) {
  // Written as the comparisons MAXPD and MINPD make, so a NaN clamps like
  // a lane does; it is restored at the end.
  double xc = x > -kClamp ? x : -kClamp;
  xc = xc < kClamp ? xc : kClamp;
  const double k = (xc * kInvLn2 + kShifter) - kShifter;
  const double hi = xc - k * kLn2Hi;
  const double lo = k * kLn2Lo;
  const double r = hi - lo;
  const double t = r * r;
  const double c = r - t * (kP1 + t * (kP2 + t * (kP3 + t * (kP4 + t * kP5))));
  const double y = 1.0 - ((lo - (r * c) / (2.0 - c)) - hi);
  // y * 2^k as (y * 2^k1) * 2^k2: the first product is exact, the second
  // rounds only when the result is subnormal.
  const double k1 = (k * 0.5 + kShifter) - kShifter;
  const double k2 = k - k1;
  const double result = (y * pow2(k1)) * pow2(k2);
  return x != x ? x : result;
}

void expRowPortable(double* v, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) v[i] = exp(v[i]);
}

namespace {

#ifdef CASVM_EXP_X86
CASVM_NO_FMA_BEGIN
#define CASVM_AVX2_INLINE __attribute__((target("avx2"), always_inline)) inline

/// pow2() in four lanes.
CASVM_AVX2_INLINE __m256d pow2Lanes(__m256d k) {
  const __m256i b = _mm256_slli_epi64(
      _mm256_castpd_si256(_mm256_add_pd(k, _mm256_set1_pd(kShifter))), 52);
  return _mm256_castsi256_pd(_mm256_add_epi64(
      b, _mm256_set1_epi64x(static_cast<long long>(kExpBias))));
}

/// The scalar exp(), operation for operation, in four lanes.
CASVM_AVX2_INLINE __m256d expLanes(__m256d x) {
  const __m256d shifter = _mm256_set1_pd(kShifter);
  __m256d xc = _mm256_max_pd(x, _mm256_set1_pd(-kClamp));
  xc = _mm256_min_pd(xc, _mm256_set1_pd(kClamp));
  const __m256d k = _mm256_sub_pd(
      _mm256_add_pd(_mm256_mul_pd(xc, _mm256_set1_pd(kInvLn2)), shifter),
      shifter);
  const __m256d hi =
      _mm256_sub_pd(xc, _mm256_mul_pd(k, _mm256_set1_pd(kLn2Hi)));
  const __m256d lo = _mm256_mul_pd(k, _mm256_set1_pd(kLn2Lo));
  const __m256d r = _mm256_sub_pd(hi, lo);
  const __m256d t = _mm256_mul_pd(r, r);
  __m256d p = _mm256_add_pd(_mm256_set1_pd(kP4),
                            _mm256_mul_pd(t, _mm256_set1_pd(kP5)));
  p = _mm256_add_pd(_mm256_set1_pd(kP3), _mm256_mul_pd(t, p));
  p = _mm256_add_pd(_mm256_set1_pd(kP2), _mm256_mul_pd(t, p));
  p = _mm256_add_pd(_mm256_set1_pd(kP1), _mm256_mul_pd(t, p));
  const __m256d c = _mm256_sub_pd(r, _mm256_mul_pd(t, p));
  const __m256d q = _mm256_div_pd(_mm256_mul_pd(r, c),
                                  _mm256_sub_pd(_mm256_set1_pd(2.0), c));
  const __m256d y = _mm256_sub_pd(
      _mm256_set1_pd(1.0), _mm256_sub_pd(_mm256_sub_pd(lo, q), hi));
  const __m256d k1 = _mm256_sub_pd(
      _mm256_add_pd(_mm256_mul_pd(k, _mm256_set1_pd(0.5)), shifter), shifter);
  const __m256d k2 = _mm256_sub_pd(k, k1);
  const __m256d result =
      _mm256_mul_pd(_mm256_mul_pd(y, pow2Lanes(k1)), pow2Lanes(k2));
  return _mm256_blendv_pd(result, x, _mm256_cmp_pd(x, x, _CMP_UNORD_Q));
}

// Two vectors per step: the reduction, polynomial and divide form one long
// dependency chain per vector, and a second independent chain fills its
// latency. The ragged end runs the scalar function, which is the same bits.
__attribute__((target("avx2")))
void expRowAvx2(double* v, std::size_t n) {
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256d a = expLanes(_mm256_loadu_pd(v + i));
    const __m256d b = expLanes(_mm256_loadu_pd(v + i + 4));
    _mm256_storeu_pd(v + i, a);
    _mm256_storeu_pd(v + i + 4, b);
  }
  for (; i < n; ++i) v[i] = exp(v[i]);
}

#undef CASVM_AVX2_INLINE
#define CASVM_AVX512_INLINE \
  __attribute__((target("avx512f"), always_inline)) inline

/// pow2() in eight lanes. (Shifts, MAXPD and MINPD take the zero-masked
/// form under an all-ones mask, which is the plain operation; GCC 12's
/// unmasked intrinsics warn on their own bodies.)
CASVM_AVX512_INLINE __m512d pow2Lanes(__m512d k) {
  const __m512i b = _mm512_maskz_slli_epi64(
      0xFF, _mm512_castpd_si512(_mm512_add_pd(k, _mm512_set1_pd(kShifter))),
      52);
  return _mm512_castsi512_pd(_mm512_add_epi64(
      b, _mm512_set1_epi64(static_cast<long long>(kExpBias))));
}

/// expLanes() in eight lanes: the same operations in the same order.
/// MAXPD and MINPD return their second operand when either is NaN, in
/// both widths.
CASVM_AVX512_INLINE __m512d expLanes(__m512d x) {
  const __m512d shifter = _mm512_set1_pd(kShifter);
  __m512d xc = _mm512_maskz_max_pd(0xFF, x, _mm512_set1_pd(-kClamp));
  xc = _mm512_maskz_min_pd(0xFF, xc, _mm512_set1_pd(kClamp));
  const __m512d k = _mm512_sub_pd(
      _mm512_add_pd(_mm512_mul_pd(xc, _mm512_set1_pd(kInvLn2)), shifter),
      shifter);
  const __m512d hi =
      _mm512_sub_pd(xc, _mm512_mul_pd(k, _mm512_set1_pd(kLn2Hi)));
  const __m512d lo = _mm512_mul_pd(k, _mm512_set1_pd(kLn2Lo));
  const __m512d r = _mm512_sub_pd(hi, lo);
  const __m512d t = _mm512_mul_pd(r, r);
  __m512d p = _mm512_add_pd(_mm512_set1_pd(kP4),
                            _mm512_mul_pd(t, _mm512_set1_pd(kP5)));
  p = _mm512_add_pd(_mm512_set1_pd(kP3), _mm512_mul_pd(t, p));
  p = _mm512_add_pd(_mm512_set1_pd(kP2), _mm512_mul_pd(t, p));
  p = _mm512_add_pd(_mm512_set1_pd(kP1), _mm512_mul_pd(t, p));
  const __m512d c = _mm512_sub_pd(r, _mm512_mul_pd(t, p));
  const __m512d q = _mm512_div_pd(_mm512_mul_pd(r, c),
                                  _mm512_sub_pd(_mm512_set1_pd(2.0), c));
  const __m512d y = _mm512_sub_pd(
      _mm512_set1_pd(1.0), _mm512_sub_pd(_mm512_sub_pd(lo, q), hi));
  const __m512d k1 = _mm512_sub_pd(
      _mm512_add_pd(_mm512_mul_pd(k, _mm512_set1_pd(0.5)), shifter), shifter);
  const __m512d k2 = _mm512_sub_pd(k, k1);
  const __m512d result =
      _mm512_mul_pd(_mm512_mul_pd(y, pow2Lanes(k1)), pow2Lanes(k2));
  return _mm512_mask_blend_pd(_mm512_cmp_pd_mask(x, x, _CMP_UNORD_Q), result,
                              x);
}

// Two vectors per step, as in the AVX2 pass; the ragged end runs masked
// lanes (a masked-off lane loads 0 and is never stored).
__attribute__((target("avx512f")))
void expRowAvx512(double* v, std::size_t n) {
  std::size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    const __m512d a = expLanes(_mm512_loadu_pd(v + i));
    const __m512d b = expLanes(_mm512_loadu_pd(v + i + 8));
    _mm512_storeu_pd(v + i, a);
    _mm512_storeu_pd(v + i + 8, b);
  }
  for (; i < n; i += 8) {
    const std::size_t left = n - i;
    const __mmask8 mask =
        left >= 8 ? 0xFF : static_cast<__mmask8>((1u << left) - 1);
    _mm512_mask_storeu_pd(v + i, mask,
                          expLanes(_mm512_maskz_loadu_pd(mask, v + i)));
  }
}

#undef CASVM_AVX512_INLINE
CASVM_NO_FMA_END
#endif  // CASVM_EXP_X86

}  // namespace

ExpRowFn expRowFnFor(Isa isa) {
  if (!cpuHas(isa)) return nullptr;
#ifdef CASVM_EXP_X86
  switch (isa) {
    case Isa::Avx2: return &expRowAvx2;
    case Isa::Avx512: return &expRowAvx512;
  }
#endif
  return nullptr;
}

ExpRowFn expRowFn() {
  static const ExpRowFn fn = widest(&expRowFnFor, &expRowPortable);
  return fn;
}

}  // namespace casvm::kernel
