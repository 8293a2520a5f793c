#pragma once

/// \file exp.hpp
/// The exponential behind every Gaussian kernel value: Kernel::eval and
/// its siblings, every row fill and serving all produce exp(-gamma d2)
/// through it, so they round alike on every host and no model depends on
/// the C library's exp.
///
/// Cody–Waite reduction x = k ln2 + r with |r| <= ln2/2 (ln2 split into a
/// 32-bit head, so k ln2_hi is exact, and a tail), then fdlibm's rational
/// form exp(r) = 1 + r + r c / (2 - c) with c from a degree-10 polynomial
/// in r, then the scale 2^k applied as two exact powers of two so that
/// subnormal results round once. Every step is a plain IEEE multiply, add
/// or divide (no FMA: the build sets -ffp-contract=off, and the lanes sit
/// in a no-FMA region of their own, see isa.hpp; the one hand-written
/// fused multiply-add path is the float-rounding pass's candidate below,
/// which a rounding test checks before it keeps it), so:
///   - exp(0) and exp(-0) are exactly 1;
///   - a normal result keeps fdlibm's error bound of under 1 ulp (the
///     tests hold it within 2 ulp of the C library's exp; glibc and this
///     function differed by at most 1 ulp over 1.15M test arguments);
///   - the AVX2 and AVX-512 row passes run the same operations in four
///     and eight lanes and are bit for bit the scalar function, subnormal
///     and zero results included;
///   - NaN propagates, exp(-inf) = 0 and exp(+inf) = +inf.

#include <cstddef>

#include "casvm/support/isa.hpp"

namespace casvm::kernel {

/// e^x.
double exp(double x);

/// v[i] = exp(v[i]) for i in [0, n), in place.
using ExpRowFn = void (*)(double* v, std::size_t n);

/// The runtime-dispatched row pass: AVX-512F when the CPU supports it,
/// else AVX2, else portable; every variant produces exp() bit for bit.
ExpRowFn expRowFn();

/// The row pass of one instruction set, or nullptr where this CPU or build
/// lacks it. expRowFn() picks among these; tests run each of them.
ExpRowFn expRowFnFor(Isa isa);

/// The portable row pass: what expRowFn() falls back to without AVX2, and
/// the reference the other variants are tested against.
void expRowPortable(double* v, std::size_t n);

/// out[i] = float(exp(x[i])) for i in [0, n): a kernel row's exponentials
/// rounded as the row cache stores them. Returns how many values took the
/// fallback, exp() itself; a pass without a fast path returns 0.
///
/// The portable and AVX2 passes run exp() and convert. The AVX-512 pass
/// first computes a candidate y = p(r) 2^k for x in [-700, 0]: k =
/// round(x / ln2), r = x - k ln2 from fdlibm's hi/lo split in two fused
/// multiply-adds (the first exact), p the degree-11 Taylor polynomial of
/// e^r by Horner's rule in fused multiply-adds. With |r| <= ln2/2 its
/// truncation error is under 0.3466^12/12! ~ 2^-47 and its rounding about
/// 2^-49, so |y - e^x| <= 2^-46 e^x; exp() is within 2^-52 e^x for normal
/// results (fdlibm's bound), so exp(x) lies in [y (1 - 2^-40), y (1 +
/// 2^-40)]. The lane keeps float(y) only when both ends of that band
/// round to the same float (Ziv's rounding test), which then is
/// float(exp(x)). A lane that fails the test, or whose x lies outside
/// [-700, 0] or is NaN, runs exp(). Every variant is therefore bit for
/// bit float(exp(x)).
using ExpFloatRowFn = std::size_t (*)(const double* x, float* out,
                                      std::size_t n);

/// The runtime-dispatched float-rounding pass.
ExpFloatRowFn expFloatRowFn();

/// The float-rounding pass of one instruction set, or nullptr where this
/// CPU or build lacks it.
ExpFloatRowFn expFloatRowFnFor(Isa isa);

/// The portable float-rounding pass, the reference the others are tested
/// against.
std::size_t expFloatRowPortable(const double* x, float* out, std::size_t n);

}  // namespace casvm::kernel
