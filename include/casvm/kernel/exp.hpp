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
/// or divide (no FMA; the build sets -ffp-contract=off), so:
///   - exp(0) and exp(-0) are exactly 1;
///   - a normal result keeps fdlibm's error bound of under 1 ulp (the
///     tests hold it within 2 ulp of the C library's exp; glibc and this
///     function differed by at most 1 ulp over 1.15M test arguments);
///   - the AVX2 row pass runs the same operations in lanes and is bit for
///     bit the scalar function, subnormal and zero results included;
///   - NaN propagates, exp(-inf) = 0 and exp(+inf) = +inf.

#include <cstddef>

namespace casvm::kernel {

/// e^x.
double exp(double x);

/// v[i] = exp(v[i]) for i in [0, n), in place.
using ExpRowFn = void (*)(double* v, std::size_t n);

/// The runtime-dispatched row pass (AVX2 when the CPU supports it,
/// portable otherwise); both produce exp() bit for bit.
ExpRowFn expRowFn();

/// The portable row pass: what expRowFn() falls back to without AVX2, and
/// the reference the dispatched pass is tested against.
void expRowPortable(double* v, std::size_t n);

}  // namespace casvm::kernel
