#pragma once

/// \file cache_value.hpp
/// The one precision kernel values are cached and trained on.
///
/// Rows are stored as float, as LIBSVM's Qfloat cache stores them: a byte
/// budget holds twice the rows a double cache would. Every row source
/// fills its rows straight into this type (see row_source.hpp), rounding
/// each value once from the double the kernel computes, and code that
/// computes kernel values outside the cache and must agree with a cached
/// solve (the global methods' fresh columns and pair-step eta) passes
/// them through asCached().

#include <cstddef>

namespace casvm::kernel {

/// Stored precision of a cached kernel value.
using CacheValue = float;

/// `k` rounded as the row cache stores it, widened back to double.
inline double asCached(double k) {
  return static_cast<double>(static_cast<CacheValue>(k));
}

/// dst[k] = CacheValue(src[k]) for k < n: finished kernel values rounded
/// as the row cache stores them, in one vector pass.
void toCached(const double* src, CacheValue* dst, std::size_t n);

}  // namespace casvm::kernel
