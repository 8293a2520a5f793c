#pragma once

/// \file tile_kernel.hpp
/// The blocked tile-dot micro-kernel behind RowWorkspace-accelerated row
/// fills, exposed so other subsystems (the serve engine's compiled models)
/// can score against the same 16-row k-major float tiling the solver uses.
///
/// Layout: tiles[block][k][0..15] holds column k of rows 16*block ..
/// 16*block+15 (tail block zero-padded). One dot pass needs no
/// transposition — per k it broadcasts xd[k] and streams 16 contiguous
/// floats — and every output row accumulates serially over ascending k into
/// a single double, so the sums are bitwise-identical to Dataset::dot /
/// Dataset::dotWith against the same row bytes (multiplies and adds are
/// kept separate; no FMA contraction).
///
/// A two-query pass computes two such outputs per sweep, so the tiles are
/// streamed once for two rows; each output keeps its own serial sum, so it
/// is bitwise-equal to a one-query pass.

#include <cstddef>
#include <vector>

#include "casvm/data/dataset.hpp"

namespace casvm::kernel::tile {

/// Rows per block of the tiled layout.
inline constexpr std::size_t kRows = 16;

/// Number of 16-row blocks needed for m rows.
inline constexpr std::size_t blockCount(std::size_t m) {
  return (m + kRows - 1) / kRows;
}

/// Pack the dense rows of `ds` into the blocked k-major layout
/// (blockCount(rows) * cols * kRows floats, tail block zero-padded).
/// Only valid for Storage::Dense.
void pack(const data::Dataset& ds, std::vector<float>& tiles);

/// out[j] = sum_k xd[k] * tiles(j, k) for j in [0, m). `xd` has n entries;
/// accumulation per row is serial over ascending k into one double.
using DotFn = void (*)(const float* tiles, const double* xd, std::size_t m,
                       std::size_t n, double* out);

/// Two queries in one sweep: out0 is the DotFn pass of x0 and out1 that
/// of x1, bit for bit.
using Dot2Fn = void (*)(const float* tiles, const double* x0,
                        const double* x1, std::size_t m, std::size_t n,
                        double* out0, double* out1);

/// Runtime-dispatched implementations (AVX2 when the CPU supports it,
/// portable otherwise). Both produce bitwise-identical sums.
DotFn dotFn();
Dot2Fn dot2Fn();

/// The portable passes: what dotFn() and dot2Fn() fall back to without
/// AVX2, and the reference the dispatched passes are tested against.
void dotPortable(const float* tiles, const double* xd, std::size_t m,
                 std::size_t n, double* out);
void dot2Portable(const float* tiles, const double* x0, const double* x1,
                  std::size_t m, std::size_t n, double* out0, double* out1);

}  // namespace casvm::kernel::tile
