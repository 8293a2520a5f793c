#pragma once

/// \file tile_kernel.hpp
/// The blocked tile-dot micro-kernel behind RowWorkspace-accelerated row
/// fills, exposed so other subsystems (the Nyström factor, the serve
/// engine's compiled models) can score against the same 16-row k-major
/// float tiling the solver uses.
///
/// Layout: tiles[block][k][0..15] holds column k of rows 16*block ..
/// 16*block+15 (tail block zero-padded). One dot pass needs no
/// transposition — per k it broadcasts each query's xd[k] and streams 16
/// contiguous floats — and every output row accumulates serially over
/// ascending k into a single double, so the sums are bitwise-identical to
/// Dataset::dot / Dataset::dotWith against the same row bytes.
///
/// One pass takes one to kMaxQueries (eight) queries and streams the
/// tiles once for all of them; each output keeps its own serial sum, so
/// every output is bitwise what a one-query pass gives. At 4k rows × 200
/// features a part's tiles (3.2 MB) exceed a 2 MB L2, so a pass streams
/// most of them from L3, and every tile lane it widens to double costs
/// port time that more queries share: on AVX-512 an eight-query sweep of
/// a 4,000 × 200 pack takes 25.6 µs a row against 36.4 for four.
/// sweepChunks() runs a pass a 256-row chunk at a time, forward or in
/// reverse chunk order, and RowWorkspace alternates the two orders, so
/// each sweep starts on the tiles the previous one left in L2; block
/// order never changes an output, since each output row sums over k
/// alone. Each chunk's dots go to the caller while they are still in L1
/// (the row fills' kernel transform and float rounding, see kernel.hpp).
///
/// Rounding: the portable pass and the AVX2 lanes keep multiplies and
/// adds apart. The AVX-512 lanes use one fused multiply-add per product,
/// which is bitwise the same only because both factors are floats widened
/// to double: their product (at most 48 significant bits, and far from
/// double's overflow and underflow) is exact, so the fma rounds once where
/// the separate add rounds once, to the same value. Every query must
/// therefore hold floats widened to double; every caller widens a float
/// row (a dataset row, a Z row, a serving query).

#include <cstddef>
#include <cstdint>
#include <vector>

#include "casvm/data/dataset.hpp"
#include "casvm/support/isa.hpp"

namespace casvm::kernel::tile {

/// Rows per block of the tiled layout.
inline constexpr std::size_t kRows = 16;

/// Most queries one pass takes: eight queries' accumulators (sixteen zmm
/// registers) plus two tile lanes and a broadcast fit AVX-512's 32.
inline constexpr std::size_t kMaxQueries = 8;

/// Number of 16-row blocks needed for m rows.
inline constexpr std::size_t blockCount(std::size_t m) {
  return (m + kRows - 1) / kRows;
}

/// Pack the dense rows of `ds` into the blocked k-major layout
/// (blockCount(rows) * cols * kRows floats, tail block zero-padded).
/// Only valid for Storage::Dense.
void pack(const data::Dataset& ds, std::vector<float>& tiles);

/// q queries in one sweep, 1 <= q <= kMaxQueries: out[t][j] = sum_k
/// xs[t * n + k] * tiles(j, k) for j in [0, m). Query t is the n entries
/// at xs + t * n, each a float widened to double; accumulation per output
/// row is serial over ascending k into one double.
using DotFn = void (*)(const float* tiles, const double* xs, std::size_t q,
                       std::size_t m, std::size_t n, double* const* out);

/// The runtime-dispatched pass: AVX-512F when the CPU supports it (a lone
/// query there steps four blocks at a time, eight accumulator chains in
/// flight), else AVX2, else portable. Every variant produces
/// bitwise-identical sums.
DotFn dotFn();

using casvm::Isa;

/// The pass of one instruction set, or nullptr where this CPU or build
/// lacks it. dotFn() picks among these; tests run each against the
/// portable pass.
DotFn dotFnFor(Isa isa);

/// Queries one sweep of dotFn() serves at full speed, the width a row
/// source fills rows at: kMaxQueries where the AVX-512 pass runs, else
/// four. The AVX2 pass runs more than two queries as pairs of sweeps, so
/// there eight rows cost twice the sweeps of four, and the extra rows
/// filled ahead do not repay them: with the AVX2 pass forced, width eight
/// was slower end to end than four (DESIGN.md §2.7 has the runs).
std::size_t sweepWidth();

/// Blocks per chunk of a reversed sweep: 256 rows, 200 KB of tiles at 200
/// features, a tenth of a 2 MB L2.
inline constexpr std::size_t kChunkBlocks = 16;
inline constexpr std::size_t kChunkRows = kChunkBlocks * kRows;

/// One pass of `fn` with dotFn's arguments over all m rows, a chunk of
/// kChunkBlocks blocks at a time: in ascending chunk order, or, when
/// `reverse`, from the last chunk to the first (ascending within each
/// chunk). Each chunk's q outputs go to `scratch` (query t's kChunkRows
/// entries at scratch + t * kChunkRows), then `epilogue(base, count)`
/// reads them, for rows [base, base + count), before the next chunk's
/// pass overwrites them. The outputs are bitwise one whole-range pass's
/// in either order. Every kernel row and column fill runs through it.
template <class Epilogue>
void sweepChunks(DotFn fn, const float* tiles, const double* xs, std::size_t q,
                 std::size_t m, std::size_t n, bool reverse, double* scratch,
                 Epilogue&& epilogue) {
  double* out[kMaxQueries];
  for (std::size_t t = 0; t < q; ++t) out[t] = scratch + t * kChunkRows;
  const std::size_t chunks = (m + kChunkRows - 1) / kChunkRows;
  for (std::size_t i = 0; i < chunks; ++i) {
    const std::size_t base = (reverse ? chunks - 1 - i : i) * kChunkRows;
    const std::size_t count = m - base < kChunkRows ? m - base : kChunkRows;
    fn(tiles + base * n, xs, q, count, n, out);
    epilogue(base, count);
  }
}

/// The portable pass: what dotFn() falls back to without AVX2, and the
/// reference the dispatched passes are tested against.
void dotPortable(const float* tiles, const double* xs, std::size_t q,
                 std::size_t m, std::size_t n, double* const* out);

}  // namespace casvm::kernel::tile
