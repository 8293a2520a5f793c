#pragma once

/// \file working_set.hpp
/// The SMO index sets (Keerthi et al.'s I_high and I_low), the pass that
/// picks the maximal violating pair from them, and the dense gradient
/// update that follows each step.
///
/// The serial solver and the global methods (Dis-SMO, Dis-SMO + shrinking,
/// PBM) share one definition of the sets. `SmoSolver` keeps one high-set
/// and one low-set membership byte per sample (1 = member, 0 = not, or
/// shrunk away), so a selection is one dense pass over f and the two byte
/// arrays with no per-sample branch on label or alpha: the minimal f over
/// the high set and the maximal f over the low set. Both passes are
/// runtime dispatched like kernel::tile::dotFn (AVX-512F, else AVX2, else
/// the portable reference; see isa.hpp), and every variant gives the
/// portable result bit for bit. A selection returns the same indices and
/// values: the first index wins ties (+0.0 and -0.0 tie), NaN is never
/// chosen, and an empty set yields m with +inf (high) or -inf (low).
///
/// The gradient update (eqn. 5) runs fused with the next iteration's
/// selection, dispatched the same way.
///
/// A fourth dispatched pass ranks the samples whose kernel rows a pair
/// fetch fills ahead of demand (see row_cache.hpp): the members of either
/// set nearest their set's threshold, among the rows the cache does not
/// hold.

#include <cstddef>
#include <cstdint>

#include "casvm/support/isa.hpp"

namespace casvm::solver {

/// Relative slack treating alphas within eps of a box bound as *at* the
/// bound. Without this, an alpha at C - 1e-17 keeps its sample in the high
/// set while leaving the two-variable step no room to move, and the solver
/// spins on an unmovable pair. The absolute eps is this times the larger
/// per-class box.
inline constexpr double kBoundSlack = 1e-10;

/// Membership in the high set under the per-class box `ci`: can f_i still
/// decrease the upper threshold?
inline bool inHighSet(std::int8_t y, double alpha, double ci, double eps) {
  return (y == 1 && alpha < ci - eps) || (y == -1 && alpha > eps);
}

/// Membership in the low set: mirror condition for the lower threshold.
inline bool inLowSet(std::int8_t y, double alpha, double ci, double eps) {
  return (y == 1 && alpha > eps) || (y == -1 && alpha < ci - eps);
}

/// What one selection pass finds.
struct PairPick {
  std::size_t high;  ///< first argmin of f over the high set, or m
  std::size_t low;   ///< first argmax of f over the low set, or m
  double bHigh;      ///< f[high], or +inf when the high set is empty
  double bLow;       ///< f[low], or -inf when the low set is empty
};

/// One pass over m samples: f is the optimality gradient, `high` and `low`
/// the membership bytes.
using SelectFn = PairPick (*)(const double* f, const std::uint8_t* high,
                              const std::uint8_t* low, std::size_t m);

/// The runtime-dispatched selection.
SelectFn selectFn();

/// The selection of one instruction set, or nullptr where this CPU or
/// build lacks it. selectFn() picks among these; tests run each of them.
SelectFn selectFnFor(Isa isa);

/// The portable selection: what selectFn() falls back to without AVX2, and
/// the reference the other variants are tested against.
PairPick selectPortable(const double* f, const std::uint8_t* high,
                        const std::uint8_t* low, std::size_t m);

/// Most samples one ranking pass returns: the rows an eight-row fill
/// carries beyond a demand row.
inline constexpr std::size_t kMaxRanked = 8;

/// One ranking pass over m samples: up to `room` samples (at most
/// kMaxRanked) whose `held` byte is 0, smallest score first, written to
/// out[0..count); returns the count. A sample's score is the smaller of
/// f - bHigh where it is a high-set member and bLow - f where it is a
/// low-set member, with the thresholds of `pair`, the election; the pair
/// itself is skipped. A score of +inf (neither set) or NaN is never
/// chosen, and ties go to the first index.
using RankFn = std::size_t (*)(const double* f, const std::uint8_t* high,
                               const std::uint8_t* low,
                               const std::uint8_t* held, std::size_t m,
                               const PairPick& pair, std::size_t room,
                               std::size_t* out);

/// The runtime-dispatched ranking.
RankFn rankFn();

/// The ranking of one instruction set, or nullptr where this CPU or build
/// lacks it.
RankFn rankFnFor(Isa isa);

/// The portable ranking, the reference the other variants are tested
/// against.
std::size_t rankPortable(const double* f, const std::uint8_t* high,
                         const std::uint8_t* low, const std::uint8_t* held,
                         std::size_t m, const PairPick& pair,
                         std::size_t room, std::size_t* out);

/// The gradient update (eqn. 5) over m samples: f[k] += a * double(h[k]) +
/// b * double(l[k]), with the two kernel columns as the row cache stores
/// them, products and adds kept apart. The reference the fused pass's
/// update is tested against.
void updatePortable(double* f, const float* h, const float* l, double a,
                    double b, std::size_t m);

/// The update and the next selection in one pass over f: f as
/// updatePortable leaves it (every variant keeps the products and the
/// adds apart), and the pick the selection of that f under the membership
/// bytes returns, bit for bit (first index on ties, +0.0 and -0.0 tie,
/// NaN never chosen). SmoLoop carries the pick into the next iteration,
/// so a dense iteration reads f once instead of twice.
using UpdateSelectFn = PairPick (*)(double* f, const float* h, const float* l,
                                    double a, double b,
                                    const std::uint8_t* high,
                                    const std::uint8_t* low, std::size_t m);

/// The runtime-dispatched update-and-select.
UpdateSelectFn updateSelectFn();

/// The update-and-select of one instruction set, or nullptr where this
/// CPU or build lacks it.
UpdateSelectFn updateSelectFnFor(Isa isa);

/// The portable update-and-select: updatePortable, then selectPortable.
PairPick updateSelectPortable(double* f, const float* h, const float* l,
                              double a, double b, const std::uint8_t* high,
                              const std::uint8_t* low, std::size_t m);

}  // namespace casvm::solver
