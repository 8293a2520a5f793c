#pragma once

/// \file working_set.hpp
/// The SMO index sets (Keerthi et al.'s I_high and I_low) and the pass
/// that picks the maximal violating pair from them.
///
/// The serial solver and the global methods (Dis-SMO, Dis-SMO + shrinking,
/// PBM) share one definition of the sets. `SmoSolver` keeps one high-set
/// and one low-set membership byte per sample (1 = member, 0 = not, or
/// shrunk away), so a selection is one dense pass over f and the two byte
/// arrays with no per-sample branch on label or alpha: the minimal f over
/// the high set and the maximal f over the low set. The pass is runtime
/// dispatched like kernel::tile::dotFn (AVX2 when the CPU supports it, the
/// portable reference otherwise), and both variants return the same
/// indices and values: the first index wins ties (+0.0 and -0.0 tie), NaN
/// is never chosen, and an empty set yields m with +inf (high) or -inf
/// (low).

#include <cstddef>
#include <cstdint>

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

/// The runtime-dispatched pass (AVX2 when available, portable otherwise).
SelectFn selectFn();

/// The portable pass: what selectFn() falls back to without AVX2, and the
/// reference the dispatched pass is tested against.
PairPick selectPortable(const double* f, const std::uint8_t* high,
                        const std::uint8_t* low, std::size_t m);

}  // namespace casvm::solver
