#pragma once

// Cross-process codec for one rank's RankBoard slots. On the proc
// transport the SPMD body runs in a forked worker whose board writes land
// in copy-on-write memory and die with the process; the worker therefore
// serializes its rank's slots through the engine's result channel and the
// supervisor absorbs them into the parent's board. Doubles travel as raw
// bit patterns so the assembled TrainResult is bitwise-identical to the
// thread backend's.

#include <cstddef>
#include <span>
#include <vector>

#include "casvm/core/spmd.hpp"

namespace casvm::core::detail {

/// Pack every slot rank `rank` owns (including the init-phase traffic
/// snapshot, which only rank 0 ever fills).
std::vector<std::byte> encodeBoardSlot(const RankBoard& board, int rank);

/// Unpack a worker's slot bytes into the parent-side board. Throws
/// casvm::Error on a malformed payload.
void absorbBoardSlot(RankBoard& board, int rank,
                     std::span<const std::byte> bytes);

}  // namespace casvm::core::detail
