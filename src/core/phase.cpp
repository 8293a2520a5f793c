#include "methods.hpp"

namespace casvm::core::detail {

void markInitEnd(net::Comm& comm, const MethodContext& ctx) {
  const auto rank = static_cast<std::size_t>(comm.rank());
  ctx.board.initEndVirtual[rank] = virtualNow(comm);
  // Consistent cut between the init and training phases: while rank 0
  // snapshots, every rank is parked in the fence with its init-phase sends
  // already recorded. The fence itself records no traffic.
  comm.instrumentationFence([&] {
    ctx.board.initSnapshot = comm.trafficSnapshot();
  });
  // The phase=train crash point is NOT injected here: each method body
  // places its own comm.faultCheckpoint("train") after this call — the
  // partitioned methods in finishRank, inside their retry loop, so a
  // crashed rank can re-enter the checkpoint (and survive it once the
  // clause's crash budget is spent) without repeating the fence above.
}

void markTrainEnd(net::Comm& comm, const MethodContext& ctx) {
  const auto rank = static_cast<std::size_t>(comm.rank());
  ctx.board.trainEndVirtual[rank] = virtualNow(comm);
}

}  // namespace casvm::core::detail
