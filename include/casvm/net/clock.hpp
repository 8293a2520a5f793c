#pragma once

/// \file clock.hpp
/// Per-rank virtual time.
///
/// The simulated ranks of an Engine run share one physical machine, so a
/// rank's wall-clock includes time it spent descheduled while other ranks
/// ran. Virtual time fixes this: compute time is measured with the
/// per-thread CPU clock (only the work this rank actually did), and
/// communication time is charged from the CostModel. Message timestamps
/// propagate through recv() so a rank that waits for a slow peer advances
/// to the peer's completion time — i.e. virtual time follows the critical
/// path, exactly like a dedicated-node execution would.

#include "casvm/net/cost.hpp"

namespace casvm::net {

/// Tracks one rank's virtual clock (compute + communication seconds).
class VirtualClock {
 public:
  /// Begin timing; called by the Engine on the rank's own thread.
  void start();

  /// Fold thread-CPU time elapsed since the last sample into compute time.
  /// Comm calls invoke this on entry so all non-comm work counts as compute.
  void sampleCompute();

  /// Charge `seconds` of communication time.
  void addComm(double seconds);

  /// Charge extra compute seconds directly (used by modeled workloads).
  void addCompute(double seconds);

  /// Advance the clock to `t` if `t` is later than now (message arrival).
  /// Afterwards now() >= t: a message is never received before it arrived.
  void advanceTo(double t);

  /// Scale sampled CPU time by `scale` (>= 1). Used by fault injection to
  /// model a slow rank: the straggler's compute costs `scale`x on the
  /// virtual clock while the real work stays the same.
  void setComputeScale(double scale);

  /// Virtual now = compute + comm (+ any waiting advanced over), never
  /// below the latest arrival time advanced to.
  double now() const {
    const double sum = computeSeconds_ + commSeconds_ + skew_;
    return sum > arrived_ ? sum : arrived_;
  }

  double computeSeconds() const { return computeSeconds_; }
  double commSeconds() const { return commSeconds_ + skew_; }

  /// The wait component of commSeconds(): time spent blocked on peers
  /// whose messages arrived later than this rank's local virtual now.
  double waitSeconds() const { return skew_; }

 private:
  double computeSeconds_ = 0.0;
  double commSeconds_ = 0.0;
  /// Time spent waiting on peers (arrival timestamps later than local now).
  /// Reported as communication time: it is time the rank was not computing.
  double skew_ = 0.0;
  /// Latest arrival time advanceTo() moved to. Re-summing the three
  /// components after a wait can round an ulp short of it; now() reads
  /// this instead, so a receive never completes before its arrival.
  double arrived_ = 0.0;
  double lastCpuSample_ = 0.0;
  double computeScale_ = 1.0;
  bool started_ = false;
};

}  // namespace casvm::net
