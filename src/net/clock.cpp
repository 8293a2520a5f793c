#include "casvm/net/clock.hpp"

#include "casvm/support/error.hpp"
#include "casvm/support/timer.hpp"

namespace casvm::net {

void VirtualClock::start() {
  lastCpuSample_ = threadCpuSeconds();
  started_ = true;
}

void VirtualClock::sampleCompute() {
  CASVM_ASSERT(started_, "VirtualClock used before start()");
  const double cpu = threadCpuSeconds();
  computeSeconds_ += (cpu - lastCpuSample_) * computeScale_;
  lastCpuSample_ = cpu;
}

void VirtualClock::setComputeScale(double scale) {
  CASVM_CHECK(scale >= 1.0, "compute scale must be >= 1");
  computeScale_ = scale;
}

void VirtualClock::addComm(double seconds) { commSeconds_ += seconds; }

void VirtualClock::addCompute(double seconds) { computeSeconds_ += seconds; }

void VirtualClock::advanceTo(double t) {
  const double current = now();
  if (t <= current) return;
  skew_ += t - current;
  arrived_ = t;
}

}  // namespace casvm::net
