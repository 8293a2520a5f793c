#include "bench.hpp"

#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstring>
#include <fstream>
#include <sstream>

#include "casvm/core/train.hpp"
#include "casvm/support/error.hpp"

namespace perfbench {

double nowSeconds() {
  using Clock = std::chrono::steady_clock;
  static const Clock::time_point origin = Clock::now();
  return std::chrono::duration<double>(Clock::now() - origin).count();
}

SpanLog::Scope::Scope(SpanLog& log, std::string name)
    : log_(log), id_(static_cast<int>(log.spans_.size())) {
  Span s;
  s.name = std::move(name);
  s.parent = log.stack_.empty() ? -1 : log.stack_.back();
  s.start = nowSeconds();
  log.spans_.push_back(std::move(s));
  log.stack_.push_back(id_);
}

double SpanLog::Scope::close() {
  Span& s = log_.spans_[static_cast<std::size_t>(id_)];
  if (open_) {
    s.end = nowSeconds();
    open_ = false;
    // Scopes nest lexically, so this span is the innermost open one.
    if (!log_.stack_.empty() && log_.stack_.back() == id_) {
      log_.stack_.pop_back();
    }
  }
  return s.end - s.start;
}

void SpanLog::write(const std::string& path) const {
  std::ofstream out(path);
  CASVM_CHECK(out.good(), "cannot write span log " + path);
  out << "{\"spans\": [\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << "  {\"id\": " << i << ", \"name\": \"" << s.name
        << "\", \"start_s\": " << s.start << ", \"end_s\": " << s.end
        << ", \"parent\": " << s.parent << "}"
        << (i + 1 < spans_.size() ? ",\n" : "\n");
  }
  out << "]}\n";
}

void Metrics::set(const std::string& name, double value,
                  const std::string& unit) {
  for (Metric& m : list_) {
    if (m.name == name) {
      m.value = value;
      m.unit = unit;
      return;
    }
  }
  list_.push_back({name, value, unit});
}

namespace gate {

bool accuracyFloor(double accuracy, double floor) {
  return std::isfinite(accuracy) && accuracy >= floor && accuracy <= 1.0;
}

bool objectiveMatches(double objective, double serial, double relTol) {
  return std::isfinite(objective) && std::isfinite(serial) &&
         std::abs(objective - serial) <=
             relTol * std::max(1.0, std::abs(serial));
}

bool bitwiseEqual(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

bool generationInWindow(std::uint64_t gen, std::uint64_t atSubmit,
                        std::uint64_t atRead) {
  return gen >= atSubmit && gen <= atRead;
}

bool recovered(const casvm::core::TrainResult& res) {
  return !res.recoveredRanks.empty() && !res.degraded &&
         res.failedRanks.empty() && res.coveredFraction == 1.0;
}

}  // namespace gate

void Gates::check(bool ok, const std::string& what) {
  ++checked_;
  if (!ok) failures_.push_back(what);
}

std::vector<std::string> selfCheckGates() {
  std::vector<std::string> broken;
  auto expect = [&broken](bool right, bool wrong, const char* name) {
    if (!right || wrong) broken.push_back(name);
  };
  expect(gate::accuracyFloor(0.97, 0.9), gate::accuracyFloor(0.5, 0.9),
         "accuracyFloor");
  expect(gate::objectiveMatches(-100.05, -100.0, 1e-3),
         gate::objectiveMatches(-101.0, -100.0, 1e-3), "objectiveMatches");
  expect(gate::bitwiseEqual(0.25, 0.25),
         gate::bitwiseEqual(0.25, std::nextafter(0.25, 1.0)), "bitwiseEqual");
  expect(gate::generationInWindow(3, 2, 4),
         gate::generationInWindow(1, 2, 4), "generationInWindow");

  casvm::core::TrainResult ok;
  ok.recoveredRanks = {1};
  casvm::core::TrainResult lost = ok;
  lost.degraded = true;
  lost.coveredFraction = 0.75;
  casvm::core::TrainResult untouched;
  const bool right = gate::recovered(ok);
  expect(right, gate::recovered(lost), "recovered(degraded)");
  expect(right, gate::recovered(untouched), "recovered(no respawn)");
  return broken;
}

HostSample sampleHost() {
  HostSample h;
  std::ifstream stat("/proc/stat");
  std::string line;
  if (std::getline(stat, line) && line.rfind("cpu ", 0) == 0) {
    std::istringstream in(line.substr(4));
    std::uint64_t v = 0;
    for (int field = 0; field < 10 && (in >> v); ++field) {
      // Fields 8 and 9 (guest, guest_nice) are already counted in user.
      if (field < 8) h.total += v;
      if (field == 7) h.steal = v;
    }
  }
  rusage self{};
  rusage children{};
  getrusage(RUSAGE_SELF, &self);
  getrusage(RUSAGE_CHILDREN, &children);
  h.nivcsw = self.ru_nivcsw + children.ru_nivcsw;
  return h;
}

double peakRssMb() {
  long selfKb = 0;
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) selfKb = std::stol(line.substr(6));
  }
  rusage children{};
  getrusage(RUSAGE_CHILDREN, &children);
  return static_cast<double>(std::max(selfKb, children.ru_maxrss)) / 1024.0;
}

void resetPeakRss() {
  malloc_trim(0);
  std::ofstream clear("/proc/self/clear_refs");
  clear << "5";
  CASVM_CHECK(clear.flush().good(), "cannot reset the peak RSS");
}

double cpuSeconds() {
  double total = 0.0;
  for (int who : {RUSAGE_SELF, RUSAGE_CHILDREN}) {
    rusage r{};
    getrusage(who, &r);
    total += static_cast<double>(r.ru_utime.tv_sec + r.ru_stime.tv_sec) +
             static_cast<double>(r.ru_utime.tv_usec + r.ru_stime.tv_usec) *
                 1e-6;
  }
  return total;
}

}  // namespace perfbench
