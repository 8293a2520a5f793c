#pragma once

/// \file bench.hpp
/// Shared pieces of the repository benchmark: the benchmark's own span log,
/// the metric list, the correctness gates and the host-noise sampler. Every
/// timing here is wall-clock (std::chrono::steady_clock) taken around calls
/// into the library's public API; nothing inside the library is changed.

#include <cstdint>
#include <string>
#include <vector>

namespace casvm::core {
struct TrainResult;
}

namespace perfbench {

/// Seconds since the first call (steady clock).
double nowSeconds();

/// The benchmark's own trace: one span per timed call into a layer, with
/// its parent (the span open when it began). Kept in memory and written as
/// JSON at exit by the traced run.
class SpanLog {
 public:
  /// RAII span, closed at the end of its scope or by close().
  class Scope {
   public:
    Scope(SpanLog& log, std::string name);
    ~Scope() { close(); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    /// Close the span early and return its duration.
    double close();

   private:
    SpanLog& log_;
    int id_;
    bool open_ = true;
  };

  std::size_t size() const { return spans_.size(); }
  void write(const std::string& path) const;

 private:
  struct Span {
    std::string name;
    double start = 0.0;
    double end = -1.0;
    int parent = -1;
  };
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Ordered metric list; set() replaces a metric of the same name.
class Metrics {
 public:
  void set(const std::string& name, double value, const std::string& unit);
  const std::vector<Metric>& list() const { return list_; }

 private:
  std::vector<Metric> list_;
};

/// Correctness gates. Each predicate is a pure function so the self-check
/// can show it trips on a wrong value; Gates collects the violations of a
/// run. No gate runs inside a timed interval.
namespace gate {
bool accuracyFloor(double accuracy, double floor);
/// |objective - serial| <= relTol * max(1, |serial|).
bool objectiveMatches(double objective, double serial, double relTol);
/// Bitwise equality of two doubles (the compiled-model contract).
bool bitwiseEqual(double a, double b);
/// A reply's model generation lies between the generation published
/// before its submit and the one current when the reply was read.
bool generationInWindow(std::uint64_t gen, std::uint64_t atSubmit,
                        std::uint64_t atRead);
/// A killed rank was respawned and the run finished with full coverage.
bool recovered(const casvm::core::TrainResult& res);
}  // namespace gate

class Gates {
 public:
  void check(bool ok, const std::string& what);
  bool passed() const { return failures_.empty(); }
  std::size_t checked() const { return checked_; }
  const std::vector<std::string>& failures() const { return failures_; }

 private:
  std::size_t checked_ = 0;
  std::vector<std::string> failures_;
};

/// Run every gate predicate on a right and a wrong value; returns the
/// predicates that failed to tell them apart (empty = self-check passed).
std::vector<std::string> selfCheckGates();

/// Host counters for explaining outliers: CPU steal from /proc/stat and
/// involuntary context switches (self + reaped children) from getrusage.
struct HostSample {
  std::uint64_t steal = 0;
  std::uint64_t total = 0;
  long nivcsw = 0;
};
HostSample sampleHost();

/// Peak resident set in MB since the last resetPeakRss(): the larger of
/// this process's high-water mark (VmHWM) and its largest reaped child (the
/// proc transport's workers; that figure is never reset).
double peakRssMb();

/// Restart this process's resident-set high-water mark from the memory it
/// holds: hand freed heap pages back to the kernel (malloc_trim), so what
/// earlier work left in the allocator's arenas does not count, then reset
/// the mark (Linux /proc/self/clear_refs).
void resetPeakRss();

/// CPU time (user + system) of this process and its reaped children, in
/// seconds. Time the hypervisor steals from the VM is not charged to it.
double cpuSeconds();

}  // namespace perfbench
