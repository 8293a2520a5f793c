#pragma once

/// \file trace.hpp
/// Low-overhead run tracing: per-thread event lanes merged into one
/// recorder, exported as Chrome trace_event JSON.
///
/// The design goal is that instrumentation is free when nobody is looking:
/// every producer holds a `Lane*` that is nullptr by default, and every
/// record site is guarded by that single pointer test. When a recorder is
/// attached, each rank (or serve worker) writes into its own Lane with no
/// synchronization — a lane is owned by exactly one thread for the duration
/// of the run, and the recorder only walks the lanes after the producing
/// threads have joined. addLane() itself is mutex-guarded (it is called
/// from the engine setup path, never from a hot loop) and hands out
/// pointer-stable lanes.
///
/// Span taxonomy (see DESIGN.md §8):
///  - Cat::Comm   — one span per top-level communication op (send, recv,
///                  bcast, reduce, allreduce, gather, scatterv, alltoallv,
///                  barrier, ...) with peer/root and bytes moved. Nested
///                  ops (a collective's internal point-to-point messages)
///                  are folded into the enclosing span, so summing a
///                  lane's comm spans never double-counts.
///  - Cat::Phase  — algorithm phases (partition, scatter, solve, merge);
///                  `detail` carries the tree layer where applicable.
///  - Cat::Solver — periodic instant events from the SMO hot loop
///                  (iteration, active-set size, gap, cache hit rate).
///  - Cat::Serve  — one span per scored micro-batch in the serving engine.
///
/// Timestamps are whatever clock the producer uses: virtual seconds for
/// training ranks (so the timeline matches the paper's cost model), real
/// seconds since engine start for serve workers. Each lane gets its own
/// pid in the Chrome export, so the timelines never mix.

#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <vector>

namespace casvm::obs {

/// Event category (maps to the Chrome trace "cat" field).
enum class Cat : std::uint8_t { Comm = 0, Phase = 1, Solver = 2, Serve = 3 };

const char* catName(Cat cat);

/// One recorded span or instant. `name` must be a string literal (or
/// otherwise outlive the recorder): lanes store the pointer, not a copy,
/// so recording never allocates for the name.
struct Event {
  const char* name = "";
  Cat cat = Cat::Comm;
  bool instant = false;
  double startSeconds = 0.0;
  double endSeconds = 0.0;
  std::int64_t peer = -1;    ///< peer/root rank of a comm op; -1 = n/a
  std::int64_t bytes = -1;   ///< bytes moved during the span; -1 = n/a
  std::int64_t detail = -1;  ///< tree layer / batch rows / ...; -1 = n/a
  std::int64_t iter = -1;    ///< solver iteration (progress events)
  std::int64_t active = -1;  ///< solver active-set size (progress events)
  double gap = 0.0;          ///< solver KKT gap bLow - bHigh
  double hitRate = 0.0;      ///< kernel row-cache hit rate in [0, 1]

  double durationSeconds() const { return endSeconds - startSeconds; }
};

/// One thread's event buffer. Writes are single-threaded by contract
/// (one lane per producing thread); reads happen after the producer joined.
class Lane {
 public:
  Lane(int pid, int tid, std::string name)
      : pid_(pid), tid_(tid), name_(std::move(name)) {
    events_.reserve(256);
  }

  Lane(const Lane&) = delete;
  Lane& operator=(const Lane&) = delete;

  /// Record a complete span [startSeconds, endSeconds].
  void span(const char* name, Cat cat, double startSeconds, double endSeconds,
            std::int64_t peer = -1, std::int64_t bytes = -1,
            std::int64_t detail = -1) {
    Event e;
    e.name = name;
    e.cat = cat;
    e.startSeconds = startSeconds;
    e.endSeconds = endSeconds;
    e.peer = peer;
    e.bytes = bytes;
    e.detail = detail;
    events_.push_back(e);
  }

  /// Record a solver progress instant.
  void progress(double atSeconds, std::int64_t iter, std::int64_t active,
                double gap, double hitRate) {
    Event e;
    e.name = "progress";
    e.cat = Cat::Solver;
    e.instant = true;
    e.startSeconds = atSeconds;
    e.endSeconds = atSeconds;
    e.iter = iter;
    e.active = active;
    e.gap = gap;
    e.hitRate = hitRate;
    events_.push_back(e);
  }

  /// Append a fully populated event (shard absorption; `e.name` must
  /// outlive the recorder like every other name).
  void record(const Event& e) { events_.push_back(e); }

  int pid() const { return pid_; }
  int tid() const { return tid_; }
  const std::string& name() const { return name_; }
  const std::vector<Event>& events() const { return events_; }

 private:
  int pid_;
  int tid_;
  std::string name_;
  std::vector<Event> events_;
};

/// Owns the lanes of one traced run and renders them after the fact.
/// Thread-safe for addLane(); the query/export methods must only be called
/// once every producing thread has stopped recording.
class TraceRecorder {
 public:
  /// Create a lane; the returned reference stays valid for the recorder's
  /// lifetime. In the Chrome export `pid` groups lanes into one process
  /// row (one pid per rank; serve workers share a dedicated pid) and
  /// `name` labels it.
  Lane& addLane(int pid, int tid, std::string name);

  std::size_t laneCount() const;
  const Lane& lane(std::size_t i) const;

  /// Total events across all lanes.
  std::size_t eventCount() const;

  /// Number of spans of `cat` recorded under `pid` (all lanes).
  std::size_t spanCount(int pid, Cat cat) const;

  /// Sum of Cat::Comm span durations recorded under `pid`. Because nested
  /// comm ops never produce their own top-level spans, this is directly
  /// comparable to the rank's VirtualClock commSeconds().
  double commSeconds(int pid) const;

  /// The full trace as Chrome trace_event JSON ({"traceEvents": [...]},
  /// loadable in chrome://tracing or https://ui.perfetto.dev). Timestamps
  /// are exported in microseconds.
  std::string chromeTraceJson() const;

  /// chromeTraceJson() written to `path`; throws casvm::Error on IO failure.
  void writeChromeTrace(const std::string& path) const;

  /// Serialize every lane and event into a flat, self-describing byte
  /// blob. This is how per-process trace shards cross the process
  /// boundary on the proc transport: each worker encodes its local
  /// recorder and the supervisor absorbs the shards into the run's
  /// recorder.
  std::vector<std::byte> encodeShard() const;

  /// Append the lanes of an encoded shard to this recorder. Event names
  /// are re-interned into recorder-owned storage (the shard's `name`
  /// pointers belonged to another process); malformed input throws
  /// casvm::Error.
  void absorbShard(std::span<const std::byte> shard);

 private:
  /// Recorder-owned copy of `name`, deduplicated; valid for the
  /// recorder's lifetime, satisfying Event::name's contract.
  const char* intern(const std::string& name);

  mutable std::mutex mutex_;
  std::vector<std::unique_ptr<Lane>> lanes_;
  std::vector<std::unique_ptr<std::string>> interned_;
};

}  // namespace casvm::obs
