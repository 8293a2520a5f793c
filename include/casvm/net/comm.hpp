#pragma once

/// \file comm.hpp
/// The SPMD communication handle ("minimpi").
///
/// Every distributed algorithm in this repository is written against Comm
/// exactly as it would be written against MPI: ranks run the same program,
/// exchange typed messages, and synchronize through collectives. Backing
/// transport is in-process (thread mailboxes), which is the substitution
/// this reproduction makes for a physical cluster; see DESIGN.md §1.
///
/// Guarantees:
///  - point-to-point matching is exact on (source, tag) and FIFO per queue;
///  - send() is buffered (never blocks), recv() blocks until a message
///    arrives or the run is aborted by a peer failure;
///  - collectives are built from point-to-point messages (binomial trees,
///    direct gathers), so traffic accounting and virtual-time propagation
///    are honest per edge;
///  - all traffic is recorded in the run's TrafficMatrix and charged to the
///    per-rank VirtualClock with the alpha-beta CostModel.
///
/// Only trivially copyable element types can be transported.

#include <atomic>
#include <cstring>
#include <functional>
#include <memory>
#include <type_traits>
#include <vector>

#include "casvm/net/clock.hpp"
#include "casvm/net/cost.hpp"
#include "casvm/net/fault.hpp"
#include "casvm/net/mailbox.hpp"
#include "casvm/net/traffic.hpp"
#include "casvm/net/transport.hpp"
#include "casvm/support/error.hpp"

namespace casvm::obs {
class Lane;
class TraceRecorder;
}  // namespace casvm::obs

namespace casvm::net {

class ThreadTransport;

/// State shared by all ranks of one Engine::run invocation. Delivery and
/// failure flags live in the Transport backend; the World owns the traffic
/// matrix (or a view of the backend's shared storage) and the injector.
class World {
 public:
  /// Default backend: the World owns an in-process ThreadTransport. This
  /// is the pre-transport-refactor constructor, kept so direct World
  /// construction (tests, benches) is unchanged.
  World(int size, CostModel cost, FaultInjector* injector = nullptr);
  /// Run on an externally owned backend (e.g. a ProcTransport shared with
  /// the supervisor). `transport` must outlive the World.
  World(int size, CostModel cost, FaultInjector* injector,
        Transport* transport);
  ~World();

  int size() const { return size_; }
  const CostModel& cost() const { return cost_; }
  TrafficMatrix& traffic() { return traffic_; }
  Transport& transport() { return *transport_; }

  /// Direct mailbox access; valid on the thread backend only (used by the
  /// Engine's deadlock watchdog and the mailbox-level tests).
  Mailbox& mailbox(int rank);

  /// Fault schedule of this run, or nullptr when none is installed.
  FaultInjector* injector() const { return injector_; }

  /// Mark the run as failed; wakes every blocked recv with an error.
  void abortAll() { transport_->abortAll(); }
  /// True once abortAll() has been called (any rank failed fatally).
  bool aborted() const { return transport_->aborted(); }

  /// Mark one rank as failed WITHOUT aborting the run: peers blocked on a
  /// message from it are woken with an error naming `reason`, and future
  /// waits on it fail immediately. Messages it sent before dying are still
  /// delivered. This is the per-rank failure state that lets the
  /// communication-avoiding methods survive a crash.
  void markFailed(int rank, const std::string& reason) {
    transport_->markFailed(rank, reason);
  }
  bool rankFailed(int rank) const { return transport_->rankFailed(rank); }
  /// Ranks marked failed so far, in ascending order.
  std::vector<int> failedRanks() const { return transport_->failedRanks(); }

 private:
  int size_;
  CostModel cost_;
  std::unique_ptr<ThreadTransport> ownedTransport_;
  Transport* transport_;
  TrafficMatrix traffic_;
  FaultInjector* injector_ = nullptr;
};

/// Element types that can cross rank boundaries.
template <class T>
concept Wire = std::is_trivially_copyable_v<T>;

class Comm;

namespace detail {

/// RAII trace span around one communication op. With no lane attached the
/// constructor and destructor each cost a single branch. With a lane, the
/// outermost scope on this rank records a Cat::Comm span covering the op's
/// full virtual-time extent (transfer + wait) and the bytes the rank moved;
/// nested scopes — the point-to-point messages a collective is built from —
/// record nothing, so summing a lane's comm spans never double-counts.
class CommOpScope {
 public:
  CommOpScope(Comm& comm, const char* name, int peer = -1);
  ~CommOpScope();

  CommOpScope(const CommOpScope&) = delete;
  CommOpScope& operator=(const CommOpScope&) = delete;

 private:
  Comm& comm_;
  const char* name_;
  int peer_;
  bool active_ = false;
  double start_ = 0.0;
  double commStart_ = 0.0;
  std::size_t bytesStart_ = 0;
};

}  // namespace detail

/// Per-rank communicator. Cheap to copy around within the owning rank;
/// must only be used from the thread the Engine created it on.
class Comm {
 public:
  Comm(World* world, int rank, VirtualClock* clock)
      : world_(world), rank_(rank), clock_(clock) {}

  int rank() const { return rank_; }
  int size() const {
    return group_.empty() ? world_->size()
                          : static_cast<int>(group_.size());
  }

  /// Rank within the engine's full world (== rank() on the world comm).
  int worldRank() const {
    return group_.empty() ? rank_ : group_[static_cast<std::size_t>(rank_)];
  }

  /// True for the engine-created world communicator.
  bool isWorld() const { return group_.empty(); }
  VirtualClock& clock() { return *clock_; }
  const VirtualClock& clock() const { return *clock_; }

  /// Snapshot of all traffic recorded so far in this run (all ranks).
  TrafficSnapshot trafficSnapshot() const { return world_->traffic().snapshot(); }

  /// Attach (or detach, with nullptr) this rank's trace lane. Wired by the
  /// Engine when a TraceRecorder is installed; child communicators from
  /// split() inherit the parent's lane. With no lane every record site in
  /// the comm layer costs exactly one branch.
  void setTraceLane(obs::Lane* lane) { lane_ = lane; }
  obs::Lane* traceLane() const { return lane_; }

  // --- point-to-point ----------------------------------------------------

  /// Untyped buffered send. User tags must be < kUserTagLimit.
  void sendBytes(int dst, int tag, const void* data, std::size_t bytes);

  /// Untyped blocking receive; returns the payload. User tags must be
  /// < kUserTagLimit, symmetric with sendBytes.
  std::vector<std::byte> recvBytes(int src, int tag);

  /// Named fault-injection checkpoint: consults the run's FaultPlan for
  /// crash-at-phase clauses targeting this rank. A no-op without a plan.
  /// The training driver places checkpoints at phase boundaries ("init",
  /// "train") so even zero-communication methods have deterministic crash
  /// points.
  void faultCheckpoint(const std::string& label);

  /// Send one trivially copyable value.
  template <Wire T>
  void send(int dst, const T& value, int tag = 0) {
    sendBytes(dst, tag, &value, sizeof(T));
  }

  /// Receive one trivially copyable value.
  template <Wire T>
  T recv(int src, int tag = 0) {
    const std::vector<std::byte> payload = recvBytes(src, tag);
    CASVM_CHECK(payload.size() == sizeof(T), "recv: size mismatch");
    T value;
    std::memcpy(&value, payload.data(), sizeof(T));
    return value;
  }

  /// Send a vector of trivially copyable values.
  template <Wire T>
  void send(int dst, const std::vector<T>& v, int tag = 0) {
    sendBytes(dst, tag, v.data(), v.size() * sizeof(T));
  }

  /// Receive a vector; length is carried by the message itself.
  template <Wire T>
  std::vector<T> recvVec(int src, int tag = 0) {
    const std::vector<std::byte> payload = recvBytes(src, tag);
    CASVM_CHECK(payload.size() % sizeof(T) == 0, "recvVec: size mismatch");
    std::vector<T> v(payload.size() / sizeof(T));
    if (!payload.empty()) std::memcpy(v.data(), payload.data(), payload.size());
    return v;
  }

  // --- collectives ---------------------------------------------------------
  // All collectives must be called by every rank, in the same program order.

  /// Synchronize all ranks (binomial reduce + broadcast of a token byte).
  void barrier();

  /// Measurement-layer synchronization: parks every rank at a common point
  /// WITHOUT recording traffic or charging virtual time, runs `atRoot` on
  /// rank 0 while all other ranks are blocked inside the fence, then
  /// releases everyone. Use this to take consistent snapshots between
  /// phases of an algorithm — it is instrumentation, not communication,
  /// so it must never perturb the measurements it frames.
  void instrumentationFence(const std::function<void()>& atRoot = {});

  /// Partition this communicator (MPI_Comm_split semantics): ranks passing
  /// the same `color` form a new communicator, ordered by (key, old rank).
  /// Must be called by every rank of this communicator. The child shares
  /// the parent's mailboxes but runs in its own tag context, so traffic on
  /// the child never collides with the parent's (or a sibling's) — the
  /// traffic matrix still records physical world-rank edges. Supports
  /// nesting up to the context budget (~500 splits per run).
  Comm split(int color, int key);

  /// Broadcast a scalar from root to everyone.
  template <Wire T>
  void bcast(T& value, int root = 0) {
    detail::CommOpScope scope(*this, "bcast", root);
    bcastBytes(&value, sizeof(T), root, tagBcast);
  }

  /// Broadcast a vector from root; non-root vectors are resized to match.
  template <Wire T>
  void bcast(std::vector<T>& v, int root = 0);

  /// Reduce with a commutative op; the returned value is the full reduction
  /// on root and the partial/local value elsewhere (mirrors MPI_Reduce).
  template <Wire T, class Op>
  T reduce(T value, Op op, int root = 0);

  /// Elementwise vector reduce; all ranks must pass equal-length vectors.
  template <Wire T, class Op>
  std::vector<T> reduce(std::vector<T> v, Op op, int root = 0);

  /// Allreduce = reduce to rank 0 + broadcast.
  template <Wire T, class Op>
  T allreduce(T value, Op op) {
    detail::CommOpScope scope(*this, "allreduce");
    T r = reduce(value, op, 0);
    bcast(r, 0);
    return r;
  }

  /// Elementwise vector allreduce.
  template <Wire T, class Op>
  std::vector<T> allreduce(std::vector<T> v, Op op) {
    detail::CommOpScope scope(*this, "allreduce");
    std::vector<T> r = reduce(std::move(v), op, 0);
    bcast(r, 0);
    return r;
  }

  /// Gather one value per rank; result (size() entries) on root only.
  template <Wire T>
  std::vector<T> gather(const T& value, int root = 0);

  /// Gather variable-length vectors; per-rank parts on root only.
  template <Wire T>
  std::vector<std::vector<T>> gatherv(const std::vector<T>& v, int root = 0);

  /// Scatter variable-length parts from root; returns this rank's part.
  /// `parts` is only read on root and must have size() entries there.
  template <Wire T>
  std::vector<T> scatterv(const std::vector<std::vector<T>>& parts,
                          int root = 0);

  /// Allgather one value per rank; everyone gets all size() values.
  template <Wire T>
  std::vector<T> allgather(const T& value);

  /// Allgather variable-length vectors, concatenated in rank order.
  template <Wire T>
  std::vector<T> allgatherv(const std::vector<T>& v);

  /// Personalized all-to-all with variable part sizes (MPI_Alltoallv):
  /// sendParts[r] goes to rank r; the result's entry r is what rank r sent
  /// here. sendParts must have size() entries; the self-part is moved
  /// through locally without touching the network.
  template <Wire T>
  std::vector<std::vector<T>> alltoallv(
      std::vector<std::vector<T>> sendParts);

  /// Byte-payload variant (used for serialized datasets).
  std::vector<std::vector<std::byte>> alltoallvBytes(
      std::vector<std::vector<std::byte>> sendParts);

  // --- common reductions ---------------------------------------------------

  double allreduceSum(double v) {
    return allreduce(v, [](double a, double b) { return a + b; });
  }
  long long allreduceSum(long long v) {
    return allreduce(v, [](long long a, long long b) { return a + b; });
  }
  double allreduceMax(double v) {
    return allreduce(v, [](double a, double b) { return a > b ? a : b; });
  }

  /// (value, index) pair for argmin/argmax reductions à la MPI_MINLOC.
  struct ValIdx {
    double value;
    long long index;
  };

  /// Global minimum and the index that attains it (ties: smaller index).
  ValIdx allreduceMinloc(double value, long long index);
  /// Global maximum and the index that attains it (ties: smaller index).
  ValIdx allreduceMaxloc(double value, long long index);

  /// Tags >= this are reserved for collective internals.
  static constexpr int kUserTagLimit = 1 << 20;

 private:
  friend class detail::CommOpScope;

  static constexpr int tagBarrier = kUserTagLimit + 0;
  static constexpr int tagBcast = kUserTagLimit + 1;
  static constexpr int tagReduce = kUserTagLimit + 2;
  static constexpr int tagGather = kUserTagLimit + 3;
  static constexpr int tagScatter = kUserTagLimit + 4;
  static constexpr int tagAllgather = kUserTagLimit + 5;
  static constexpr int tagFence = kUserTagLimit + 6;
  static constexpr int tagAlltoall = kUserTagLimit + 7;

  void sendRaw(int dst, int tag, const void* data, std::size_t bytes);
  Message recvRaw(int src, int tag);

  // Typed transport on reserved tags (no user-tag validation).
  template <Wire T>
  void sendT(int dst, const T& value, int tag) {
    sendRaw(dst, tag, &value, sizeof(T));
  }
  template <Wire T>
  T recvT(int src, int tag) {
    const Message msg = recvRaw(src, tag);
    CASVM_CHECK(msg.payload.size() == sizeof(T), "recv: size mismatch");
    T value;
    std::memcpy(&value, msg.payload.data(), sizeof(T));
    return value;
  }
  template <Wire T>
  void sendVecT(int dst, const std::vector<T>& v, int tag) {
    sendRaw(dst, tag, v.data(), v.size() * sizeof(T));
  }
  template <Wire T>
  std::vector<T> recvVecT(int src, int tag) {
    const Message msg = recvRaw(src, tag);
    CASVM_CHECK(msg.payload.size() % sizeof(T) == 0, "recvVec: size mismatch");
    std::vector<T> v(msg.payload.size() / sizeof(T));
    if (!msg.payload.empty()) {
      std::memcpy(v.data(), msg.payload.data(), msg.payload.size());
    }
    return v;
  }

  /// Binomial-tree broadcast of a fixed-size buffer.
  void bcastBytes(void* data, std::size_t bytes, int root, int tag);

  Comm(World* world, int rank, VirtualClock* clock, std::vector<int> group,
       int context)
      : world_(world), rank_(rank), clock_(clock), group_(std::move(group)),
        context_(context) {}

  /// Global (engine) rank of a local rank in this communicator.
  int toWorld(int localRank) const {
    return group_.empty() ? localRank
                          : group_[static_cast<std::size_t>(localRank)];
  }

  /// Shift a tag into this communicator's context window.
  int contextTag(int tag) const { return context_ * kContextStride + tag; }

  static constexpr int kContextStride = 1 << 22;  // room for all tag kinds
  static constexpr int kMaxContext = (1 << 9) - 1;

  World* world_;
  int rank_;
  VirtualClock* clock_;
  /// Local-to-world rank map; empty for the world communicator.
  std::vector<int> group_;
  /// Tag-space context of this communicator (0 = world).
  int context_ = 0;
  /// Contexts handed to children of this communicator (deterministic
  /// because split() is called in the same program order on every rank).
  int childContexts_ = 0;
  /// Trace lane of the owning rank (nullptr = tracing off).
  obs::Lane* lane_ = nullptr;
  /// Comm-op nesting depth; only depth-0 scopes record spans.
  int traceDepth_ = 0;
  /// Bytes sent + received by this rank so far (only counted while a lane
  /// is attached); scopes report the per-op delta.
  std::size_t traceBytes_ = 0;
};

// --- template implementations ----------------------------------------------

template <Wire T>
void Comm::bcast(std::vector<T>& v, int root) {
  detail::CommOpScope scope(*this, "bcast", root);
  // Length first so non-roots can size their buffers, then the payload.
  // Both legs ride the same binomial tree.
  std::size_t len = v.size();
  bcastBytes(&len, sizeof(len), root, tagBcast);
  if (rank_ != root) v.resize(len);
  if (len > 0) bcastBytes(v.data(), len * sizeof(T), root, tagBcast);
}

template <Wire T, class Op>
T Comm::reduce(T value, Op op, int root) {
  detail::CommOpScope scope(*this, "reduce", root);
  const int size = this->size();
  const int vrank = (rank_ - root + size) % size;
  for (int mask = 1; mask < size; mask <<= 1) {
    if ((vrank & mask) == 0) {
      const int vpeer = vrank | mask;
      if (vpeer < size) {
        const int peer = (vpeer + root) % size;
        value = op(value, recvT<T>(peer, tagReduce));
      }
    } else {
      const int peer = ((vrank & ~mask) + root) % size;
      sendT(peer, value, tagReduce);
      break;
    }
  }
  return value;
}

template <Wire T, class Op>
std::vector<T> Comm::reduce(std::vector<T> v, Op op, int root) {
  detail::CommOpScope scope(*this, "reduce", root);
  const int size = this->size();
  const int vrank = (rank_ - root + size) % size;
  for (int mask = 1; mask < size; mask <<= 1) {
    if ((vrank & mask) == 0) {
      const int vpeer = vrank | mask;
      if (vpeer < size) {
        const int peer = (vpeer + root) % size;
        const std::vector<T> other = recvVecT<T>(peer, tagReduce);
        CASVM_CHECK(other.size() == v.size(),
                    "vector reduce: length mismatch across ranks");
        for (std::size_t i = 0; i < v.size(); ++i) v[i] = op(v[i], other[i]);
      }
    } else {
      const int peer = ((vrank & ~mask) + root) % size;
      sendVecT(peer, v, tagReduce);
      break;
    }
  }
  return v;
}

template <Wire T>
std::vector<T> Comm::gather(const T& value, int root) {
  detail::CommOpScope scope(*this, "gather", root);
  const int size = this->size();
  if (rank_ == root) {
    std::vector<T> all(static_cast<std::size_t>(size));
    all[static_cast<std::size_t>(root)] = value;
    for (int r = 0; r < size; ++r) {
      if (r != root) all[static_cast<std::size_t>(r)] = recvT<T>(r, tagGather);
    }
    return all;
  }
  sendT(root, value, tagGather);
  return {};
}

template <Wire T>
std::vector<std::vector<T>> Comm::gatherv(const std::vector<T>& v, int root) {
  detail::CommOpScope scope(*this, "gatherv", root);
  const int size = this->size();
  if (rank_ == root) {
    std::vector<std::vector<T>> all(static_cast<std::size_t>(size));
    all[static_cast<std::size_t>(root)] = v;
    for (int r = 0; r < size; ++r) {
      if (r != root) all[static_cast<std::size_t>(r)] = recvVecT<T>(r, tagGather);
    }
    return all;
  }
  sendVecT(root, v, tagGather);
  return {};
}

template <Wire T>
std::vector<T> Comm::scatterv(const std::vector<std::vector<T>>& parts,
                              int root) {
  detail::CommOpScope scope(*this, "scatterv", root);
  const int size = this->size();
  if (rank_ == root) {
    CASVM_CHECK(parts.size() == static_cast<std::size_t>(size),
                "scatterv: parts must have one entry per rank on root");
    for (int r = 0; r < size; ++r) {
      if (r != root) sendVecT(r, parts[static_cast<std::size_t>(r)], tagScatter);
    }
    return parts[static_cast<std::size_t>(root)];
  }
  return recvVecT<T>(root, tagScatter);
}

template <Wire T>
std::vector<T> Comm::allgather(const T& value) {
  detail::CommOpScope scope(*this, "allgather");
  std::vector<T> all = gather(value, 0);
  bcast(all, 0);
  return all;
}

template <Wire T>
std::vector<T> Comm::allgatherv(const std::vector<T>& v) {
  detail::CommOpScope scope(*this, "allgatherv");
  std::vector<std::vector<T>> parts = gatherv(v, 0);
  std::vector<T> flat;
  if (rank_ == 0) {
    for (const auto& part : parts) flat.insert(flat.end(), part.begin(), part.end());
  }
  bcast(flat, 0);
  return flat;
}

template <Wire T>
std::vector<std::vector<T>> Comm::alltoallv(
    std::vector<std::vector<T>> sendParts) {
  detail::CommOpScope scope(*this, "alltoallv");
  const int size = this->size();
  CASVM_CHECK(sendParts.size() == static_cast<std::size_t>(size),
              "alltoallv: one part per rank required");
  std::vector<std::vector<T>> received(static_cast<std::size_t>(size));
  // Buffered sends first (no ordering hazards), then deterministic
  // receives in rank order; the self-part never touches the network.
  for (int dst = 0; dst < size; ++dst) {
    if (dst == rank_) continue;
    sendVecT(dst, sendParts[static_cast<std::size_t>(dst)], tagAlltoall);
  }
  received[static_cast<std::size_t>(rank_)] =
      std::move(sendParts[static_cast<std::size_t>(rank_)]);
  for (int src = 0; src < size; ++src) {
    if (src == rank_) continue;
    received[static_cast<std::size_t>(src)] =
        recvVecT<T>(src, tagAlltoall);
  }
  return received;
}

/// One rank that died of an injected crash the run survived.
struct RankFailure {
  int rank = -1;
  std::string reason;
};

/// Run statistics returned by Engine::run.
struct RunStats {
  int size = 0;
  double wallSeconds = 0.0;            ///< real elapsed time of the run
  std::vector<double> computeSeconds;  ///< per-rank virtual compute time
  std::vector<double> commSeconds;     ///< per-rank virtual comm (+wait) time
  /// Per-rank wait component of commSeconds (time advanced over while
  /// blocked on a slower peer's message).
  std::vector<double> waitSeconds;
  TrafficSnapshot traffic;             ///< all traffic of the run
  /// Injected crashes survived under rank-failure tolerance (rank order).
  std::vector<RankFailure> failures;

  /// True when at least one rank died but the run completed.
  bool degraded() const { return !failures.empty(); }

  /// Modeled parallel time: slowest rank's virtual clock.
  double virtualSeconds() const;
  /// Slowest rank's compute component.
  double maxComputeSeconds() const;
  /// Slowest rank's communication component.
  double maxCommSeconds() const;
  /// Sum of all ranks' compute time (the serial-equivalent work).
  double totalComputeSeconds() const;
};

/// Spawns `size` ranks — threads on the default backend, forked worker
/// processes on the proc backend — and runs an SPMD function on each.
class Engine {
 public:
  explicit Engine(int size, CostModel cost = {});

  int size() const { return size_; }
  const CostModel& cost() const { return cost_; }

  /// Select the delivery backend for subsequent run() calls. The thread
  /// backend (default) keeps every existing behaviour bitwise; the proc
  /// backend forks one worker per rank, replaces the deadlock watchdog
  /// with heartbeats + bounded receives, and supervises worker lifecycle
  /// (crash/hang detection, respawn, degraded fallback). `tuning` is
  /// validated here so hostile values fail at configuration time.
  void setTransport(TransportKind kind, TransportTuning tuning = {}) {
    tuning.validate();
    transportKind_ = kind;
    tuning_ = tuning;
  }
  TransportKind transportKind() const { return transportKind_; }
  const TransportTuning& transportTuning() const { return tuning_; }

  /// Cross-process result marshalling (proc backend): `serialize` runs in
  /// the worker after its SPMD function returns (or crashes tolerably) and
  /// packs the rank's side effects; `absorb` runs in the supervisor with
  /// those bytes once the worker resolves. Without a channel the proc
  /// backend still runs, but rank side effects die with the worker.
  struct ResultChannel {
    std::function<std::vector<std::byte>(int rank)> serialize;
    std::function<void(int rank, const std::vector<std::byte>&)> absorb;
  };
  void setResultChannel(ResultChannel channel) {
    resultChannel_ = std::move(channel);
  }

  /// Respawn entry for a rank whose worker process died (proc backend):
  /// called instead of the run function with the 1-based respawn attempt.
  /// Must be collective-free — its peers are mid-run and will not re-enter
  /// any collective — which is what the partitioned methods' checkpointed
  /// local resume provides. Without a respawn function (or with the budget
  /// exhausted) a dead rank falls through to the degraded/abort path.
  void setRespawnFn(std::function<void(Comm&, int attempt)> fn) {
    respawnFn_ = std::move(fn);
  }
  /// Respawns allowed per rank before the degraded fallback (proc backend).
  void setRespawnBudget(int budget) { respawnBudget_ = budget; }

  /// Append supervisor lifecycle events (spawn, death taxonomy, respawn,
  /// fallback) to this file (proc backend; empty = stderr logging only).
  void setSupervisorLogPath(std::string path) {
    supervisorLogPath_ = std::move(path);
  }

  /// Install a deterministic fault schedule for subsequent run() calls
  /// (an empty plan clears it). Injector state resets every run, so the
  /// same plan reproduces the same faults on every run.
  void setFaultPlan(FaultPlan plan) { faultPlan_ = std::move(plan); }
  const FaultPlan& faultPlan() const { return faultPlan_; }

  /// Survive injected rank crashes (RankCrash) instead of aborting: the
  /// dead rank is recorded in RunStats::failures, peers waiting on it are
  /// woken with an error, and everyone else runs to completion. Organic
  /// (non-injected) failures always abort the whole run.
  void setTolerateRankFailures(bool tolerate) {
    tolerateRankFailures_ = tolerate;
  }

  /// Deadlock watchdog: if every still-running rank is blocked in a
  /// receive and no message moves anywhere for `seconds` of wall time,
  /// the run is aborted and unwound with a diagnostic dump of each rank's
  /// wait target and every mailbox's pending (src, tag) queues — instead
  /// of hanging forever (e.g. a dropped message under a collective).
  /// `seconds` <= 0 disables the watchdog.
  void setWatchdogSeconds(double seconds) { watchdogSeconds_ = seconds; }
  double watchdogSeconds() const { return watchdogSeconds_; }

  /// Attach a trace recorder for subsequent run() calls (nullptr detaches).
  /// Each run adds one lane per rank (pid = rank) and every comm op, phase
  /// and solver-progress producer on that rank records into it. Without a
  /// recorder the instrumentation costs a single branch per record site.
  void setTraceRecorder(obs::TraceRecorder* recorder) { trace_ = recorder; }
  obs::TraceRecorder* traceRecorder() const { return trace_; }

  /// Execute `fn` on every rank; returns when all ranks finish.
  /// If any rank throws, the run is aborted (blocked receives wake with an
  /// error) and the first root-cause exception is rethrown as casvm::Error.
  RunStats run(const std::function<void(Comm&)>& fn);

 private:
  RunStats runThread(const std::function<void(Comm&)>& fn);
  RunStats runProc(const std::function<void(Comm&)>& fn);

  int size_;
  CostModel cost_;
  FaultPlan faultPlan_;
  bool tolerateRankFailures_ = false;
  double watchdogSeconds_ = 30.0;
  obs::TraceRecorder* trace_ = nullptr;
  TransportKind transportKind_ = TransportKind::Thread;
  TransportTuning tuning_;
  ResultChannel resultChannel_;
  std::function<void(Comm&, int)> respawnFn_;
  int respawnBudget_ = 0;
  std::string supervisorLogPath_;
};

}  // namespace casvm::net
