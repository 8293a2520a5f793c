#pragma once

/// \file transport.hpp
/// The delivery backend behind casvm::net::Comm.
///
/// Comm's point-to-point and collective surface is written against this
/// abstract Transport: put() hands a finished Message (payload + modeled
/// arrival time) to the backend, take() blocks until the matching message
/// arrives, and the failure surface (abortAll / markFailed) is how a run
/// unwinds when a rank dies. Two backends exist:
///
///  - ThreadTransport (the default): rank threads in one process sharing
///    a vector of Mailboxes. Exactly the pre-refactor "minimpi" runtime —
///    all tests, table reproductions and traffic accounting stay
///    bitwise-valid on it.
///  - ProcTransport: one forked worker process per rank, bytes moving
///    over shared-memory SPSC rings with bounded-wait receives, per-rank
///    heartbeats and a crash/hang failure taxonomy surfaced to the
///    Supervisor (see proc_transport.hpp, supervisor.hpp).
///
/// The traffic matrix is logically above the transport (Comm records
/// sender-side before put()), but its storage may live inside the backend:
/// ProcTransport places the counters in shared memory so all worker
/// processes and the supervisor see one matrix, keeping TrafficSnapshot
/// byte counts identical across backends.

#include <atomic>
#include <cstddef>
#include <string>
#include <string_view>
#include <vector>

#include "casvm/net/mailbox.hpp"

namespace casvm::net {

/// Which backend an Engine run executes on.
enum class TransportKind : std::uint8_t {
  Thread = 0,  ///< in-process rank threads + mailboxes (the default)
  Proc = 1,    ///< forked worker processes + shared-memory rings
};

/// Stable names for CLI flags ("thread" | "proc").
const char* transportName(TransportKind kind);
TransportKind transportFromName(std::string_view name);

/// Liveness/timing knobs of the process transport. All values are
/// validated up front (validate()) so hostile input — zero, negative, or
/// values that would overflow the backoff arithmetic — fails with a named
/// error at configuration time, never as undefined behaviour mid-run.
struct TransportTuning {
  /// Worker heartbeat refresh cadence in milliseconds. The supervisor
  /// treats a worker whose heartbeat is older than a few multiples of
  /// this as hung (SIGSTOP freezes the heartbeat thread too).
  int heartbeatMs = 50;
  /// Bounded receive wait in milliseconds: a blocked recv that sees no
  /// message for this long throws instead of waiting forever (the proc
  /// replacement for the thread backend's deadlock watchdog).
  int commTimeoutMs = 30000;
  /// Base of the exponential rank-retry backoff of both backends: before
  /// attempt k the proc supervisor sleeps respawnBackoffMs << (k-1)
  /// milliseconds (capped) and forks the rank again; a thread-transport
  /// retry charges the same time to the rank's virtual clock.
  int respawnBackoffMs = 50;

  /// Throws casvm::Error naming the offending knob and its valid range.
  void validate() const;

  /// Heartbeat age in ms beyond which a live worker counts as hung.
  int staleAfterMs() const;
  /// Backoff before respawn attempt `attempt` (1-based), overflow-capped.
  int backoffForAttemptMs(int attempt) const;
};

/// Abstract delivery + failure surface shared by all ranks of one run.
/// Implementations must be safe to call concurrently from all ranks.
class Transport {
 public:
  virtual ~Transport() = default;

  virtual int size() const = 0;

  /// Deliver `msg` from world rank `src` to `dst` under `tag`. Buffered:
  /// never blocks indefinitely on the thread backend; the proc backend may
  /// block up to its comm timeout when a ring is full.
  virtual void put(int src, int dst, int tag, Message msg) = 0;

  /// Blocking matched receive on `self`'s inbox. Throws casvm::Error when
  /// the run aborts, the source rank is marked failed with nothing left to
  /// deliver, or (proc backend) the bounded wait expires.
  virtual Message take(int self, int src, int tag) = 0;

  /// Mark the whole run failed; wakes every blocked take() with an error.
  virtual void abortAll() = 0;
  virtual bool aborted() const = 0;

  /// Mark one rank failed WITHOUT aborting: peers blocked on its messages
  /// wake with an error naming `reason`, already-delivered messages remain
  /// readable. The per-rank failure state that lets communication-avoiding
  /// methods survive a crash.
  virtual void markFailed(int rank, const std::string& reason) = 0;
  virtual bool rankFailed(int rank) const = 0;
  /// Ranks marked failed so far, ascending.
  virtual std::vector<int> failedRanks() const = 0;

  /// Backend-provided storage for the run's traffic counters (P*P cells
  /// each), or nullptr when the World should own private storage. The proc
  /// backend returns pointers into its shared-memory arena so every worker
  /// process records into one matrix.
  virtual std::atomic<std::size_t>* trafficBytesStorage() { return nullptr; }
  virtual std::atomic<std::size_t>* trafficOpsStorage() { return nullptr; }
};

}  // namespace casvm::net
