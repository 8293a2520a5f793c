#include <unistd.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "casvm/net/comm.hpp"
#include "casvm/net/proc_transport.hpp"
#include "casvm/net/supervisor.hpp"
#include "casvm/obs/trace.hpp"
#include "casvm/support/bytes.hpp"
#include "casvm/support/log.hpp"
#include "casvm/support/posix.hpp"
#include "casvm/support/timer.hpp"

namespace casvm::net {

namespace {

/// Cascaded-failure messages: symptoms of someone else's death, never the
/// root cause the user should see.
bool isCascadeError(const std::string& what) {
  return what.find("run aborted") != std::string::npos;
}

/// Errors that directly name an injected fault (either the RankCrash
/// itself or a peer woken by failSource) make the best root cause.
bool namesInjectedFault(const std::string& what) {
  return what.find("injected fault") != std::string::npos;
}

/// The message of a failed run, from each rank's error (if any) and each
/// tolerated crash (if any): prefer an error naming the injected fault,
/// then any non-cascade root cause, over the cascaded "run aborted" ones.
/// A tolerated crash that still sank the run (e.g. inside a collective) is
/// the real root cause; name it if the errors did not already.
std::string rootCause(const std::vector<std::optional<std::string>>& errors,
                      const std::vector<std::optional<RankFailure>>& crashes) {
  std::string best;
  bool bestNamesFault = false;
  bool bestIsCascade = true;
  for (std::size_t r = 0; r < errors.size(); ++r) {
    const auto& err = errors[r];
    if (!err) continue;
    const bool cascade = isCascadeError(*err);
    const bool fault = namesInjectedFault(*err);
    const bool better = best.empty() || (fault && !bestNamesFault) ||
                        (!bestNamesFault && bestIsCascade && !cascade);
    if (better) {
      best = "rank " + std::to_string(r) + ": " + *err;
      bestNamesFault = fault;
      bestIsCascade = cascade;
      if (fault) break;
    }
  }
  if (!bestNamesFault) {
    for (const auto& crash : crashes) {
      if (!crash) continue;
      best += (best.empty() ? "" : "; after ") + crash->reason;
      break;
    }
  }
  return "engine run failed: " + best;
}

}  // namespace

Engine::Engine(int size, CostModel cost) : size_(size), cost_(cost) {
  CASVM_CHECK(size > 0, "engine needs at least one rank");
}

RunStats Engine::run(const std::function<void(Comm&)>& fn) {
  if (transportKind_ == TransportKind::Thread) {
    CASVM_CHECK(!faultPlan_.requiresProcessTransport(),
                "fault plan contains kill/hang clauses, which deliver real "
                "signals to worker processes; they require the process "
                "transport (--transport proc), but the thread backend is "
                "selected (" + faultPlan_.describe() + ")");
    return runThread(fn);
  }
  return runProc(fn);
}

RunStats Engine::runThread(const std::function<void(Comm&)>& fn) {
  std::optional<FaultInjector> injector;
  if (!faultPlan_.empty()) injector.emplace(faultPlan_, size_);
  World world(size_, cost_, injector ? &*injector : nullptr);
  std::vector<VirtualClock> clocks(static_cast<std::size_t>(size_));
  std::vector<std::optional<std::string>> errors(
      static_cast<std::size_t>(size_));
  std::vector<std::optional<RankFailure>> crashes(
      static_cast<std::size_t>(size_));
  std::vector<std::atomic<char>> finished(static_cast<std::size_t>(size_));
  for (auto& f : finished) f.store(0, std::memory_order_relaxed);
  std::atomic<bool> failed{false};

  // --- deadlock watchdog ---------------------------------------------------
  // A dropped message under a collective leaves every rank parked in a
  // receive with nothing in flight; without this thread the run (and
  // ctest) would hang forever. Deadlock test: every unfinished rank is
  // blocked in take() AND the world-wide mailbox op count has not moved
  // for watchdogSeconds_ of wall time. Blocked ranks cannot generate
  // progress, so the condition is stable once true; the stall timer
  // absorbs the benign race where a just-delivered message has not woken
  // its receiver yet.
  std::mutex wdMutex;
  std::condition_variable wdCv;
  bool wdStop = false;
  std::string watchdogReport;
  std::thread watchdog;
  if (watchdogSeconds_ > 0.0) {
    watchdog = std::thread([&] {
      constexpr auto kTick = std::chrono::milliseconds(20);
      double stalledSeconds = 0.0;
      std::uint64_t lastOps = ~std::uint64_t{0};
      std::unique_lock<std::mutex> lock(wdMutex);
      while (!wdCv.wait_for(lock, kTick, [&] { return wdStop; })) {
        std::uint64_t ops = 0;
        bool allBlocked = true;
        int running = 0;
        for (int r = 0; r < size_; ++r) {
          ops += world.mailbox(r).opCount();
          if (finished[static_cast<std::size_t>(r)].load(
                  std::memory_order_acquire)) {
            continue;
          }
          ++running;
          if (!world.mailbox(r).waitState().waiting) allBlocked = false;
        }
        if (running == 0) break;
        if (allBlocked && ops == lastOps) {
          stalledSeconds +=
              std::chrono::duration<double>(kTick).count();
        } else {
          stalledSeconds = 0.0;
        }
        lastOps = ops;
        if (stalledSeconds < watchdogSeconds_) continue;

        // Deadlock: dump every rank's wait target and every mailbox's
        // pending (src, tag) queues, then unwind the run.
        std::ostringstream report;
        report << "deadlock watchdog: no message progress for "
               << stalledSeconds
               << "s with every running rank blocked in a receive";
        for (int r = 0; r < size_; ++r) {
          report << "\n  rank " << r << ": ";
          if (finished[static_cast<std::size_t>(r)].load(
                  std::memory_order_acquire)) {
            if (crashes[static_cast<std::size_t>(r)]) {
              report << "crashed ("
                     << crashes[static_cast<std::size_t>(r)]->reason << ")";
            } else {
              report << "finished";
            }
            continue;
          }
          const Mailbox::WaitState ws = world.mailbox(r).waitState();
          if (ws.waiting) {
            report << "blocked waiting on (src=" << ws.src
                   << ", tag=" << ws.tag << ")";
          } else {
            report << "running";
          }
          const auto queues = world.mailbox(r).pendingQueues();
          if (queues.empty()) {
            report << "; mailbox empty";
          } else {
            report << "; mailbox pending:";
            for (const auto& q : queues) {
              report << " (src=" << q.src << ", tag=" << q.tag << ") x"
                     << q.depth;
            }
          }
        }
        if (injector) {
          report << "\n  active fault plan: " << injector->plan().describe();
        }
        watchdogReport = report.str();
        failed = true;
        world.abortAll();
        break;
      }
    });
  }

  // Lanes are created up front on the engine thread so rank threads never
  // contend on the recorder's mutex inside the run.
  std::vector<obs::Lane*> lanes(static_cast<std::size_t>(size_), nullptr);
  if (trace_ != nullptr) {
    for (int r = 0; r < size_; ++r) {
      lanes[static_cast<std::size_t>(r)] =
          &trace_->addLane(r, 0, "rank " + std::to_string(r));
    }
  }

  WallTimer wall;
  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(size_));
  for (int r = 0; r < size_; ++r) {
    threads.emplace_back([&, r] {
      VirtualClock& clock = clocks[static_cast<std::size_t>(r)];
      if (injector) clock.setComputeScale(injector->computeScale(r));
      clock.start();
      Comm comm(&world, r, &clock);
      comm.setTraceLane(lanes[static_cast<std::size_t>(r)]);
      try {
        fn(comm);
        clock.sampleCompute();
      } catch (const RankCrash& e) {
        clock.sampleCompute();
        if (tolerateRankFailures_) {
          // Survivable by construction for communication-avoiding methods:
          // record the death, poison this rank as a message source, and
          // let everyone else run to completion.
          crashes[static_cast<std::size_t>(r)] = RankFailure{r, e.what()};
          world.markFailed(r, e.what());
        } else {
          errors[static_cast<std::size_t>(r)] = e.what();
          failed = true;
          world.abortAll();
        }
      } catch (const std::exception& e) {
        errors[static_cast<std::size_t>(r)] = e.what();
        failed = true;
        world.abortAll();
      }
      finished[static_cast<std::size_t>(r)].store(1,
                                                  std::memory_order_release);
    });
  }
  for (auto& t : threads) t.join();
  // Read the wall timer before waiting on the watchdog: its up-to-20ms
  // shutdown tick is engine overhead, not part of the run being measured.
  const double wallSeconds = wall.seconds();

  if (watchdog.joinable()) {
    {
      std::lock_guard<std::mutex> lock(wdMutex);
      wdStop = true;
    }
    wdCv.notify_all();
    watchdog.join();
  }

  if (failed) {
    if (!watchdogReport.empty()) {
      throw Error("engine run failed: " + watchdogReport);
    }
    throw Error(rootCause(errors, crashes));
  }

  RunStats stats;
  stats.size = size_;
  stats.wallSeconds = wallSeconds;
  stats.computeSeconds.reserve(static_cast<std::size_t>(size_));
  stats.commSeconds.reserve(static_cast<std::size_t>(size_));
  stats.waitSeconds.reserve(static_cast<std::size_t>(size_));
  for (const auto& clock : clocks) {
    stats.computeSeconds.push_back(clock.computeSeconds());
    stats.commSeconds.push_back(clock.commSeconds());
    stats.waitSeconds.push_back(clock.waitSeconds());
  }
  stats.traffic = world.traffic().snapshot();
  for (const auto& crash : crashes) {
    if (crash) stats.failures.push_back(*crash);
  }
  return stats;
}

// --- proc backend -----------------------------------------------------------

RunStats Engine::runProc(const std::function<void(Comm&)>& fn) {
  ProcTransport transport(size_, tuning_);
  Supervisor::Options opts;
  opts.tuning = tuning_;
  opts.respawnBudget = respawnBudget_;
  opts.allowRespawn = static_cast<bool>(respawnFn_) && respawnBudget_ > 0;
  opts.tolerateFailures = tolerateRankFailures_;
  opts.logPath = supervisorLogPath_;
  Supervisor supervisor(transport, opts);

  // Runs in the forked worker process. Everything it touches is either
  // the shared arena (transport) or this process's copy-on-write memory;
  // the only channels back to the supervisor are the arena and the one
  // result frame written at the end.
  const auto childMain = [&](int rank, int attempt, int resultFd) {
    transport.attachWorker(rank);

    // The fault schedule only arms the first incarnation: deterministic
    // kill/crash clauses must not re-fire in the respawned worker, or a
    // respawn budget of N would just die N+1 times at the same op.
    std::optional<FaultInjector> injector;
    if (attempt == 0 && !faultPlan_.empty()) {
      injector.emplace(faultPlan_, size_);
      injector->enableProcessSignals();
    }
    World world(size_, cost_, injector ? &*injector : nullptr, &transport);

    // Trace events are recorded into a process-local shard and shipped in
    // the result frame; the supervisor merges shards rank by rank.
    obs::TraceRecorder localTrace;
    obs::Lane* lane = nullptr;
    if (trace_ != nullptr) {
      lane = &localTrace.addLane(rank, 0, "rank " + std::to_string(rank));
    }

    VirtualClock clock;
    if (injector) clock.setComputeScale(injector->computeScale(rank));
    clock.start();
    Comm comm(&world, rank, &clock);
    comm.setTraceLane(lane);

    char type = 'R';
    std::string errorMsg;
    try {
      if (attempt == 0) {
        fn(comm);
      } else {
        respawnFn_(comm, attempt);
      }
      clock.sampleCompute();
    } catch (const RankCrash& e) {
      clock.sampleCompute();
      errorMsg = e.what();
      if (tolerateRankFailures_) {
        type = 'C';
        world.markFailed(rank, errorMsg);
      } else {
        type = 'E';
        world.abortAll();
      }
    } catch (const std::exception& e) {
      type = 'E';
      errorMsg = e.what();
      world.abortAll();
    }

    // The one result frame: type (u8), payload length (u64), payload. A
    // crashed or failed rank's payload starts with its error message; a
    // rank that did not fail the run then sends its clock's three
    // components, its board bytes and its trace shard.
    support::ByteWriter payload;
    if (type != 'R') payload.vec(errorMsg);
    if (type != 'E') {
      payload.scalar(clock.computeSeconds());
      payload.scalar(clock.commSeconds());
      payload.scalar(clock.waitSeconds());
      payload.vec(resultChannel_.serialize ? resultChannel_.serialize(rank)
                                           : std::vector<std::byte>{});
      payload.vec(trace_ != nullptr ? localTrace.encodeShard()
                                    : std::vector<std::byte>{});
    }
    support::ByteWriter frame(1 + sizeof(std::uint64_t) + payload.size());
    frame.scalar(type);
    frame.vec(payload.view());
    support::writeFull(resultFd, frame.view().data(), frame.size());
    transport.detachWorker();
  };

  WallTimer wall;
  const std::vector<Supervisor::RankOutcome> outcomes =
      supervisor.run(childMain);
  const double wallSeconds = wall.seconds();

  std::vector<std::optional<std::string>> errors(
      static_cast<std::size_t>(size_));
  std::vector<std::optional<RankFailure>> crashes(
      static_cast<std::size_t>(size_));
  std::vector<double> computeSeconds(static_cast<std::size_t>(size_), 0.0);
  std::vector<double> commSeconds(static_cast<std::size_t>(size_), 0.0);
  std::vector<double> waitSeconds(static_cast<std::size_t>(size_), 0.0);
  bool failed = false;

  for (int r = 0; r < size_; ++r) {
    const auto i = static_cast<std::size_t>(r);
    const Supervisor::RankOutcome& o = outcomes[i];
    if (!o.resolved) {
      // Finally dead without a frame: the supervisor already either marked
      // the rank failed (tolerated) or aborted the run.
      if (tolerateRankFailures_) {
        crashes[i] = RankFailure{r, o.deathReason};
      } else {
        errors[i] = o.deathReason;
        failed = true;
      }
      continue;
    }
    support::ByteReader in(o.frame.payload, "worker result frame");
    if (o.frame.type == 'E') {
      errors[i] = in.str();
      failed = true;
      continue;
    }
    CASVM_CHECK(o.frame.type == 'R' || o.frame.type == 'C',
                "worker result frame has unknown type '" +
                    std::string(1, o.frame.type) + "'");
    if (o.frame.type == 'C') crashes[i] = RankFailure{r, in.str()};
    computeSeconds[i] = in.scalar<double>();
    commSeconds[i] = in.scalar<double>();
    waitSeconds[i] = in.scalar<double>();
    const std::span<const std::byte> board = in.bytes();
    const std::span<const std::byte> shard = in.bytes();
    in.expectEnd();
    if (resultChannel_.absorb && !board.empty()) {
      resultChannel_.absorb(r, {board.begin(), board.end()});
    }
    if (trace_ != nullptr && !shard.empty()) trace_->absorbShard(shard);
  }

  if (failed) throw Error(rootCause(errors, crashes));

  RunStats stats;
  stats.size = size_;
  stats.wallSeconds = wallSeconds;
  stats.computeSeconds = std::move(computeSeconds);
  stats.commSeconds = std::move(commSeconds);
  stats.waitSeconds = std::move(waitSeconds);
  // The traffic counters live in the shared arena, so the supervisor sees
  // exactly what the workers recorded — snapshot through a view.
  stats.traffic = TrafficMatrix(size_, transport.trafficBytesStorage(),
                                transport.trafficOpsStorage())
                      .snapshot();
  for (const auto& crash : crashes) {
    if (crash) stats.failures.push_back(*crash);
  }
  return stats;
}

}  // namespace casvm::net
