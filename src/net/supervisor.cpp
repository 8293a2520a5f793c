#include "casvm/net/supervisor.hpp"

#include <fcntl.h>
#if defined(__GLIBC__)
#include <malloc.h>
#endif
#include <poll.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <thread>

#include "casvm/net/proc_transport.hpp"
#include "casvm/support/error.hpp"
#include "casvm/support/posix.hpp"

namespace casvm::net {

namespace {

long long nowMs() {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

constexpr std::size_t kFrameHeader = 1 + 8;  // type byte + u64 length

}  // namespace

struct Supervisor::Worker {
  int rank = -1;
  pid_t pid = -1;
  int fd = -1;  ///< read end of the result pipe; -1 once closed
  std::vector<std::byte> buf;
  bool live = false;
  bool resolved = false;
  bool finalDead = false;
  bool hangKilled = false;
  int attempt = 0;
  long long respawnAtMs = -1;  ///< scheduled respawn time; -1 = none
  Frame frame;
  std::string deathReason;
};

Supervisor::Supervisor(ProcTransport& transport, Options opts)
    : transport_(transport), opts_(std::move(opts)) {
  opts_.tuning.validate();
  if (!opts_.logPath.empty()) {
    logFile_ = std::fopen(opts_.logPath.c_str(), "a");
    CASVM_CHECK(logFile_ != nullptr,
                "supervisor: cannot open log file: " + opts_.logPath);
  }
}

Supervisor::~Supervisor() {
  if (logFile_ != nullptr) std::fclose(static_cast<std::FILE*>(logFile_));
}

void Supervisor::log(const std::string& line) {
  std::FILE* out =
      logFile_ != nullptr ? static_cast<std::FILE*>(logFile_) : stderr;
  std::fprintf(out, "[casvm-supervisor +%lldms] %s\n", nowMs() % 1000000000,
               line.c_str());
  std::fflush(out);
}

void Supervisor::spawn(const ChildMain& child, int rank, int attempt) {
  int fds[2];
  CASVM_CHECK(::pipe(fds) == 0,
              std::string("supervisor: pipe failed: ") + std::strerror(errno));
  // Heartbeat grace starts at the spawn, not at the previous incarnation's
  // last beat.
  transport_.beatNow(rank);
#if defined(__GLIBC__)
  // Return the parent's freed heap pages (e.g. row caches of an in-process
  // solve that ran before) to the kernel, so the worker does not start
  // with them resident.
  ::malloc_trim(0);
#endif
  const pid_t pid = ::fork();
  CASVM_CHECK(pid >= 0,
              std::string("supervisor: fork failed: ") + std::strerror(errno));
  if (pid == 0) {
    // Worker process. Drop every parent-held read end so a sibling's pipe
    // does not stay open past its death.
    ::close(fds[0]);
    for (const Worker& w : workers_) {
      if (w.fd >= 0) ::close(w.fd);
    }
    try {
      child(rank, attempt, fds[1]);
    } catch (...) {
      ::_exit(13);
    }
    ::_exit(0);
  }
  ::close(fds[1]);
  const int flags = ::fcntl(fds[0], F_GETFL, 0);
  ::fcntl(fds[0], F_SETFL, flags | O_NONBLOCK);
  Worker& w = workers_[static_cast<std::size_t>(rank)];
  w.rank = rank;
  w.pid = pid;
  w.fd = fds[0];
  w.buf.clear();
  w.live = true;
  w.hangKilled = false;
  w.attempt = attempt;
  w.respawnAtMs = -1;
  log("rank " + std::to_string(rank) + ": spawned worker pid " +
      std::to_string(pid) + " (attempt " + std::to_string(attempt) + ")");
}

void Supervisor::drainPipe(Worker& w) {
  if (w.fd < 0) return;
  for (;;) {
    std::byte chunk[4096];
    const ssize_t n = ::read(w.fd, chunk, sizeof chunk);
    if (n > 0) {
      w.buf.insert(w.buf.end(), chunk, chunk + n);
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    if (n < 0 && errno == EINTR) continue;
    // EOF (worker closed/exited) or hard error: nothing more will come.
    ::close(w.fd);
    w.fd = -1;
    break;
  }
  if (w.resolved || w.buf.size() < kFrameHeader) return;
  std::uint64_t len = 0;
  std::memcpy(&len, w.buf.data() + 1, 8);
  if (w.buf.size() < kFrameHeader + len) return;
  w.frame.type = static_cast<char>(w.buf[0]);
  w.frame.payload.assign(w.buf.begin() + kFrameHeader,
                         w.buf.begin() + kFrameHeader +
                             static_cast<std::ptrdiff_t>(len));
  w.resolved = true;
  log("rank " + std::to_string(w.rank) + ": result frame '" +
      std::string(1, w.frame.type) + "' (" + std::to_string(len) + " bytes)");
}

void Supervisor::handleDeath(Worker& w, int status) {
  w.live = false;
  // The pipe may still hold a complete frame written just before death.
  drainPipe(w);
  if (w.fd >= 0) {
    ::close(w.fd);
    w.fd = -1;
  }
  if (w.resolved) return;

  std::string taxonomy;
  if (w.hangKilled) {
    taxonomy = "hang (heartbeat stale past " +
               std::to_string(opts_.tuning.staleAfterMs()) + "ms, SIGKILLed)";
  } else if (WIFSIGNALED(status)) {
    taxonomy = "crash (killed by signal " +
               std::to_string(WTERMSIG(status)) + ")";
  } else {
    taxonomy = "crash (exited with status " +
               std::to_string(WIFEXITED(status) ? WEXITSTATUS(status) : -1) +
               " without a result)";
  }
  const std::string what = "rank " + std::to_string(w.rank) + " worker pid " +
                           std::to_string(w.pid) + " died: " + taxonomy;
  log(what);

  if (opts_.allowRespawn && w.attempt < opts_.respawnBudget) {
    const int next = w.attempt + 1;
    const int backoff = opts_.tuning.backoffForAttemptMs(next);
    w.respawnAtMs = nowMs() + backoff;
    log("rank " + std::to_string(w.rank) + ": scheduling respawn attempt " +
        std::to_string(next) + " in " + std::to_string(backoff) + "ms");
    return;
  }

  w.finalDead = true;
  w.deathReason = what + (opts_.allowRespawn
                              ? " (respawn budget of " +
                                    std::to_string(opts_.respawnBudget) +
                                    " exhausted)"
                              : "");
  if (opts_.tolerateFailures) {
    log("rank " + std::to_string(w.rank) +
        ": marking failed, run degrades and continues");
    transport_.markFailed(w.rank, w.deathReason);
  } else {
    log("rank " + std::to_string(w.rank) + ": aborting the whole run");
    transport_.abortAll();
  }
}

std::vector<Supervisor::RankOutcome> Supervisor::run(const ChildMain& child) {
  const int size = transport_.size();
  workers_.assign(static_cast<std::size_t>(size), Worker{});
  for (int r = 0; r < size; ++r) spawn(child, r, 0);

  for (;;) {
    bool allDone = true;
    for (const Worker& w : workers_) {
      if (!(w.finalDead || (w.resolved && !w.live))) {
        allDone = false;
        break;
      }
    }
    if (allDone) break;

    // Wait for pipe activity (bounded so heartbeats and respawn timers
    // stay responsive even with nothing readable).
    std::vector<pollfd> fds;
    for (const Worker& w : workers_) {
      if (w.fd >= 0) fds.push_back(pollfd{w.fd, POLLIN, 0});
    }
    if (fds.empty()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    } else {
      ::poll(fds.data(), fds.size(), 20);
    }
    for (Worker& w : workers_) drainPipe(w);

    for (Worker& w : workers_) {
      if (!w.live) continue;
      int status = 0;
      const pid_t r = support::waitpidRetry(w.pid, &status, WNOHANG);
      if (r == w.pid) handleDeath(w, status);
    }

    // Applies to resolved-but-unreaped workers too: a worker frozen
    // between its result frame and _exit must not stall the run forever.
    for (Worker& w : workers_) {
      if (!w.live || w.hangKilled) continue;
      const long long age = transport_.heartbeatAgeMs(w.rank);
      if (age <= opts_.tuning.staleAfterMs()) continue;
      log("rank " + std::to_string(w.rank) + ": heartbeat stale for " +
          std::to_string(age) + "ms (limit " +
          std::to_string(opts_.tuning.staleAfterMs()) +
          "ms), SIGKILLing pid " + std::to_string(w.pid) +
          " (taxonomy: hang)");
      w.hangKilled = true;
      ::kill(w.pid, SIGKILL);
    }

    const long long now = nowMs();
    for (Worker& w : workers_) {
      if (w.live || w.finalDead || w.resolved) continue;
      if (w.respawnAtMs < 0 || now < w.respawnAtMs) continue;
      transport_.resetInbound(w.rank);
      spawn(child, w.rank, w.attempt + 1);
    }
  }

  std::vector<RankOutcome> outcomes(static_cast<std::size_t>(size));
  for (int r = 0; r < size; ++r) {
    Worker& w = workers_[static_cast<std::size_t>(r)];
    RankOutcome& o = outcomes[static_cast<std::size_t>(r)];
    o.resolved = w.resolved;
    o.attempts = w.attempt;
    o.sawHang = w.hangKilled;
    o.frame = std::move(w.frame);
    o.deathReason = w.deathReason;
    if (w.fd >= 0) {
      ::close(w.fd);
      w.fd = -1;
    }
  }
  return outcomes;
}

}  // namespace casvm::net
