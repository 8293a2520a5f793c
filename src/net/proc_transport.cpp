#include "casvm/net/proc_transport.hpp"

#include <sys/mman.h>

#include <array>
#include <chrono>
#include <cstring>
#include <new>

#include "casvm/support/bytes.hpp"
#include "casvm/support/error.hpp"

namespace casvm::net {

namespace {

constexpr std::size_t kReasonBytes = 256;
constexpr std::size_t kRingBytes = std::size_t{1} << 18;  // data per edge
constexpr std::size_t kRingHeaderBytes = 64;              // head/tail + pad
constexpr std::size_t kFrameHeaderBytes = 24;
/// Sanity bound on a single message; a larger header length means the
/// reader lost frame alignment (e.g. it attached mid-stream after a
/// partial write) and must stop trusting that edge.
constexpr std::uint64_t kMaxFrameBytes = std::uint64_t{1} << 31;

std::size_t alignUp(std::size_t n, std::size_t a) {
  return (n + a - 1) / a * a;
}

long long nowMs() {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

/// Shared-memory ring bookkeeping. head/tail are monotonic byte offsets
/// (never wrapped), so fill = tail - head and the data index is offset %
/// kRingBytes. The producer owns tail, the consumer owns head.
struct ProcTransport::Ring {
  std::atomic<std::uint64_t> head;
  std::atomic<std::uint64_t> tail;

  std::byte* data() {
    return reinterpret_cast<std::byte*>(this) + kRingHeaderBytes;
  }

  void write(std::uint64_t at, const std::byte* src, std::size_t n) {
    const std::size_t off = static_cast<std::size_t>(at % kRingBytes);
    const std::size_t first = std::min(n, kRingBytes - off);
    std::memcpy(data() + off, src, first);
    std::memcpy(data(), src + first, n - first);
  }

  void read(std::uint64_t at, std::byte* dst, std::size_t n) {
    const std::size_t off = static_cast<std::size_t>(at % kRingBytes);
    const std::size_t first = std::min(n, kRingBytes - off);
    std::memcpy(dst, data() + off, first);
    std::memcpy(dst + first, data(), n - first);
  }
};

/// Shared control block. The per-rank heartbeat/failure arrays and the
/// traffic counters follow at 64-byte-aligned offsets; pointers to them
/// are computed once in the constructor.
struct ProcTransport::Control {
  std::atomic<int> aborted;
  std::atomic<long long>* heartbeat = nullptr;  // P entries
  std::atomic<int>* failed = nullptr;           // P entries
  char* reasons = nullptr;                      // P * kReasonBytes
};

/// Per-inbound-edge reassembly state (local to the draining process).
struct ProcTransport::EdgeReader {
  bool haveHeader = false;
  std::size_t headerFill = 0;
  std::array<std::byte, kFrameHeaderBytes> header{};
  std::uint64_t payloadBytes = 0;
  int tag = 0;
  double arrivalVirtualTime = 0.0;
  std::vector<std::byte> payload;
  std::size_t payloadFill = 0;
  /// Frame alignment lost (oversized header length): stop draining the
  /// edge rather than deliver garbage or kill the run.
  bool poisoned = false;

  void resetFrame() {
    haveHeader = false;
    headerFill = 0;
    payloadBytes = 0;
    payload.clear();
    payloadFill = 0;
  }
};

ProcTransport::ProcTransport(int size, TransportTuning tuning)
    : size_(size), tuning_(tuning) {
  CASVM_CHECK(size > 0, "proc transport needs at least one rank");
  tuning_.validate();

  const std::size_t p = static_cast<std::size_t>(size);
  const std::size_t heartbeatOff = alignUp(sizeof(Control), 64);
  const std::size_t failedOff =
      alignUp(heartbeatOff + p * sizeof(std::atomic<long long>), 64);
  const std::size_t reasonOff =
      alignUp(failedOff + p * sizeof(std::atomic<int>), 64);
  const std::size_t trafficBytesOff =
      alignUp(reasonOff + p * kReasonBytes, 64);
  const std::size_t trafficOpsOff = alignUp(
      trafficBytesOff + p * p * sizeof(std::atomic<std::size_t>), 64);
  const std::size_t ringsOff =
      alignUp(trafficOpsOff + p * p * sizeof(std::atomic<std::size_t>), 64);
  ringStride_ = kRingHeaderBytes + kRingBytes;
  arenaBytes_ = ringsOff + p * p * ringStride_;

  arena_ = ::mmap(nullptr, arenaBytes_, PROT_READ | PROT_WRITE,
                  MAP_SHARED | MAP_ANONYMOUS, -1, 0);
  CASVM_CHECK(arena_ != MAP_FAILED,
              "proc transport: cannot map a " +
                  std::to_string(arenaBytes_ >> 20) +
                  " MiB shared arena for " + std::to_string(size) + " ranks");

  auto* base = static_cast<std::byte*>(arena_);
  control_ = new (base) Control;
  new (&control_->aborted) std::atomic<int>(0);
  control_->heartbeat =
      reinterpret_cast<std::atomic<long long>*>(base + heartbeatOff);
  control_->failed = reinterpret_cast<std::atomic<int>*>(base + failedOff);
  control_->reasons = reinterpret_cast<char*>(base + reasonOff);
  const long long now = nowMs();
  for (std::size_t r = 0; r < p; ++r) {
    new (&control_->heartbeat[r]) std::atomic<long long>(now);
    new (&control_->failed[r]) std::atomic<int>(0);
  }
  trafficBytes_ =
      reinterpret_cast<std::atomic<std::size_t>*>(base + trafficBytesOff);
  trafficOps_ =
      reinterpret_cast<std::atomic<std::size_t>*>(base + trafficOpsOff);
  for (std::size_t i = 0; i < p * p; ++i) {
    new (&trafficBytes_[i]) std::atomic<std::size_t>(0);
    new (&trafficOps_[i]) std::atomic<std::size_t>(0);
  }
  ringsBase_ = base + ringsOff;
  for (std::size_t i = 0; i < p * p; ++i) {
    auto* r = reinterpret_cast<Ring*>(ringsBase_ + i * ringStride_);
    new (&r->head) std::atomic<std::uint64_t>(0);
    new (&r->tail) std::atomic<std::uint64_t>(0);
  }
}

ProcTransport::~ProcTransport() {
  detachWorker();
  if (arena_ != nullptr) ::munmap(arena_, arenaBytes_);
}

ProcTransport::Ring& ProcTransport::ring(int src, int dst) const {
  const std::size_t i =
      static_cast<std::size_t>(src) * static_cast<std::size_t>(size_) +
      static_cast<std::size_t>(dst);
  return *reinterpret_cast<Ring*>(ringsBase_ + i * ringStride_);
}

bool ProcTransport::sharedAborted() const {
  return control_->aborted.load(std::memory_order_acquire) != 0;
}

// --- shared flag surface -----------------------------------------------------

void ProcTransport::abortAll() {
  control_->aborted.store(1, std::memory_order_release);
  if (self_ >= 0) mailbox_.abort();
}

bool ProcTransport::aborted() const { return sharedAborted(); }

void ProcTransport::markFailed(int rank, const std::string& reason) {
  CASVM_CHECK(rank >= 0 && rank < size_, "markFailed: rank out of range");
  char* slot =
      control_->reasons + static_cast<std::size_t>(rank) * kReasonBytes;
  const std::size_t n = std::min(reason.size(), kReasonBytes - 1);
  std::memcpy(slot, reason.data(), n);
  slot[n] = '\0';
  control_->failed[rank].store(1, std::memory_order_release);
}

bool ProcTransport::rankFailed(int rank) const {
  CASVM_CHECK(rank >= 0 && rank < size_, "rankFailed: rank out of range");
  return control_->failed[rank].load(std::memory_order_acquire) != 0;
}

std::vector<int> ProcTransport::failedRanks() const {
  std::vector<int> out;
  for (int r = 0; r < size_; ++r) {
    if (rankFailed(r)) out.push_back(r);
  }
  return out;
}

std::string ProcTransport::failureReason(int rank) const {
  // The writer NUL-terminates before the release-store on the flag, and
  // callers only read after observing the flag.
  return std::string(control_->reasons +
                     static_cast<std::size_t>(rank) * kReasonBytes);
}

std::atomic<std::size_t>* ProcTransport::trafficBytesStorage() {
  return trafficBytes_;
}

std::atomic<std::size_t>* ProcTransport::trafficOpsStorage() {
  return trafficOps_;
}

// --- heartbeats --------------------------------------------------------------

void ProcTransport::beatNow(int rank) {
  CASVM_CHECK(rank >= 0 && rank < size_, "beatNow: rank out of range");
  control_->heartbeat[rank].store(nowMs(), std::memory_order_release);
}

long long ProcTransport::heartbeatAgeMs(int rank) const {
  CASVM_CHECK(rank >= 0 && rank < size_,
              "heartbeatAgeMs: rank out of range");
  return nowMs() - control_->heartbeat[rank].load(std::memory_order_acquire);
}

// --- data path ---------------------------------------------------------------

bool ProcTransport::writeChunked(Ring& ring, int dst, const void* data,
                                 std::size_t len) {
  const auto* src = static_cast<const std::byte*>(data);
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(tuning_.commTimeoutMs);
  std::size_t done = 0;
  while (done < len) {
    const std::uint64_t head = ring.head.load(std::memory_order_acquire);
    const std::uint64_t tail = ring.tail.load(std::memory_order_relaxed);
    const std::size_t free =
        kRingBytes - static_cast<std::size_t>(tail - head);
    if (free == 0) {
      if (sharedAborted()) {
        throw Error("casvm::net run aborted while sending a message");
      }
      // A dead receiver never drains its ring; drop the rest of the
      // frame silently, mirroring the thread backend where messages to a
      // failed rank sit unread in its mailbox.
      if (rankFailed(dst)) return false;
      CASVM_CHECK(std::chrono::steady_clock::now() < deadline,
                  "comm timeout: rank " + std::to_string(self_) + " spent " +
                      std::to_string(tuning_.commTimeoutMs) +
                      "ms blocked sending to rank " + std::to_string(dst) +
                      " (ring full) — the peer process likely hung or died");
      std::this_thread::sleep_for(std::chrono::microseconds(100));
      continue;
    }
    const std::size_t n = std::min(free, len - done);
    ring.write(tail, src + done, n);
    ring.tail.store(tail + n, std::memory_order_release);
    done += n;
  }
  return true;
}

void ProcTransport::put(int src, int dst, int tag, Message msg) {
  CASVM_CHECK(src >= 0 && src < size_ && dst >= 0 && dst < size_,
              "put: rank out of range");
  Ring& r = ring(src, dst);
  // Frame header: payload bytes (u64), tag (i32), 4 zero bytes, the
  // sender's virtual time (f64).
  support::ByteWriter header(kFrameHeaderBytes);
  header.scalar<std::uint64_t>(msg.payload.size());
  header.scalar<std::int32_t>(tag);
  header.zeros(4);
  header.scalar(msg.arrivalVirtualTime);
  if (!writeChunked(r, dst, header.view().data(), header.size())) return;
  writeChunked(r, dst, msg.payload.data(), msg.payload.size());
}

Message ProcTransport::take(int self, int src, int tag) {
  CASVM_CHECK(self == self_, "take: this process is not attached as rank " +
                                 std::to_string(self));
  auto msg = mailbox_.takeFor(src, tag, tuning_.commTimeoutMs);
  if (!msg) {
    throw Error("comm timeout: rank " + std::to_string(self) + " waited " +
                std::to_string(tuning_.commTimeoutMs) +
                "ms for a message from rank " + std::to_string(src) +
                " (tag " + std::to_string(tag) +
                ") — the peer process likely hung or died; see the "
                "supervisor log for its fate");
  }
  return std::move(*msg);
}

// --- worker attach / drain thread -------------------------------------------

void ProcTransport::attachWorker(int rank) {
  CASVM_CHECK(rank >= 0 && rank < size_, "attachWorker: rank out of range");
  CASVM_CHECK(self_ < 0, "attachWorker: this process is already attached");
  self_ = rank;
  readers_.clear();
  readers_.resize(static_cast<std::size_t>(size_));
  localFailed_.assign(static_cast<std::size_t>(size_), 0);
  localAborted_ = false;
  stopDrain_.store(false, std::memory_order_relaxed);
  beatNow(rank);
  drainThread_ = std::thread([this] { drainLoop(); });
}

void ProcTransport::detachWorker() {
  if (!drainThread_.joinable()) return;
  stopDrain_.store(true, std::memory_order_release);
  drainThread_.join();
}

bool ProcTransport::drainEdge(int src) {
  EdgeReader& st = readers_[static_cast<std::size_t>(src)];
  if (st.poisoned) return false;
  Ring& r = ring(src, self_);
  bool progress = false;
  for (;;) {
    const std::uint64_t tail = r.tail.load(std::memory_order_acquire);
    const std::uint64_t head = r.head.load(std::memory_order_relaxed);
    const std::size_t avail = static_cast<std::size_t>(tail - head);
    if (avail == 0) break;
    if (!st.haveHeader) {
      const std::size_t n =
          std::min(kFrameHeaderBytes - st.headerFill, avail);
      r.read(head, st.header.data() + st.headerFill, n);
      r.head.store(head + n, std::memory_order_release);
      st.headerFill += n;
      progress = true;
      if (st.headerFill < kFrameHeaderBytes) continue;
      support::ByteReader header(st.header, "ring frame header");
      st.payloadBytes = header.scalar<std::uint64_t>();
      st.tag = header.scalar<std::int32_t>();
      header.skip(4);
      st.arrivalVirtualTime = header.scalar<double>();
      if (st.payloadBytes > kMaxFrameBytes) {
        // Frame alignment lost (partial write from a dead incarnation the
        // supervisor didn't clear). Poison only this edge.
        st.poisoned = true;
        return progress;
      }
      st.haveHeader = true;
      st.payload.resize(static_cast<std::size_t>(st.payloadBytes));
      st.payloadFill = 0;
    } else {
      const std::size_t n = std::min(
          static_cast<std::size_t>(st.payloadBytes) - st.payloadFill, avail);
      r.read(head, st.payload.data() + st.payloadFill, n);
      r.head.store(head + n, std::memory_order_release);
      st.payloadFill += n;
      progress = true;
    }
    if (st.haveHeader && st.payloadFill == st.payloadBytes) {
      mailbox_.put(src, st.tag,
                   Message{std::move(st.payload), st.arrivalVirtualTime});
      st.resetFrame();
    }
  }
  return progress;
}

void ProcTransport::drainLoop() {
  while (!stopDrain_.load(std::memory_order_acquire)) {
    beatNow(self_);
    bool progress = false;
    for (int src = 0; src < size_; ++src) {
      progress = drainEdge(src) || progress;
    }
    if (!localAborted_ && sharedAborted()) {
      localAborted_ = true;
      mailbox_.abort();
    }
    for (int src = 0; src < size_; ++src) {
      if (src == self_ || localFailed_[static_cast<std::size_t>(src)]) {
        continue;
      }
      if (!rankFailed(src)) continue;
      // Complete frames were already drained above (messages sent before
      // the death still deliver); a partial frame can never complete.
      readers_[static_cast<std::size_t>(src)].resetFrame();
      localFailed_[static_cast<std::size_t>(src)] = 1;
      mailbox_.failSource(src, failureReason(src));
    }
    if (!progress) {
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  }
}

void ProcTransport::resetInbound(int rank) {
  CASVM_CHECK(rank >= 0 && rank < size_, "resetInbound: rank out of range");
  for (int src = 0; src < size_; ++src) {
    Ring& r = ring(src, rank);
    r.head.store(r.tail.load(std::memory_order_acquire),
                 std::memory_order_release);
  }
}

}  // namespace casvm::net
