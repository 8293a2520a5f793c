#include "casvm/obs/trace.hpp"

#include <cstdio>
#include <string_view>

#include "casvm/support/bytes.hpp"
#include "casvm/support/error.hpp"
#include "casvm/support/strings.hpp"

namespace casvm::obs {

const char* catName(Cat cat) {
  switch (cat) {
    case Cat::Comm: return "comm";
    case Cat::Phase: return "phase";
    case Cat::Solver: return "solver";
    case Cat::Serve: return "serve";
  }
  return "unknown";
}

Lane& TraceRecorder::addLane(int pid, int tid, std::string name) {
  std::lock_guard<std::mutex> lock(mutex_);
  lanes_.push_back(std::make_unique<Lane>(pid, tid, std::move(name)));
  return *lanes_.back();
}

std::size_t TraceRecorder::laneCount() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return lanes_.size();
}

const Lane& TraceRecorder::lane(std::size_t i) const {
  std::lock_guard<std::mutex> lock(mutex_);
  CASVM_CHECK(i < lanes_.size(), "lane index out of range");
  return *lanes_[i];
}

std::size_t TraceRecorder::eventCount() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::size_t total = 0;
  for (const auto& lane : lanes_) total += lane->events().size();
  return total;
}

std::size_t TraceRecorder::spanCount(int pid, Cat cat) const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::size_t total = 0;
  for (const auto& lane : lanes_) {
    if (lane->pid() != pid) continue;
    for (const Event& e : lane->events()) {
      if (!e.instant && e.cat == cat) ++total;
    }
  }
  return total;
}

double TraceRecorder::commSeconds(int pid) const {
  std::lock_guard<std::mutex> lock(mutex_);
  double total = 0.0;
  for (const auto& lane : lanes_) {
    if (lane->pid() != pid) continue;
    for (const Event& e : lane->events()) {
      if (!e.instant && e.cat == Cat::Comm) total += e.durationSeconds();
    }
  }
  return total;
}

std::string TraceRecorder::chromeTraceJson() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::string out = "{\"traceEvents\": [";
  bool first = true;
  const auto sep = [&] {
    if (!first) out += ",";
    first = false;
    out += "\n  ";
  };

  // Metadata events naming each process/thread row.
  for (const auto& lane : lanes_) {
    sep();
    appendFormat(out,
                 "{\"name\": \"process_name\", \"ph\": \"M\", \"pid\": %d, "
                 "\"tid\": %d, \"args\": {\"name\": \"%s\"}}",
                 lane->pid(), lane->tid(), lane->name().c_str());
  }

  for (const auto& lane : lanes_) {
    for (const Event& e : lane->events()) {
      sep();
      // Chrome timestamps are microseconds; producers record seconds.
      const double ts = e.startSeconds * 1e6;
      if (e.instant) {
        appendFormat(out,
                     "{\"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"i\", "
                     "\"s\": \"t\", \"pid\": %d, \"tid\": %d, \"ts\": %.3f, "
                     "\"args\": {\"iter\": %lld, \"active\": %lld, "
                     "\"gap\": %.6g, \"hit_rate\": %.4f}}",
                     e.name, catName(e.cat), lane->pid(), lane->tid(), ts,
                     static_cast<long long>(e.iter),
                     static_cast<long long>(e.active), e.gap, e.hitRate);
        continue;
      }
      appendFormat(out,
                   "{\"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"X\", "
                   "\"pid\": %d, \"tid\": %d, \"ts\": %.3f, \"dur\": %.3f",
                   e.name, catName(e.cat), lane->pid(), lane->tid(), ts,
                   e.durationSeconds() * 1e6);
      out += ", \"args\": {";
      bool firstArg = true;
      const auto arg = [&](const char* key, long long value) {
        appendFormat(out, "%s\"%s\": %lld", firstArg ? "" : ", ", key, value);
        firstArg = false;
      };
      if (e.peer >= 0) arg("peer", e.peer);
      if (e.bytes >= 0) arg("bytes", e.bytes);
      if (e.detail >= 0) arg("detail", e.detail);
      out += "}}";
    }
  }
  out += "\n]}\n";
  return out;
}

std::vector<std::byte> TraceRecorder::encodeShard() const {
  std::lock_guard<std::mutex> lock(mutex_);
  support::ByteWriter w;
  w.scalar<std::uint64_t>(lanes_.size());
  for (const auto& lane : lanes_) {
    w.scalar<std::int32_t>(lane->pid());
    w.scalar<std::int32_t>(lane->tid());
    w.vec(lane->name());
    w.scalar<std::uint64_t>(lane->events().size());
    for (const Event& e : lane->events()) {
      w.vec(std::string_view(e.name));
      w.scalar(e.cat);
      w.scalar<std::uint8_t>(e.instant ? 1 : 0);
      w.scalar(e.startSeconds);
      w.scalar(e.endSeconds);
      w.scalar(e.peer);
      w.scalar(e.bytes);
      w.scalar(e.detail);
      w.scalar(e.iter);
      w.scalar(e.active);
      w.scalar(e.gap);
      w.scalar(e.hitRate);
    }
  }
  return w.take();
}

void TraceRecorder::absorbShard(std::span<const std::byte> shard) {
  std::lock_guard<std::mutex> lock(mutex_);
  support::ByteReader r(shard, "trace shard");
  const auto laneCount = r.scalar<std::uint64_t>();
  for (std::uint64_t l = 0; l < laneCount; ++l) {
    const auto pid = r.scalar<std::int32_t>();
    const auto tid = r.scalar<std::int32_t>();
    std::string name = r.str();
    lanes_.push_back(std::make_unique<Lane>(pid, tid, std::move(name)));
    Lane& lane = *lanes_.back();
    const auto eventCount = r.scalar<std::uint64_t>();
    for (std::uint64_t i = 0; i < eventCount; ++i) {
      Event e;
      e.name = intern(r.str());
      e.cat = r.scalar<Cat>();
      e.instant = r.scalar<std::uint8_t>() != 0;
      e.startSeconds = r.scalar<double>();
      e.endSeconds = r.scalar<double>();
      e.peer = r.scalar<std::int64_t>();
      e.bytes = r.scalar<std::int64_t>();
      e.detail = r.scalar<std::int64_t>();
      e.iter = r.scalar<std::int64_t>();
      e.active = r.scalar<std::int64_t>();
      e.gap = r.scalar<double>();
      e.hitRate = r.scalar<double>();
      lane.record(e);
    }
  }
  r.expectEnd();
}

const char* TraceRecorder::intern(const std::string& name) {
  for (const auto& s : interned_) {
    if (*s == name) return s->c_str();
  }
  interned_.push_back(std::make_unique<std::string>(name));
  return interned_.back()->c_str();
}

void TraceRecorder::writeChromeTrace(const std::string& path) const {
  const std::string json = chromeTraceJson();
  std::FILE* f = std::fopen(path.c_str(), "wb");
  CASVM_CHECK(f != nullptr, "cannot open trace output file: " + path);
  const std::size_t written = std::fwrite(json.data(), 1, json.size(), f);
  const int closed = std::fclose(f);
  CASVM_CHECK(written == json.size() && closed == 0,
              "failed to write trace output file: " + path);
}

}  // namespace casvm::obs
