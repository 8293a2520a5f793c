#include "casvm/ckpt/store.hpp"

#include <algorithm>
#include <cstdlib>
#include <filesystem>

#include "casvm/support/atomic_file.hpp"
#include "casvm/support/error.hpp"
#include "casvm/support/log.hpp"

namespace fs = std::filesystem;

namespace casvm::ckpt {

namespace {

constexpr const char* kSuffix = ".ckpt";

/// Split "<name>.g<N>.ckpt" into (name, N), or nullopt if `filename` is
/// not a generation file.
std::optional<std::pair<std::string, std::uint64_t>> parseGenerationFile(
    const std::string& filename) {
  const std::string suffix = kSuffix;
  if (filename.size() <= suffix.size() ||
      filename.compare(filename.size() - suffix.size(), suffix.size(),
                       suffix) != 0) {
    return std::nullopt;
  }
  const std::string stem = filename.substr(0, filename.size() - suffix.size());
  const std::size_t mark = stem.rfind(".g");
  if (mark == std::string::npos || mark + 2 == stem.size()) {
    return std::nullopt;
  }
  std::uint64_t gen = 0;
  for (std::size_t k = mark + 2; k < stem.size(); ++k) {
    const char c = stem[k];
    if (c < '0' || c > '9') return std::nullopt;
    gen = gen * 10 + static_cast<std::uint64_t>(c - '0');
  }
  return std::make_pair(stem.substr(0, mark), gen);
}

}  // namespace

CheckpointStore::CheckpointStore(std::string dir) : dir_(std::move(dir)) {
  CASVM_CHECK(!dir_.empty(), "checkpoint store needs a directory");
  std::error_code ec;
  fs::create_directories(dir_, ec);
  CASVM_CHECK(!ec && fs::is_directory(dir_),
              "cannot create checkpoint directory: " + dir_);
}

void CheckpointStore::beginRun(bool resume) {
  const std::lock_guard<std::mutex> lock(mutex_);
  hiddenThrough_.clear();
  if (resume) return;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(dir_, ec)) {
    if (!entry.is_regular_file()) continue;
    const auto file = parseGenerationFile(entry.path().filename().string());
    if (file) {
      std::uint64_t& newest = hiddenThrough_[file->first];
      newest = std::max(newest, file->second);
    }
  }
}

std::uint64_t CheckpointStore::hiddenThrough(const std::string& name) const {
  const auto it = hiddenThrough_.find(name);
  return it == hiddenThrough_.end() ? 0 : it->second;
}

std::vector<std::pair<std::uint64_t, std::string>>
CheckpointStore::generationsOf(const std::string& name, bool withHidden) const {
  const std::uint64_t hidden = withHidden ? 0 : hiddenThrough(name);
  std::vector<std::pair<std::uint64_t, std::string>> gens;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(dir_, ec)) {
    if (!entry.is_regular_file()) continue;
    const auto file = parseGenerationFile(entry.path().filename().string());
    if (file && file->first == name && file->second > hidden) {
      gens.emplace_back(file->second, entry.path().string());
    }
  }
  std::sort(gens.begin(), gens.end(),
            [](const auto& a, const auto& b) { return a.first > b.first; });
  return gens;
}

void CheckpointStore::save(const std::string& name, Kind kind,
                           std::span<const std::byte> payload) {
  CASVM_CHECK(name.find('/') == std::string::npos,
              "checkpoint name must not contain '/': " + name);
  const std::lock_guard<std::mutex> lock(mutex_);
  const auto gens = generationsOf(name, /*withHidden=*/true);
  // Number above every generation on disk and every hidden one, so a name
  // removed during this run never reuses a number the run hides.
  const std::uint64_t next =
      std::max(gens.empty() ? 0 : gens.front().first, hiddenThrough(name)) + 1;
  const std::string path =
      dir_ + "/" + name + ".g" + std::to_string(next) + kSuffix;
  support::writeFileAtomic(path, encodeFrame(kind, payload));
  // Prune: the new generation plus kKeepGenerations-1 predecessors stay, so
  // a corrupt newest file always has a complete fallback.
  for (std::size_t i = kKeepGenerations - 1; i < gens.size(); ++i) {
    std::error_code ec;
    fs::remove(gens[i].second, ec);  // best effort; stale files are harmless
  }
}

std::optional<std::vector<std::byte>> CheckpointStore::load(
    const std::string& name, Kind kind) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  for (const auto& [gen, path] : generationsOf(name)) {
    std::optional<Frame> frame;
    try {
      frame = decodeFrame(support::readFileBytes(path));
    } catch (const Error&) {
      frame = std::nullopt;  // unreadable file == corrupt generation
    }
    if (frame && frame->kind == kind) return std::move(frame->payload);
    ++corruptSkipped_;
    CASVM_WARN("checkpoint: ignoring corrupt or mismatched generation "
               << path << (frame ? " (wrong kind)" : " (failed integrity check)")
               << "; falling back to the previous generation");
  }
  return std::nullopt;
}

std::vector<std::vector<std::byte>> CheckpointStore::loadGenerations(
    const std::string& name, Kind kind) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::vector<std::vector<std::byte>> payloads;
  for (const auto& [gen, path] : generationsOf(name)) {
    std::optional<Frame> frame;
    try {
      frame = decodeFrame(support::readFileBytes(path));
    } catch (const Error&) {
      frame = std::nullopt;  // unreadable file == corrupt generation
    }
    if (frame && frame->kind == kind) {
      payloads.push_back(std::move(frame->payload));
      continue;
    }
    ++corruptSkipped_;
    CASVM_WARN("checkpoint: ignoring corrupt or mismatched generation "
               << path << (frame ? " (wrong kind)" : " (failed integrity check)")
               << "; falling back to the previous generation");
  }
  return payloads;
}

bool CheckpointStore::contains(const std::string& name) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return !generationsOf(name).empty();
}

void CheckpointStore::remove(const std::string& name) {
  const std::lock_guard<std::mutex> lock(mutex_);
  for (const auto& [gen, path] : generationsOf(name, /*withHidden=*/true)) {
    std::error_code ec;
    fs::remove(path, ec);
  }
}

std::size_t CheckpointStore::corruptSkipped() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return corruptSkipped_;
}

}  // namespace casvm::ckpt
