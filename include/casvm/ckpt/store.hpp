#pragma once

/// \file store.hpp
/// Generation-numbered checkpoint storage on a directory.
///
/// Each named checkpoint (e.g. "solver.r3") is a family of files
/// `<name>.g<N>.ckpt` with N strictly increasing. save() writes the next
/// generation atomically and then prunes all but the newest two, so one
/// older complete generation always survives a crash mid-rotation. load()
/// walks generations newest-first and returns the first frame that passes
/// every integrity check; anything corrupt (bad magic/CRC, short read) is
/// logged, counted, and skipped in favor of the previous generation —
/// a damaged checkpoint is never trusted.
///
/// One store is shared by all rank threads of a run; operations take an
/// internal lock (rank checkpoint names are disjoint, but the directory
/// scan/prune must not race).
///
/// A fresh run trusts only the generations it writes itself (beginRun):
/// state a previous run left in a reused directory is never restored by a
/// rank retry or a respawn, only by an explicit resume.

#include <cstddef>
#include <cstdint>
#include <map>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "casvm/ckpt/checkpoint.hpp"

namespace casvm::ckpt {

class CheckpointStore {
 public:
  /// Opens (creating if needed) the checkpoint directory.
  explicit CheckpointStore(std::string dir);

  const std::string& dir() const { return dir_; }

  /// Start a training run against this directory. A fresh run (`resume`
  /// false) hides every generation already on disk from load(),
  /// loadGenerations() and contains() for the rest of the run, and its own
  /// saves number above them. A resumed run sees every generation. Forked
  /// workers inherit the record, so a respawned rank sees what its run saw.
  void beginRun(bool resume);

  /// Persist `payload` as the next generation of `name`. Atomic: a crash
  /// at any point leaves either the previous generations or the previous
  /// generations plus one complete new file.
  void save(const std::string& name, Kind kind,
            std::span<const std::byte> payload);

  /// Newest valid payload of `name` with the expected kind, or nullopt if
  /// no generation survives the integrity checks. Corrupt generations are
  /// warned about and skipped.
  std::optional<std::vector<std::byte>> load(const std::string& name,
                                             Kind kind) const;

  /// Every valid payload of `name` with the expected kind, newest first —
  /// at most kKeepGenerations entries. Global methods use this to agree on
  /// a generation all ranks still hold: ranks checkpoint within one save
  /// interval of each other, so with two kept generations the allreduce-min
  /// of newest snapshot iterations exists somewhere in every rank's list.
  std::vector<std::vector<std::byte>> loadGenerations(const std::string& name,
                                                      Kind kind) const;

  /// True when at least one generation file of `name` this run may see
  /// exists (no integrity check — use load() to actually trust it).
  bool contains(const std::string& name) const;

  /// Delete every generation of `name`, hidden ones included (e.g. a stale
  /// solver snapshot once the finished sub-model checkpoint exists).
  void remove(const std::string& name);

  /// Corrupt/truncated generation files skipped by load() so far.
  std::size_t corruptSkipped() const;

  /// Generations kept per name (newest N survive pruning).
  static constexpr std::size_t kKeepGenerations = 2;

 private:
  /// (generation, path) pairs for `name`, newest first; generations this
  /// run hides are left out unless `withHidden`. Caller holds the lock.
  std::vector<std::pair<std::uint64_t, std::string>> generationsOf(
      const std::string& name, bool withHidden = false) const;

  /// Newest generation of `name` that existed when this fresh run began
  /// (0 = none hidden). Caller holds the lock.
  std::uint64_t hiddenThrough(const std::string& name) const;

  std::string dir_;
  mutable std::mutex mutex_;
  mutable std::size_t corruptSkipped_ = 0;
  std::map<std::string, std::uint64_t> hiddenThrough_;
};

}  // namespace casvm::ckpt
