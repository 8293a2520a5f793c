#pragma once

/// \file state.hpp
/// Payload codecs for the training-state checkpoint kinds.
///
/// Every encode/decode pair is exact: doubles travel as their raw bit
/// patterns and datasets through Dataset::pack/unpack, so restoring a
/// snapshot reproduces the interrupted computation bitwise (the resume
/// property test depends on this). Decoders assume the payload already
/// passed the frame CRC — a decode failure therefore indicates a version
/// or logic bug and throws casvm::Error instead of returning nullopt.

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "casvm/data/dataset.hpp"
#include "casvm/solver/model.hpp"
#include "casvm/solver/smo.hpp"

namespace casvm::ckpt {

/// Identity of a training run: a resume against a checkpoint directory
/// written by a different config/dataset must be rejected, not silently
/// blended into nonsense.
struct RunMeta {
  std::uint64_t fingerprint = 0;  ///< hash of config + dataset identity
  std::uint32_t method = 0;       ///< core::Method as an integer
  std::uint32_t processes = 0;
  std::uint64_t rows = 0;
  std::uint64_t cols = 0;
};

std::vector<std::byte> encodeMeta(const RunMeta& meta);
RunMeta decodeMeta(std::span<const std::byte> payload);

/// A rank's slice of the partitioned data plus its routing center —
/// everything needed to skip the collective partition phase on resume.
struct PartitionState {
  data::Dataset local;
  std::vector<float> center;
  std::uint64_t kmeansLoops = 0;
};

std::vector<std::byte> encodePartition(const PartitionState& state);
PartitionState decodePartition(std::span<const std::byte> payload);

/// A solver snapshot: the serial solver's, and a Dis-SMO rank's mid-solve
/// state (global iteration, whether shrinking ever engaged, local alpha/f,
/// local active set), which Dis-SMO writes under Kind::DisSmoState so a
/// global-method resume can never misread a partitioned run's solver file.
/// Dis-SMO's replicated row store is deliberately not saved: rebuilding it
/// from scratch changes only communication volume, never the trajectory.
std::vector<std::byte> encodeSolverState(const solver::SolverSnapshot& snap);
solver::SolverSnapshot decodeSolverState(std::span<const std::byte> payload);

/// A rank's PBM state at the top of an outer round: the round number, the
/// iteration tallies accumulated so far, and the local alpha/f slices.
struct PbmRoundState {
  std::uint64_t round = 0;
  long long blockIterations = 0;
  long long pairIterations = 0;
  std::vector<double> alpha;
  std::vector<double> f;
};

std::vector<std::byte> encodePbmRound(const PbmRoundState& state);
PbmRoundState decodePbmRound(std::span<const std::byte> payload);

/// A finished per-rank sub-model (partitioned methods): the board deposits
/// a crashed-then-resumed run would otherwise lose.
struct SubModelState {
  solver::Model model;
  long long iterations = 0;
  long long svs = 0;
};

std::vector<std::byte> encodeSubModel(const SubModelState& state);
SubModelState decodeSubModel(std::span<const std::byte> payload);

/// One completed tree layer on one rank: the filtered output that feeds
/// the next merge, plus the layer's stats record and (at the final layer)
/// the finished model.
struct TreeLayerState {
  std::int64_t layer = 0;  ///< global layer index ((pass-1)*layers + layer)
  data::Dataset current;
  std::vector<double> currentAlpha;
  long long samples = 0;
  long long iterations = 0;
  long long svs = 0;
  double seconds = 0.0;
  std::optional<solver::Model> model;  ///< set at the final layer only
};

std::vector<std::byte> encodeTreeLayer(const TreeLayerState& state);
TreeLayerState decodeTreeLayer(std::span<const std::byte> payload);

}  // namespace casvm::ckpt
