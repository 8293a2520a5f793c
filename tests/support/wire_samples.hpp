#pragma once

// Fixed inputs for every byte format the library writes: models, datasets,
// the Nyström factor, checkpoint frames and state payloads, board slots and
// trace shards. Each sample pairs one encoder's output with a round trip
// through the matching decoder. The golden test pins the encodings; the
// mutation test feeds the decoders damaged copies of them.

#include <cstddef>
#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include "../../src/core/board_codec.hpp"
#include "casvm/ckpt/checkpoint.hpp"
#include "casvm/ckpt/state.hpp"
#include "casvm/core/distributed_model.hpp"
#include "casvm/core/multiclass.hpp"
#include "casvm/data/dataset.hpp"
#include "casvm/lowrank/nystrom.hpp"
#include "casvm/obs/trace.hpp"
#include "casvm/solver/model.hpp"

namespace casvm::wire_samples {

struct Sample {
  std::string name;
  std::vector<std::byte> bytes;
  /// Decodes a (possibly damaged) copy of `bytes` and encodes the result
  /// again; a frame that fails its checks encodes as no bytes.
  std::function<std::vector<std::byte>(std::span<const std::byte>)> roundTrip;
};

/// 5 x 3 dense rows with labels +1/-1.
inline data::Dataset denseSet() {
  std::vector<float> values;
  for (int i = 0; i < 5; ++i) {
    for (int j = 0; j < 3; ++j) {
      values.push_back(0.25f * float(i) - 0.5f * float(j));
    }
  }
  return data::Dataset::fromDense(3, std::move(values), {1, -1, 1, -1, -1});
}

/// 4 x 6 sparse rows, one of them empty.
inline data::Dataset sparseSet() {
  return data::Dataset::fromSparse(6, {0, 2, 2, 5, 6}, {0, 4, 1, 2, 5, 3},
                                   {1.5f, -2.0f, 0.5f, 0.25f, -1.0f, 3.0f},
                                   {-1, 1, 1, -1});
}

inline solver::Model gaussianModel() {
  return solver::Model(kernel::KernelParams::gaussian(0.5), denseSet(),
                       {0.5, -0.25, 1.0, -0.75, -0.5}, 0.125);
}

inline solver::Model polynomialModel() {
  return solver::Model(kernel::KernelParams::polynomial(2.0, 1.0, 3),
                       sparseSet(), {-1.0, 0.5, 0.5, 0.0}, -0.375);
}

inline core::DistributedModel routedModel() {
  return core::DistributedModel::routed(
      {gaussianModel(), gaussianModel()},
      {{0.0f, 0.5f, -0.5f}, {1.0f, -1.0f, 0.25f}});
}

inline core::MulticlassModel multiclassModel() {
  using Pair = core::MulticlassModel::Pair;
  return core::MulticlassModel(
      {1, 2, 5},
      {Pair{1, 2, core::DistributedModel::single(gaussianModel())},
       Pair{1, 5, core::DistributedModel::single(polynomialModel())},
       Pair{2, 5, core::DistributedModel::single(gaussianModel())}});
}

inline lowrank::NystromFactor nystromFactor() {
  lowrank::NystromOptions opts;
  opts.landmarks = 3;
  opts.strategy = lowrank::LandmarkStrategy::Uniform;
  opts.seed = 5;
  const kernel::Kernel linear(kernel::KernelParams::linear());
  return lowrank::NystromFactor::build(linear, denseSet(), opts);
}

inline solver::SolverSnapshot snapshot() {
  solver::SolverSnapshot snap;
  snap.iteration = 17;
  snap.everShrunk = true;
  snap.alpha = {0.0, 0.5, 1.0};
  snap.f = {-1.0, 0.25, 2.0};
  snap.active = {2, 0};
  return snap;
}

inline core::RankBoard board() {
  core::RankBoard b(2);
  b.models[1] = gaussianModel();
  b.alphas[1] = {0.5, 0.0};
  b.centers[1] = {0.25f, -0.5f};
  b.iterations[1] = 42;
  b.samples[1] = 5;
  b.svs[1] = 4;
  b.positives[1] = 2;
  b.initEndVirtual[1] = 0.125;
  b.trainEndVirtual[1] = 1.5;
  b.kmeansLoops[1] = 3;
  b.layerRecords[1] = {{0, 5, 10, 3, 0.25}, {1, 8, 20, 4, 0.5}};
  b.retries[1] = 1;
  b.recovered[1] = 1;
  b.checkpointsLoaded[1] = 2;
  b.auxIterations[1] = 7;
  b.shrinkEngagedIter[1] = 11;
  b.rowBcastsSkipped[1] = 9;
  b.initSnapshot.size = 2;
  b.initSnapshot.bytes = {0, 64, 32, 0};
  b.initSnapshot.ops = {0, 2, 1, 0};
  return b;
}

inline std::vector<std::byte> traceShard() {
  obs::TraceRecorder rec;
  obs::Lane& rank = rec.addLane(1, 0, "rank 1");
  rank.span("bcast", obs::Cat::Comm, 0.5, 0.75, /*peer=*/0, /*bytes=*/256);
  rank.progress(1.0, /*iter=*/64, /*active=*/5, /*gap=*/0.5, /*hitRate=*/0.25);
  rec.addLane(1, 1, "aux").span("solve", obs::Cat::Phase, 0.0, 2.0, -1, -1, 1);
  return rec.encodeShard();
}

inline std::vector<Sample> samples() {
  using Bytes = std::span<const std::byte>;
  const data::Dataset dense = denseSet();
  const std::vector<std::size_t> picked{3, 0, 2};

  ckpt::PartitionState partition;
  partition.local = sparseSet();
  partition.center = {0.5f, -0.25f};
  partition.kmeansLoops = 6;

  ckpt::PbmRoundState pbm;
  pbm.round = 3;
  pbm.blockIterations = 120;
  pbm.pairIterations = 14;
  pbm.alpha = {0.25, 0.75};
  pbm.f = {-0.5, 0.5};

  ckpt::SubModelState sub;
  sub.model = polynomialModel();
  sub.iterations = 99;
  sub.svs = 3;

  ckpt::TreeLayerState layer;
  layer.layer = 2;
  layer.current = dense;
  layer.currentAlpha = {0.5, 0.0, 1.0, 0.25, 0.0};
  layer.samples = 5;
  layer.iterations = 31;
  layer.svs = 4;
  layer.seconds = 0.375;
  ckpt::TreeLayerState finalLayer = layer;
  finalLayer.model = gaussianModel();

  std::vector<std::byte> framePayload(40);
  for (std::size_t i = 0; i < framePayload.size(); ++i) {
    framePayload[i] = static_cast<std::byte>(i * 7);
  }

  return {
      {"dataset.dense", dense.packAll(),
       [](Bytes b) { return data::Dataset::unpack(b).packAll(); }},
      {"dataset.dense_subset", dense.pack(picked),
       [](Bytes b) { return data::Dataset::unpack(b).packAll(); }},
      {"dataset.sparse", sparseSet().packAll(),
       [](Bytes b) { return data::Dataset::unpack(b).packAll(); }},
      {"model.gaussian", gaussianModel().pack(),
       [](Bytes b) { return solver::Model::unpack(b).pack(); }},
      {"model.polynomial", polynomialModel().pack(),
       [](Bytes b) { return solver::Model::unpack(b).pack(); }},
      {"distributed.single",
       core::DistributedModel::single(gaussianModel()).pack(),
       [](Bytes b) { return core::DistributedModel::unpack(b).pack(); }},
      {"distributed.routed", routedModel().pack(),
       [](Bytes b) { return core::DistributedModel::unpack(b).pack(); }},
      {"multiclass", multiclassModel().pack(),
       [](Bytes b) { return core::MulticlassModel::unpack(b).pack(); }},
      {"nystrom", nystromFactor().encode(),
       [](Bytes b) { return lowrank::NystromFactor::decode(b).encode(); }},
      {"ckpt.frame", ckpt::encodeFrame(ckpt::Kind::TreeLayer, framePayload),
       [](Bytes b) {
         const auto frame = ckpt::decodeFrame(b);
         return frame ? ckpt::encodeFrame(frame->kind, frame->payload)
                      : std::vector<std::byte>{};
       }},
      {"ckpt.meta",
       ckpt::encodeMeta({0x0123456789abcdefULL, 4, 8, 1000, 54}),
       [](Bytes b) { return ckpt::encodeMeta(ckpt::decodeMeta(b)); }},
      {"ckpt.partition", ckpt::encodePartition(partition),
       [](Bytes b) { return ckpt::encodePartition(ckpt::decodePartition(b)); }},
      {"ckpt.solver", ckpt::encodeSolverState(snapshot()),
       [](Bytes b) {
         return ckpt::encodeSolverState(ckpt::decodeSolverState(b));
       }},
      {"ckpt.dissmo", ckpt::encodeDisSmoState(snapshot()),
       [](Bytes b) {
         return ckpt::encodeDisSmoState(ckpt::decodeDisSmoState(b));
       }},
      {"ckpt.pbm", ckpt::encodePbmRound(pbm),
       [](Bytes b) { return ckpt::encodePbmRound(ckpt::decodePbmRound(b)); }},
      {"ckpt.submodel", ckpt::encodeSubModel(sub),
       [](Bytes b) { return ckpt::encodeSubModel(ckpt::decodeSubModel(b)); }},
      {"ckpt.tree_layer", ckpt::encodeTreeLayer(layer),
       [](Bytes b) { return ckpt::encodeTreeLayer(ckpt::decodeTreeLayer(b)); }},
      {"ckpt.tree_layer_final", ckpt::encodeTreeLayer(finalLayer),
       [](Bytes b) { return ckpt::encodeTreeLayer(ckpt::decodeTreeLayer(b)); }},
      {"board.slot", core::detail::encodeBoardSlot(board(), 1),
       [](Bytes b) {
         core::RankBoard into(2);
         core::detail::absorbBoardSlot(into, 1, b);
         return core::detail::encodeBoardSlot(into, 1);
       }},
      {"trace.shard", traceShard(),
       [](Bytes b) {
         obs::TraceRecorder rec;
         rec.absorbShard(b);
         return rec.encodeShard();
       }},
  };
}

}  // namespace casvm::wire_samples
