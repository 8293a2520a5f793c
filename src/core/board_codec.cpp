#include "board_codec.hpp"

#include <cstdint>

#include "casvm/ckpt/state.hpp"
#include "casvm/support/bytes.hpp"

namespace casvm::core::detail {

std::vector<std::byte> encodeBoardSlot(const RankBoard& board, int rank) {
  const auto r = static_cast<std::size_t>(rank);
  support::ByteWriter w;

  // The model rides the checkpoint layer's exact sub-model codec.
  ckpt::SubModelState sub;
  sub.model = board.models[r];
  sub.iterations = board.iterations[r];
  sub.svs = board.svs[r];
  w.vec(ckpt::encodeSubModel(sub));

  w.vec(board.alphas[r]);
  w.vec(board.centers[r]);
  w.scalar(board.samples[r]);
  w.scalar(board.positives[r]);
  w.scalar(board.initEndVirtual[r]);
  w.scalar(board.trainEndVirtual[r]);
  w.scalar<std::uint64_t>(board.kmeansLoops[r]);

  const auto& layers = board.layerRecords[r];
  w.scalar<std::uint64_t>(layers.size());
  for (const RankBoard::LayerRecord& rec : layers) {
    w.scalar<std::int32_t>(rec.layer);
    w.scalar(rec.samples);
    w.scalar(rec.iterations);
    w.scalar(rec.svs);
    w.scalar(rec.seconds);
  }

  w.scalar<std::int32_t>(board.retries[r]);
  w.scalar<std::uint8_t>(board.recovered[r]);
  w.scalar(board.checkpointsLoaded[r]);
  w.scalar(board.auxIterations[r]);
  w.scalar(board.shrinkEngagedIter[r]);
  w.scalar(board.rowBcastsSkipped[r]);

  // The init/train-boundary traffic snapshot (rank 0 fills it inside the
  // instrumentation fence; everyone else ships an empty one).
  w.scalar<std::int32_t>(board.initSnapshot.size);
  w.vec(board.initSnapshot.bytes);
  w.vec(board.initSnapshot.ops);
  return w.take();
}

void absorbBoardSlot(RankBoard& board, int rank,
                     std::span<const std::byte> bytes) {
  const auto r = static_cast<std::size_t>(rank);
  support::ByteReader in(bytes, "board slot");

  const ckpt::SubModelState sub = ckpt::decodeSubModel(in.bytes());
  board.models[r] = sub.model;
  board.iterations[r] = sub.iterations;
  board.svs[r] = sub.svs;

  board.alphas[r] = in.vec<double>();
  board.centers[r] = in.vec<float>();
  board.samples[r] = in.scalar<long long>();
  board.positives[r] = in.scalar<long long>();
  board.initEndVirtual[r] = in.scalar<double>();
  board.trainEndVirtual[r] = in.scalar<double>();
  board.kmeansLoops[r] = in.scalar<std::uint64_t>();

  const auto layerCount = in.scalar<std::uint64_t>();
  auto& layers = board.layerRecords[r];
  layers.clear();
  layers.reserve(in.count(layerCount, sizeof(std::int32_t) +
                                          3 * sizeof(long long) +
                                          sizeof(double)));
  for (std::uint64_t i = 0; i < layerCount; ++i) {
    RankBoard::LayerRecord rec;
    rec.layer = in.scalar<std::int32_t>();
    rec.samples = in.scalar<long long>();
    rec.iterations = in.scalar<long long>();
    rec.svs = in.scalar<long long>();
    rec.seconds = in.scalar<double>();
    layers.push_back(rec);
  }

  board.retries[r] = in.scalar<std::int32_t>();
  board.recovered[r] = in.scalar<std::uint8_t>();
  board.checkpointsLoaded[r] = in.scalar<long long>();
  board.auxIterations[r] = in.scalar<long long>();
  board.shrinkEngagedIter[r] = in.scalar<long long>();
  board.rowBcastsSkipped[r] = in.scalar<long long>();

  // Only absorb a non-empty snapshot: every rank's payload carries the
  // field, but only rank 0 ever filled it.
  net::TrafficSnapshot snap;
  snap.size = in.scalar<std::int32_t>();
  snap.bytes = in.vec<std::size_t>();
  snap.ops = in.vec<std::size_t>();
  if (snap.size > 0) board.initSnapshot = std::move(snap);
  in.expectEnd();
}

}  // namespace casvm::core::detail
