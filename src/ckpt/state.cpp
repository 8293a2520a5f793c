#include "casvm/ckpt/state.hpp"

#include "casvm/support/bytes.hpp"

namespace casvm::ckpt {

std::vector<std::byte> encodeMeta(const RunMeta& meta) {
  support::ByteWriter w;
  w.scalar(meta.fingerprint);
  w.scalar(meta.method);
  w.scalar(meta.processes);
  w.scalar(meta.rows);
  w.scalar(meta.cols);
  return w.take();
}

RunMeta decodeMeta(std::span<const std::byte> payload) {
  support::ByteReader r(payload, "checkpoint decode");
  RunMeta meta;
  meta.fingerprint = r.scalar<std::uint64_t>();
  meta.method = r.scalar<std::uint32_t>();
  meta.processes = r.scalar<std::uint32_t>();
  meta.rows = r.scalar<std::uint64_t>();
  meta.cols = r.scalar<std::uint64_t>();
  r.expectEnd();
  return meta;
}

std::vector<std::byte> encodePartition(const PartitionState& state) {
  support::ByteWriter w;
  w.scalar(state.kmeansLoops);
  w.vec(state.center);
  w.vec(state.local.packAll());
  return w.take();
}

PartitionState decodePartition(std::span<const std::byte> payload) {
  support::ByteReader r(payload, "checkpoint decode");
  PartitionState state;
  state.kmeansLoops = r.scalar<std::uint64_t>();
  state.center = r.vec<float>();
  state.local = data::Dataset::unpack(r.bytes());
  r.expectEnd();
  return state;
}

std::vector<std::byte> encodeSolverState(const solver::SolverSnapshot& snap) {
  support::ByteWriter w;
  w.scalar<std::uint64_t>(snap.iteration);
  w.scalar<std::uint8_t>(snap.everShrunk ? 1 : 0);
  w.vec(snap.alpha);
  w.vec(snap.f);
  w.vec(snap.active);
  return w.take();
}

solver::SolverSnapshot decodeSolverState(std::span<const std::byte> payload) {
  support::ByteReader r(payload, "checkpoint decode");
  solver::SolverSnapshot snap;
  snap.iteration = r.scalar<std::uint64_t>();
  snap.everShrunk = r.scalar<std::uint8_t>() != 0;
  snap.alpha = r.vec<double>();
  snap.f = r.vec<double>();
  snap.active = r.vec<std::size_t>();
  r.expectEnd();
  return snap;
}

std::vector<std::byte> encodeDisSmoState(const solver::SolverSnapshot& snap) {
  return encodeSolverState(snap);
}

solver::SolverSnapshot decodeDisSmoState(std::span<const std::byte> payload) {
  return decodeSolverState(payload);
}

std::vector<std::byte> encodePbmRound(const PbmRoundState& state) {
  support::ByteWriter w;
  w.scalar(state.round);
  w.scalar(state.blockIterations);
  w.scalar(state.pairIterations);
  w.vec(state.alpha);
  w.vec(state.f);
  return w.take();
}

PbmRoundState decodePbmRound(std::span<const std::byte> payload) {
  support::ByteReader r(payload, "checkpoint decode");
  PbmRoundState state;
  state.round = r.scalar<std::uint64_t>();
  state.blockIterations = r.scalar<long long>();
  state.pairIterations = r.scalar<long long>();
  state.alpha = r.vec<double>();
  state.f = r.vec<double>();
  r.expectEnd();
  return state;
}

std::vector<std::byte> encodeSubModel(const SubModelState& state) {
  support::ByteWriter w;
  w.scalar(state.iterations);
  w.scalar(state.svs);
  w.vec(state.model.pack());
  return w.take();
}

SubModelState decodeSubModel(std::span<const std::byte> payload) {
  support::ByteReader r(payload, "checkpoint decode");
  SubModelState state;
  state.iterations = r.scalar<long long>();
  state.svs = r.scalar<long long>();
  state.model = solver::Model::unpack(r.bytes());
  r.expectEnd();
  return state;
}

std::vector<std::byte> encodeTreeLayer(const TreeLayerState& state) {
  support::ByteWriter w;
  w.scalar(state.layer);
  w.scalar(state.samples);
  w.scalar(state.iterations);
  w.scalar(state.svs);
  w.scalar(state.seconds);
  w.vec(state.currentAlpha);
  w.vec(state.current.packAll());
  w.scalar<std::uint8_t>(state.model.has_value() ? 1 : 0);
  if (state.model.has_value()) w.vec(state.model->pack());
  return w.take();
}

TreeLayerState decodeTreeLayer(std::span<const std::byte> payload) {
  support::ByteReader r(payload, "checkpoint decode");
  TreeLayerState state;
  state.layer = r.scalar<std::int64_t>();
  state.samples = r.scalar<long long>();
  state.iterations = r.scalar<long long>();
  state.svs = r.scalar<long long>();
  state.seconds = r.scalar<double>();
  state.currentAlpha = r.vec<double>();
  state.current = data::Dataset::unpack(r.bytes());
  if (r.scalar<std::uint8_t>() != 0) {
    state.model = solver::Model::unpack(r.bytes());
  }
  r.expectEnd();
  return state;
}

}  // namespace casvm::ckpt
