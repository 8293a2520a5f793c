#include "casvm/ckpt/state.hpp"

#include <cstring>

#include "casvm/support/error.hpp"

namespace casvm::ckpt {

namespace {

/// Append-only byte builder shared by the encoders. Scalars are written as
/// raw little-endian bit patterns (this is a single-host checkpoint, the
/// reader is the same build); variable-length fields carry a u64 count.
class Writer {
 public:
  void raw(const void* data, std::size_t bytes) {
    const std::size_t off = out_.size();
    out_.resize(off + bytes);
    if (bytes > 0) std::memcpy(out_.data() + off, data, bytes);
  }
  template <class T>
  void scalar(T v) {
    static_assert(std::is_trivially_copyable_v<T>);
    raw(&v, sizeof(v));
  }
  template <class T>
  void vec(const std::vector<T>& v) {
    static_assert(std::is_trivially_copyable_v<T>);
    scalar<std::uint64_t>(v.size());
    raw(v.data(), v.size() * sizeof(T));
  }
  void bytes(std::span<const std::byte> b) {
    scalar<std::uint64_t>(b.size());
    raw(b.data(), b.size());
  }
  std::vector<std::byte> take() { return std::move(out_); }

 private:
  std::vector<std::byte> out_;
};

/// Mirror of Writer. Every read is bounds-checked: the payload passed the
/// frame CRC, so a failure here is a codec bug, and throwing loudly beats
/// fabricating state.
class Reader {
 public:
  explicit Reader(std::span<const std::byte> in) : in_(in) {}
  void raw(void* data, std::size_t bytes) {
    CASVM_CHECK(in_.size() >= bytes, "checkpoint decode: truncated payload");
    if (bytes > 0) std::memcpy(data, in_.data(), bytes);
    in_ = in_.subspan(bytes);
  }
  template <class T>
  T scalar() {
    T v;
    raw(&v, sizeof(v));
    return v;
  }
  template <class T>
  std::vector<T> vec() {
    const std::uint64_t count = scalar<std::uint64_t>();
    CASVM_CHECK(count <= in_.size() / sizeof(T),
                "checkpoint decode: count exceeds payload");
    std::vector<T> v(count);
    raw(v.data(), count * sizeof(T));
    return v;
  }
  std::vector<std::byte> bytes() { return vec<std::byte>(); }
  void expectEnd() const {
    CASVM_CHECK(in_.empty(), "checkpoint decode: trailing bytes");
  }

 private:
  std::span<const std::byte> in_;
};

}  // namespace

std::vector<std::byte> encodeMeta(const RunMeta& meta) {
  Writer w;
  w.scalar(meta.fingerprint);
  w.scalar(meta.method);
  w.scalar(meta.processes);
  w.scalar(meta.rows);
  w.scalar(meta.cols);
  return w.take();
}

RunMeta decodeMeta(std::span<const std::byte> payload) {
  Reader r(payload);
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
  Writer w;
  w.scalar(state.kmeansLoops);
  w.vec(state.center);
  w.bytes(state.local.packAll());
  return w.take();
}

PartitionState decodePartition(std::span<const std::byte> payload) {
  Reader r(payload);
  PartitionState state;
  state.kmeansLoops = r.scalar<std::uint64_t>();
  state.center = r.vec<float>();
  state.local = data::Dataset::unpack(r.bytes());
  r.expectEnd();
  return state;
}

std::vector<std::byte> encodeSolverState(const solver::SolverSnapshot& snap) {
  Writer w;
  w.scalar<std::uint64_t>(snap.iteration);
  w.scalar<std::uint8_t>(snap.everShrunk ? 1 : 0);
  w.vec(snap.alpha);
  w.vec(snap.f);
  w.vec(snap.active);
  return w.take();
}

solver::SolverSnapshot decodeSolverState(std::span<const std::byte> payload) {
  Reader r(payload);
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
  Writer w;
  w.scalar(state.round);
  w.scalar(state.blockIterations);
  w.scalar(state.pairIterations);
  w.vec(state.alpha);
  w.vec(state.f);
  return w.take();
}

PbmRoundState decodePbmRound(std::span<const std::byte> payload) {
  Reader r(payload);
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
  Writer w;
  w.scalar(state.iterations);
  w.scalar(state.svs);
  w.bytes(state.model.pack());
  return w.take();
}

SubModelState decodeSubModel(std::span<const std::byte> payload) {
  Reader r(payload);
  SubModelState state;
  state.iterations = r.scalar<long long>();
  state.svs = r.scalar<long long>();
  state.model = solver::Model::unpack(r.bytes());
  r.expectEnd();
  return state;
}

std::vector<std::byte> encodeTreeLayer(const TreeLayerState& state) {
  Writer w;
  w.scalar(state.layer);
  w.scalar(state.samples);
  w.scalar(state.iterations);
  w.scalar(state.svs);
  w.scalar(state.seconds);
  w.vec(state.currentAlpha);
  w.bytes(state.current.packAll());
  w.scalar<std::uint8_t>(state.model.has_value() ? 1 : 0);
  if (state.model.has_value()) w.bytes(state.model->pack());
  return w.take();
}

TreeLayerState decodeTreeLayer(std::span<const std::byte> payload) {
  Reader r(payload);
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
