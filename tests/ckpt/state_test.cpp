// Payload codecs for the training-state checkpoint kinds. Resume is only
// bitwise-exact if every codec round-trips exactly, so these tests compare
// raw serialized bytes (doubles included) rather than approximate values.

#include "casvm/ckpt/state.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "casvm/data/synth.hpp"
#include "casvm/solver/smo.hpp"
#include "casvm/support/error.hpp"

namespace casvm::ckpt {
namespace {

solver::Model trainedModel() {
  const auto ds = data::generateTwoGaussians(120, 4, 5.0, 17);
  solver::SolverOptions opts;
  opts.kernel = kernel::KernelParams::gaussian(0.25);
  return solver::SmoSolver(opts).solve(ds).model;
}

TEST(StateCodecTest, MetaRoundTrip) {
  RunMeta meta;
  meta.fingerprint = 0xDEADBEEFCAFEF00Dull;
  meta.method = 7;
  meta.processes = 16;
  meta.rows = 123456;
  meta.cols = 78;
  const RunMeta back = decodeMeta(encodeMeta(meta));
  EXPECT_EQ(back.fingerprint, meta.fingerprint);
  EXPECT_EQ(back.method, meta.method);
  EXPECT_EQ(back.processes, meta.processes);
  EXPECT_EQ(back.rows, meta.rows);
  EXPECT_EQ(back.cols, meta.cols);
}

TEST(StateCodecTest, PartitionRoundTripIsBitwise) {
  PartitionState state;
  state.local = data::generateTwoGaussians(90, 6, 4.0, 23);
  state.center = {1.5f, -2.25f, 0.0f, 3.75f, -0.5f, 9.0f};
  state.kmeansLoops = 12;
  const PartitionState back = decodePartition(encodePartition(state));
  EXPECT_EQ(back.local.packAll(), state.local.packAll());
  EXPECT_EQ(back.center, state.center);
  EXPECT_EQ(back.kmeansLoops, state.kmeansLoops);
}

TEST(StateCodecTest, SolverStateRoundTripIsBitwise) {
  solver::SolverSnapshot snap;
  snap.iteration = 4096;
  snap.everShrunk = true;
  // Values chosen to have no short decimal representation: only an exact
  // bit-pattern round-trip reproduces them.
  snap.alpha = {0.1, 1.0 / 3.0, std::nextafter(1.0, 2.0), 0.0};
  snap.f = {-1.0, 2e-17, std::acos(-1.0), 7.5};
  snap.active = {0, 2, 3};
  const solver::SolverSnapshot back =
      decodeSolverState(encodeSolverState(snap));
  EXPECT_EQ(back.iteration, snap.iteration);
  EXPECT_EQ(back.everShrunk, snap.everShrunk);
  EXPECT_EQ(back.alpha, snap.alpha);  // operator== on double is exact
  EXPECT_EQ(back.f, snap.f);
  EXPECT_EQ(back.active, snap.active);
}

TEST(StateCodecTest, DisSmoStateRoundTripIsBitwise) {
  solver::SolverSnapshot snap;
  snap.iteration = 123;
  snap.everShrunk = true;
  snap.alpha = {2.0 / 7.0, 0.0, std::nextafter(0.5, 1.0)};
  snap.f = {-1e-300, 3e17, 0.25};
  snap.active = {1, 2};
  const solver::SolverSnapshot back =
      decodeSolverState(encodeSolverState(snap));
  EXPECT_EQ(back.iteration, snap.iteration);
  EXPECT_EQ(back.everShrunk, snap.everShrunk);
  EXPECT_EQ(back.alpha, snap.alpha);
  EXPECT_EQ(back.f, snap.f);
  EXPECT_EQ(back.active, snap.active);
}

TEST(StateCodecTest, PbmRoundRoundTripIsBitwise) {
  PbmRoundState state;
  state.round = 5;
  state.blockIterations = 4321;
  state.pairIterations = 987;
  state.alpha = {1.0 / 3.0, 0.0, std::nextafter(1.0, 0.0)};
  state.f = {std::acos(-1.0), -2e-17};
  const PbmRoundState back = decodePbmRound(encodePbmRound(state));
  EXPECT_EQ(back.round, state.round);
  EXPECT_EQ(back.blockIterations, state.blockIterations);
  EXPECT_EQ(back.pairIterations, state.pairIterations);
  EXPECT_EQ(back.alpha, state.alpha);
  EXPECT_EQ(back.f, state.f);
}

TEST(StateCodecTest, TruncatedPbmRoundThrowsNotCrashes) {
  PbmRoundState state;
  state.alpha = {1.0, 2.0};
  state.f = {3.0, 4.0};
  const auto bytes = encodePbmRound(state);
  for (std::size_t cut = 0; cut < bytes.size(); cut += 3) {
    EXPECT_THROW((void)decodePbmRound(std::span(bytes).first(cut)), Error)
        << "cut=" << cut;
  }
}

TEST(StateCodecTest, SubModelRoundTripIsBitwise) {
  SubModelState state;
  state.model = trainedModel();
  state.iterations = 777;
  state.svs = static_cast<long long>(state.model.numSupportVectors());
  const SubModelState back = decodeSubModel(encodeSubModel(state));
  EXPECT_EQ(back.model.pack(), state.model.pack());
  EXPECT_EQ(back.iterations, state.iterations);
  EXPECT_EQ(back.svs, state.svs);
}

TEST(StateCodecTest, TreeLayerRoundTripWithAndWithoutModel) {
  TreeLayerState state;
  state.layer = 3;
  state.current = data::generateTwoGaussians(40, 4, 5.0, 29);
  state.currentAlpha.assign(state.current.rows(), 0.5);
  state.currentAlpha[7] = 1.0 / 7.0;
  state.samples = 40;
  state.iterations = 321;
  state.svs = 11;
  state.seconds = 0.125;

  const TreeLayerState noModel = decodeTreeLayer(encodeTreeLayer(state));
  EXPECT_EQ(noModel.layer, state.layer);
  EXPECT_EQ(noModel.current.packAll(), state.current.packAll());
  EXPECT_EQ(noModel.currentAlpha, state.currentAlpha);
  EXPECT_EQ(noModel.samples, state.samples);
  EXPECT_EQ(noModel.iterations, state.iterations);
  EXPECT_EQ(noModel.svs, state.svs);
  EXPECT_EQ(noModel.seconds, state.seconds);
  EXPECT_FALSE(noModel.model.has_value());

  state.model = trainedModel();
  const TreeLayerState withModel = decodeTreeLayer(encodeTreeLayer(state));
  ASSERT_TRUE(withModel.model.has_value());
  EXPECT_EQ(withModel.model->pack(), state.model->pack());
}

TEST(StateCodecTest, TruncatedPayloadThrowsNotCrashes) {
  solver::SolverSnapshot snap;
  snap.alpha = {1.0, 2.0, 3.0};
  snap.f = {4.0, 5.0, 6.0};
  snap.active = {0, 1, 2};
  const auto bytes = encodeSolverState(snap);
  for (std::size_t cut = 0; cut < bytes.size(); cut += 3) {
    EXPECT_THROW((void)decodeSolverState(std::span(bytes).first(cut)), Error)
        << "cut=" << cut;
  }
}

}  // namespace
}  // namespace casvm::ckpt
