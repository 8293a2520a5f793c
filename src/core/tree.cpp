// The binary-reduction-tree methods: Cascade SVM, DC-SVM and DC-Filter.
//
// All three run log2(P)+1 layers. Layer 1 trains P sub-SVMs; at each later
// layer half of the previously active ranks ship their current output to a
// partner, which merges and re-trains with the received alphas as a warm
// start. They differ in (a) the initial partition — even blocks for
// Cascade, K-means for DC-SVM and DC-Filter — and (b) what travels between
// layers — only support vectors (Cascade, DC-Filter) or the entire sample
// set (DC-SVM). The paper's Table V profile (parallelism halving per
// layer, the single-node bottom layer dominating) falls directly out of
// this structure.

#include <algorithm>
#include <optional>
#include <string>

#include "casvm/ckpt/state.hpp"
#include "casvm/ckpt/store.hpp"
#include "casvm/cluster/kmeans.hpp"
#include "methods.hpp"
#include "casvm/support/error.hpp"

namespace casvm::core::detail {

namespace {

constexpr int kTreeDataTag = 200;
constexpr int kTreeAlphaTag = 201;

int log2int(int p) {
  int layers = 0;
  while ((1 << layers) < p) ++layers;
  return layers;
}

/// Indices of the nonzero-alpha rows of a just-solved subproblem.
std::vector<std::size_t> supportIndices(const std::vector<double>& alpha) {
  std::vector<std::size_t> idx;
  for (std::size_t i = 0; i < alpha.size(); ++i) {
    if (alpha[i] > 0.0) idx.push_back(i);
  }
  return idx;
}

}  // namespace

void runTree(net::Comm& comm, const MethodContext& ctx) {
  const int rank = comm.rank();
  const auto urank = static_cast<std::size_t>(rank);
  const int P = comm.size();
  const Method method = ctx.config.method;
  RankBoard& board = ctx.board;

  ckpt::CheckpointStore* store = ctx.config.checkpoints;
  const std::string rankTag = ".r" + std::to_string(rank);

  // --- init phase: place the data ----------------------------------------
  // Cross-process resume of the partition. For DC-SVM / DC-Filter the
  // partition phase is collective (K-means + all-to-all), so skipping it
  // needs every rank's agreement. Cascade's even-block placement is purely
  // local, so each rank decides on its own.
  std::optional<ckpt::PartitionState> part;
  if (store != nullptr && ctx.config.resume) {
    part = restorePartition(comm, ctx, method != Method::Cascade);
  }
  if (!part.has_value()) {
    part.emplace();
    if (method == Method::Cascade) {
      PhaseSpan span(comm, "partition");
      part->local = ctx.initialBlocks[urank];  // even blocks, no communication
    } else {
      // DC-SVM / DC-Filter: distributed K-means over the initial blocks,
      // then an all-to-all moving each sample to its cluster's owner rank.
      cluster::KMeansResult result;
      {
        PhaseSpan span(comm, "partition");
        cluster::KMeansOptions km;
        km.clusters = P;
        km.maxLoops = ctx.config.kmeansMaxLoops;
        km.changeThreshold = ctx.config.kmeansChangeThreshold;
        km.seed = ctx.config.seed;
        result = cluster::kmeansDistributed(comm, ctx.initialBlocks[urank], km);
      }
      part->kmeansLoops = result.loops;
      board.kmeansLoops[urank] = result.loops;
      PhaseSpan span(comm, "scatter");
      part->local = exchangeToOwners(comm, ctx.initialBlocks[urank],
                                     result.partition.assign);
    }
    savePartition(comm, ctx, *part);
  }
  data::Dataset current = std::move(part->local);

  board.samples[urank] = static_cast<long long>(current.rows());
  board.positives[urank] = static_cast<long long>(current.positives());
  markInitEnd(comm, ctx);
  comm.faultCheckpoint("train");

  // --- training phase: the reduction tree ---------------------------------
  const int layers = log2int(P) + 1;
  const int passes = std::max(1, ctx.config.cascadePasses);
  const data::Dataset original = current;  // this rank's pass-1 input
  std::vector<double> currentAlpha;        // warm start, empty on layer 1

  for (int pass = 1; pass <= passes; ++pass) {
    if (pass > 1) {
      // Fig. 2's feedback loop: rank 0 distributes the final SV set (with
      // alphas) to every node; each node re-enters the top layer on its
      // original data plus the global support vectors, warm-started.
      std::vector<std::byte> packedSvs;
      if (rank == 0) packedSvs = current.packAll();
      comm.bcast(packedSvs, 0);
      std::vector<double> svAlpha = currentAlpha;
      comm.bcast(svAlpha, 0);
      const data::Dataset svs = data::Dataset::unpack(packedSvs);
      current = data::Dataset::concat(original, svs);
      currentAlpha.assign(original.rows(), 0.0);
      currentAlpha.insert(currentAlpha.end(), svAlpha.begin(), svAlpha.end());
    }

    for (int layer = 1; layer <= layers; ++layer) {
      const int step = 1 << (layer - 1);
      if (rank % step != 0) break;  // this rank went inactive this pass

      if (layer > 1) {
        // Merge the partner's output with ours. With a non-power-of-two P
        // the tree is ragged: a rank on the right edge may have no partner
        // at this layer (e.g. P=6, layer 3: rank 4's partner would be rank
        // 6). Such a rank skips the merge but stays active, re-entering the
        // solve with its current data so its samples still reach the root.
        const int partner = rank + step / 2;
        if (partner < P) {
          PhaseSpan span(comm, "merge", (pass - 1) * layers + layer);
          const data::Dataset partnerData =
              data::Dataset::unpack(comm.recvBytes(partner, kTreeDataTag));
          const std::vector<double> partnerAlpha =
              comm.recvVec<double>(partner, kTreeAlphaTag);
          CASVM_ASSERT(partnerData.rows() == partnerAlpha.size(),
                       "tree merge: sample/alpha count mismatch");
          current = data::Dataset::concat(current, partnerData);
          currentAlpha.insert(currentAlpha.end(), partnerAlpha.begin(),
                              partnerAlpha.end());
        }
      }

      // Layers keep counting across passes so per-layer checkpoint names
      // and stats stay unique.
      const int globalLayer = (pass - 1) * layers + layer;
      const std::string layerTag = rankTag + ".l" + std::to_string(globalLayer);
      const std::string layerName = "tree" + layerTag;

      // Cross-process resume of a completed layer: restore its post-filter
      // output instead of re-solving. The merge above still ran — on resume
      // every rank replays its sends from restored (hence bitwise-identical)
      // state, so the communication pattern is exactly that of the original
      // run and the restored state matches what the partner just sent.
      std::optional<ckpt::TreeLayerState> done;
      if (store != nullptr && ctx.config.resume) {
        if (const auto payload = store->load(layerName, ckpt::Kind::TreeLayer)) {
          done = ckpt::decodeTreeLayer(*payload);
        }
      }

      if (done.has_value()) {
        ++board.checkpointsLoaded[urank];
        current = std::move(done->current);
        currentAlpha = std::move(done->currentAlpha);
        // Iteration/second counters report work done in THIS run; restoring
        // a finished layer cost neither (the checkpoint still records the
        // original figures for inspection).
        board.layerRecords[urank].push_back(
            {globalLayer, done->samples, 0, done->svs, 0.0});
        if (layer == layers) {
          CASVM_ASSERT(rank == 0, "final layer must run on rank 0");
          CASVM_CHECK(done->model.has_value(),
                      "final-layer checkpoint is missing its model");
          board.models[0] = std::move(*done->model);
          board.svs[0] = done->svs;
        }
      } else {
        // Each layer's merged working set is this rank's cluster at that
        // depth: a mid-layer resume restores its snapshot and factor, and
        // the factor's seed is salted per (rank, layer) so every layer
        // selects its own landmarks.
        const std::uint64_t salt = (static_cast<std::uint64_t>(rank) << 32) |
                                   static_cast<std::uint64_t>(globalLayer);
        const CheckpointedSolve layerSolve = solveCheckpointed(
            comm, ctx, current, layerTag, ctx.config.resume, salt + 1,
            globalLayer,
            ctx.config.treeWarmStart ? std::span<const double>(currentAlpha)
                                     : std::span<const double>());
        const LocalSolve& solve = layerSolve.solve;

        const auto layerSamples = static_cast<long long>(current.rows());
        board.layerRecords[urank].push_back({globalLayer, layerSamples,
                                             solve.iterations, solve.svs,
                                             layerSolve.seconds});

        // Prepare this layer's output: everything for DC-SVM, only the
        // support vectors (with their alphas, the warm start for the next
        // layer) for Cascade and DC-Filter.
        if (method == Method::DcSvm) {
          currentAlpha = solve.alpha;
        } else {
          const std::vector<std::size_t> svIdx = supportIndices(solve.alpha);
          if (svIdx.empty() && !current.empty()) {
            // Degenerate subproblem (typically a single-class K-means part
            // under DC-Filter): there is no margin yet, so *every* sample is
            // a potential support vector once the other class joins at the
            // next layer. Filtering to the empty SV set would silently
            // delete this part's information from the cascade.
            currentAlpha.assign(current.rows(), 0.0);
          } else {
            std::vector<double> svAlpha;
            svAlpha.reserve(svIdx.size());
            for (std::size_t i : svIdx) svAlpha.push_back(solve.alpha[i]);
            current = current.subset(svIdx);
            currentAlpha = std::move(svAlpha);
          }
        }

        if (store != nullptr) {
          ckpt::TreeLayerState state;
          state.layer = globalLayer;
          state.current = current;  // post-filter: the next layer's input
          state.currentAlpha = currentAlpha;
          state.samples = layerSamples;
          state.iterations = solve.iterations;
          state.svs = solve.svs;
          state.seconds = layerSolve.seconds;
          if (layer == layers) state.model = solve.model;
          store->save(layerName, ckpt::Kind::TreeLayer,
                      ckpt::encodeTreeLayer(state));
          store->remove("solver" + layerTag);   // mid-solve state is obsolete
          store->remove("lowrank" + layerTag);  // so is the layer's factor
        }

        if (layer == layers) {
          // Bottom of the tree: rank 0 holds the final model.
          CASVM_ASSERT(rank == 0, "final layer must run on rank 0");
          board.models[0] = solve.model;
          board.svs[0] = solve.svs;
        }
      }

      if (layer != layers && rank % (step * 2) != 0) {
        // This rank is the sending half of the next layer's pairs.
        const int dst = rank - step;
        const std::vector<std::byte> packed = current.packAll();
        comm.sendBytes(dst, kTreeDataTag, packed.data(), packed.size());
        comm.send(dst, currentAlpha, kTreeAlphaTag);
        break;  // inactive for the rest of this pass
      }
    }
  }

  markTrainEnd(comm, ctx);
}

}  // namespace casvm::core::detail
