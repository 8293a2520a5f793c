#include "casvm/core/multiclass.hpp"

#include <algorithm>
#include <map>
#include <memory>
#include <set>

#include "casvm/serve/compiled_ensemble.hpp"
#include "casvm/support/atomic_file.hpp"
#include "casvm/support/bytes.hpp"
#include "casvm/support/error.hpp"
#include "methods.hpp"

namespace casvm::core {

MulticlassModel::MulticlassModel(std::vector<int> classes,
                                 std::vector<Pair> pairs)
    : classes_(std::move(classes)), pairs_(std::move(pairs)) {
  CASVM_CHECK(classes_.size() >= 2, "need at least two classes");
  CASVM_CHECK(std::is_sorted(classes_.begin(), classes_.end()),
              "classes must be sorted");
  CASVM_CHECK(pairs_.size() == classes_.size() * (classes_.size() - 1) / 2,
              "one model per unordered class pair required");
}

int MulticlassModel::predictFor(const data::Dataset& ds,
                                std::size_t i) const {
  CASVM_CHECK(!pairs_.empty(), "empty multiclass model");
  std::map<int, int> votes;
  std::map<int, double> margin;
  for (const Pair& pair : pairs_) {
    const double d = pair.model.decisionFor(ds, i);
    const int winner = d >= 0.0 ? pair.positiveClass : pair.negativeClass;
    ++votes[winner];
    margin[winner] += std::abs(d);
  }
  int best = classes_.front();
  int bestVotes = -1;
  double bestMargin = -1.0;
  for (int cls : classes_) {
    const int v = votes.count(cls) ? votes.at(cls) : 0;
    const double g = margin.count(cls) ? margin.at(cls) : 0.0;
    if (v > bestVotes || (v == bestVotes && g > bestMargin)) {
      best = cls;
      bestVotes = v;
      bestMargin = g;
    }
  }
  return best;
}

double MulticlassModel::accuracy(const data::Dataset& ds,
                                 const std::vector<int>& labels) const {
  // Batch path: one-vs-one voting through the compiled model, whose
  // predictions are identical to predictFor, tie-breaks included.
  serve::BatchScratch scratch;
  return serve::CompiledMulticlassModel::compile(*this).accuracy(ds, labels,
                                                                scratch);
}

std::vector<std::byte> MulticlassModel::pack() const {
  support::ByteWriter w;
  w.vec(classes_);
  w.scalar<std::uint64_t>(pairs_.size());
  for (const Pair& pair : pairs_) {
    w.scalar(pair.positiveClass);
    w.scalar(pair.negativeClass);
    w.vec(pair.model.pack());
  }
  return w.take();
}

MulticlassModel MulticlassModel::unpack(std::span<const std::byte> bytes) {
  support::ByteReader r(bytes, "multiclass unpack");
  std::vector<int> classes = r.vec<int>();
  const auto numPairs = r.scalar<std::uint64_t>();
  std::vector<Pair> pairs;
  // Every pair carries at least its two class ids and a u64 length.
  pairs.reserve(r.count(numPairs, 2 * sizeof(int) + sizeof(std::uint64_t)));
  for (std::uint64_t p = 0; p < numPairs; ++p) {
    Pair pair;
    pair.positiveClass = r.scalar<int>();
    pair.negativeClass = r.scalar<int>();
    pair.model = DistributedModel::unpack(r.bytes());
    pairs.push_back(std::move(pair));
  }
  r.expectEnd();
  return MulticlassModel(std::move(classes), std::move(pairs));
}

void MulticlassModel::save(const std::string& path) const {
  // Atomic temp-file + rename, like every model artifact.
  support::writeFileAtomic(path, std::span<const std::byte>(pack()));
}

MulticlassModel MulticlassModel::load(const std::string& path) {
  return unpack(support::readFileBytes(path));
}

namespace {

/// Largest usable process count for a pairwise subproblem: no more ranks
/// than samples (with a little headroom). Tree methods handle ragged
/// (non-power-of-two) rank counts, so no further clamping is needed.
int clampProcesses(const TrainConfig& config, std::size_t pairRows) {
  const int p = std::min<int>(config.processes,
                              std::max<int>(1, static_cast<int>(pairRows / 4)));
  return std::max(p, 1);
}

/// The pairwise subproblems of a one-vs-one decomposition.
struct PairProblem {
  int positiveClass = 0;
  int negativeClass = 0;
  data::Dataset data;
};

std::vector<PairProblem> buildPairs(const data::Dataset& features,
                                    const std::vector<int>& classLabels,
                                    const std::vector<int>& classes) {
  std::vector<PairProblem> pairs;
  for (std::size_t a = 0; a < classes.size(); ++a) {
    for (std::size_t b = a + 1; b < classes.size(); ++b) {
      const int pos = classes[a];
      const int neg = classes[b];
      std::vector<std::size_t> rows;
      for (std::size_t i = 0; i < classLabels.size(); ++i) {
        if (classLabels[i] == pos || classLabels[i] == neg) rows.push_back(i);
      }
      CASVM_CHECK(rows.size() >= 2, "degenerate class pair");
      std::vector<std::int8_t> labels(rows.size());
      for (std::size_t i = 0; i < rows.size(); ++i) {
        labels[i] = classLabels[rows[i]] == pos ? 1 : -1;
      }
      pairs.push_back({pos, neg,
                       data::Dataset::relabel(features.subset(rows),
                                              std::move(labels))});
    }
  }
  return pairs;
}

}  // namespace

MulticlassResult trainMulticlass(const data::Dataset& features,
                                 const std::vector<int>& classLabels,
                                 const TrainConfig& config) {
  CASVM_CHECK(features.rows() == classLabels.size(),
              "one class label per row required");
  const std::set<int> classSet(classLabels.begin(), classLabels.end());
  CASVM_CHECK(classSet.size() >= 2, "need at least two distinct classes");
  const std::vector<int> classes(classSet.begin(), classSet.end());

  const std::vector<PairProblem> problems =
      buildPairs(features, classLabels, classes);

  std::vector<MulticlassModel::Pair> pairs;
  MulticlassResult result;
  for (const PairProblem& problem : problems) {
    TrainConfig pairConfig = config;
    pairConfig.processes = clampProcesses(config, problem.data.rows());
    const TrainResult trained = train(problem.data, pairConfig);

    result.totalIterations += trained.totalIterations;
    result.trainSeconds += trained.initSeconds + trained.trainSeconds;
    ++result.pairsTrained;
    pairs.push_back({problem.positiveClass, problem.negativeClass,
                     trained.model});
  }

  result.model = MulticlassModel(classes, std::move(pairs));
  return result;
}

MulticlassResult trainMulticlassParallel(const data::Dataset& features,
                                         const std::vector<int>& classLabels,
                                         const TrainConfig& config,
                                         int groups) {
  CASVM_CHECK(features.rows() == classLabels.size(),
              "one class label per row required");
  CASVM_CHECK(groups >= 1, "need at least one group");
  const std::set<int> classSet(classLabels.begin(), classLabels.end());
  CASVM_CHECK(classSet.size() >= 2, "need at least two distinct classes");
  const std::vector<int> classes(classSet.begin(), classSet.end());

  const std::vector<PairProblem> problems =
      buildPairs(features, classLabels, classes);
  const int numPairs = static_cast<int>(problems.size());
  CASVM_CHECK((numPairs + groups - 1) / groups <= 15,
              "too many pairs per group (split budget); raise `groups`");

  // Per-pair configuration, placement and deposit board, prepared by the
  // driver so every rank of a group sees identical inputs.
  std::vector<TrainConfig> configs;
  std::vector<std::vector<data::Dataset>> placements;
  std::vector<std::unique_ptr<RankBoard>> boards;
  for (const PairProblem& problem : problems) {
    TrainConfig pairConfig = config;
    pairConfig.processes = clampProcesses(config, problem.data.rows());
    placements.push_back(detail::placementFor(problem.data, pairConfig));
    boards.push_back(std::make_unique<RankBoard>(pairConfig.processes));
    configs.push_back(pairConfig);
  }

  const int perGroup = config.processes;
  net::Engine engine(groups * perGroup, config.cost);
  const net::RunStats stats = engine.run([&](net::Comm& world) {
    const int groupId = world.rank() / perGroup;
    net::Comm group = world.split(groupId, world.rank());
    for (int pairIdx = groupId; pairIdx < numPairs; pairIdx += groups) {
      const int pairProcs = configs[static_cast<std::size_t>(pairIdx)].processes;
      // Carve the pair's communicator out of the group (some ranks may sit
      // a round out when the pair is too small for the full group).
      const bool active = group.rank() < pairProcs;
      net::Comm pairComm = group.split(active ? 0 : 1, group.rank());
      if (!active) continue;
      detail::MethodContext ctx{
          configs[static_cast<std::size_t>(pairIdx)],
          placements[static_cast<std::size_t>(pairIdx)],
          *boards[static_cast<std::size_t>(pairIdx)]};
      detail::runMethod(pairComm, ctx);
    }
  });

  MulticlassResult result;
  std::vector<MulticlassModel::Pair> pairs;
  for (int p = 0; p < numPairs; ++p) {
    const auto up = static_cast<std::size_t>(p);
    TrainResult assembled = detail::assembleFromBoard(
        configs[up], *boards[up], configs[up].processes);
    result.totalIterations += assembled.totalIterations;
    ++result.pairsTrained;
    pairs.push_back({problems[up].positiveClass, problems[up].negativeClass,
                     std::move(assembled.model)});
  }
  // Groups ran concurrently: the run's critical path is the honest time.
  result.trainSeconds = stats.virtualSeconds();
  result.model = MulticlassModel(classes, std::move(pairs));
  return result;
}

}  // namespace casvm::core
