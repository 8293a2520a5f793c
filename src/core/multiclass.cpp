#include "casvm/core/multiclass.hpp"

#include <algorithm>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <set>

#include "casvm/serve/compiled_ensemble.hpp"
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
  std::vector<std::byte> out;
  auto append = [&out](const void* data, std::size_t bytes) {
    const std::size_t off = out.size();
    out.resize(off + bytes);
    std::memcpy(out.data() + off, data, bytes);
  };
  const std::uint64_t numClasses = classes_.size();
  append(&numClasses, sizeof(numClasses));
  append(classes_.data(), classes_.size() * sizeof(int));
  const std::uint64_t numPairs = pairs_.size();
  append(&numPairs, sizeof(numPairs));
  for (const Pair& pair : pairs_) {
    append(&pair.positiveClass, sizeof(int));
    append(&pair.negativeClass, sizeof(int));
    const std::vector<std::byte> bytes = pair.model.pack();
    const std::uint64_t len = bytes.size();
    append(&len, sizeof(len));
    append(bytes.data(), bytes.size());
  }
  return out;
}

MulticlassModel MulticlassModel::unpack(std::span<const std::byte> bytes) {
  auto read = [&bytes](void* data, std::size_t count) {
    CASVM_CHECK(bytes.size() >= count, "multiclass unpack: truncated");
    std::memcpy(data, bytes.data(), count);
    bytes = bytes.subspan(count);
  };
  std::uint64_t numClasses = 0;
  read(&numClasses, sizeof(numClasses));
  CASVM_CHECK(numClasses <= bytes.size() / sizeof(int),
              "multiclass unpack: class count exceeds payload");
  std::vector<int> classes(numClasses);
  read(classes.data(), numClasses * sizeof(int));
  std::uint64_t numPairs = 0;
  read(&numPairs, sizeof(numPairs));
  CASVM_CHECK(numPairs <= bytes.size() / sizeof(std::uint64_t),
              "multiclass unpack: pair count exceeds payload");
  std::vector<Pair> pairs;
  pairs.reserve(numPairs);
  for (std::uint64_t p = 0; p < numPairs; ++p) {
    Pair pair;
    read(&pair.positiveClass, sizeof(int));
    read(&pair.negativeClass, sizeof(int));
    std::uint64_t len = 0;
    read(&len, sizeof(len));
    CASVM_CHECK(bytes.size() >= len, "multiclass unpack: truncated");
    pair.model = DistributedModel::unpack(bytes.subspan(0, len));
    bytes = bytes.subspan(len);
    pairs.push_back(std::move(pair));
  }
  CASVM_CHECK(bytes.empty(), "multiclass unpack: trailing bytes");
  return MulticlassModel(std::move(classes), std::move(pairs));
}

void MulticlassModel::save(const std::string& path) const {
  std::ofstream out(path, std::ios::binary);
  CASVM_CHECK(out.good(), "cannot open model file for writing: " + path);
  const std::vector<std::byte> bytes = pack();
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
  CASVM_CHECK(out.good(), "model write failed: " + path);
}

MulticlassModel MulticlassModel::load(const std::string& path) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  CASVM_CHECK(in.good(), "cannot open model file: " + path);
  const std::streamsize size = in.tellg();
  in.seekg(0);
  std::vector<std::byte> bytes(static_cast<std::size_t>(size));
  in.read(reinterpret_cast<char*>(bytes.data()), size);
  CASVM_CHECK(in.good(), "model read failed: " + path);
  return unpack(bytes);
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
