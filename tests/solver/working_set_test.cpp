#include "casvm/solver/working_set.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <random>
#include <vector>

namespace casvm::solver {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// One selection problem: f plus the samples' labels and alphas, with the
/// membership bytes derived through the shared index-set predicates.
struct Problem {
  std::vector<double> f;
  std::vector<std::int8_t> y;
  std::vector<double> alpha;
  std::vector<std::uint8_t> high, low;
  double c = 1.0;
  double eps = kBoundSlack;

  void deriveMasks() {
    high.assign(f.size(), 0);
    low.assign(f.size(), 0);
    for (std::size_t i = 0; i < f.size(); ++i) {
      high[i] = inHighSet(y[i], alpha[i], c, eps);
      low[i] = inLowSet(y[i], alpha[i], c, eps);
    }
  }
};

/// The scan the solver ran before the membership bytes: one branch on
/// each sample's label and alpha, first index wins.
PairPick plainScan(const Problem& p) {
  const std::size_t m = p.f.size();
  PairPick r{m, m, kInf, -kInf};
  for (std::size_t i = 0; i < m; ++i) {
    if (inHighSet(p.y[i], p.alpha[i], p.c, p.eps) && p.f[i] < r.bHigh) {
      r.bHigh = p.f[i];
      r.high = i;
    }
    if (inLowSet(p.y[i], p.alpha[i], p.c, p.eps) && p.f[i] > r.bLow) {
      r.bLow = p.f[i];
      r.low = i;
    }
  }
  return r;
}

Problem randomProblem(std::size_t m, std::mt19937_64& rng) {
  std::normal_distribution<double> g(0.0, 1.0);
  std::uniform_int_distribution<int> coin(0, 1), bound(0, 2);
  Problem p;
  for (std::size_t i = 0; i < m; ++i) {
    p.f.push_back(g(rng));
    p.y.push_back(coin(rng) == 0 ? std::int8_t{1} : std::int8_t{-1});
    // At the lower bound, at the upper bound, or free.
    const int b = bound(rng);
    p.alpha.push_back(b == 0 ? 0.0 : b == 1 ? p.c : 0.5 * p.c);
  }
  p.deriveMasks();
  return p;
}

/// `fn` and the plain scan agree on indices and on value bits (so +0.0
/// and -0.0 are told apart).
void expectAgrees(SelectFn fn, const Problem& p, const char* what) {
  const std::size_t m = p.f.size();
  const PairPick ref = plainScan(p);
  const PairPick got = fn(p.f.data(), p.high.data(), p.low.data(), m);
  EXPECT_EQ(got.high, ref.high) << what << " m=" << m;
  EXPECT_EQ(got.low, ref.low) << what << " m=" << m;
  EXPECT_EQ(std::bit_cast<std::uint64_t>(got.bHigh),
            std::bit_cast<std::uint64_t>(ref.bHigh))
      << what << " m=" << m;
  EXPECT_EQ(std::bit_cast<std::uint64_t>(got.bLow),
            std::bit_cast<std::uint64_t>(ref.bLow))
      << what << " m=" << m;
}

/// One lane and two, every lane of the AVX2 and AVX-512 steps (8 and 16
/// samples), ragged tails past twice the widest step, and a long block.
const std::size_t kSizes[] = {1,  3,  4,  5,  7,  8,  9,  15,
                              16, 17, 31, 32, 33, 47, 4000};

void randomProblemsMatch(SelectFn fn) {
  std::mt19937_64 rng(17);
  for (std::size_t m : kSizes) {
    for (int rep = 0; rep < 20; ++rep) {
      expectAgrees(fn, randomProblem(m, rng), "random");
    }
  }
}

/// Equal minima and maxima in different lanes, different lane sets and
/// the scalar tail: the first index always wins.
void tiesGoToTheFirstIndex(SelectFn fn) {
  std::mt19937_64 rng(5);
  for (std::size_t m : kSizes) {
    for (std::size_t first = 0; first < std::min<std::size_t>(m, 20);
         ++first) {
      Problem p = randomProblem(m, rng);
      for (std::size_t i = 0; i < m; ++i) {
        p.y[i] = 1;
        p.alpha[i] = 0.5;  // free: in both sets
      }
      p.deriveMasks();
      for (std::size_t i = first; i < m; i += 3) {
        p.f[i] = -9.0;
        if (i + 1 < m) p.f[i + 1] = 9.0;
      }
      expectAgrees(fn, p, "ties");
      const PairPick got = fn(p.f.data(), p.high.data(), p.low.data(), m);
      EXPECT_EQ(got.high, first);
      if (first + 1 < m) {
        EXPECT_EQ(got.low, first + 1);
      }
    }
  }
}

/// +0.0 and -0.0 tie: whichever comes first is returned, with its sign.
void signedZerosTie(SelectFn fn) {
  for (std::size_t m : kSizes) {
    if (m < 3) continue;
    for (const double lead : {0.0, -0.0}) {
      Problem p;
      p.f.assign(m, 1.0);
      p.y.assign(m, 1);
      p.alpha.assign(m, 0.5);
      p.deriveMasks();
      const std::size_t a = m / 3, b = m - 1;
      p.f[a] = lead;
      p.f[b] = -lead;
      expectAgrees(fn, p, "zeros");
      const PairPick got = fn(p.f.data(), p.high.data(), p.low.data(), m);
      EXPECT_EQ(got.high, a);
      EXPECT_EQ(std::bit_cast<std::uint64_t>(got.bHigh),
                std::bit_cast<std::uint64_t>(lead));
    }
  }
}

/// A NaN in f is never chosen, and a set of nothing but NaN is empty.
void nanIsNeverChosen(SelectFn fn) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  std::mt19937_64 rng(9);
  for (std::size_t m : kSizes) {
    Problem p = randomProblem(m, rng);
    for (std::size_t i = 0; i < m; i += 2) p.f[i] = nan;
    expectAgrees(fn, p, "some NaN");
    const PairPick got = fn(p.f.data(), p.high.data(), p.low.data(), m);
    if (got.high < m) {
      EXPECT_FALSE(std::isnan(p.f[got.high]));
    }
    if (got.low < m) {
      EXPECT_FALSE(std::isnan(p.f[got.low]));
    }

    p.f.assign(m, nan);
    expectAgrees(fn, p, "all NaN");
    const PairPick none = fn(p.f.data(), p.high.data(), p.low.data(), m);
    EXPECT_EQ(none.high, m);
    EXPECT_EQ(none.low, m);
  }
}

/// Fully masked sets (every sample shrunk away, or none in the set)
/// return m with +inf and -inf.
void fullyMaskedSetsAreEmpty(SelectFn fn) {
  std::mt19937_64 rng(3);
  for (std::size_t m : kSizes) {
    Problem p = randomProblem(m, rng);
    std::fill(p.high.begin(), p.high.end(), 0);
    std::fill(p.low.begin(), p.low.end(), 0);
    const PairPick got = fn(p.f.data(), p.high.data(), p.low.data(), m);
    EXPECT_EQ(got.high, m);
    EXPECT_EQ(got.low, m);
    EXPECT_EQ(got.bHigh, kInf);
    EXPECT_EQ(got.bLow, -kInf);
    // Every sample at its upper bound with y = +1: in the low set only.
    for (std::size_t i = 0; i < m; ++i) {
      p.y[i] = 1;
      p.alpha[i] = p.c;
    }
    p.deriveMasks();
    expectAgrees(fn, p, "empty high set");
    EXPECT_EQ(fn(p.f.data(), p.high.data(), p.low.data(), m).high, m);
  }
}

/// The dispatched selection and the portable one.
std::array<SelectFn, 2> dispatched() { return {selectFn(), &selectPortable}; }

TEST(WorkingSetTest, RandomProblemsMatchPlainScan) {
  for (const SelectFn fn : dispatched()) randomProblemsMatch(fn);
}

TEST(WorkingSetTest, TiesGoToTheFirstIndex) {
  for (const SelectFn fn : dispatched()) tiesGoToTheFirstIndex(fn);
}

TEST(WorkingSetTest, SignedZerosTie) {
  for (const SelectFn fn : dispatched()) signedZerosTie(fn);
}

TEST(WorkingSetTest, NaNIsNeverChosen) {
  for (const SelectFn fn : dispatched()) nanIsNeverChosen(fn);
}

TEST(WorkingSetTest, FullyMaskedSetsAreEmpty) {
  for (const SelectFn fn : dispatched()) fullyMaskedSetsAreEmpty(fn);
}

/// Each instruction set's selection through every case above, whichever
/// one this host dispatches to.
void expectSelectionRules(SelectFn fn) {
  randomProblemsMatch(fn);
  tiesGoToTheFirstIndex(fn);
  signedZerosTie(fn);
  nanIsNeverChosen(fn);
  fullyMaskedSetsAreEmpty(fn);
}

TEST(WorkingSetTest, Avx512SelectionKeepsEveryRule) {
  const SelectFn fn = selectFnFor(Isa::Avx512);
  if (fn == nullptr) GTEST_SKIP() << "this CPU or build has no AVX-512F pass";
  expectSelectionRules(fn);
}

TEST(WorkingSetTest, Avx2SelectionKeepsEveryRule) {
  const SelectFn fn = selectFnFor(Isa::Avx2);
  if (fn == nullptr) GTEST_SKIP() << "this CPU or build has no AVX2 pass";
  expectSelectionRules(fn);
}

/// One ranking problem: f, the membership and residency bytes, and the
/// elected pair with its thresholds, plus one past-the-end sample that
/// would win every ranking if a pass read it.
struct RankProblem {
  std::vector<double> f;
  std::vector<std::uint8_t> high, low, held;
  PairPick pair{0, 0, 0.0, 0.0};
  std::size_t m() const { return f.size() - 1; }
};

RankProblem randomRankProblem(std::size_t m, std::mt19937_64& rng) {
  std::normal_distribution<double> g(0.0, 1.0);
  RankProblem p;
  for (std::size_t i = 0; i < m; ++i) {
    p.f.push_back(g(rng));
    p.high.push_back(rng() % 3 != 0);
    p.low.push_back(rng() % 3 != 0);
    p.held.push_back(rng() % 4 == 0);
  }
  p.pair = selectPortable(p.f.data(), p.high.data(), p.low.data(), m);
  // The sentinel: in both sets, not held, nearer either threshold than
  // any sample.
  p.f.push_back(std::isfinite(p.pair.bHigh) ? p.pair.bHigh : 0.0);
  p.high.push_back(1);
  p.low.push_back(1);
  p.held.push_back(0);
  return p;
}

/// The ranking by its definition: every unheld sample but the pair with
/// a finite score, stably sorted by score, the first `room` of them.
std::vector<std::size_t> rankBySort(const RankProblem& p, std::size_t room) {
  std::vector<std::pair<double, std::size_t>> scored;
  for (std::size_t j = 0; j < p.m(); ++j) {
    if (p.held[j] != 0 || j == p.pair.high || j == p.pair.low) continue;
    double score = kInf;
    if (p.high[j] != 0 && !std::isnan(p.f[j] - p.pair.bHigh)) {
      score = std::min(score, p.f[j] - p.pair.bHigh);
    }
    if (p.low[j] != 0 && !std::isnan(p.pair.bLow - p.f[j])) {
      score = std::min(score, p.pair.bLow - p.f[j]);
    }
    if (score < kInf) scored.emplace_back(score, j);
  }
  std::stable_sort(scored.begin(), scored.end(),
                   [](const auto& a, const auto& b) { return a.first < b.first; });
  std::vector<std::size_t> out;
  for (std::size_t t = 0; t < std::min(room, scored.size()); ++t) {
    out.push_back(scored[t].second);
  }
  return out;
}

std::vector<std::size_t> ranked(RankFn fn, const RankProblem& p,
                                std::size_t room) {
  std::size_t out[kMaxRanked] = {};
  const std::size_t n = fn(p.f.data(), p.high.data(), p.low.data(),
                           p.held.data(), p.m(), p.pair, room, out);
  return {out, out + n};
}

/// `fn`, the portable pass and the sorted definition agree on the count
/// and the indices, at every room.
void expectRanksAgree(RankFn fn, const RankProblem& p, const char* what) {
  for (std::size_t room = 0; room <= kMaxRanked; ++room) {
    const std::vector<std::size_t> got = ranked(fn, p, room);
    EXPECT_EQ(got, ranked(&rankPortable, p, room))
        << what << " m=" << p.m() << " room=" << room;
    EXPECT_EQ(got, rankBySort(p, room))
        << what << " m=" << p.m() << " room=" << room;
  }
}

/// Every ranking rule: random problems at ragged lengths 0-40 and a long
/// block, ties, NaN, held rows, the pair and empty sets.
void expectRankRules(RankFn fn) {
  std::mt19937_64 rng(41);
  std::vector<std::size_t> sizes;
  for (std::size_t m = 0; m <= 40; ++m) sizes.push_back(m);
  sizes.push_back(4000);
  for (std::size_t m : sizes) {
    for (int rep = 0; rep < 8; ++rep) {
      expectRanksAgree(fn, randomRankProblem(m, rng), "random");
    }
    if (m < 2) continue;
    // Ties: equal scores in different lanes and the scalar tail; the
    // first index wins. Scores repeat with period three.
    RankProblem tie = randomRankProblem(m, rng);
    for (std::size_t i = 0; i < m; ++i) {
      tie.f[i] = double(i % 3);
      tie.high[i] = 1;
      tie.low[i] = 0;
      tie.held[i] = 0;
    }
    tie.pair = {0, 1, 0.0, 5.0};
    expectRanksAgree(fn, tie, "ties");
    const std::vector<std::size_t> first = ranked(fn, tie, 3);
    if (m >= 10) {  // the pair's 0 skipped, the zeros of 3, 6 and 9 kept
      EXPECT_EQ(first, (std::vector<std::size_t>{3, 6, 9}));
    }
    // NaN is never chosen; a set of nothing but NaN ranks nothing.
    const double nan = std::numeric_limits<double>::quiet_NaN();
    RankProblem withNan = randomRankProblem(m, rng);
    for (std::size_t i = 0; i < m; i += 2) withNan.f[i] = nan;
    expectRanksAgree(fn, withNan, "some NaN");
    for (std::size_t j : ranked(fn, withNan, 3)) {
      EXPECT_FALSE(std::isnan(withNan.f[j]));
    }
    for (std::size_t i = 0; i < m; ++i) withNan.f[i] = nan;
    EXPECT_TRUE(ranked(fn, withNan, 3).empty());
    // Held rows and the pair are skipped: with every row held but the
    // pair and up to two others, those others are the ranking whatever
    // their scores.
    RankProblem skip = randomRankProblem(m, rng);
    std::fill(skip.high.begin(), skip.high.end(), 1);
    std::fill(skip.held.begin(), skip.held.end() - 1, 1);
    skip.pair = {0, m - 1, -100.0, 100.0};
    std::vector<std::size_t> free;
    for (std::size_t i : {m / 2, m - 2, std::size_t{0}, m - 1}) {
      skip.held[i] = 0;
      if (i != 0 && i != m - 1 &&
          std::find(free.begin(), free.end(), i) == free.end()) {
        free.push_back(i);
      }
    }
    expectRanksAgree(fn, skip, "held");
    std::vector<std::size_t> got = ranked(fn, skip, 3);
    std::sort(got.begin(), got.end());
    std::sort(free.begin(), free.end());
    EXPECT_EQ(got, free) << "m=" << m;
    // Empty sets: members of neither set are never ranked.
    RankProblem empty = randomRankProblem(m, rng);
    std::fill(empty.high.begin(), empty.high.end() - 1, 0);
    std::fill(empty.low.begin(), empty.low.end() - 1, 0);
    EXPECT_TRUE(ranked(fn, empty, 3).empty());
    std::fill(empty.low.begin(), empty.low.end() - 1, 1);
    expectRanksAgree(fn, empty, "empty high set");
  }
}

TEST(RankTest, PortableKeepsEveryRule) { expectRankRules(&rankPortable); }

TEST(RankTest, DispatchedKeepsEveryRule) { expectRankRules(rankFn()); }

TEST(RankTest, Avx512KeepsEveryRule) {
  const RankFn fn = rankFnFor(Isa::Avx512);
  if (fn == nullptr) GTEST_SKIP() << "this CPU or build has no AVX-512F pass";
  expectRankRules(fn);
}

TEST(RankTest, Avx2KeepsEveryRule) {
  const RankFn fn = rankFnFor(Isa::Avx2);
  if (fn == nullptr) GTEST_SKIP() << "this CPU or build has no AVX2 pass";
  expectRankRules(fn);
}

/// The update an update-and-select pass makes is the portable one bit for
/// bit at every length up to past twice the widest step and over a long
/// block: with products that round (a fused multiply-add would round them
/// once less), subnormal and huge columns, and f past m left alone.
void expectUpdateMatchesPortable(UpdateSelectFn fused) {
  const auto fn = [fused](double* f, const float* h, const float* l,
                          double a, double b, std::size_t m) {
    const std::vector<std::uint8_t> member(m, 1);
    (void)fused(f, h, l, a, b, member.data(), member.data(), m);
  };
  std::mt19937_64 rng(23);
  std::normal_distribution<double> g(0.0, 1.0);
  std::uniform_real_distribution<float> col(-1.0f, 1.0f);
  const float specials[] = {0.0f, -0.0f, 1.0e-40f, -3.0e38f, 1.0f};
  std::vector<std::size_t> sizes;
  for (std::size_t m = 0; m <= 40; ++m) sizes.push_back(m);
  sizes.push_back(4000);
  for (std::size_t m : sizes) {
    std::vector<double> f(m + 1);
    std::vector<float> h(m), l(m);
    for (std::size_t k = 0; k < m; ++k) {
      f[k] = g(rng);
      h[k] = rng() % 8 == 0 ? specials[rng() % std::size(specials)] : col(rng);
      l[k] = col(rng);
    }
    f[m] = -5.0;
    const double a = g(rng), b = g(rng) * 1e-3;
    std::vector<double> ref = f;
    updatePortable(ref.data(), h.data(), l.data(), a, b, m);
    fn(f.data(), h.data(), l.data(), a, b, m);
    for (std::size_t k = 0; k < m; ++k) {
      ASSERT_EQ(std::bit_cast<std::uint64_t>(f[k]),
                std::bit_cast<std::uint64_t>(ref[k]))
          << "m=" << m << " k=" << k;
    }
    EXPECT_EQ(f[m], -5.0) << "m=" << m << " wrote past m";
  }
  // The portable update is the solver's formula, element for element.
  std::vector<double> f = {0.25, -1.5, 3.0};
  const std::vector<float> h = {0.1f, -0.7f, 0.3f}, l = {0.9f, 0.2f, -0.4f};
  const double a = 0.3, b = -1.7;
  std::vector<double> want = f;
  for (std::size_t k = 0; k < 3; ++k) {
    want[k] += a * double(h[k]) + b * double(l[k]);
  }
  fn(f.data(), h.data(), l.data(), a, b, f.size());
  for (std::size_t k = 0; k < 3; ++k) EXPECT_EQ(f[k], want[k]);
}

TEST(GradientUpdateTest, DispatchedMatchesPortable) {
  expectUpdateMatchesPortable(updateSelectFn());
}

TEST(GradientUpdateTest, Avx512MatchesPortable) {
  const UpdateSelectFn fn = updateSelectFnFor(Isa::Avx512);
  if (fn == nullptr) GTEST_SKIP() << "this CPU or build has no AVX-512F pass";
  expectUpdateMatchesPortable(fn);
}

TEST(GradientUpdateTest, Avx2MatchesPortable) {
  const UpdateSelectFn fn = updateSelectFnFor(Isa::Avx2);
  if (fn == nullptr) GTEST_SKIP() << "this CPU or build has no AVX2 pass";
  expectUpdateMatchesPortable(fn);
}

/// The update-and-select pass under test, seen as a selection: an update
/// by -0.0 columns leaves every f bit as it was (x + -0.0 is x, signed
/// zeros and NaN included), so the pick must be the plain scan's.
UpdateSelectFn gFused = nullptr;

PairPick fusedAsSelect(const double* f, const std::uint8_t* high,
                       const std::uint8_t* low, std::size_t m) {
  std::vector<double> g(f, f + m);
  const std::vector<float> zero(m, -0.0f);
  const PairPick got =
      gFused(g.data(), zero.data(), zero.data(), 1.0, 1.0, high, low, m);
  for (std::size_t k = 0; k < m; ++k) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(g[k]),
              std::bit_cast<std::uint64_t>(f[k]))
        << "identity update changed f[" << k << "]";
  }
  return got;
}

/// Update-and-select is updatePortable then selectPortable bit for bit:
/// through every selection rule above (ties, signed zeros, NaN, masked
/// sets, lengths 1 to 4,000), and under random updates at every length
/// from 0 to 40 and at 4,000, with memberships that mask a third of each
/// set and rounding products. f past m stays untouched.
void expectUpdateSelectMatches(UpdateSelectFn fn) {
  gFused = fn;
  expectSelectionRules(&fusedAsSelect);

  std::mt19937_64 rng(31);
  std::normal_distribution<double> g(0.0, 1.0);
  std::uniform_real_distribution<float> col(-1.0f, 1.0f);
  std::vector<std::size_t> sizes;
  for (std::size_t m = 0; m <= 40; ++m) sizes.push_back(m);
  sizes.push_back(4000);
  for (std::size_t m : sizes) {
    for (int rep = 0; rep < 4; ++rep) {
      std::vector<double> f(m + 1);
      std::vector<float> h(m), l(m);
      std::vector<std::uint8_t> high(m), low(m);
      for (std::size_t k = 0; k < m; ++k) {
        f[k] = g(rng);
        h[k] = col(rng);
        l[k] = col(rng);
        high[k] = rng() % 3 != 0;
        low[k] = rng() % 3 != 0;
      }
      f[m] = -5.0;
      const double a = g(rng), b = g(rng) * 1e-3;
      std::vector<double> ref = f;
      updatePortable(ref.data(), h.data(), l.data(), a, b, m);
      const PairPick want = selectPortable(ref.data(), high.data(),
                                           low.data(), m);
      const PairPick got = fn(f.data(), h.data(), l.data(), a, b,
                              high.data(), low.data(), m);
      for (std::size_t k = 0; k < m; ++k) {
        ASSERT_EQ(std::bit_cast<std::uint64_t>(f[k]),
                  std::bit_cast<std::uint64_t>(ref[k]))
            << "m=" << m << " k=" << k;
      }
      EXPECT_EQ(f[m], -5.0) << "m=" << m << " wrote past m";
      EXPECT_EQ(got.high, want.high) << "m=" << m;
      EXPECT_EQ(got.low, want.low) << "m=" << m;
      EXPECT_EQ(std::bit_cast<std::uint64_t>(got.bHigh),
                std::bit_cast<std::uint64_t>(want.bHigh))
          << "m=" << m;
      EXPECT_EQ(std::bit_cast<std::uint64_t>(got.bLow),
                std::bit_cast<std::uint64_t>(want.bLow))
          << "m=" << m;
    }
  }
}

TEST(UpdateSelectTest, PortableIsUpdateThenSelect) {
  expectUpdateSelectMatches(&updateSelectPortable);
}

TEST(UpdateSelectTest, DispatchedMatchesPortable) {
  expectUpdateSelectMatches(updateSelectFn());
}

TEST(UpdateSelectTest, Avx512MatchesPortable) {
  const UpdateSelectFn fn = updateSelectFnFor(Isa::Avx512);
  if (fn == nullptr) GTEST_SKIP() << "this CPU or build has no AVX-512F pass";
  expectUpdateSelectMatches(fn);
}

TEST(UpdateSelectTest, Avx2MatchesPortable) {
  const UpdateSelectFn fn = updateSelectFnFor(Isa::Avx2);
  if (fn == nullptr) GTEST_SKIP() << "this CPU or build has no AVX2 pass";
  expectUpdateSelectMatches(fn);
}

}  // namespace
}  // namespace casvm::solver
