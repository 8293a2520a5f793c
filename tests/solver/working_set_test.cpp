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

/// An update is the portable one bit for bit at every length up to past
/// twice the widest step and over a long block: with products that round
/// (a fused multiply-add would round them once less), subnormal and huge
/// columns, and f past m left alone.
void expectUpdateMatchesPortable(UpdateFn fn) {
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
  expectUpdateMatchesPortable(updateFn());
}

TEST(GradientUpdateTest, Avx512MatchesPortable) {
  const UpdateFn fn = updateFnFor(Isa::Avx512);
  if (fn == nullptr) GTEST_SKIP() << "this CPU or build has no AVX-512F pass";
  expectUpdateMatchesPortable(fn);
}

TEST(GradientUpdateTest, Avx2MatchesPortable) {
  const UpdateFn fn = updateFnFor(Isa::Avx2);
  if (fn == nullptr) GTEST_SKIP() << "this CPU or build has no AVX2 pass";
  expectUpdateMatchesPortable(fn);
}

}  // namespace
}  // namespace casvm::solver
