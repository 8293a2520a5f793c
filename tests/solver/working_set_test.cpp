#include "casvm/solver/working_set.hpp"

#include <gtest/gtest.h>

#include <algorithm>
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

/// Dispatched pass, portable pass and the plain scan agree on indices and
/// on value bits (so +0.0 and -0.0 are told apart).
void expectAllAgree(const Problem& p, const char* what) {
  const std::size_t m = p.f.size();
  const PairPick ref = plainScan(p);
  for (const PairPick& got :
       {selectFn()(p.f.data(), p.high.data(), p.low.data(), m),
        selectPortable(p.f.data(), p.high.data(), p.low.data(), m)}) {
    EXPECT_EQ(got.high, ref.high) << what << " m=" << m;
    EXPECT_EQ(got.low, ref.low) << what << " m=" << m;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(got.bHigh),
              std::bit_cast<std::uint64_t>(ref.bHigh))
        << what << " m=" << m;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(got.bLow),
              std::bit_cast<std::uint64_t>(ref.bLow))
        << what << " m=" << m;
  }
}

const std::size_t kSizes[] = {1, 3, 4, 5, 7, 8, 9, 4000};

TEST(WorkingSetTest, RandomProblemsMatchPlainScan) {
  std::mt19937_64 rng(17);
  for (std::size_t m : kSizes) {
    for (int rep = 0; rep < 20; ++rep) {
      expectAllAgree(randomProblem(m, rng), "random");
    }
  }
}

/// Equal minima and maxima in different lanes, different lane sets and
/// the scalar tail: the first index always wins.
TEST(WorkingSetTest, TiesGoToTheFirstIndex) {
  std::mt19937_64 rng(5);
  for (std::size_t m : kSizes) {
    for (std::size_t first = 0; first < std::min<std::size_t>(m, 12);
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
      expectAllAgree(p, "ties");
      const PairPick got =
          selectFn()(p.f.data(), p.high.data(), p.low.data(), m);
      EXPECT_EQ(got.high, first);
      if (first + 1 < m) {
        EXPECT_EQ(got.low, first + 1);
      }
    }
  }
}

/// +0.0 and -0.0 tie: whichever comes first is returned, with its sign.
TEST(WorkingSetTest, SignedZerosTie) {
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
      expectAllAgree(p, "zeros");
      const PairPick got =
          selectFn()(p.f.data(), p.high.data(), p.low.data(), m);
      EXPECT_EQ(got.high, a);
      EXPECT_EQ(std::bit_cast<std::uint64_t>(got.bHigh),
                std::bit_cast<std::uint64_t>(lead));
    }
  }
}

/// A NaN in f is never chosen, and a set of nothing but NaN is empty.
TEST(WorkingSetTest, NaNIsNeverChosen) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  std::mt19937_64 rng(9);
  for (std::size_t m : kSizes) {
    Problem p = randomProblem(m, rng);
    for (std::size_t i = 0; i < m; i += 2) p.f[i] = nan;
    expectAllAgree(p, "some NaN");
    const PairPick got =
        selectFn()(p.f.data(), p.high.data(), p.low.data(), m);
    if (got.high < m) {
      EXPECT_FALSE(std::isnan(p.f[got.high]));
    }
    if (got.low < m) {
      EXPECT_FALSE(std::isnan(p.f[got.low]));
    }

    p.f.assign(m, nan);
    expectAllAgree(p, "all NaN");
    const PairPick none =
        selectFn()(p.f.data(), p.high.data(), p.low.data(), m);
    EXPECT_EQ(none.high, m);
    EXPECT_EQ(none.low, m);
  }
}

/// Fully masked sets (every sample shrunk away, or none in the set)
/// return m with +inf and -inf.
TEST(WorkingSetTest, FullyMaskedSetsAreEmpty) {
  std::mt19937_64 rng(3);
  for (std::size_t m : kSizes) {
    Problem p = randomProblem(m, rng);
    std::fill(p.high.begin(), p.high.end(), 0);
    std::fill(p.low.begin(), p.low.end(), 0);
    for (const PairPick& got :
         {selectFn()(p.f.data(), p.high.data(), p.low.data(), m),
          selectPortable(p.f.data(), p.high.data(), p.low.data(), m)}) {
      EXPECT_EQ(got.high, m);
      EXPECT_EQ(got.low, m);
      EXPECT_EQ(got.bHigh, kInf);
      EXPECT_EQ(got.bLow, -kInf);
    }
    // Every sample at its upper bound with y = +1: in the low set only.
    for (std::size_t i = 0; i < m; ++i) {
      p.y[i] = 1;
      p.alpha[i] = p.c;
    }
    p.deriveMasks();
    expectAllAgree(p, "empty high set");
    EXPECT_EQ(selectFn()(p.f.data(), p.high.data(), p.low.data(), m).high, m);
  }
}

}  // namespace
}  // namespace casvm::solver
