#include "casvm/kernel/exp.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <random>
#include <vector>

namespace casvm::kernel {
namespace {

std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

/// Arguments over the Gaussian kernel's whole range [-746, 0]: a uniform
/// sweep (subnormal results start below -708.4, zero below -745.2), the
/// signed zeros, tiny magnitudes, and the rounding boundaries of the
/// reduction (odd multiples of ln2 / 2) with their neighbours.
std::vector<double> gaussianArguments() {
  std::mt19937_64 rng(2024);
  std::uniform_real_distribution<double> u(-746.0, 0.0);
  std::vector<double> args;
  args.reserve((1u << 20) + 4096);
  for (std::size_t i = 0; i < (1u << 20); ++i) args.push_back(u(rng));
  for (double x : {-0.0, 0.0, -5e-324, -1e-300, -1e-17, -1e-8, -708.39,
                   -708.4, -744.44, -745.13, -745.14, -746.0}) {
    args.push_back(x);
  }
  const double halfLn2 = 0.5 * std::log(2.0);
  for (int k = 1; k < 2152; k += 2) {
    const double x = -halfLn2 * k;
    if (x < -746.0) break;
    args.push_back(x);
    args.push_back(std::nextafter(x, 0.0));
    args.push_back(std::nextafter(x, -1000.0));
  }
  return args;
}

/// The dispatched row pass (AVX2 on most hosts) and the portable one are
/// the scalar exp bit for bit — zero, subnormal and -0.0 arguments
/// included — at every row length, so ragged ends are covered too.
TEST(ExpTest, RowPassesMatchScalarBitwise) {
  const std::vector<double> args = gaussianArguments();
  ASSERT_GE(args.size(), std::size_t{1} << 20);
  std::vector<double> fast = args, portable = args;
  expRowFn()(fast.data(), fast.size());
  expRowPortable(portable.data(), portable.size());
  std::size_t subnormal = 0, zero = 0;
  for (std::size_t i = 0; i < args.size(); ++i) {
    const double ref = exp(args[i]);
    ASSERT_EQ(bits(fast[i]), bits(ref)) << "x=" << args[i];
    ASSERT_EQ(bits(portable[i]), bits(ref)) << "x=" << args[i];
    if (ref == 0.0) ++zero;
    if (ref != 0.0 && !std::isnormal(ref)) ++subnormal;
  }
  EXPECT_GT(subnormal, 0u);
  EXPECT_GT(zero, 0u);
  for (std::size_t n = 0; n <= 19; ++n) {
    std::vector<double> row(args.end() - 19, args.end() - 19 + n);
    expRowFn()(row.data(), n);
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_EQ(bits(row[i]), bits(exp(args[args.size() - 19 + i])))
          << "n=" << n << " i=" << i;
    }
  }
}

/// Where the result is normal it is within 2 ulp of the C library's exp,
/// over the Gaussian range and the positive range up to overflow.
TEST(ExpTest, NormalResultsWithinTwoUlpOfLibm) {
  std::vector<double> args = gaussianArguments();
  std::mt19937_64 rng(7);
  std::uniform_real_distribution<double> pos(0.0, 709.78);
  for (int i = 0; i < 100000; ++i) args.push_back(pos(rng));
  std::uint64_t worst = 0;
  for (double x : args) {
    const double ref = std::exp(x);
    if (!std::isnormal(ref)) continue;
    const double got = exp(x);
    const std::uint64_t a = bits(got), b = bits(ref);
    const std::uint64_t d = a > b ? a - b : b - a;
    worst = std::max(worst, d);
    ASSERT_LE(d, 2u) << "x=" << x << " exp=" << got << " libm=" << ref;
  }
  RecordProperty("worst_ulp", static_cast<int>(worst));
}

TEST(ExpTest, ZeroIsExactlyOne) {
  EXPECT_EQ(bits(exp(0.0)), bits(1.0));
  EXPECT_EQ(bits(exp(-0.0)), bits(1.0));
  std::vector<double> row(9, -0.0);
  expRowFn()(row.data(), row.size());
  for (double v : row) EXPECT_EQ(bits(v), bits(1.0));
}

TEST(ExpTest, SpecialValues) {
  constexpr double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_TRUE(std::isnan(exp(nan)));
  EXPECT_EQ(exp(-inf), 0.0);
  EXPECT_EQ(exp(inf), inf);
  EXPECT_EQ(exp(710.0), inf);
  EXPECT_EQ(exp(-746.0), 0.0);
  EXPECT_EQ(exp(-1e300), 0.0);
  EXPECT_GT(exp(709.78), 1.7e308);
  EXPECT_EQ(exp(-745.13), std::numeric_limits<double>::denorm_min());
  std::vector<double> row = {nan, -inf, inf, 710.0, -746.0, 1.0, -1.0, nan};
  expRowFn()(row.data(), row.size());
  EXPECT_TRUE(std::isnan(row[0]));
  EXPECT_TRUE(std::isnan(row[7]));
  EXPECT_EQ(row[1], 0.0);
  EXPECT_EQ(row[2], inf);
  EXPECT_EQ(row[3], inf);
  EXPECT_EQ(row[4], 0.0);
  EXPECT_EQ(bits(row[5]), bits(exp(1.0)));
  EXPECT_EQ(bits(row[6]), bits(exp(-1.0)));
}

}  // namespace
}  // namespace casvm::kernel
