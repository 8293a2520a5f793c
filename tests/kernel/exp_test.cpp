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

/// A row pass is the scalar exp bit for bit: over the Gaussian range, zero,
/// subnormal and -0.0 arguments included; at every row length up to past
/// twice the widest step (16 values), so each ragged end is covered; and
/// for NaN, the infinities and arguments past the clamp.
void expectRowPassMatchesScalar(ExpRowFn fn) {
  const std::vector<double> args = gaussianArguments();
  ASSERT_GE(args.size(), std::size_t{1} << 20);
  std::vector<double> row = args;
  fn(row.data(), row.size());
  std::size_t subnormal = 0, zero = 0;
  for (std::size_t i = 0; i < args.size(); ++i) {
    const double ref = exp(args[i]);
    ASSERT_EQ(bits(row[i]), bits(ref)) << "x=" << args[i];
    if (ref == 0.0) ++zero;
    if (ref != 0.0 && !std::isnormal(ref)) ++subnormal;
  }
  EXPECT_GT(subnormal, 0u);
  EXPECT_GT(zero, 0u);
  constexpr std::size_t kMaxLen = 40;
  const auto tail = args.end() - kMaxLen;
  for (std::size_t n = 0; n <= kMaxLen; ++n) {
    std::vector<double> part(tail, tail + n);
    part.push_back(-5.0);  // past the end: must stay as it is
    fn(part.data(), n);
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_EQ(bits(part[i]), bits(exp(tail[i]))) << "n=" << n << " i=" << i;
    }
    EXPECT_EQ(part[n], -5.0) << "n=" << n << " wrote past the end";
  }
  constexpr double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const std::vector<double> special = {nan,  -inf, inf, 710.0, -746.0, 1.0,
                                       -1.0, -0.0, 0.0, -0.0,  nan,    -inf,
                                       2.5,  -2.5, inf, -0.0,  nan};
  std::vector<double> got = special;
  fn(got.data(), got.size());
  for (std::size_t i = 0; i < special.size(); ++i) {
    if (std::isnan(special[i])) {
      EXPECT_TRUE(std::isnan(got[i])) << "i=" << i;
    } else {
      EXPECT_EQ(bits(got[i]), bits(exp(special[i]))) << "x=" << special[i];
    }
  }
}

/// The dispatched pass and the portable one; the per-ISA tests below run
/// the lanes this host does not dispatch to.
TEST(ExpTest, RowPassesMatchScalarBitwise) {
  expectRowPassMatchesScalar(expRowFn());
  expectRowPassMatchesScalar(&expRowPortable);
}

TEST(ExpTest, Avx512RowPassMatchesScalarBitwise) {
  const ExpRowFn fn = expRowFnFor(Isa::Avx512);
  if (fn == nullptr) GTEST_SKIP() << "this CPU or build has no AVX-512F pass";
  expectRowPassMatchesScalar(fn);
}

TEST(ExpTest, Avx2RowPassMatchesScalarBitwise) {
  const ExpRowFn fn = expRowFnFor(Isa::Avx2);
  if (fn == nullptr) GTEST_SKIP() << "this CPU or build has no AVX2 pass";
  expectRowPassMatchesScalar(fn);
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
