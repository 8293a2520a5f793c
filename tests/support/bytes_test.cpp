// support::ByteWriter / ByteReader: the byte codec every binary format in
// the library is written and read through.

#include "casvm/support/bytes.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "casvm/support/error.hpp"

namespace casvm::support {
namespace {

constexpr std::uint64_t kMaxU64 = std::numeric_limits<std::uint64_t>::max();

TEST(ByteCodecTest, RoundTripsScalarsArraysAndStrings) {
  ByteWriter w;
  w.scalar<std::uint8_t>(7);
  w.zeros(3);
  w.scalar(-2.5);
  w.vec(std::vector<float>{1.0f, -0.5f});
  w.array(std::vector<std::int32_t>{4, 5, 6});
  w.vec(std::string("rank 3"));
  EXPECT_EQ(w.size(), 1 + 3 + 8 + (8 + 2 * 4) + 3 * 4 + (8 + 6));

  const std::vector<std::byte> bytes = w.take();
  ByteReader r(bytes, "round trip");
  EXPECT_EQ(r.scalar<std::uint8_t>(), 7);
  r.skip(3);
  EXPECT_EQ(r.scalar<double>(), -2.5);
  EXPECT_EQ(r.vec<float>(), (std::vector<float>{1.0f, -0.5f}));
  EXPECT_EQ(r.array<std::int32_t>(3), (std::vector<std::int32_t>{4, 5, 6}));
  EXPECT_EQ(r.str(), "rank 3");
  EXPECT_EQ(r.remaining(), 0u);
  EXPECT_NO_THROW(r.expectEnd());
}

TEST(ByteCodecTest, ScalarsAreTheirLittleEndianBytes) {
  ByteWriter w;
  w.scalar<std::uint32_t>(0x04030201u);
  w.vec(std::vector<std::uint8_t>{9});
  const std::vector<std::byte> bytes = w.take();
  const std::vector<std::byte> expected = {
      std::byte{1}, std::byte{2}, std::byte{3}, std::byte{4},  // scalar
      std::byte{1}, std::byte{0}, std::byte{0}, std::byte{0},  // u64 count
      std::byte{0}, std::byte{0}, std::byte{0}, std::byte{0},
      std::byte{9}};
  EXPECT_EQ(bytes, expected);
}

TEST(ByteCodecTest, ZeroLengthArraysWithNullDataRoundTrip) {
  ByteWriter w;
  w.vec(std::vector<double>{});  // data() is null
  w.array(std::span<const float>());
  w.vec(std::string());
  const std::vector<std::byte> bytes = w.take();
  EXPECT_EQ(bytes.size(), 16u);

  ByteReader r(bytes, "empty arrays");
  EXPECT_TRUE(r.vec<double>().empty());
  EXPECT_TRUE(r.array<float>(0).empty());
  EXPECT_EQ(r.str(), "");
  EXPECT_TRUE(r.view(0).empty());
  r.expectEnd();

  ByteReader none(std::span<const std::byte>(), "no bytes");
  EXPECT_TRUE(none.array<double>(0).empty());
  EXPECT_TRUE(none.rest().empty());
  none.expectEnd();
}

TEST(ByteCodecTest, TruncatedScalarThrowsError) {
  const std::vector<std::byte> bytes(7);
  ByteReader r(bytes, "truncated");
  EXPECT_THROW((void)r.scalar<std::uint64_t>(), Error);
}

TEST(ByteCodecTest, MaximalLengthAtNonzeroOffsetThrowsError) {
  // off + len wraps to a small number for len near 2^64; the reader must
  // compare len with what remains instead.
  ByteWriter w;
  w.scalar<std::uint32_t>(1);
  w.scalar(kMaxU64);
  w.zeros(16);
  const std::vector<std::byte> bytes = w.take();
  for (int form = 0; form < 4; ++form) {
    ByteReader r(bytes, "wrapped length");
    (void)r.scalar<std::uint32_t>();
    switch (form) {
      case 0: EXPECT_THROW((void)r.bytes(), Error); break;
      case 1: EXPECT_THROW((void)r.str(), Error); break;
      case 2: EXPECT_THROW((void)r.vec<std::uint8_t>(), Error); break;
      case 3: EXPECT_THROW((void)r.vec<double>(), Error); break;
    }
  }
}

TEST(ByteCodecTest, CountTimesElementSizeCannotOverflow) {
  const std::vector<std::byte> bytes(64);
  ByteReader r(bytes, "count");
  EXPECT_EQ(r.count(8, sizeof(double)), 8u);
  EXPECT_THROW((void)r.count(9, sizeof(double)), Error);
  // 2^61 doubles is 2^64 bytes: the product wraps to 0.
  EXPECT_THROW((void)r.count(std::uint64_t{1} << 61, sizeof(double)), Error);
  EXPECT_THROW((void)r.array<double>(std::uint64_t{1} << 61), Error);
  EXPECT_THROW((void)r.count(kMaxU64, 1), Error);
}

TEST(ByteCodecTest, ShapeProductCannotOverflow) {
  const std::vector<std::byte> bytes(64);
  ByteReader r(bytes, "shape");
  EXPECT_EQ(r.count(4, 4, sizeof(float)), 16u);
  EXPECT_EQ(r.count(0, kMaxU64, sizeof(float)), 0u);
  EXPECT_THROW((void)r.count(4, 5, sizeof(float)), Error);
  // 2 x 2^63 wraps to 0 when multiplied.
  EXPECT_THROW((void)r.count(2, std::uint64_t{1} << 63, sizeof(float)), Error);
  EXPECT_THROW((void)r.count(kMaxU64, kMaxU64, 1), Error);
}

TEST(ByteCodecTest, TrailingBytesAreRejected) {
  ByteWriter w;
  w.scalar<std::uint16_t>(3);
  w.scalar<std::uint8_t>(0);
  const std::vector<std::byte> bytes = w.take();
  ByteReader r(bytes, "trailing");
  (void)r.scalar<std::uint16_t>();
  EXPECT_THROW(r.expectEnd(), Error);
}

TEST(ByteCodecTest, ErrorsNameTheContext) {
  const std::vector<std::byte> bytes(4);
  ByteReader r(bytes, "model unpack");
  try {
    (void)r.scalar<double>();
    FAIL() << "expected casvm::Error";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("model unpack"), std::string::npos)
        << e.what();
  }
}

}  // namespace
}  // namespace casvm::support
