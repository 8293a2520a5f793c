// Golden digests of every byte format: the length and CRC32 of each
// encoder's output on the fixed inputs of wire_samples.hpp. Model files,
// checkpoint directories and worker frames written by one build must be
// read by the next, so any change here is a format change and needs a new
// format version, not a new digest.

#include <gtest/gtest.h>

#include <cstdint>
#include <ios>
#include <map>
#include <string>

#include "casvm/support/checksum.hpp"
#include "wire_samples.hpp"

namespace casvm::wire_samples {
namespace {

struct Digest {
  std::size_t bytes;
  std::uint32_t crc;
};

const std::map<std::string, Digest>& golden() {
  static const std::map<std::string, Digest> table = {
      {"dataset.dense", {97, 0xe4e2a756u}},
      {"dataset.dense_subset", {71, 0x1d648aafu}},
      {"dataset.sparse", {116, 0x294d20e3u}},
      {"model.gaussian", {193, 0xdbfc1a79u}},
      {"model.polynomial", {204, 0xe57f3174u}},
      {"distributed.single", {217, 0x5aa565c5u}},
      {"distributed.routed", {450, 0xae1fdd83u}},
      {"multiclass", {738, 0x7304e5efu}},
      {"nystrom", {268, 0x8c46b329u}},
      {"ckpt.frame", {68, 0x9a340475u}},
      {"ckpt.meta", {32, 0xa2ce6e19u}},
      {"ckpt.partition", {148, 0xe20327f0u}},
      {"ckpt.solver", {97, 0x2f4d59ccu}},
      {"ckpt.dissmo", {97, 0x2f4d59ccu}},
      {"ckpt.pbm", {72, 0xfc5f3e24u}},
      {"ckpt.submodel", {228, 0x333123deu}},
      {"ckpt.tree_layer", {194, 0x3a197653u}},
      {"ckpt.tree_layer_final", {395, 0x95b1dfcfu}},
      {"board.slot", {506, 0x2edd4971u}},
      {"trace.shard", {329, 0xa646c6c9u}},
  };
  return table;
}

TEST(WireGoldenTest, EveryEncoderMatchesItsPinnedDigest) {
  const std::vector<Sample> all = samples();
  ASSERT_EQ(all.size(), golden().size());
  for (const Sample& s : all) {
    const auto it = golden().find(s.name);
    ASSERT_NE(it, golden().end()) << s.name << " has no pinned digest";
    const std::uint32_t crc = support::crc32(s.bytes);
    EXPECT_EQ(s.bytes.size(), it->second.bytes) << s.name;
    EXPECT_EQ(crc, it->second.crc) << s.name << " digest now {"
                                   << s.bytes.size() << ", 0x" << std::hex
                                   << crc << "u}";
  }
}

TEST(WireGoldenTest, EveryEncodingDecodesAndReencodesIdentically) {
  for (const Sample& s : samples()) {
    EXPECT_EQ(s.roundTrip(s.bytes), s.bytes) << s.name;
  }
}

}  // namespace
}  // namespace casvm::wire_samples
