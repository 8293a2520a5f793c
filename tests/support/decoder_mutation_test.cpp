// Seeded mutation test over every decoder of untrusted bytes: models,
// datasets, the Nyström factor, checkpoint frames and state payloads, board
// slots and trace shards. Each valid encoding from wire_samples.hpp is cut
// at every prefix, has each byte flipped, and has each 8-byte-aligned word
// overwritten with boundary values. A damaged input must either decode or
// throw casvm::Error: any other exception fails the test, and a crash or
// sanitizer report fails the run.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "casvm/support/error.hpp"
#include "wire_samples.hpp"

namespace casvm::wire_samples {
namespace {

class Mutator {
 public:
  explicit Mutator(const Sample& sample) : sample_(sample) {}

  void decode(std::span<const std::byte> bytes, const std::string& how) {
    ++runs_;
    try {
      (void)sample_.roundTrip(bytes);
    } catch (const Error&) {
    } catch (const std::exception& e) {
      failures_.push_back(sample_.name + " (" + how + "): " + e.what());
    }
  }

  void run() {
    const std::vector<std::byte>& valid = sample_.bytes;
    for (std::size_t cut = 0; cut < valid.size(); ++cut) {
      decode(std::span(valid).first(cut), "cut at " + std::to_string(cut));
    }
    std::vector<std::byte> copy = valid;
    for (std::size_t i = 0; i < copy.size(); ++i) {
      copy[i] ^= std::byte{0xFF};
      decode(copy, "byte " + std::to_string(i) + " flipped");
      copy[i] ^= std::byte{0xFF};
    }
    const std::uint64_t words[] = {0, std::uint64_t{1} << 31,
                                   std::uint64_t{1} << 63, ~std::uint64_t{0}};
    for (std::size_t at = 0; at + sizeof(std::uint64_t) <= copy.size();
         at += sizeof(std::uint64_t)) {
      for (std::uint64_t w : words) {
        std::memcpy(copy.data() + at, &w, sizeof w);
        decode(copy, "word at " + std::to_string(at) + " = " +
                         std::to_string(w));
        std::memcpy(copy.data() + at, valid.data() + at, sizeof w);
      }
    }
  }

  std::size_t runs() const { return runs_; }
  const std::vector<std::string>& failures() const { return failures_; }

 private:
  const Sample& sample_;
  std::size_t runs_ = 0;
  std::vector<std::string> failures_;
};

TEST(DecoderMutationTest, DamagedInputsDecodeOrThrowError) {
  std::size_t runs = 0;
  for (const Sample& sample : samples()) {
    Mutator m(sample);
    m.run();
    runs += m.runs();
    EXPECT_TRUE(m.failures().empty())
        << m.failures().size() << " of " << m.runs()
        << " damaged inputs threw something other than casvm::Error; first: "
        << m.failures().front();
  }
  EXPECT_GT(runs, 10000u);
}

}  // namespace
}  // namespace casvm::wire_samples
