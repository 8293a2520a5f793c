#include "casvm/ckpt/checkpoint.hpp"

#include <cstring>

#include "casvm/support/bytes.hpp"
#include "casvm/support/checksum.hpp"

namespace casvm::ckpt {

namespace {

constexpr char kMagic[8] = {'C', 'A', 'S', 'V', 'M', 'C', 'K', 'P'};
constexpr std::size_t kHeaderBytes = 8 + 4 + 4 + 8 + 4;

bool knownKind(std::uint32_t k) {
  switch (static_cast<Kind>(k)) {
    case Kind::Meta:
    case Kind::Partition:
    case Kind::SolverState:
    case Kind::SubModel:
    case Kind::TreeLayer:
    case Kind::DisSmoState:
    case Kind::PbmRound:
    case Kind::LowRankFactor:
      return true;
  }
  return false;
}

}  // namespace

std::vector<std::byte> encodeFrame(Kind kind,
                                   std::span<const std::byte> payload) {
  support::ByteWriter w(kHeaderBytes + payload.size());
  w.array(kMagic);
  w.scalar(kFormatVersion);
  w.scalar(static_cast<std::uint32_t>(kind));
  w.scalar<std::uint64_t>(payload.size());
  w.scalar(support::crc32(payload));
  w.array(payload);
  return w.take();
}

std::optional<Frame> decodeFrame(std::span<const std::byte> bytes) {
  if (bytes.size() < kHeaderBytes) return std::nullopt;  // short read
  support::ByteReader r(bytes, "checkpoint frame");
  const std::span<const std::byte> magic = r.view(sizeof(kMagic));
  const auto version = r.scalar<std::uint32_t>();
  const auto kindRaw = r.scalar<std::uint32_t>();
  const auto size = r.scalar<std::uint64_t>();
  const auto crc = r.scalar<std::uint32_t>();
  const std::span<const std::byte> payload = r.rest();
  // The declared size must match the actual file length exactly: a frame
  // with trailing garbage is as suspect as a truncated one.
  if (std::memcmp(magic.data(), kMagic, sizeof(kMagic)) != 0 ||
      version != kFormatVersion || !knownKind(kindRaw) ||
      size != payload.size() || support::crc32(payload) != crc) {
    return std::nullopt;
  }
  Frame frame;
  frame.kind = static_cast<Kind>(kindRaw);
  frame.payload.assign(payload.begin(), payload.end());
  return frame;
}

}  // namespace casvm::ckpt
