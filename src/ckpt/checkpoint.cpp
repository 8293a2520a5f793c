#include "casvm/ckpt/checkpoint.hpp"

#include <cstring>

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
  std::vector<std::byte> out(kHeaderBytes + payload.size());
  std::byte* p = out.data();
  std::memcpy(p, kMagic, sizeof(kMagic));
  p += sizeof(kMagic);
  const std::uint32_t version = kFormatVersion;
  std::memcpy(p, &version, sizeof(version));
  p += sizeof(version);
  const std::uint32_t k = static_cast<std::uint32_t>(kind);
  std::memcpy(p, &k, sizeof(k));
  p += sizeof(k);
  const std::uint64_t size = payload.size();
  std::memcpy(p, &size, sizeof(size));
  p += sizeof(size);
  const std::uint32_t crc = support::crc32(payload);
  std::memcpy(p, &crc, sizeof(crc));
  p += sizeof(crc);
  if (!payload.empty()) std::memcpy(p, payload.data(), payload.size());
  return out;
}

std::optional<Frame> decodeFrame(std::span<const std::byte> bytes) {
  if (bytes.size() < kHeaderBytes) return std::nullopt;  // short read
  const std::byte* p = bytes.data();
  if (std::memcmp(p, kMagic, sizeof(kMagic)) != 0) return std::nullopt;
  p += sizeof(kMagic);
  std::uint32_t version = 0;
  std::memcpy(&version, p, sizeof(version));
  p += sizeof(version);
  if (version != kFormatVersion) return std::nullopt;
  std::uint32_t kindRaw = 0;
  std::memcpy(&kindRaw, p, sizeof(kindRaw));
  p += sizeof(kindRaw);
  if (!knownKind(kindRaw)) return std::nullopt;
  std::uint64_t size = 0;
  std::memcpy(&size, p, sizeof(size));
  p += sizeof(size);
  // The declared size must match the actual file length exactly: a frame
  // with trailing garbage is as suspect as a truncated one.
  if (size != bytes.size() - kHeaderBytes) return std::nullopt;
  std::uint32_t crc = 0;
  std::memcpy(&crc, p, sizeof(crc));
  const std::span<const std::byte> payload = bytes.subspan(kHeaderBytes);
  if (support::crc32(payload) != crc) return std::nullopt;
  Frame frame;
  frame.kind = static_cast<Kind>(kindRaw);
  frame.payload.assign(payload.begin(), payload.end());
  return frame;
}

}  // namespace casvm::ckpt
