#include "casvm/support/bytes.hpp"

#include "casvm/support/error.hpp"

namespace casvm::support {

std::size_t ByteReader::count(std::uint64_t n, std::size_t elemBytes) const {
  check(n <= in_.size() / elemBytes, "count exceeds payload");
  return static_cast<std::size_t>(n);
}

std::size_t ByteReader::count(std::uint64_t rows, std::uint64_t cols,
                              std::size_t elemBytes) const {
  // rows * cols fits iff cols <= floor(cap / rows), and dividing first
  // means the product is only formed once it is known not to wrap.
  const std::size_t cap = in_.size() / elemBytes;
  check(rows == 0 || cols <= cap / rows, "shape exceeds payload");
  return static_cast<std::size_t>(rows * cols);
}

std::span<const std::byte> ByteReader::view(std::uint64_t len) {
  check(len <= in_.size(), "truncated payload");
  const std::span<const std::byte> out = in_.first(len);
  in_ = in_.subspan(len);
  return out;
}

std::string ByteReader::str() {
  const std::span<const std::byte> b = bytes();
  return std::string(reinterpret_cast<const char*>(b.data()), b.size());
}

void ByteReader::fail(const char* what) const {
  throw Error(std::string("casvm error: ") + context_ + ": " + what);
}

}  // namespace casvm::support
