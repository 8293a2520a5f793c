#pragma once

/// \file bytes.hpp
/// The byte codec behind every binary format in casvm: model files,
/// checkpoint frames and state payloads, packed datasets, the Nyström
/// factor, board slots, trace shards and worker result frames.
///
/// Wire conventions (DESIGN.md §9): a scalar is its raw in-memory bytes
/// (little-endian on every supported host); a variable-length array is a
/// u64 element count followed by the elements; an array whose length
/// follows from fields already written carries no count. ByteReader checks
/// every length and count, products of decoded fields included, against
/// the bytes that remain before it copies or allocates anything, and
/// throws casvm::Error naming its caller's context on any violation.

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <ranges>
#include <span>
#include <string>
#include <type_traits>
#include <vector>

namespace casvm::support {

/// Append-only byte builder.
class ByteWriter {
 public:
  ByteWriter() = default;
  /// Reserve `bytes` up front, for callers that know their encoded size.
  explicit ByteWriter(std::size_t bytes) { out_.reserve(bytes); }

  template <class T>
  void scalar(T value) {
    static_assert(std::is_trivially_copyable_v<T>);
    raw(&value, sizeof value);
  }

  /// The elements of `range`, without a count.
  template <std::ranges::contiguous_range R>
  void array(const R& range) {
    using T = std::ranges::range_value_t<R>;
    static_assert(std::is_trivially_copyable_v<T>);
    raw(std::ranges::data(range), std::ranges::size(range) * sizeof(T));
  }

  /// A u64 element count, then the elements of `range`.
  template <std::ranges::contiguous_range R>
  void vec(const R& range) {
    scalar<std::uint64_t>(std::ranges::size(range));
    array(range);
  }

  /// `n` zero bytes: the padding a format kept from an in-memory struct.
  void zeros(std::size_t n) { grow(out_.size() + n); }

  std::size_t size() const { return out_.size(); }
  std::span<const std::byte> view() const { return out_; }
  std::vector<std::byte> take() { return std::move(out_); }

 private:
  void raw(const void* data, std::size_t bytes) {
    if (bytes == 0) return;  // data may be null
    const std::size_t at = out_.size();
    grow(at + bytes);
    std::memcpy(out_.data() + at, data, bytes);
  }

  /// Resize to `size` bytes, out of line. Inlined into a run of small
  /// appends, the resize's zero fill reads to GCC 12 as a write past the
  /// end (a -Wstringop-overflow false positive under -march=native).
  [[gnu::noinline]] void grow(std::size_t size) { out_.resize(size); }

  std::vector<std::byte> out_;
};

/// Bounds-checked reader over a byte span it does not own.
class ByteReader {
 public:
  /// `context` names the format in error messages ("model unpack", ...)
  /// and must outlive the reader.
  ByteReader(std::span<const std::byte> in, const char* context)
      : in_(in), context_(context) {}

  std::size_t remaining() const { return in_.size(); }

  template <class T>
  T scalar() {
    static_assert(std::is_trivially_copyable_v<T>);
    T value;
    std::memcpy(&value, view(sizeof value).data(), sizeof value);
    return value;
  }

  /// `n`, once `n` elements of `elemBytes` each are known to fit in the
  /// remaining bytes.
  std::size_t count(std::uint64_t n, std::size_t elemBytes) const;
  /// `rows * cols`, once that many elements of `elemBytes` each are known
  /// to fit in the remaining bytes; the product cannot wrap.
  std::size_t count(std::uint64_t rows, std::uint64_t cols,
                    std::size_t elemBytes) const;

  /// `n` elements written without a count.
  template <class T>
  std::vector<T> array(std::uint64_t n) {
    std::vector<T> out;
    append(out, n);
    return out;
  }

  /// `n` elements written without a count, appended to `out`.
  template <class T>
  void append(std::vector<T>& out, std::uint64_t n) {
    static_assert(std::is_trivially_copyable_v<T>);
    const std::size_t k = count(n, sizeof(T));
    const std::span<const std::byte> src = view(k * sizeof(T));
    const std::size_t at = out.size();
    out.resize(at + k);
    if (k > 0) std::memcpy(out.data() + at, src.data(), src.size());
  }

  /// A u64 element count, then the elements.
  template <class T>
  std::vector<T> vec() {
    return array<T>(scalar<std::uint64_t>());
  }

  /// The next `len` bytes, without copying them.
  std::span<const std::byte> view(std::uint64_t len);
  /// A u64 length, then that many bytes, without copying them.
  std::span<const std::byte> bytes() { return view(scalar<std::uint64_t>()); }
  /// Everything not yet read.
  std::span<const std::byte> rest() { return view(remaining()); }
  /// A u64 length, then that many characters.
  std::string str();
  void skip(std::size_t n) { (void)view(n); }

  /// Throw casvm::Error naming the context unless `ok`.
  void check(bool ok, const char* what) const {
    if (!ok) fail(what);
  }
  /// Throw unless every byte was read.
  void expectEnd() const { check(in_.empty(), "trailing bytes"); }

 private:
  [[noreturn]] void fail(const char* what) const;

  std::span<const std::byte> in_;
  const char* context_;
};

}  // namespace casvm::support
