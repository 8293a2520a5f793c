#pragma once

// gtest printer for KernelParams test parameters.
//
// gtest appends "# GetParam() = <printed value>" to every value-
// parameterized case, and CMake's gtest_discover_tests keeps that text in
// the ctest test name. With no printer of its own a struct is printed as a
// dump of its raw bytes, padding included, and the padding of KernelParams
// (after the one-byte type and after degree) holds whatever the stack held
// when the parameter was built, addresses among it: the ctest names changed
// on every test discovery. This printer keeps the byte-dump format and the
// field bytes but dumps them into zeroed storage, so the names are fixed.

#include <gtest/gtest.h>

#include <cstddef>
#include <cstring>
#include <ostream>

#include "casvm/kernel/kernel.hpp"

namespace casvm::kernel {

inline void PrintTo(const KernelParams& p, std::ostream* os) {
  static_assert(sizeof(KernelParams) == 40,
                "KernelParams changed: dump every field of it below");
  unsigned char bytes[sizeof(KernelParams)] = {};
  const auto put = [&bytes](std::size_t offset, const auto& field) {
    std::memcpy(bytes + offset, &field, sizeof field);
  };
  put(offsetof(KernelParams, type), p.type);
  put(offsetof(KernelParams, gamma), p.gamma);
  put(offsetof(KernelParams, a), p.a);
  put(offsetof(KernelParams, r), p.r);
  put(offsetof(KernelParams, degree), p.degree);
  ::testing::internal::PrintBytesInObjectTo(bytes, sizeof bytes, os);
}

}  // namespace casvm::kernel
