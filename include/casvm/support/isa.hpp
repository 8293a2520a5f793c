#pragma once

/// \file isa.hpp
/// The x86 instruction sets the hot passes carry lanes for, and the one
/// rule that picks among them: AVX-512F where the CPU has it, else AVX2,
/// else the portable pass. A pass with hand-written lanes exposes its
/// variants through a `...For(Isa)` accessor that returns nullptr where
/// this CPU or build lacks the set, so tests run every compiled variant
/// against the portable one, not only the variant this host dispatches
/// to. An element-wise pass the compiler vectorizes on its own is one
/// plain loop marked CASVM_ISA_CLONES instead: the compiler builds it once
/// per set and the loader picks the same way.
///
/// No fused multiply-adds. Every variant of a pass rounds as its portable
/// form does, so a multiply and an add are never fused where the product
/// is inexact (a double times a double or a widened float). The root build
/// passes -ffp-contract=off, but a build of the sources without it (the
/// benchmark's own) would let GCC fuse them inside target("avx512f") code,
/// where EVEX FMAs are always available. So every lane with such products
/// sits between CASVM_NO_FMA_BEGIN and CASVM_NO_FMA_END, which turn
/// contraction off in the source itself. The tile dots' hand-written FMAs
/// are the one exception: their products are exact (see tile_kernel.hpp).

#include <cstdint>
#include <initializer_list>

#if defined(__clang__)
#define CASVM_NO_FMA_BEGIN \
  _Pragma("float_control(push)") _Pragma("clang fp contract(off)")
#define CASVM_NO_FMA_END _Pragma("float_control(pop)")
#elif defined(__GNUC__)
#define CASVM_NO_FMA_BEGIN \
  _Pragma("GCC push_options") _Pragma("GCC optimize(\"fp-contract=off\")")
#define CASVM_NO_FMA_END _Pragma("GCC pop_options")
#else
#define CASVM_NO_FMA_BEGIN
#define CASVM_NO_FMA_END
#endif

#if defined(__x86_64__) && defined(__GNUC__)
#define CASVM_ISA_CLONES \
  [[gnu::target_clones("avx512f", "avx2", "default")]]
#else
#define CASVM_ISA_CLONES
#endif

namespace casvm {

/// Instruction sets with lanes of their own.
enum class Isa : std::uint8_t { Avx2, Avx512 };

/// Whether this CPU runs the lanes built for `isa`: AVX2, or AVX-512F
/// together with AVX2. Always false on builds without x86 lanes.
bool cpuHas(Isa isa);

/// What `forIsa` returns for the widest set this CPU has, else `portable`.
template <class Fn>
Fn widest(Fn (*forIsa)(Isa), Fn portable) {
  for (const Isa isa : {Isa::Avx512, Isa::Avx2}) {
    if (const Fn fn = forIsa(isa)) return fn;
  }
  return portable;
}

}  // namespace casvm
