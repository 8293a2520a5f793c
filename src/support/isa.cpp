#include "casvm/support/isa.hpp"

namespace casvm {

bool cpuHas(Isa isa) {
#if defined(__x86_64__) && defined(__GNUC__)
  switch (isa) {
    case Isa::Avx2:
      return __builtin_cpu_supports("avx2");
    case Isa::Avx512:
      return __builtin_cpu_supports("avx512f") &&
             __builtin_cpu_supports("avx2");
  }
#endif
  (void)isa;
  return false;
}

}  // namespace casvm
