// Build provenance for benchmark output: the ISA the library targets.

#ifndef SDW_COMMON_SIMD_H_
#define SDW_COMMON_SIMD_H_

namespace sdw::simd {

/// True when the build targets AVX2 (`__AVX2__`); false in every
/// configuration that CMakeLists.txt defines.
constexpr bool Avx2Active() {
#if defined(__AVX2__)
  return true;
#else
  return false;
#endif
}

}  // namespace sdw::simd

#endif  // SDW_COMMON_SIMD_H_
