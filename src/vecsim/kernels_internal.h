#ifndef CRE_VECSIM_KERNELS_INTERNAL_H_
#define CRE_VECSIM_KERNELS_INTERNAL_H_

#include <cstddef>
#include <cstdint>

// Internal seam between the generic dispatch TU (kernels.cc) and the
// per-ISA translation units. Each ISA TU is compiled with its own
// -m<isa> flags (see CMakeLists.txt) and only these symbols cross the
// boundary; the generic TU references them solely behind runtime CPUID
// checks, so a generic binary never executes an instruction the host
// lacks. Declarations are unconditional — definitions exist only when
// CMake includes the matching TU (CRE_HAVE_AVX2_TU / CRE_HAVE_AVX512_TU
// tell kernels.cc which ones to register).

namespace cre::detail {

// kernels_avx2.cc (-mavx2 -mfma -mf16c)
float DotAvx2Impl(const float* a, const float* b, std::size_t dim);
void DotBatchAvx2Impl(const float* query, const float* base, std::size_t n,
                      std::size_t dim, float* out);
void DotBatchGatherAvx2Impl(const float* query, const float* base,
                            const std::uint32_t* ids, std::size_t n,
                            std::size_t dim, float* out);
float DotHalfAsymAvx2Impl(const float* query, const std::uint16_t* b,
                          std::size_t dim);
void DotHalfAsymBatchAvx2Impl(const float* query, const std::uint16_t* base,
                              std::size_t n, std::size_t dim, float* out);
void DotHalfAsymGatherAvx2Impl(const float* query, const std::uint16_t* base,
                               const std::uint32_t* ids, std::size_t n,
                               std::size_t dim, float* out);
float DotInt8AsymAvx2Impl(const float* query, const std::int8_t* codes,
                          std::size_t dim);
void DotInt8AsymBatchAvx2Impl(const float* query, const std::int8_t* codes,
                              std::size_t n, std::size_t dim, float* out);
void DotInt8AsymGatherAvx2Impl(const float* query, const std::int8_t* codes,
                               const std::uint32_t* ids, std::size_t n,
                               std::size_t dim, float* out);

// kernels_avx512.cc (-mavx512f)
float DotAvx512Impl(const float* a, const float* b, std::size_t dim);
void DotBatchAvx512Impl(const float* query, const float* base, std::size_t n,
                        std::size_t dim, float* out);
void DotBatchGatherAvx512Impl(const float* query, const float* base,
                              const std::uint32_t* ids, std::size_t n,
                              std::size_t dim, float* out);

}  // namespace cre::detail

#endif  // CRE_VECSIM_KERNELS_INTERNAL_H_
