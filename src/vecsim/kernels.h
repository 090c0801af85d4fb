#ifndef CRE_VECSIM_KERNELS_H_
#define CRE_VECSIM_KERNELS_H_

#include <cstddef>
#include <cstdint>
#include <string>

namespace cre {

/// Physical implementations of the dense dot/cosine kernel. The runtime
/// dispatch across variants is the engine's JIT-lite late-binding layer
/// (paper Sec. VI): the same logical operator binds to a different code
/// path depending on detected hardware capability. The SIMD bodies live
/// in per-variant translation units (kernels_avx2.cc / kernels_avx512.cc)
/// compiled with their own ISA flags, so a generic build still carries
/// them and binds the widest supported one at startup via CPUID.
enum class KernelVariant {
  kScalar = 0,   ///< straightforward loop
  kUnrolled,     ///< 4-way unrolled with independent accumulators
  kAvx2,         ///< 8-lane FMA when the host CPU has AVX2+FMA
  kAvx512,       ///< 16-lane FMA when the host CPU has AVX-512F
};

const char* KernelVariantName(KernelVariant v);

/// True when the host CPU supports AVX2+FMA+F16C at runtime (and the build
/// carries the AVX2 translation unit).
bool CpuSupportsAvx2();

/// True when the host CPU supports AVX-512F at runtime (and the build
/// carries the AVX-512 translation unit).
bool CpuSupportsAvx512();

/// Widest variant available on this host (kAvx512 > kAvx2 > kUnrolled).
KernelVariant BestKernelVariant();

// ---- float32 kernels, one pair at a time ----
float DotScalar(const float* a, const float* b, std::size_t dim);
float DotUnrolled(const float* a, const float* b, std::size_t dim);
/// Fall back to DotUnrolled when the host lacks the ISA.
float DotAvx2(const float* a, const float* b, std::size_t dim);
float DotAvx512(const float* a, const float* b, std::size_t dim);

// ---- float32 batch kernels (one query vs. many base rows) ----
// The hot loops of every index family score whole candidate blocks —
// brute-force scans, IVF posting lists, all the links of an HNSW node —
// so the one-to-many shape amortizes query loads and lets the kernel
// software-prefetch upcoming rows ahead of the FMA stream.

/// out[i] = dot(query, base + i*dim) for i in [0, n).
void DotBatchScalar(const float* query, const float* base, std::size_t n,
                    std::size_t dim, float* out);
void DotBatchUnrolled(const float* query, const float* base, std::size_t n,
                      std::size_t dim, float* out);
void DotBatchAvx2(const float* query, const float* base, std::size_t n,
                  std::size_t dim, float* out);
void DotBatchAvx512(const float* query, const float* base, std::size_t n,
                    std::size_t dim, float* out);

/// out[i] = dot(query, base + ids[i]*dim) — the gather shape used by HNSW
/// adjacency lists and IVF posting lists, prefetching rows ids[i+d] ahead.
void DotBatchGatherScalar(const float* query, const float* base,
                          const std::uint32_t* ids, std::size_t n,
                          std::size_t dim, float* out);
void DotBatchGatherUnrolled(const float* query, const float* base,
                            const std::uint32_t* ids, std::size_t n,
                            std::size_t dim, float* out);
void DotBatchGatherAvx2(const float* query, const float* base,
                        const std::uint32_t* ids, std::size_t n,
                        std::size_t dim, float* out);
void DotBatchGatherAvx512(const float* query, const float* base,
                          const std::uint32_t* ids, std::size_t n,
                          std::size_t dim, float* out);

// ---- asymmetric quantized-scoring kernels (fp32 query, encoded base) ----
// Used by the VectorCodec storage layer: the query stays full precision
// while the base side streams its compressed form, so scoring costs no
// decode pass and accuracy loss stays one-sided.

/// dot(query, decode(b)) with an fp16-encoded base row.
float DotHalfAsym(const float* query, const std::uint16_t* b,
                  std::size_t dim);
void DotHalfAsymBatch(const float* query, const std::uint16_t* base,
                      std::size_t n, std::size_t dim, float* out);
void DotHalfAsymGather(const float* query, const std::uint16_t* base,
                       const std::uint32_t* ids, std::size_t n,
                       std::size_t dim, float* out);

/// Raw integer-code dot: sum_i query[i] * codes[i]. The caller folds in the
/// per-vector scale/offset (dot ~= scale * raw + offset * sum(query)).
float DotInt8Asym(const float* query, const std::int8_t* codes,
                  std::size_t dim);
void DotInt8AsymBatch(const float* query, const std::int8_t* codes,
                      std::size_t n, std::size_t dim, float* out);
void DotInt8AsymGather(const float* query, const std::int8_t* codes,
                       const std::uint32_t* ids, std::size_t n,
                       std::size_t dim, float* out);

/// Function-pointer types used by the dispatch registry.
using DotFn = float (*)(const float*, const float*, std::size_t);
using DotBatchFn = void (*)(const float*, const float*, std::size_t,
                            std::size_t, float*);
using DotBatchGatherFn = void (*)(const float*, const float*,
                                  const std::uint32_t*, std::size_t,
                                  std::size_t, float*);

/// Returns the float32 kernel for `variant`, falling back to the widest
/// supported one when the host lacks the ISA.
DotFn GetDotKernel(KernelVariant variant);
DotBatchFn GetDotBatchKernel(KernelVariant variant);
DotBatchGatherFn GetDotBatchGatherKernel(KernelVariant variant);

/// L2 norm.
float Norm(const float* a, std::size_t dim);

/// Scales `a` to unit norm in place (no-op for the zero vector).
void NormalizeInPlace(float* a, std::size_t dim);

/// Cosine similarity for not-necessarily-normalized inputs.
float Cosine(const float* a, const float* b, std::size_t dim);

}  // namespace cre

#endif  // CRE_VECSIM_KERNELS_H_
