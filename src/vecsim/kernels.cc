#include "vecsim/kernels.h"

#include <cmath>

#include "vecsim/fp16.h"
#include "vecsim/kernels_internal.h"

// Generic translation unit: compiled without any -m<isa> flags so the
// scalar/unrolled bodies (and all dispatch logic) run anywhere. The SIMD
// bodies live in kernels_avx2.cc / kernels_avx512.cc; CMake defines
// CRE_HAVE_AVX2_TU / CRE_HAVE_AVX512_TU on this file when those TUs are
// part of the build, and every call site below still checks CPUID at
// runtime before crossing into them.

namespace cre {

namespace {
/// Rows to prefetch ahead of the FMA stream in the batch kernels. Two or
/// three rows cover L2 latency at the dims this engine uses (64-512 floats)
/// without evicting the query vector.
constexpr std::size_t kBatchPrefetchRows = 4;
}  // namespace

const char* KernelVariantName(KernelVariant v) {
  switch (v) {
    case KernelVariant::kScalar:
      return "scalar";
    case KernelVariant::kUnrolled:
      return "unrolled";
    case KernelVariant::kAvx2:
      return "avx2";
    case KernelVariant::kAvx512:
      return "avx512";
  }
  return "?";
}

bool CpuSupportsAvx2() {
#if defined(CRE_HAVE_AVX2_TU) && (defined(__x86_64__) || defined(__i386__))
  // F16C is part of the gate because the AVX2 TU is compiled with -mf16c
  // and its fp16 kernels use cvtph; every AVX2+FMA part ships F16C.
  static const bool ok = __builtin_cpu_supports("avx2") &&
                         __builtin_cpu_supports("fma") &&
                         __builtin_cpu_supports("f16c");
  return ok;
#else
  return false;
#endif
}

bool CpuSupportsAvx512() {
#if defined(CRE_HAVE_AVX512_TU) && (defined(__x86_64__) || defined(__i386__))
  static const bool ok = __builtin_cpu_supports("avx512f");
  return ok;
#else
  return false;
#endif
}

KernelVariant BestKernelVariant() {
  if (CpuSupportsAvx512()) return KernelVariant::kAvx512;
  if (CpuSupportsAvx2()) return KernelVariant::kAvx2;
  return KernelVariant::kUnrolled;
}

float DotScalar(const float* a, const float* b, std::size_t dim) {
  float acc = 0.f;
  for (std::size_t i = 0; i < dim; ++i) acc += a[i] * b[i];
  return acc;
}

float DotUnrolled(const float* a, const float* b, std::size_t dim) {
  float acc0 = 0.f, acc1 = 0.f, acc2 = 0.f, acc3 = 0.f;
  std::size_t i = 0;
  for (; i + 4 <= dim; i += 4) {
    acc0 += a[i] * b[i];
    acc1 += a[i + 1] * b[i + 1];
    acc2 += a[i + 2] * b[i + 2];
    acc3 += a[i + 3] * b[i + 3];
  }
  for (; i < dim; ++i) acc0 += a[i] * b[i];
  return (acc0 + acc1) + (acc2 + acc3);
}

float DotAvx2(const float* a, const float* b, std::size_t dim) {
#if defined(CRE_HAVE_AVX2_TU)
  if (CpuSupportsAvx2()) return detail::DotAvx2Impl(a, b, dim);
#endif
  return DotUnrolled(a, b, dim);
}

float DotAvx512(const float* a, const float* b, std::size_t dim) {
#if defined(CRE_HAVE_AVX512_TU)
  if (CpuSupportsAvx512()) return detail::DotAvx512Impl(a, b, dim);
#endif
  return DotAvx2(a, b, dim);
}

void DotBatchScalar(const float* query, const float* base, std::size_t n,
                    std::size_t dim, float* out) {
  for (std::size_t i = 0; i < n; ++i) {
    if (i + kBatchPrefetchRows < n) {
      __builtin_prefetch(base + (i + kBatchPrefetchRows) * dim);
    }
    out[i] = DotScalar(query, base + i * dim, dim);
  }
}

void DotBatchUnrolled(const float* query, const float* base, std::size_t n,
                      std::size_t dim, float* out) {
  for (std::size_t i = 0; i < n; ++i) {
    if (i + kBatchPrefetchRows < n) {
      __builtin_prefetch(base + (i + kBatchPrefetchRows) * dim);
    }
    out[i] = DotUnrolled(query, base + i * dim, dim);
  }
}

void DotBatchAvx2(const float* query, const float* base, std::size_t n,
                  std::size_t dim, float* out) {
#if defined(CRE_HAVE_AVX2_TU)
  if (CpuSupportsAvx2()) {
    detail::DotBatchAvx2Impl(query, base, n, dim, out);
    return;
  }
#endif
  DotBatchUnrolled(query, base, n, dim, out);
}

void DotBatchAvx512(const float* query, const float* base, std::size_t n,
                    std::size_t dim, float* out) {
#if defined(CRE_HAVE_AVX512_TU)
  if (CpuSupportsAvx512()) {
    detail::DotBatchAvx512Impl(query, base, n, dim, out);
    return;
  }
#endif
  DotBatchAvx2(query, base, n, dim, out);
}

void DotBatchGatherScalar(const float* query, const float* base,
                          const std::uint32_t* ids, std::size_t n,
                          std::size_t dim, float* out) {
  for (std::size_t i = 0; i < n; ++i) {
    if (i + kBatchPrefetchRows < n) {
      __builtin_prefetch(base + ids[i + kBatchPrefetchRows] * dim);
    }
    out[i] = DotScalar(query, base + ids[i] * dim, dim);
  }
}

void DotBatchGatherUnrolled(const float* query, const float* base,
                            const std::uint32_t* ids, std::size_t n,
                            std::size_t dim, float* out) {
  for (std::size_t i = 0; i < n; ++i) {
    if (i + kBatchPrefetchRows < n) {
      __builtin_prefetch(base + ids[i + kBatchPrefetchRows] * dim);
    }
    out[i] = DotUnrolled(query, base + ids[i] * dim, dim);
  }
}

void DotBatchGatherAvx2(const float* query, const float* base,
                        const std::uint32_t* ids, std::size_t n,
                        std::size_t dim, float* out) {
#if defined(CRE_HAVE_AVX2_TU)
  if (CpuSupportsAvx2()) {
    detail::DotBatchGatherAvx2Impl(query, base, ids, n, dim, out);
    return;
  }
#endif
  DotBatchGatherUnrolled(query, base, ids, n, dim, out);
}

void DotBatchGatherAvx512(const float* query, const float* base,
                          const std::uint32_t* ids, std::size_t n,
                          std::size_t dim, float* out) {
#if defined(CRE_HAVE_AVX512_TU)
  if (CpuSupportsAvx512()) {
    detail::DotBatchGatherAvx512Impl(query, base, ids, n, dim, out);
    return;
  }
#endif
  DotBatchGatherAvx2(query, base, ids, n, dim, out);
}

float DotHalfAsym(const float* query, const std::uint16_t* b,
                  std::size_t dim) {
#if defined(CRE_HAVE_AVX2_TU)
  if (CpuSupportsAvx2()) return detail::DotHalfAsymAvx2Impl(query, b, dim);
#endif
  float acc = 0.f;
  for (std::size_t i = 0; i < dim; ++i) acc += query[i] * HalfToFloat(b[i]);
  return acc;
}

void DotHalfAsymBatch(const float* query, const std::uint16_t* base,
                      std::size_t n, std::size_t dim, float* out) {
#if defined(CRE_HAVE_AVX2_TU)
  if (CpuSupportsAvx2()) {
    detail::DotHalfAsymBatchAvx2Impl(query, base, n, dim, out);
    return;
  }
#endif
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = DotHalfAsym(query, base + i * dim, dim);
  }
}

void DotHalfAsymGather(const float* query, const std::uint16_t* base,
                       const std::uint32_t* ids, std::size_t n,
                       std::size_t dim, float* out) {
#if defined(CRE_HAVE_AVX2_TU)
  if (CpuSupportsAvx2()) {
    detail::DotHalfAsymGatherAvx2Impl(query, base, ids, n, dim, out);
    return;
  }
#endif
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = DotHalfAsym(query, base + ids[i] * dim, dim);
  }
}

float DotInt8Asym(const float* query, const std::int8_t* codes,
                  std::size_t dim) {
#if defined(CRE_HAVE_AVX2_TU)
  if (CpuSupportsAvx2()) return detail::DotInt8AsymAvx2Impl(query, codes, dim);
#endif
  float acc = 0.f;
  for (std::size_t i = 0; i < dim; ++i) {
    acc += query[i] * static_cast<float>(codes[i]);
  }
  return acc;
}

void DotInt8AsymBatch(const float* query, const std::int8_t* codes,
                      std::size_t n, std::size_t dim, float* out) {
#if defined(CRE_HAVE_AVX2_TU)
  if (CpuSupportsAvx2()) {
    detail::DotInt8AsymBatchAvx2Impl(query, codes, n, dim, out);
    return;
  }
#endif
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = DotInt8Asym(query, codes + i * dim, dim);
  }
}

void DotInt8AsymGather(const float* query, const std::int8_t* codes,
                       const std::uint32_t* ids, std::size_t n,
                       std::size_t dim, float* out) {
#if defined(CRE_HAVE_AVX2_TU)
  if (CpuSupportsAvx2()) {
    detail::DotInt8AsymGatherAvx2Impl(query, codes, ids, n, dim, out);
    return;
  }
#endif
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = DotInt8Asym(query, codes + ids[i] * dim, dim);
  }
}

DotFn GetDotKernel(KernelVariant variant) {
  switch (variant) {
    case KernelVariant::kScalar:
      return &DotScalar;
    case KernelVariant::kUnrolled:
      return &DotUnrolled;
    case KernelVariant::kAvx2:
      return CpuSupportsAvx2() ? &DotAvx2 : &DotUnrolled;
    case KernelVariant::kAvx512:
      if (CpuSupportsAvx512()) return &DotAvx512;
      return CpuSupportsAvx2() ? &DotAvx2 : &DotUnrolled;
  }
  return &DotScalar;
}

DotBatchFn GetDotBatchKernel(KernelVariant variant) {
  switch (variant) {
    case KernelVariant::kScalar:
      return &DotBatchScalar;
    case KernelVariant::kUnrolled:
      return &DotBatchUnrolled;
    case KernelVariant::kAvx2:
      return CpuSupportsAvx2() ? &DotBatchAvx2 : &DotBatchUnrolled;
    case KernelVariant::kAvx512:
      if (CpuSupportsAvx512()) return &DotBatchAvx512;
      return CpuSupportsAvx2() ? &DotBatchAvx2 : &DotBatchUnrolled;
  }
  return &DotBatchScalar;
}

DotBatchGatherFn GetDotBatchGatherKernel(KernelVariant variant) {
  switch (variant) {
    case KernelVariant::kScalar:
      return &DotBatchGatherScalar;
    case KernelVariant::kUnrolled:
      return &DotBatchGatherUnrolled;
    case KernelVariant::kAvx2:
      return CpuSupportsAvx2() ? &DotBatchGatherAvx2 : &DotBatchGatherUnrolled;
    case KernelVariant::kAvx512:
      if (CpuSupportsAvx512()) return &DotBatchGatherAvx512;
      return CpuSupportsAvx2() ? &DotBatchGatherAvx2 : &DotBatchGatherUnrolled;
  }
  return &DotBatchGatherScalar;
}

float Norm(const float* a, std::size_t dim) {
  return std::sqrt(DotUnrolled(a, a, dim));
}

void NormalizeInPlace(float* a, std::size_t dim) {
  const float n = Norm(a, dim);
  if (n <= 0.f) return;
  const float inv = 1.f / n;
  for (std::size_t i = 0; i < dim; ++i) a[i] *= inv;
}

float Cosine(const float* a, const float* b, std::size_t dim) {
  const float na = Norm(a, dim);
  const float nb = Norm(b, dim);
  if (na <= 0.f || nb <= 0.f) return 0.f;
  return DotUnrolled(a, b, dim) / (na * nb);
}

}  // namespace cre
