// AVX2/FMA/F16C kernel bodies. This translation unit is compiled with
// -mavx2 -mfma -mf16c via per-file CMake compile options; nothing here may
// be called unless CpuSupportsAvx2() returned true (kernels.cc enforces
// that), so a generic binary on an older host never reaches these
// instructions.

#include <immintrin.h>

#include "vecsim/fp16.h"
#include "vecsim/kernels_internal.h"

namespace cre::detail {

namespace {

constexpr std::size_t kPrefetchRows = 4;

inline float ReduceAdd(__m256 v) {
  __m128 lo = _mm256_castps256_ps128(v);
  __m128 hi = _mm256_extractf128_ps(v, 1);
  lo = _mm_add_ps(lo, hi);
  lo = _mm_hadd_ps(lo, lo);
  lo = _mm_hadd_ps(lo, lo);
  return _mm_cvtss_f32(lo);
}

}  // namespace

float DotAvx2Impl(const float* a, const float* b, std::size_t dim) {
  __m256 acc0 = _mm256_setzero_ps();
  __m256 acc1 = _mm256_setzero_ps();
  std::size_t i = 0;
  for (; i + 16 <= dim; i += 16) {
    acc0 = _mm256_fmadd_ps(_mm256_loadu_ps(a + i), _mm256_loadu_ps(b + i),
                           acc0);
    acc1 = _mm256_fmadd_ps(_mm256_loadu_ps(a + i + 8),
                           _mm256_loadu_ps(b + i + 8), acc1);
  }
  for (; i + 8 <= dim; i += 8) {
    acc0 = _mm256_fmadd_ps(_mm256_loadu_ps(a + i), _mm256_loadu_ps(b + i),
                           acc0);
  }
  float acc = ReduceAdd(_mm256_add_ps(acc0, acc1));
  for (; i < dim; ++i) acc += a[i] * b[i];
  return acc;
}

void DotBatchAvx2Impl(const float* query, const float* base, std::size_t n,
                      std::size_t dim, float* out) {
  for (std::size_t i = 0; i < n; ++i) {
    if (i + kPrefetchRows < n) {
      const float* next = base + (i + kPrefetchRows) * dim;
      _mm_prefetch(reinterpret_cast<const char*>(next), _MM_HINT_T0);
      _mm_prefetch(reinterpret_cast<const char*>(next + 16), _MM_HINT_T0);
    }
    out[i] = DotAvx2Impl(query, base + i * dim, dim);
  }
}

void DotBatchGatherAvx2Impl(const float* query, const float* base,
                            const std::uint32_t* ids, std::size_t n,
                            std::size_t dim, float* out) {
  for (std::size_t i = 0; i < n; ++i) {
    if (i + kPrefetchRows < n) {
      const float* next = base + ids[i + kPrefetchRows] * dim;
      _mm_prefetch(reinterpret_cast<const char*>(next), _MM_HINT_T0);
      _mm_prefetch(reinterpret_cast<const char*>(next + 16), _MM_HINT_T0);
    }
    out[i] = DotAvx2Impl(query, base + ids[i] * dim, dim);
  }
}

float DotHalfAsymAvx2Impl(const float* query, const std::uint16_t* b,
                          std::size_t dim) {
  __m256 acc = _mm256_setzero_ps();
  std::size_t i = 0;
  for (; i + 8 <= dim; i += 8) {
    const __m256 vb = _mm256_cvtph_ps(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(b + i)));
    acc = _mm256_fmadd_ps(_mm256_loadu_ps(query + i), vb, acc);
  }
  float out = ReduceAdd(acc);
  for (; i < dim; ++i) out += query[i] * HalfToFloat(b[i]);
  return out;
}

void DotHalfAsymBatchAvx2Impl(const float* query, const std::uint16_t* base,
                              std::size_t n, std::size_t dim, float* out) {
  for (std::size_t i = 0; i < n; ++i) {
    if (i + kPrefetchRows < n) {
      _mm_prefetch(
          reinterpret_cast<const char*>(base + (i + kPrefetchRows) * dim),
          _MM_HINT_T0);
    }
    out[i] = DotHalfAsymAvx2Impl(query, base + i * dim, dim);
  }
}

void DotHalfAsymGatherAvx2Impl(const float* query, const std::uint16_t* base,
                               const std::uint32_t* ids, std::size_t n,
                               std::size_t dim, float* out) {
  for (std::size_t i = 0; i < n; ++i) {
    if (i + kPrefetchRows < n) {
      _mm_prefetch(
          reinterpret_cast<const char*>(base + ids[i + kPrefetchRows] * dim),
          _MM_HINT_T0);
    }
    out[i] = DotHalfAsymAvx2Impl(query, base + ids[i] * dim, dim);
  }
}

float DotInt8AsymAvx2Impl(const float* query, const std::int8_t* codes,
                          std::size_t dim) {
  __m256 acc0 = _mm256_setzero_ps();
  __m256 acc1 = _mm256_setzero_ps();
  std::size_t i = 0;
  for (; i + 16 <= dim; i += 16) {
    const __m128i raw = _mm_loadu_si128(
        reinterpret_cast<const __m128i*>(codes + i));
    const __m256 lo = _mm256_cvtepi32_ps(_mm256_cvtepi8_epi32(raw));
    const __m256 hi = _mm256_cvtepi32_ps(
        _mm256_cvtepi8_epi32(_mm_srli_si128(raw, 8)));
    acc0 = _mm256_fmadd_ps(_mm256_loadu_ps(query + i), lo, acc0);
    acc1 = _mm256_fmadd_ps(_mm256_loadu_ps(query + i + 8), hi, acc1);
  }
  for (; i + 8 <= dim; i += 8) {
    const __m128i raw = _mm_loadl_epi64(
        reinterpret_cast<const __m128i*>(codes + i));
    const __m256 v = _mm256_cvtepi32_ps(_mm256_cvtepi8_epi32(raw));
    acc0 = _mm256_fmadd_ps(_mm256_loadu_ps(query + i), v, acc0);
  }
  float out = ReduceAdd(_mm256_add_ps(acc0, acc1));
  for (; i < dim; ++i) out += query[i] * static_cast<float>(codes[i]);
  return out;
}

void DotInt8AsymBatchAvx2Impl(const float* query, const std::int8_t* codes,
                              std::size_t n, std::size_t dim, float* out) {
  for (std::size_t i = 0; i < n; ++i) {
    if (i + kPrefetchRows < n) {
      _mm_prefetch(
          reinterpret_cast<const char*>(codes + (i + kPrefetchRows) * dim),
          _MM_HINT_T0);
    }
    out[i] = DotInt8AsymAvx2Impl(query, codes + i * dim, dim);
  }
}

void DotInt8AsymGatherAvx2Impl(const float* query, const std::int8_t* codes,
                               const std::uint32_t* ids, std::size_t n,
                               std::size_t dim, float* out) {
  for (std::size_t i = 0; i < n; ++i) {
    if (i + kPrefetchRows < n) {
      _mm_prefetch(
          reinterpret_cast<const char*>(codes + ids[i + kPrefetchRows] * dim),
          _MM_HINT_T0);
    }
    out[i] = DotInt8AsymAvx2Impl(query, codes + ids[i] * dim, dim);
  }
}

}  // namespace cre::detail
