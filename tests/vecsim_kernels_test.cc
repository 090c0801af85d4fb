#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "core/rng.h"
#include "vecsim/fp16.h"
#include "vecsim/kernels.h"

namespace cre {
namespace {

std::vector<float> RandomVec(Rng& rng, std::size_t dim) {
  std::vector<float> v(dim);
  for (auto& x : v) x = rng.NextFloat() * 2.f - 1.f;
  return v;
}

TEST(KernelsTest, DotScalarBasic) {
  const float a[4] = {1, 2, 3, 4};
  const float b[4] = {5, 6, 7, 8};
  EXPECT_FLOAT_EQ(DotScalar(a, b, 4), 70.f);
}

TEST(KernelsTest, EmptyDotIsZero) {
  EXPECT_FLOAT_EQ(DotScalar(nullptr, nullptr, 0), 0.f);
  EXPECT_FLOAT_EQ(DotUnrolled(nullptr, nullptr, 0), 0.f);
}

class KernelDimSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(KernelDimSweep, VariantsAgree) {
  const std::size_t dim = GetParam();
  Rng rng(dim * 7 + 1);
  for (int trial = 0; trial < 20; ++trial) {
    auto a = RandomVec(rng, dim);
    auto b = RandomVec(rng, dim);
    const float ref = DotScalar(a.data(), b.data(), dim);
    EXPECT_NEAR(DotUnrolled(a.data(), b.data(), dim), ref,
                1e-3f * (1.f + std::fabs(ref)));
    EXPECT_NEAR(DotAvx2(a.data(), b.data(), dim), ref,
                1e-3f * (1.f + std::fabs(ref)));
  }
}

TEST_P(KernelDimSweep, NormalizeMakesUnit) {
  const std::size_t dim = GetParam();
  Rng rng(dim + 3);
  auto a = RandomVec(rng, dim);
  NormalizeInPlace(a.data(), dim);
  EXPECT_NEAR(Norm(a.data(), dim), 1.f, 1e-4f);
}

INSTANTIATE_TEST_SUITE_P(Dims, KernelDimSweep,
                         ::testing::Values(1, 3, 7, 8, 16, 64, 100, 128, 255,
                                           256));

TEST(KernelsTest, CosineSelfIsOne) {
  Rng rng(42);
  auto a = RandomVec(rng, 100);
  EXPECT_NEAR(Cosine(a.data(), a.data(), 100), 1.f, 1e-5f);
}

TEST(KernelsTest, CosineOppositeIsMinusOne) {
  Rng rng(43);
  auto a = RandomVec(rng, 50);
  auto b = a;
  for (auto& x : b) x = -x;
  EXPECT_NEAR(Cosine(a.data(), b.data(), 50), -1.f, 1e-5f);
}

TEST(KernelsTest, CosineZeroVectorIsZero) {
  std::vector<float> a(10, 0.f), b(10, 1.f);
  EXPECT_FLOAT_EQ(Cosine(a.data(), b.data(), 10), 0.f);
}

TEST(KernelsTest, NormalizeZeroVectorNoop) {
  std::vector<float> a(10, 0.f);
  NormalizeInPlace(a.data(), 10);
  for (float x : a) EXPECT_FLOAT_EQ(x, 0.f);
}

TEST(KernelsTest, DispatchReturnsWorkingKernels) {
  Rng rng(7);
  auto a = RandomVec(rng, 100);
  auto b = RandomVec(rng, 100);
  const float ref = DotScalar(a.data(), b.data(), 100);
  for (const auto v : {KernelVariant::kScalar, KernelVariant::kUnrolled,
                       KernelVariant::kAvx2}) {
    const DotFn fn = GetDotKernel(v);
    ASSERT_NE(fn, nullptr);
    EXPECT_NEAR(fn(a.data(), b.data(), 100), ref, 1e-3f);
  }
}

TEST(KernelsTest, VariantNames) {
  EXPECT_STREQ(KernelVariantName(KernelVariant::kScalar), "scalar");
  EXPECT_STREQ(KernelVariantName(KernelVariant::kAvx2), "avx2");
}

TEST(Fp16Test, RoundTripExactValues) {
  for (float f : {0.f, 1.f, -1.f, 0.5f, 2.f, -0.25f, 1024.f}) {
    EXPECT_FLOAT_EQ(HalfToFloat(FloatToHalf(f)), f);
  }
}

TEST(Fp16Test, RoundTripApproximate) {
  Rng rng(11);
  for (int i = 0; i < 1000; ++i) {
    const float f = rng.NextFloat() * 2.f - 1.f;
    const float g = HalfToFloat(FloatToHalf(f));
    EXPECT_NEAR(g, f, 1e-3f);
  }
}

TEST(Fp16Test, OverflowToInfinity) {
  const float inf = HalfToFloat(FloatToHalf(1e30f));
  EXPECT_TRUE(std::isinf(inf));
}

TEST(Fp16Test, Subnormals) {
  const float tiny = 3e-6f;
  const float g = HalfToFloat(FloatToHalf(tiny));
  EXPECT_NEAR(g, tiny, 1e-6f);
}

TEST(Fp16Test, BulkConvertersMatchScalar) {
  Rng rng(17);
  std::vector<float> in(257);
  for (auto& x : in) x = rng.NextFloat() * 4.f - 2.f;
  std::vector<std::uint16_t> half(in.size());
  std::vector<float> out(in.size());
  FloatsToHalves(in.data(), half.data(), in.size());
  HalvesToFloats(half.data(), out.data(), in.size());
  for (std::size_t i = 0; i < in.size(); ++i) {
    EXPECT_EQ(half[i], FloatToHalf(in[i]));
    EXPECT_NEAR(out[i], in[i], 2e-3f);
  }
}

}  // namespace
}  // namespace cre
