#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/aligned.h"
#include "core/hash.h"
#include "core/logging.h"
#include "core/result.h"
#include "core/rng.h"
#include "core/status.h"

namespace cre {
namespace {

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::InvalidArgument("bad arg");
  EXPECT_FALSE(s.ok());
  EXPECT_TRUE(s.IsInvalidArgument());
  EXPECT_EQ(s.message(), "bad arg");
  EXPECT_EQ(s.ToString(), "InvalidArgument: bad arg");
}

TEST(StatusTest, CopyPreservesError) {
  Status s = Status::NotFound("missing");
  Status t = s;
  EXPECT_TRUE(t.IsNotFound());
  EXPECT_EQ(t.message(), "missing");
}

TEST(StatusTest, AllFactoryCodes) {
  EXPECT_EQ(Status::NotFound("x").code(), StatusCode::kNotFound);
  EXPECT_EQ(Status::AlreadyExists("x").code(), StatusCode::kAlreadyExists);
  EXPECT_EQ(Status::OutOfRange("x").code(), StatusCode::kOutOfRange);
  EXPECT_EQ(Status::TypeError("x").code(), StatusCode::kTypeError);
  EXPECT_EQ(Status::NotImplemented("x").code(), StatusCode::kNotImplemented);
  EXPECT_EQ(Status::Internal("x").code(), StatusCode::kInternal);
  EXPECT_EQ(Status::ResourceExhausted("x").code(),
            StatusCode::kResourceExhausted);
  EXPECT_EQ(Status::Aborted("x").code(), StatusCode::kAborted);
}

TEST(ResultTest, HoldsValue) {
  Result<int> r(42);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.ValueOrDie(), 42);
}

TEST(ResultTest, HoldsError) {
  Result<int> r(Status::NotFound("nope"));
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsNotFound());
  EXPECT_EQ(r.ValueOr(7), 7);
}

TEST(ResultTest, MoveOutValue) {
  Result<std::string> r(std::string("hello"));
  std::string v = std::move(r).ValueOrDie();
  EXPECT_EQ(v, "hello");
}

Result<int> Half(int x) {
  if (x % 2 != 0) return Status::InvalidArgument("odd");
  return x / 2;
}

Result<int> Quarter(int x) {
  CRE_ASSIGN_OR_RETURN(int h, Half(x));
  CRE_ASSIGN_OR_RETURN(int q, Half(h));
  return q;
}

TEST(ResultTest, AssignOrReturnMacro) {
  EXPECT_EQ(Quarter(8).ValueOrDie(), 2);
  EXPECT_TRUE(Quarter(6).status().IsInvalidArgument());  // 6/2=3 is odd
  EXPECT_TRUE(Quarter(7).status().IsInvalidArgument());
}

TEST(RngTest, Deterministic) {
  Rng a(5), b(5);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.Next() == b.Next()) ++same;
  }
  EXPECT_LT(same, 2);
}

TEST(RngTest, UniformBounds) {
  Rng rng(9);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.Uniform(17), 17u);
    const double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
    const std::int64_t v = rng.UniformInt(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
  }
}

TEST(RngTest, GaussianMoments) {
  Rng rng(13);
  double sum = 0, sq = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const double g = rng.NextGaussian();
    sum += g;
    sq += g * g;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.05);
  EXPECT_NEAR(sq / n, 1.0, 0.05);
}

TEST(ZipfTest, RankZeroMostFrequent) {
  Rng rng(21);
  Zipf zipf(100, 1.0);
  std::vector<int> counts(100, 0);
  for (int i = 0; i < 20000; ++i) ++counts[zipf.Sample(rng)];
  EXPECT_GT(counts[0], counts[10]);
  EXPECT_GT(counts[0], counts[50]);
}

TEST(ZipfTest, AllRanksInRange) {
  Rng rng(22);
  Zipf zipf(10, 1.2);
  for (int i = 0; i < 1000; ++i) EXPECT_LT(zipf.Sample(rng), 10u);
}

TEST(HashTest, StableAndDistinct) {
  EXPECT_EQ(HashString("hello"), HashString("hello"));
  EXPECT_NE(HashString("hello"), HashString("hellp"));
  EXPECT_NE(HashString("a"), HashString("b"));
  EXPECT_NE(HashString("abc", 1), HashString("abc", 2));
}

TEST(HashTest, MixHashAvalanche) {
  // Flipping one input bit should flip many output bits on average.
  int total_flips = 0;
  for (int bit = 0; bit < 64; ++bit) {
    const std::uint64_t a = MixHash(0x123456789abcdefULL);
    const std::uint64_t b = MixHash(0x123456789abcdefULL ^ (1ULL << bit));
    total_flips += __builtin_popcountll(a ^ b);
  }
  EXPECT_GT(total_flips / 64, 20);
}

TEST(AlignedBufferTest, Alignment) {
  AlignedBuffer<float> buf(100);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(buf.data()) % 64, 0u);
  EXPECT_EQ(buf.size(), 100u);
}

TEST(AlignedBufferTest, MoveTransfersOwnership) {
  AlignedBuffer<float> a(10);
  a[0] = 3.5f;
  AlignedBuffer<float> b = std::move(a);
  EXPECT_EQ(b[0], 3.5f);
  EXPECT_EQ(a.data(), nullptr);
  EXPECT_TRUE(a.empty());
}

TEST(LoggingTest, LevelFilter) {
  const LogLevel prev = GetLogLevel();
  SetLogLevel(LogLevel::kError);
  EXPECT_EQ(GetLogLevel(), LogLevel::kError);
  CRE_LOG(Info) << "suppressed";
  SetLogLevel(prev);
}

}  // namespace
}  // namespace cre
