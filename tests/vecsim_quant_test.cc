// Quantized vector storage, batch-kernel agreement, IVF-PQ, and the
// cooperative-cancellation hooks of the scan-heavy index families.
#include <algorithm>
#include <cmath>
#include <set>
#include <sstream>
#include <vector>

#include <gtest/gtest.h>

#include "core/cancel.h"
#include "core/rng.h"
#include "vecsim/brute_force.h"
#include "vecsim/codec.h"
#include "vecsim/fp16.h"
#include "vecsim/hnsw_index.h"
#include "vecsim/ivf_index.h"
#include "vecsim/ivfpq_index.h"
#include "vecsim/kernels.h"

namespace cre {
namespace {

std::vector<float> RandomVec(Rng& rng, std::size_t dim) {
  std::vector<float> v(dim);
  for (auto& x : v) x = rng.NextFloat() * 2.f - 1.f;
  return v;
}

std::vector<float> RandomRows(Rng& rng, std::size_t n, std::size_t dim) {
  std::vector<float> v(n * dim);
  for (auto& x : v) x = rng.NextFloat() * 2.f - 1.f;
  return v;
}

/// Clustered unit vectors (same construction as vecsim_index_test, with a
/// tunable within-cluster spread: tighter clusters mean more near-tied
/// neighbor ranks, which is harder on quantized codes).
std::vector<float> ClusteredData(std::size_t clusters, std::size_t per_cluster,
                                 std::size_t dim, Rng& rng,
                                 float noise = 0.3f) {
  std::vector<float> centers(clusters * dim);
  for (auto& x : centers) x = static_cast<float>(rng.NextGaussian());
  for (std::size_t c = 0; c < clusters; ++c) {
    NormalizeInPlace(centers.data() + c * dim, dim);
  }
  std::vector<float> data(clusters * per_cluster * dim);
  std::size_t row = 0;
  for (std::size_t c = 0; c < clusters; ++c) {
    for (std::size_t m = 0; m < per_cluster; ++m, ++row) {
      float* v = data.data() + row * dim;
      for (std::size_t d = 0; d < dim; ++d) {
        v[d] = 3.f * centers[c * dim + d] +
               static_cast<float>(rng.NextGaussian()) * noise;
      }
      NormalizeInPlace(v, dim);
    }
  }
  return data;
}

// ---- batch-kernel matrix: every variant * shape * awkward tail ----

class BatchKernelMatrix : public ::testing::TestWithParam<std::size_t> {};

TEST_P(BatchKernelMatrix, AllVariantsAllShapesMatchScalar) {
  const std::size_t dim = GetParam();
  const std::size_t n = 33;  // odd count exercises batch tails too
  Rng rng(dim * 31 + 7);
  auto query = RandomVec(rng, dim);
  auto base = RandomRows(rng, n, dim);
  // Gather ids: a permutation with repeats, as adjacency lists produce.
  std::vector<std::uint32_t> ids;
  for (std::size_t i = 0; i < n; ++i) {
    ids.push_back(static_cast<std::uint32_t>((i * 7 + 3) % n));
  }

  std::vector<float> ref(n);
  for (std::size_t i = 0; i < n; ++i) {
    ref[i] = DotScalar(query.data(), base.data() + i * dim, dim);
  }

  for (const auto v : {KernelVariant::kScalar, KernelVariant::kUnrolled,
                       KernelVariant::kAvx2, KernelVariant::kAvx512}) {
    const float tol = 1e-4f;
    const DotFn one = GetDotKernel(v);
    const DotBatchFn batch = GetDotBatchKernel(v);
    const DotBatchGatherFn gather = GetDotBatchGatherKernel(v);
    ASSERT_NE(one, nullptr);
    ASSERT_NE(batch, nullptr);
    ASSERT_NE(gather, nullptr);

    std::vector<float> out(n, -1.f);
    batch(query.data(), base.data(), n, dim, out.data());
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_NEAR(one(query.data(), base.data() + i * dim, dim), ref[i],
                  tol * (1.f + std::fabs(ref[i])))
          << KernelVariantName(v) << " single dim=" << dim << " row=" << i;
      EXPECT_NEAR(out[i], ref[i], tol * (1.f + std::fabs(ref[i])))
          << KernelVariantName(v) << " batch dim=" << dim << " row=" << i;
    }

    std::fill(out.begin(), out.end(), -1.f);
    gather(query.data(), base.data(), ids.data(), n, dim, out.data());
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_NEAR(out[i], ref[ids[i]], tol * (1.f + std::fabs(ref[ids[i]])))
          << KernelVariantName(v) << " gather dim=" << dim << " row=" << i;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Tails, BatchKernelMatrix,
                         ::testing::Values(1, 3, 7, 8, 64, 65));

TEST(BatchKernelTest, ZeroRowsIsNoop) {
  float query = 1.f, sentinel = 42.f;
  for (const auto v : {KernelVariant::kScalar, KernelVariant::kUnrolled,
                       KernelVariant::kAvx2, KernelVariant::kAvx512}) {
    GetDotBatchKernel(v)(&query, nullptr, 0, 1, &sentinel);
    GetDotBatchGatherKernel(v)(&query, nullptr, nullptr, 0, 1, &sentinel);
    EXPECT_FLOAT_EQ(sentinel, 42.f);
  }
}

// ---- VectorStore: asymmetric scoring stays inside the codec slack ----

class CodecSweep : public ::testing::TestWithParam<VectorCodecKind> {};

TEST_P(CodecSweep, ScoringStaysWithinSlack) {
  const VectorCodecKind kind = GetParam();
  const std::size_t dim = 65, n = 100;
  Rng rng(29);
  auto data = RandomRows(rng, n, dim);
  for (std::size_t i = 0; i < n; ++i) {
    NormalizeInPlace(data.data() + i * dim, dim);
  }
  auto query = RandomVec(rng, dim);
  NormalizeInPlace(query.data(), dim);

  VectorStore store;
  store.Reset(kind, dim);
  store.Append(data.data(), n);
  const float pre = store.QueryPrecompute(query.data());
  const float slack = store.ScoreSlack();

  std::vector<float> scores(n);
  store.ScoreRange(query.data(), pre, 0, n, scores.data());
  std::vector<std::uint32_t> ids;
  for (std::size_t i = 0; i < n; ++i) {
    ids.push_back(static_cast<std::uint32_t>(n - 1 - i));
  }
  std::vector<float> gathered(n);
  store.ScoreIds(query.data(), pre, ids.data(), n, gathered.data());

  std::vector<float> scratch(dim);
  for (std::size_t i = 0; i < n; ++i) {
    const float exact = DotScalar(query.data(), data.data() + i * dim, dim);
    EXPECT_NEAR(scores[i], exact, slack + 1e-5f) << "row " << i;
    EXPECT_NEAR(gathered[n - 1 - i], exact, slack + 1e-5f) << "row " << i;
    EXPECT_FLOAT_EQ(
        store.ScoreOne(query.data(), pre, static_cast<std::uint32_t>(i)),
        scores[i]);
    // The rescore primitive: decoded-dot must beat the asymmetric score.
    const float rescored = store.RescoreOne(
        query.data(), static_cast<std::uint32_t>(i), scratch.data());
    EXPECT_NEAR(rescored, exact, slack + 1e-5f);
  }
}

TEST_P(CodecSweep, SaveLoadRoundTripsBytes) {
  const VectorCodecKind kind = GetParam();
  const std::size_t dim = 24, n = 37;
  Rng rng(31);
  auto data = RandomRows(rng, n, dim);

  VectorStore store;
  store.Reset(kind, dim);
  store.Append(data.data(), n);
  std::ostringstream first;
  ASSERT_TRUE(store.Save(first).ok());

  VectorStore loaded;
  std::istringstream in(first.str());
  ASSERT_TRUE(loaded.Load(in, n, dim).ok());
  EXPECT_EQ(loaded.kind(), kind);
  std::ostringstream second;
  ASSERT_TRUE(loaded.Save(second).ok());
  EXPECT_EQ(first.str(), second.str()) << "codec image must be stable";

  std::vector<float> a(dim), b(dim);
  for (std::uint32_t i = 0; i < n; ++i) {
    store.Decode(i, a.data());
    loaded.Decode(i, b.data());
    EXPECT_EQ(a, b) << "row " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Codecs, CodecSweep,
                         ::testing::Values(VectorCodecKind::kFp32,
                                           VectorCodecKind::kFp16,
                                           VectorCodecKind::kInt8));

// ---- quantized search: over-fetch + exact rescore keeps recall@10 ----

double RecallAt10(const VectorIndex& index, const VectorIndex& exact,
                  const std::vector<float>& queries, std::size_t dim) {
  const std::size_t k = 10;
  std::size_t hits = 0, total = 0;
  for (std::size_t q = 0; q * dim < queries.size(); ++q) {
    const float* query = queries.data() + q * dim;
    std::set<std::uint32_t> truth;
    for (const auto& s : exact.TopK(query, k)) truth.insert(s.id);
    for (const auto& s : index.TopK(query, k)) {
      hits += truth.count(s.id);
    }
    total += truth.size();
  }
  return static_cast<double>(hits) / static_cast<double>(total);
}

struct QuantRecallCase {
  enum Kind { kFlatFp16, kFlatInt8, kHnswFp16, kIvfPq } kind;
};

class QuantRecallTest : public ::testing::TestWithParam<QuantRecallCase> {};

TEST_P(QuantRecallTest, RecallAtLeast95VsExactFlat) {
  const std::size_t dim = 64;
  Rng rng(91);
  // Many 10-member clusters, queried near a member: each query's true
  // top-10 is (essentially) one well-separated cluster. Recall@10 is
  // set-based, so this measures whether the lossy code retrieves the
  // right neighborhood without penalizing rank shuffles among near-ties
  // — which no finite code can avoid on tie-dense data.
  auto data = ClusteredData(48, 10, dim, rng, 0.4f);
  const std::size_t n = data.size() / dim;
  std::vector<float> queries;
  for (std::size_t q = 0; q < 48; ++q) {
    const float* v = data.data() + (q * 10 + 3) * dim;
    std::vector<float> p(v, v + dim);
    for (auto& x : p) x += static_cast<float>(rng.NextGaussian()) * 0.05f;
    NormalizeInPlace(p.data(), dim);
    queries.insert(queries.end(), p.begin(), p.end());
  }

  FlatIndex exact(BestKernelVariant());
  ASSERT_TRUE(exact.Build(data.data(), n, dim).ok());

  std::unique_ptr<VectorIndex> index;
  switch (GetParam().kind) {
    case QuantRecallCase::kFlatFp16: {
      QuantizationOptions quant;
      quant.codec = VectorCodecKind::kFp16;
      index = std::make_unique<FlatIndex>(BestKernelVariant(), quant);
      break;
    }
    case QuantRecallCase::kFlatInt8: {
      QuantizationOptions quant;
      quant.codec = VectorCodecKind::kInt8;
      index = std::make_unique<FlatIndex>(BestKernelVariant(), quant);
      break;
    }
    case QuantRecallCase::kHnswFp16: {
      HnswOptions options;
      options.quant.codec = VectorCodecKind::kFp16;
      options.ef_search = 128;
      index = std::make_unique<HnswIndex>(options);
      break;
    }
    case QuantRecallCase::kIvfPq: {
      // Fine subspaces for this small base set (2-dim codes are still 8x
      // smaller than fp32 rows); half the lists probed.
      IvfPqOptions options;
      options.num_centroids = 16;
      options.nprobe = 8;
      options.pq_m = 32;
      index = std::make_unique<IvfPqIndex>(options);
      break;
    }
  }
  ASSERT_TRUE(index->Build(data.data(), n, dim).ok());
  EXPECT_GE(RecallAt10(*index, exact, queries, dim), 0.95)
      << index->name() << " recall@10 too low";

  // The compressed families must actually be smaller than fp32 flat.
  if (GetParam().kind != QuantRecallCase::kHnswFp16) {
    EXPECT_LT(index->MemoryBytes(), exact.MemoryBytes());
  }
}

INSTANTIATE_TEST_SUITE_P(
    Families, QuantRecallTest,
    ::testing::Values(QuantRecallCase{QuantRecallCase::kFlatFp16},
                      QuantRecallCase{QuantRecallCase::kFlatInt8},
                      QuantRecallCase{QuantRecallCase::kHnswFp16},
                      QuantRecallCase{QuantRecallCase::kIvfPq}));

TEST(QuantFootprintTest, CodecsShrinkAsAdvertised) {
  const std::size_t dim = 64;
  Rng rng(17);
  // Enough rows that the PQ codebooks (a fixed 256*dim*4-byte overhead)
  // amortize, as they would at production scale.
  auto data = ClusteredData(12, 200, dim, rng);
  const std::size_t n = data.size() / dim;

  auto footprint = [&](VectorCodecKind kind) {
    QuantizationOptions quant;
    quant.codec = kind;
    FlatIndex index(BestKernelVariant(), quant);
    index.Build(data.data(), n, dim).Check();
    return index.MemoryBytes();
  };
  const std::size_t fp32 = footprint(VectorCodecKind::kFp32);
  const std::size_t fp16 = footprint(VectorCodecKind::kFp16);
  const std::size_t int8 = footprint(VectorCodecKind::kInt8);
  EXPECT_GE(static_cast<double>(fp32) / static_cast<double>(fp16), 1.9);
  EXPECT_GE(static_cast<double>(fp32) / static_cast<double>(int8), 3.5);

  IvfPqIndex pq({/*num_centroids=*/16, /*nprobe=*/8, /*kmeans_iters=*/10,
                 /*pq_m=*/8});
  ASSERT_TRUE(pq.Build(data.data(), n, dim).ok());
  // PQ codes are pq_m bytes/vector; codebooks+centroids amortize over n
  // (at this scale ~5x; the ratio keeps growing with the base set).
  EXPECT_GE(static_cast<double>(fp32) / static_cast<double>(pq.MemoryBytes()),
            4.0);
}

// ---- IVF-PQ: family behavior, persistence, corruption rejection ----

TEST(IvfPqTest, BuildRejectsIndivisibleDim) {
  IvfPqOptions options;
  options.pq_m = 7;
  IvfPqIndex index(options);
  std::vector<float> data(10 * 10, 0.1f);
  EXPECT_FALSE(index.Build(data.data(), 10, 10).ok());
}

TEST(IvfPqTest, AddEncodesAgainstFrozenQuantizers) {
  const std::size_t dim = 32;
  Rng rng(53);
  auto data = ClusteredData(6, 30, dim, rng);
  const std::size_t n = data.size() / dim;
  const std::size_t head = n - 40;

  IvfPqOptions options;
  options.num_centroids = 8;
  options.nprobe = 8;
  options.pq_m = 8;
  IvfPqIndex index(options);
  ASSERT_TRUE(index.Build(data.data(), head, dim).ok());
  ASSERT_TRUE(
      index.Add(data.data() + head * dim, n - head, dim).ok());
  EXPECT_EQ(index.size(), n);

  // Appended rows are findable: query each appended row for itself.
  std::size_t found = 0;
  for (std::size_t i = head; i < n; ++i) {
    for (const auto& s : index.TopK(data.data() + i * dim, 10)) {
      if (s.id == i) ++found;
    }
  }
  EXPECT_GE(found, (n - head) * 9 / 10);
}

TEST(IvfPqTest, ReconstructionIsCloseOnClusteredData) {
  const std::size_t dim = 32;
  Rng rng(57);
  auto data = ClusteredData(8, 25, dim, rng);
  const std::size_t n = data.size() / dim;
  IvfPqOptions options;
  options.num_centroids = 8;
  options.pq_m = 8;
  IvfPqIndex index(options);
  ASSERT_TRUE(index.Build(data.data(), n, dim).ok());

  std::vector<float> recon(dim);
  double worst = 1.0;
  for (std::uint32_t i = 0; i < n; ++i) {
    index.Reconstruct(i, recon.data());
    worst = std::min(
        worst, static_cast<double>(
                   Cosine(recon.data(), data.data() + i * dim, dim)));
  }
  EXPECT_GT(worst, 0.8) << "residual PQ should reconstruct well";
}

TEST(IvfPqTest, SaveLoadByteIdentical) {
  const std::size_t dim = 32;
  Rng rng(61);
  auto data = ClusteredData(6, 20, dim, rng);
  const std::size_t n = data.size() / dim;
  IvfPqOptions options;
  options.num_centroids = 8;
  options.pq_m = 4;
  IvfPqIndex index(options);
  ASSERT_TRUE(index.Build(data.data(), n, dim).ok());

  std::ostringstream first;
  ASSERT_TRUE(index.Save(first).ok());
  IvfPqIndex loaded(options);
  std::istringstream in(first.str());
  ASSERT_TRUE(loaded.Load(in).ok());
  EXPECT_EQ(loaded.size(), n);
  EXPECT_EQ(loaded.dim(), dim);

  std::ostringstream second;
  ASSERT_TRUE(loaded.Save(second).ok());
  EXPECT_EQ(first.str(), second.str()) << "pq image must be stable";

  // Loaded index answers like the original.
  auto a = index.TopK(data.data(), 5);
  auto b = loaded.TopK(data.data(), 5);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].id, b[i].id);
    EXPECT_FLOAT_EQ(a[i].score, b[i].score);
  }
}

TEST(IvfPqTest, TruncatedImageRejectedEverywhere) {
  const std::size_t dim = 16;
  Rng rng(67);
  auto data = ClusteredData(4, 15, dim, rng);
  const std::size_t n = data.size() / dim;
  IvfPqOptions options;
  options.num_centroids = 4;
  options.pq_m = 4;
  IvfPqIndex index(options);
  ASSERT_TRUE(index.Build(data.data(), n, dim).ok());
  std::ostringstream out;
  ASSERT_TRUE(index.Save(out).ok());
  const std::string image = out.str();

  // Inside the header, inside the payload, one byte short of complete.
  for (const std::size_t cut :
       {std::size_t{6}, image.size() / 2, image.size() - 1}) {
    IvfPqIndex victim(options);
    std::istringstream in(image.substr(0, cut));
    EXPECT_FALSE(victim.Load(in).ok()) << "cut at " << cut;
  }
}

// ---- cooperative cancellation in the scan-heavy families ----

TEST(ScanCancelTest, PresetFlagStopsIvfScansImmediately) {
  const std::size_t dim = 32;
  Rng rng(71);
  auto data = ClusteredData(6, 40, dim, rng);
  const std::size_t n = data.size() / dim;
  CancelFlag cancel;
  IvfOptions options;
  options.num_centroids = 4;
  options.nprobe = 4;
  options.cancel = &cancel;
  IvfIndex index(options);
  ASSERT_TRUE(index.Build(data.data(), n, dim).ok());

  cancel.Cancel();
  std::vector<ScoredId> hits;
  index.RangeSearch(data.data(), -1.f, &hits);
  EXPECT_TRUE(hits.empty()) << "cancelled scan must stop within one block";
  EXPECT_TRUE(index.TopK(data.data(), 5).empty());
}

TEST(ScanCancelTest, CancelledBuildsUnwindWithStatus) {
  const std::size_t dim = 32;
  Rng rng(79);
  auto data = ClusteredData(6, 40, dim, rng);
  const std::size_t n = data.size() / dim;
  CancelFlag cancel;
  cancel.Cancel();

  IvfOptions ivf;
  ivf.cancel = &cancel;
  EXPECT_TRUE(IvfIndex(ivf).Build(data.data(), n, dim).IsCancelled());

  IvfPqOptions pq;
  pq.pq_m = 4;
  pq.cancel = &cancel;
  EXPECT_TRUE(IvfPqIndex(pq).Build(data.data(), n, dim).IsCancelled());
}

TEST(ScanCancelTest, MidScanCancelReturnsPartialQuickly) {
  // Flip the flag from inside the emit path (scoring observes results as
  // RangeSearch appends them): the scan must stop at the next block
  // boundary instead of finishing the probe set.
  const std::size_t dim = 16;
  Rng rng(83);
  auto data = ClusteredData(4, 200, dim, rng);
  const std::size_t n = data.size() / dim;
  CancelFlag cancel;
  IvfOptions options;
  options.num_centroids = 2;
  options.nprobe = 2;
  options.cancel = &cancel;
  IvfIndex index(options);
  ASSERT_TRUE(index.Build(data.data(), n, dim).ok());

  std::vector<ScoredId> hits;
  index.RangeSearch(data.data(), -1.f, &hits);
  const std::size_t full = hits.size();
  ASSERT_EQ(full, n) << "threshold -1 must match everything";

  hits.clear();
  cancel.Cancel();
  index.RangeSearch(data.data(), -1.f, &hits);
  EXPECT_LT(hits.size(), full);
}

}  // namespace
}  // namespace cre
