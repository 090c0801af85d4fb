#include <algorithm>
#include <atomic>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/rng.h"
#include "datagen/vocabulary.h"
#include "embed/hash_embedding_model.h"
#include "engine/scheduler.h"
#include "vecsim/brute_force.h"
#include "vecsim/hnsw_index.h"
#include "vecsim/ivf_index.h"
#include "vecsim/kernels.h"
#include "vecsim/top_k.h"

namespace cre {
namespace {

/// Clustered unit vectors: `clusters` centers, `per_cluster` members each,
/// tight within-cluster cosine. Returns row-major data.
std::vector<float> ClusteredData(std::size_t clusters, std::size_t per_cluster,
                                 std::size_t dim, Rng& rng) {
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
               static_cast<float>(rng.NextGaussian()) * 0.3f;
      }
      NormalizeInPlace(v, dim);
    }
  }
  return data;
}

TEST(TopKCollectorTest, KeepsLargest) {
  TopKCollector c(3);
  for (std::uint32_t i = 0; i < 10; ++i) {
    c.Offer(i, static_cast<float>(i));
  }
  auto out = c.TakeSorted();
  ASSERT_EQ(out.size(), 3u);
  EXPECT_EQ(out[0].id, 9u);
  EXPECT_EQ(out[1].id, 8u);
  EXPECT_EQ(out[2].id, 7u);
}

TEST(TopKCollectorTest, ZeroK) {
  TopKCollector c(0);
  c.Offer(1, 5.f);
  EXPECT_TRUE(c.TakeSorted().empty());
}

TEST(TopKCollectorTest, FloorTracksMin) {
  TopKCollector c(2);
  EXPECT_LT(c.Floor(), -1e29f);
  c.Offer(0, 1.f);
  c.Offer(1, 2.f);
  EXPECT_FLOAT_EQ(c.Floor(), 1.f);
  c.Offer(2, 3.f);
  EXPECT_FLOAT_EQ(c.Floor(), 2.f);
}

TEST(TopKCollectorTest, TieBreaksById) {
  TopKCollector c(2);
  c.Offer(5, 1.f);
  c.Offer(3, 1.f);
  c.Offer(9, 1.f);
  auto out = c.TakeSorted();
  EXPECT_EQ(out[0].id, 3u);
}

TEST(BruteForceJoinTest, FindsExactPairs) {
  const std::size_t dim = 16;
  Rng rng(3);
  auto data = ClusteredData(4, 8, dim, rng);
  const std::size_t n = 32;
  auto matches = SimilarityJoinBrute(data.data(), n, data.data(), n, dim,
                                     0.8f, {});
  // Every vector matches itself.
  std::set<std::pair<std::uint32_t, std::uint32_t>> pairs;
  for (const auto& m : matches) pairs.insert({m.left, m.right});
  for (std::uint32_t i = 0; i < n; ++i) {
    EXPECT_TRUE(pairs.count({i, i})) << i;
  }
  // Symmetry: (i,j) implies (j,i).
  for (const auto& [l, r] : pairs) {
    EXPECT_TRUE(pairs.count({r, l}));
  }
}

TEST(BruteForceJoinTest, ParallelMatchesSerial) {
  const std::size_t dim = 32;
  Rng rng(5);
  auto left = ClusteredData(8, 16, dim, rng);
  auto right = ClusteredData(8, 16, dim, rng);
  const std::size_t n = 128;
  auto serial = SimilarityJoinBrute(left.data(), n, right.data(), n, dim,
                                    0.7f, {});
  QueryScheduler scheduler(4);
  auto pool = scheduler.Admit();
  BruteForceOptions par;
  par.pool = pool.get();
  auto parallel =
      SimilarityJoinBrute(left.data(), n, right.data(), n, dim, 0.7f, par);
  auto key = [](const MatchPair& m) {
    return (static_cast<std::uint64_t>(m.left) << 32) | m.right;
  };
  std::vector<std::uint64_t> a, b;
  for (const auto& m : serial) a.push_back(key(m));
  for (const auto& m : parallel) b.push_back(key(m));
  std::sort(a.begin(), a.end());
  std::sort(b.begin(), b.end());
  EXPECT_EQ(a, b);
}

TEST(BruteForceJoinTest, VariantsProduceSameMatches) {
  const std::size_t dim = 100;
  Rng rng(6);
  auto left = ClusteredData(4, 16, dim, rng);
  auto right = ClusteredData(4, 16, dim, rng);
  const std::size_t n = 64;
  BruteForceOptions scalar_opt;
  scalar_opt.variant = KernelVariant::kScalar;
  auto ref = SimilarityJoinBrute(left.data(), n, right.data(), n, dim, 0.75f,
                                 scalar_opt);
  for (const auto v : {KernelVariant::kUnrolled, KernelVariant::kAvx2}) {
    BruteForceOptions opt;
    opt.variant = v;
    auto got =
        SimilarityJoinBrute(left.data(), n, right.data(), n, dim, 0.75f, opt);
    EXPECT_EQ(got.size(), ref.size()) << KernelVariantName(v);
  }
}

TEST(FlatIndexTest, RangeAndTopK) {
  const std::size_t dim = 24;
  Rng rng(9);
  auto data = ClusteredData(3, 10, dim, rng);
  FlatIndex index;
  ASSERT_TRUE(index.Build(data.data(), 30, dim).ok());
  EXPECT_EQ(index.size(), 30u);
  EXPECT_EQ(index.dim(), dim);

  std::vector<ScoredId> hits;
  index.RangeSearch(data.data(), 0.99f, &hits);
  ASSERT_FALSE(hits.empty());
  bool found_self = false;
  for (const auto& h : hits) found_self |= (h.id == 0);
  EXPECT_TRUE(found_self);

  auto top = index.TopK(data.data(), 5);
  ASSERT_EQ(top.size(), 5u);
  EXPECT_EQ(top[0].id, 0u);  // self is most similar
  for (std::size_t i = 1; i < top.size(); ++i) {
    EXPECT_LE(top[i].score, top[i - 1].score);
  }
}

struct IndexRecallCase {
  enum Kind { kIvf, kHnsw } kind;
  float threshold;
};

class IndexRecallTest
    : public ::testing::TestWithParam<IndexRecallCase> {};

TEST_P(IndexRecallTest, HighRecallNoFalsePositives) {
  const auto param = GetParam();
  const std::size_t dim = 48;
  Rng rng(31);
  auto data = ClusteredData(12, 40, dim, rng);
  const std::size_t n = 480;

  std::unique_ptr<VectorIndex> index;
  if (param.kind == IndexRecallCase::kHnsw) {
    index = std::make_unique<HnswIndex>();
  } else {
    IvfOptions o;
    o.num_centroids = 16;
    o.nprobe = 6;
    index = std::make_unique<IvfIndex>(o);
  }
  ASSERT_TRUE(index->Build(data.data(), n, dim).ok());

  FlatIndex exact;
  ASSERT_TRUE(exact.Build(data.data(), n, dim).ok());

  std::size_t exact_total = 0, approx_found = 0;
  const DotFn dot = GetDotKernel(KernelVariant::kUnrolled);
  for (std::size_t q = 0; q < 60; ++q) {
    const float* query = data.data() + q * 8 * dim;
    std::vector<ScoredId> truth, approx;
    exact.RangeSearch(query, param.threshold, &truth);
    index->RangeSearch(query, param.threshold, &approx);
    std::set<std::uint32_t> approx_ids;
    for (const auto& h : approx) {
      approx_ids.insert(h.id);
      // No false positives: every reported hit verifies exactly.
      EXPECT_GE(dot(query, data.data() + h.id * dim, dim),
                param.threshold - 1e-5f);
    }
    for (const auto& t : truth) {
      ++exact_total;
      if (approx_ids.count(t.id)) ++approx_found;
    }
  }
  ASSERT_GT(exact_total, 0u);
  const double recall =
      static_cast<double>(approx_found) / static_cast<double>(exact_total);
  EXPECT_GT(recall, 0.85) << "kind=" << static_cast<int>(param.kind);
}

INSTANTIATE_TEST_SUITE_P(
    Indexes, IndexRecallTest,
    ::testing::Values(IndexRecallCase{IndexRecallCase::kIvf, 0.85f},
                      IndexRecallCase{IndexRecallCase::kIvf, 0.9f},
                      IndexRecallCase{IndexRecallCase::kHnsw, 0.85f},
                      IndexRecallCase{IndexRecallCase::kHnsw, 0.9f}));

TEST(IvfIndexTest, EmptyBuild) {
  IvfIndex index;
  ASSERT_TRUE(index.Build(nullptr, 0, 8).ok());
  std::vector<ScoredId> hits;
  std::vector<float> q(8, 0.f);
  index.RangeSearch(q.data(), 0.5f, &hits);
  EXPECT_TRUE(hits.empty());
  EXPECT_TRUE(index.TopK(q.data(), 3).empty());
}

TEST(IvfIndexTest, FewerPointsThanCentroids) {
  IvfOptions o;
  o.num_centroids = 64;
  IvfIndex index(o);
  const std::size_t dim = 8;
  Rng rng(55);
  auto data = ClusteredData(2, 3, dim, rng);
  ASSERT_TRUE(index.Build(data.data(), 6, dim).ok());
  EXPECT_LE(index.num_centroids(), 6u);
  auto top = index.TopK(data.data(), 2);
  ASSERT_FALSE(top.empty());
  EXPECT_EQ(top[0].id, 0u);
}

TEST(IvfIndexTest, LargeBaseTrainsOnASampleAndAssignsEveryRow) {
  // 2000 rows over 16 centroids exceed the training budget, so k-means
  // runs on a sample and every row is assigned to the trained centroids
  // afterwards: each row then sits in its nearest list, which one probe
  // finds. A build pool must not change the index.
  IvfOptions o;
  o.num_centroids = 16;
  o.nprobe = 1;
  const std::size_t dim = 16;
  const std::size_t n = 2000;
  ASSERT_GT(n, o.num_centroids * IvfIndex::kTrainPointsPerCentroid);
  Rng rng(7);
  auto data = ClusteredData(20, 100, dim, rng);
  IvfIndex serial(o);
  ASSERT_TRUE(serial.Build(data.data(), n, dim).ok());
  for (std::size_t i = 0; i < n; ++i) {
    auto top = serial.TopK(data.data() + i * dim, 1);
    ASSERT_EQ(top.size(), 1u);
    EXPECT_EQ(top[0].id, i);
  }

  QueryScheduler scheduler(3);

  auto pool = scheduler.Admit();
  IvfIndex pooled(o, pool.get());
  ASSERT_TRUE(pooled.Build(data.data(), n, dim).ok());
  std::ostringstream serial_image, pooled_image;
  ASSERT_TRUE(serial.Save(serial_image).ok());
  ASSERT_TRUE(pooled.Save(pooled_image).ok());
  EXPECT_EQ(serial_image.str(), pooled_image.str());
}

TEST(VectorIndexTest, ZeroDimRejected) {
  FlatIndex flat;
  EXPECT_TRUE(flat.Build(nullptr, 0, 0).IsInvalidArgument());
  IvfIndex ivf;
  EXPECT_TRUE(ivf.Build(nullptr, 0, 0).IsInvalidArgument());
  HnswIndex hnsw;
  EXPECT_TRUE(hnsw.Build(nullptr, 0, 0).IsInvalidArgument());
}

// ---- uniform edge-case contract across the index families ----

std::vector<std::unique_ptr<VectorIndex>> AllIndexFamilies() {
  std::vector<std::unique_ptr<VectorIndex>> out;
  out.push_back(std::make_unique<FlatIndex>());
  out.push_back(std::make_unique<IvfIndex>());
  out.push_back(std::make_unique<HnswIndex>());
  return out;
}

TEST(VectorIndexEdgeTest, EmptyBuildSucceedsAndSearchesReturnNothing) {
  const std::size_t dim = 16;
  std::vector<float> q(dim, 0.f);
  q[0] = 1.f;
  for (auto& index : AllIndexFamilies()) {
    ASSERT_TRUE(index->Build(nullptr, 0, dim).ok()) << index->name();
    EXPECT_EQ(index->size(), 0u) << index->name();
    EXPECT_EQ(index->dim(), dim) << index->name();
    std::vector<ScoredId> hits;
    index->RangeSearch(q.data(), 0.0f, &hits);
    EXPECT_TRUE(hits.empty()) << index->name();
    EXPECT_TRUE(index->TopK(q.data(), 5).empty()) << index->name();
  }
}

TEST(VectorIndexEdgeTest, TopKLargerThanBaseReturnsAll) {
  const std::size_t dim = 24;
  Rng rng(17);
  auto data = ClusteredData(2, 5, dim, rng);
  const std::size_t n = 10;
  for (auto& index : AllIndexFamilies()) {
    ASSERT_TRUE(index->Build(data.data(), n, dim).ok()) << index->name();
    auto top = index->TopK(data.data(), 50);
    // Approximate families may miss candidates but must never exceed n;
    // graph/flat families must return the full base set.
    EXPECT_LE(top.size(), n) << index->name();
    if (index->name() == "flat" || index->name() == "hnsw") {
      EXPECT_EQ(top.size(), n) << index->name();
    } else {
      EXPECT_GE(top.size(), n / 2) << index->name();
    }
    for (std::size_t i = 1; i < top.size(); ++i) {
      EXPECT_LE(top[i].score, top[i - 1].score) << index->name();
    }
  }
}

TEST(VectorIndexEdgeTest, QueryDimMismatchIsInvalidArgument) {
  const std::size_t dim = 24;
  Rng rng(19);
  auto data = ClusteredData(2, 5, dim, rng);
  std::vector<float> q(dim + 8, 0.1f);
  for (auto& index : AllIndexFamilies()) {
    ASSERT_TRUE(index->Build(data.data(), 10, dim).ok()) << index->name();
    std::vector<ScoredId> hits;
    EXPECT_TRUE(index->RangeSearchChecked(q.data(), dim + 8, 0.5f, &hits)
                    .IsInvalidArgument())
        << index->name();
    EXPECT_TRUE(hits.empty()) << index->name();
    EXPECT_TRUE(
        index->TopKChecked(q.data(), dim - 1, 3).status().IsInvalidArgument())
        << index->name();
    // Matching dimension passes through to the raw search.
    auto ok = index->TopKChecked(data.data(), dim, 3);
    ASSERT_TRUE(ok.ok()) << index->name();
    EXPECT_FALSE(ok.ValueOrDie().empty()) << index->name();
  }
}

// ---- recall@k regression vs brute-force ground truth (fixed seeds) ----

TEST(IndexRecallAtKTest, ApproximateFamiliesTrackGroundTruth) {
  const std::size_t dim = 48;
  Rng rng(31);
  auto data = ClusteredData(12, 40, dim, rng);
  const std::size_t n = 480;
  const std::size_t k = 10;

  FlatIndex exact;
  ASSERT_TRUE(exact.Build(data.data(), n, dim).ok());

  struct Family {
    std::unique_ptr<VectorIndex> index;
    double min_recall;
  };
  std::vector<Family> families;
  {
    IvfOptions o;
    o.num_centroids = 16;
    o.nprobe = 6;
    families.push_back({std::make_unique<IvfIndex>(o), 0.85});
  }
  families.push_back({std::make_unique<HnswIndex>(), 0.95});

  for (auto& f : families) {
    ASSERT_TRUE(f.index->Build(data.data(), n, dim).ok());
    std::size_t found = 0, total = 0;
    for (std::size_t q = 0; q < 60; ++q) {
      const float* query = data.data() + q * 8 * dim;
      auto truth = exact.TopK(query, k);
      auto approx = f.index->TopK(query, k);
      std::set<std::uint32_t> approx_ids;
      for (const auto& h : approx) approx_ids.insert(h.id);
      for (const auto& t : truth) {
        ++total;
        if (approx_ids.count(t.id)) ++found;
      }
    }
    const double recall =
        static_cast<double>(found) / static_cast<double>(total);
    EXPECT_GE(recall, f.min_recall) << f.index->name();
  }
}

// ---- HNSW-specific behavior ----

TEST(HnswIndexTest, SelfQueryIsTopHit) {
  const std::size_t dim = 32;
  Rng rng(41);
  auto data = ClusteredData(6, 20, dim, rng);
  const std::size_t n = 120;
  HnswIndex index;
  ASSERT_TRUE(index.Build(data.data(), n, dim).ok());
  EXPECT_EQ(index.size(), n);
  EXPECT_GT(index.MemoryBytes(), n * dim * sizeof(float));
  for (std::size_t q = 0; q < n; q += 7) {
    auto top = index.TopK(data.data() + q * dim, 3);
    ASSERT_FALSE(top.empty());
    EXPECT_EQ(top[0].id, q);
  }
}

TEST(HnswIndexTest, RangeSearchHasNoFalsePositives) {
  const std::size_t dim = 32;
  Rng rng(43);
  auto data = ClusteredData(8, 24, dim, rng);
  const std::size_t n = 192;
  HnswIndex index;
  ASSERT_TRUE(index.Build(data.data(), n, dim).ok());
  const DotFn dot = GetDotKernel(KernelVariant::kUnrolled);
  for (std::size_t q = 0; q < 20; ++q) {
    const float* query = data.data() + q * 9 * dim;
    std::vector<ScoredId> hits;
    index.RangeSearch(query, 0.9f, &hits);
    std::set<std::uint32_t> seen;
    for (const auto& h : hits) {
      EXPECT_TRUE(seen.insert(h.id).second) << "duplicate id " << h.id;
      EXPECT_GE(dot(query, data.data() + h.id * dim, dim), 0.9f - 1e-5f);
    }
  }
}

TEST(HnswIndexTest, DeterministicAcrossRebuilds) {
  const std::size_t dim = 24;
  Rng rng(47);
  auto data = ClusteredData(4, 16, dim, rng);
  const std::size_t n = 64;
  HnswIndex a, b;
  ASSERT_TRUE(a.Build(data.data(), n, dim).ok());
  ASSERT_TRUE(b.Build(data.data(), n, dim).ok());
  for (std::size_t q = 0; q < n; q += 5) {
    auto ta = a.TopK(data.data() + q * dim, 5);
    auto tb = b.TopK(data.data() + q * dim, 5);
    ASSERT_EQ(ta.size(), tb.size());
    for (std::size_t i = 0; i < ta.size(); ++i) {
      EXPECT_EQ(ta[i].id, tb[i].id);
    }
  }
}

TEST(HnswIndexTest, ParallelBuildIdenticalToSerial) {
  // The canonical batched construction makes the graph a pure function
  // of (data, options): building with a worker pool of any size must
  // produce the byte-identical graph (checksum over levels, adjacency,
  // and entry point) and therefore identical search results. 3000 nodes
  // crosses the sequential bootstrap several times over, so the batched
  // phases really execute.
  const std::size_t dim = 32;
  Rng rng(53);
  auto data = ClusteredData(15, 200, dim, rng);
  const std::size_t n = 3000;

  HnswIndex serial;
  ASSERT_TRUE(serial.Build(data.data(), n, dim).ok());

  for (const std::size_t threads : {2ul, 4ul}) {
    QueryScheduler scheduler(threads);
    auto pool = scheduler.Admit();
    HnswOptions o;
    o.build_pool = pool.get();
    HnswIndex parallel(o);
    ASSERT_TRUE(parallel.Build(data.data(), n, dim).ok());
    EXPECT_EQ(serial.GraphChecksum(), parallel.GraphChecksum())
        << threads << " threads";
    EXPECT_EQ(serial.max_level(), parallel.max_level());
    EXPECT_EQ(serial.MemoryBytes(), parallel.MemoryBytes());
    for (std::size_t q = 0; q < n; q += 131) {
      auto ts = serial.TopK(data.data() + q * dim, 10);
      auto tp = parallel.TopK(data.data() + q * dim, 10);
      ASSERT_EQ(ts.size(), tp.size());
      for (std::size_t i = 0; i < ts.size(); ++i) {
        EXPECT_EQ(ts[i].id, tp[i].id);
      }
    }
    // Rebuilding with the same pool is deterministic too.
    HnswIndex again(o);
    ASSERT_TRUE(again.Build(data.data(), n, dim).ok());
    EXPECT_EQ(parallel.GraphChecksum(), again.GraphChecksum());
  }
}

TEST(HnswIndexTest, BatchedBuildKeepsRecallAboveSequentialBar) {
  // The frozen-snapshot batches miss intra-batch links; reverse edges
  // from later batches must keep recall@10 at the same bar the
  // sequential build is held to (0.95, IndexRecallAtKTest).
  const std::size_t dim = 48;
  Rng rng(59);
  auto data = ClusteredData(20, 150, dim, rng);
  const std::size_t n = 3000;
  const std::size_t k = 10;

  FlatIndex exact;
  ASSERT_TRUE(exact.Build(data.data(), n, dim).ok());
  HnswIndex hnsw;
  ASSERT_TRUE(hnsw.Build(data.data(), n, dim).ok());

  std::size_t found = 0, total = 0;
  for (std::size_t q = 0; q < 80; ++q) {
    const float* query = data.data() + q * 37 * dim;
    auto truth = exact.TopK(query, k);
    auto approx = hnsw.TopK(query, k);
    std::set<std::uint32_t> ids;
    for (const auto& h : approx) ids.insert(h.id);
    for (const auto& t : truth) {
      ++total;
      if (ids.count(t.id)) ++found;
    }
  }
  const double recall =
      static_cast<double>(found) / static_cast<double>(total);
  EXPECT_GE(recall, 0.95) << "recall@10 over batched build: " << recall;
}

TEST(HnswIndexTest, RejectsDegenerateM) {
  std::vector<float> v(8, 0.5f);
  for (const std::size_t m : {0u, 1u}) {
    HnswOptions o;
    o.M = m;
    HnswIndex index(o);
    EXPECT_TRUE(index.Build(v.data(), 1, 8).IsInvalidArgument()) << m;
  }
}

TEST(HnswIndexTest, SingleElement) {
  const std::size_t dim = 8;
  std::vector<float> v(dim, 0.f);
  v[0] = 1.f;
  HnswIndex index;
  ASSERT_TRUE(index.Build(v.data(), 1, dim).ok());
  auto top = index.TopK(v.data(), 4);
  ASSERT_EQ(top.size(), 1u);
  EXPECT_EQ(top[0].id, 0u);
  EXPECT_NEAR(top[0].score, 1.f, 1e-5f);
  std::vector<ScoredId> hits;
  index.RangeSearch(v.data(), 0.5f, &hits);
  ASSERT_EQ(hits.size(), 1u);
}

TEST(HnswIndexTest, RangeSearchMatchesFlatOnHashEmbeddings) {
  // The serving shape: ~10k distinct vocabulary words under the subword
  // hash model, probed by vocabulary words and misspellings. At this size
  // the 16-wide seed beam covers a small part of the graph, so seeding
  // the flood fill from it alone shows up as lost recall at the low
  // threshold, where the band is wide and flat: without widening when
  // half the seed beam is in the band, 0.4 reads 0.9895 on int8. The
  // unreachable threshold sends every probe down the widened path, which
  // must still report nothing. Recall is against fp32 ground truth for
  // both codecs.
  VocabularyOptions vo;
  vo.num_groups = 1000;
  vo.num_singletons = 6300;
  const std::vector<std::string> all = AllWords(GenerateVocabulary(vo));
  const std::set<std::string> distinct(all.begin(), all.end());
  const std::vector<std::string> words(distinct.begin(), distinct.end());
  ASSERT_GE(words.size(), 10000u);
  const HashEmbeddingModel model;
  const std::size_t dim = model.dim();
  std::vector<float> data(words.size() * dim);
  model.EmbedBatch(words, data.data());

  Rng rng(71);
  std::vector<std::string> queries;
  for (std::size_t q = 0; q < 320; ++q) {
    std::string w = words[rng.Uniform(words.size())];
    if (q % 5 == 0) w = Misspell(w, rng);
    queries.push_back(std::move(w));
  }
  std::vector<float> qvecs(queries.size() * dim);
  model.EmbedBatch(queries, qvecs.data());

  // truth[t][q]: the exact fp32 hits of query q at thresholds[t].
  const float thresholds[] = {0.4f, 0.5f, 0.75f};
  constexpr float kUnreachable = 1.25f;
  FlatIndex exact;
  ASSERT_TRUE(exact.Build(data.data(), words.size(), dim).ok());
  std::vector<std::vector<ScoredId>> truth[3];
  for (int t = 0; t < 3; ++t) {
    truth[t].resize(queries.size());
    std::size_t total = 0;
    for (std::size_t q = 0; q < queries.size(); ++q) {
      exact.RangeSearch(qvecs.data() + q * dim, thresholds[t], &truth[t][q]);
      total += truth[t][q].size();
    }
    ASSERT_GT(total, queries.size() / 2) << thresholds[t];
  }

  QueryScheduler scheduler(4);

  auto pool = scheduler.Admit();
  std::vector<float> decoded(dim);
  for (const VectorCodecKind codec :
       {VectorCodecKind::kFp32, VectorCodecKind::kInt8}) {
    // A hit is false when its exact fp32 score over the row the index
    // stores (for int8, the decoded row) is below the threshold.
    VectorStore stored;
    stored.Reset(codec, dim);
    stored.Append(data.data(), words.size());
    HnswOptions o;
    o.quant.codec = codec;
    o.build_pool = pool.get();
    HnswIndex hnsw(o);
    ASSERT_TRUE(hnsw.Build(data.data(), words.size(), dim).ok());
    std::vector<ScoredId> hits;
    for (int t = 0; t < 3; ++t) {
      std::size_t truth_total = 0, found = 0;
      for (std::size_t q = 0; q < queries.size(); ++q) {
        const float* query = qvecs.data() + q * dim;
        hits.clear();
        hnsw.RangeSearch(query, thresholds[t], &hits);
        std::set<std::uint32_t> ids;
        for (const ScoredId& h : hits) {
          EXPECT_TRUE(ids.insert(h.id).second) << "duplicate id " << h.id;
          EXPECT_GE(stored.RescoreOne(query, h.id, decoded.data()),
                    thresholds[t] - 1e-5f)
              << VectorCodecName(codec) << " false positive " << words[h.id]
              << " for " << queries[q];
        }
        truth_total += truth[t][q].size();
        for (const ScoredId& h : truth[t][q]) found += ids.count(h.id);
      }
      EXPECT_GE(static_cast<double>(found) / truth_total, 0.99)
          << VectorCodecName(codec) << " @ " << thresholds[t] << ": "
          << found << " of " << truth_total;
    }
    // Unit vectors never reach the unreachable threshold.
    for (std::size_t q = 0; q < queries.size(); ++q) {
      hits.clear();
      hnsw.RangeSearch(qvecs.data() + q * dim, kUnreachable, &hits);
      EXPECT_TRUE(hits.empty()) << VectorCodecName(codec) << " " << queries[q];
    }
  }
}

TEST(HnswIndexTest, ConcurrentSearchesOfTwoGraphsMatchSerial) {
  // Every thread keeps one set of visited marks for all the indexes it
  // searches. Threads that interleave a small and a large graph must grow
  // their marks to the larger one and get exactly the serial answers.
  const std::size_t dim = 32;
  Rng rng(73);
  const std::vector<float> small_data = ClusteredData(4, 50, dim, rng);
  const std::vector<float> large_data = ClusteredData(20, 100, dim, rng);
  HnswIndex small_index, large_index;
  ASSERT_TRUE(small_index.Build(small_data.data(), 200, dim).ok());
  ASSERT_TRUE(large_index.Build(large_data.data(), 2000, dim).ok());
  const HnswIndex* indexes[2] = {&small_index, &large_index};
  const float* queries = large_data.data();
  const std::size_t num_queries = 40;
  const float threshold = 0.85f;

  // ref[i][q]: range hits then top-10 of query q on index i, run serially.
  auto answer = [&](const HnswIndex& index, std::size_t q) {
    const float* query = queries + q * 47 * dim;
    std::vector<ScoredId> out;
    index.RangeSearch(query, threshold, &out);
    for (const ScoredId& h : index.TopK(query, 10)) out.push_back(h);
    return out;
  };
  auto same = [](const std::vector<ScoredId>& a,
                 const std::vector<ScoredId>& b) {
    return a.size() == b.size() &&
           std::equal(a.begin(), a.end(), b.begin(),
                      [](const ScoredId& x, const ScoredId& y) {
                        return x.id == y.id && x.score == y.score;
                      });
  };
  std::vector<std::vector<ScoredId>> ref[2];
  std::size_t range_hits = 0;
  for (int i = 0; i < 2; ++i) {
    for (std::size_t q = 0; q < num_queries; ++q) {
      ref[i].push_back(answer(*indexes[i], q));
      range_hits += ref[i].back().size();
    }
  }
  ASSERT_GT(range_hits, 0u);

  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      for (int round = 0; round < 3; ++round) {
        for (std::size_t j = 0; j < num_queries; ++j) {
          const std::size_t q = (j + static_cast<std::size_t>(t) * 7) %
                                num_queries;
          // Odd threads start on the large graph, even ones on the small.
          for (int k = 0; k < 2; ++k) {
            const int i = (k + t) % 2;
            if (!same(answer(*indexes[i], q), ref[i][q])) ++mismatches;
          }
        }
      }
    });
  }
  for (std::thread& th : threads) th.join();
  EXPECT_EQ(mismatches.load(), 0);
}

}  // namespace
}  // namespace cre
