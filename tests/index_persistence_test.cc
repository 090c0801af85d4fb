// Incremental index maintenance + on-disk persistence coverage:
//
//  - Catalog append deltas: AppendedSince chains across appends, breaks
//    on destructive Put/Drop.
//  - Save->Load round trips for all four index families, byte-identical
//    search results (ids and scores).
//  - HnswIndex::Add: deterministic incremental inserts, recall parity
//    with a fresh full build.
//  - IndexManager refresh: append-only staleness renews in place (no
//    rebuild), destructive staleness still rebuilds; byte accounting
//    follows refresh growth; TSan-clean under concurrent queries; async
//    refreshes run on the background runner.
//  - Persistence: a fresh manager over the same persist_dir warm-starts
//    from disk with zero builds; truncated/corrupt images, version-1
//    wrapper images, images whose inner index does not hold one entry
//    per distinct value and content-mismatched (stale) images are
//    rejected and fall back to a clean rebuild — a stale index is never
//    served; an appended-to image loads like a cold build of the same
//    column; eviction degrades a key to on-disk, not absent.
//  - Lookup parity: every lifecycle step (build, hit, refresh, rebuild,
//    image reclaim, refresh fault, disk load) counts and answers alike
//    through GetOrBuild and GetOrBuildAsync; concurrent blocking lookups
//    of one stale key refresh once.
//  - Cooperative cancellation inside HNSW construction and semantic-join
//    probe loops, with a bounded-latency check on a large cold build.
//  - Engine end to end: first post-"restart" EXPLAIN shows (on-disk),
//    the select is served from the image without a rebuild, and the next
//    EXPLAIN shows (resident).

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/cancel.h"
#include "core/fault_injection.h"
#include "core/rng.h"
#include "core/task_runner.h"
#include "core/timer.h"
#include "datagen/vocabulary.h"
#include "embed/hash_embedding_model.h"
#include "engine/engine.h"
#include "engine/scheduler.h"
#include "exec/scan.h"
#include "index/index_manager.h"
#include "semantic/semantic_join.h"
#include "storage/catalog.h"
#include "vecsim/brute_force.h"
#include "vecsim/hnsw_index.h"
#include "vecsim/ivf_index.h"
#include "vecsim/ivfpq_index.h"
#include "vecsim/kernels.h"

namespace cre {
namespace {

TablePtr MakeStringTable(const std::vector<std::string>& words,
                         const std::string& column = "name") {
  Schema schema;
  schema.AddField({column, DataType::kString, 0});
  auto table = Table::Make(schema);
  for (const auto& w : words) {
    table->AppendRow({Value(w)}).Check();
  }
  return table;
}

std::vector<std::string> Words(std::size_t n, const std::string& prefix,
                               std::size_t distinct = 0) {
  if (distinct == 0) distinct = n;
  std::vector<std::string> words;
  words.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    words.push_back(prefix + std::to_string(i % distinct));
  }
  return words;
}

EmbeddingModelPtr MakeModel(std::size_t dim = 32) {
  HashEmbeddingModel::Options o;
  o.dim = dim;
  return std::make_shared<HashEmbeddingModel>(o);
}

std::vector<float> RandomUnitVectors(std::size_t n, std::size_t dim,
                                     std::uint64_t seed) {
  Rng rng(seed);
  std::vector<float> data(n * dim);
  for (auto& x : data) x = static_cast<float>(rng.NextGaussian());
  for (std::size_t i = 0; i < n; ++i) {
    NormalizeInPlace(data.data() + i * dim, dim);
  }
  return data;
}

std::string FreshTempDir(const std::string& tag) {
  const std::string dir =
      (std::filesystem::temp_directory_path() /
       ("cre_idx_test_" + tag + "_" + std::to_string(::getpid())))
          .string();
  std::filesystem::remove_all(dir);
  return dir;
}

/// Cleans a temp persist dir at scope exit so test runs don't litter.
struct DirGuard {
  explicit DirGuard(std::string path) : path(std::move(path)) {}
  ~DirGuard() {
    std::error_code ec;
    std::filesystem::remove_all(path, ec);
  }
  std::string path;
};

struct Fixture {
  Catalog catalog;
  ModelRegistry models;

  Fixture() { models.Put("m", MakeModel()); }

  IndexManager MakeManager(IndexManagerOptions options = {}) {
    return IndexManager(&catalog, &models, options);
  }
};

// ---- catalog append deltas ----

TEST(CatalogAppendTest, AppendedSinceWalksTheChain) {
  Catalog catalog;
  catalog.Put("t", MakeStringTable(Words(10, "a_")));
  const std::uint64_t v1 = catalog.Version("t");

  ASSERT_TRUE(catalog.Append("t", *MakeStringTable(Words(5, "b_"))).ok());
  const std::uint64_t v2 = catalog.Version("t");
  ASSERT_TRUE(catalog.Append("t", *MakeStringTable(Words(3, "c_"))).ok());
  const std::uint64_t v3 = catalog.Version("t");
  EXPECT_EQ(catalog.Get("t").ValueOrDie()->num_rows(), 18u);

  auto from_v1 = catalog.AppendedSince("t", v1);
  ASSERT_TRUE(from_v1.ok()) << from_v1.status().ToString();
  EXPECT_EQ(from_v1.ValueOrDie().prefix_rows, 10u);
  EXPECT_EQ(from_v1.ValueOrDie().to_version, v3);
  EXPECT_EQ(from_v1.ValueOrDie().table->num_rows(), 18u);

  auto from_v2 = catalog.AppendedSince("t", v2);
  ASSERT_TRUE(from_v2.ok());
  EXPECT_EQ(from_v2.ValueOrDie().prefix_rows, 15u);

  // No mutation since v3: the empty chain is valid, nothing appended.
  auto from_v3 = catalog.AppendedSince("t", v3);
  ASSERT_TRUE(from_v3.ok());
  EXPECT_EQ(from_v3.ValueOrDie().prefix_rows, 18u);

  // A destructive Put breaks every chain through it.
  catalog.Put("t", MakeStringTable(Words(18, "x_")));
  EXPECT_FALSE(catalog.AppendedSince("t", v1).ok());
  EXPECT_FALSE(catalog.AppendedSince("t", v3).ok());

  // ...but appends after the Put chain from the new version.
  const std::uint64_t v4 = catalog.Version("t");
  ASSERT_TRUE(catalog.Append("t", *MakeStringTable(Words(2, "y_"))).ok());
  auto from_v4 = catalog.AppendedSince("t", v4);
  ASSERT_TRUE(from_v4.ok());
  EXPECT_EQ(from_v4.ValueOrDie().prefix_rows, 18u);
}

TEST(CatalogAppendTest, AppendRejectsSchemaMismatch) {
  Catalog catalog;
  catalog.Put("t", MakeStringTable(Words(4, "a_")));
  Schema other;
  other.AddField({"price", DataType::kFloat64, 0});
  auto bad = Table::Make(other);
  bad->AppendRow({Value(1.0)}).Check();
  const std::uint64_t version = catalog.Version("t");
  const TablePtr before = catalog.Get("t").ValueOrDie();
  EXPECT_FALSE(catalog.Append("t", *bad).ok());
  EXPECT_FALSE(catalog.Append("missing", *bad).ok());

  // The rejection publishes nothing: same stamp, same rows.
  EXPECT_EQ(catalog.Version("t"), version);
  const TablePtr after = catalog.Get("t").ValueOrDie();
  EXPECT_EQ(after.get(), before.get());
  EXPECT_EQ(after->column(0).strings(), Span<std::string>(Words(4, "a_")));

  // A following valid append still extends the table.
  auto good = catalog.Append("t", *MakeStringTable(Words(2, "b_")));
  ASSERT_TRUE(good.ok());
  EXPECT_GT(catalog.Version("t"), version);
  const TablePtr grown = catalog.Get("t").ValueOrDie();
  ASSERT_EQ(grown->num_rows(), 6u);
  EXPECT_EQ(grown->column(0).strings()[3], "a_3");
  EXPECT_EQ(grown->column(0).strings()[5], "b_1");
  EXPECT_EQ(before->num_rows(), 4u);
}

// ---- per-family Save/Load round trips ----

std::unique_ptr<VectorIndex> MakeFamily(SemanticJoinStrategy kind) {
  switch (kind) {
    case SemanticJoinStrategy::kIvfPq:
      return std::make_unique<IvfPqIndex>();
    case SemanticJoinStrategy::kIvf: {
      IvfOptions o;
      o.num_centroids = 16;
      return std::make_unique<IvfIndex>(o);
    }
    case SemanticJoinStrategy::kHnsw: {
      HnswOptions o;
      o.build_bootstrap = 64;
      return std::make_unique<HnswIndex>(o);
    }
    default:
      return std::make_unique<FlatIndex>();
  }
}

class FamilyRoundTripTest
    : public ::testing::TestWithParam<SemanticJoinStrategy> {};

TEST_P(FamilyRoundTripTest, SaveLoadIsByteIdenticalForSearch) {
  const std::size_t n = 600, dim = 24;
  const auto data = RandomUnitVectors(n, dim, 17);
  auto original = MakeFamily(GetParam());
  ASSERT_TRUE(original->Build(data.data(), n, dim).ok());

  std::stringstream buffer(std::ios::in | std::ios::out | std::ios::binary);
  ASSERT_TRUE(original->Save(buffer).ok()) << original->name();
  auto loaded = MakeFamily(GetParam());
  ASSERT_TRUE(loaded->Load(buffer).ok()) << loaded->name();

  EXPECT_EQ(loaded->size(), original->size());
  EXPECT_EQ(loaded->dim(), original->dim());
  EXPECT_EQ(loaded->MemoryBytes(), original->MemoryBytes());

  const auto queries = RandomUnitVectors(20, dim, 99);
  for (std::size_t q = 0; q < 20; ++q) {
    const float* qv = queries.data() + q * dim;
    const auto a = original->TopK(qv, 10);
    const auto b = loaded->TopK(qv, 10);
    ASSERT_EQ(a.size(), b.size()) << original->name();
    for (std::size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a[i].id, b[i].id) << original->name();
      EXPECT_EQ(a[i].score, b[i].score) << original->name();
    }
    std::vector<ScoredId> ra, rb;
    original->RangeSearch(qv, 0.4f, &ra);
    loaded->RangeSearch(qv, 0.4f, &rb);
    ASSERT_EQ(ra.size(), rb.size()) << original->name();
    for (std::size_t i = 0; i < ra.size(); ++i) {
      EXPECT_EQ(ra[i].id, rb[i].id) << original->name();
      EXPECT_EQ(ra[i].score, rb[i].score) << original->name();
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllFamilies, FamilyRoundTripTest,
                         ::testing::Values(SemanticJoinStrategy::kBruteForce,
                                           SemanticJoinStrategy::kIvf,
                                           SemanticJoinStrategy::kHnsw,
                                           SemanticJoinStrategy::kIvfPq));

TEST(FamilyRoundTripTest, TruncatedStreamIsRejectedNotMisread) {
  const std::size_t n = 300, dim = 16;
  const auto data = RandomUnitVectors(n, dim, 3);
  HnswIndex original;
  ASSERT_TRUE(original.Build(data.data(), n, dim).ok());
  std::stringstream buffer(std::ios::in | std::ios::out | std::ios::binary);
  ASSERT_TRUE(original.Save(buffer).ok());
  const std::string bytes = buffer.str();
  for (const std::size_t cut :
       {bytes.size() / 7, bytes.size() / 2, bytes.size() - 3}) {
    std::stringstream cut_stream(bytes.substr(0, cut),
                                 std::ios::in | std::ios::binary);
    HnswIndex reloaded;
    EXPECT_FALSE(reloaded.Load(cut_stream).ok()) << "cut at " << cut;
  }
  // Foreign magic is rejected too.
  std::stringstream foreign(std::string(64, 'z'), std::ios::in);
  HnswIndex reloaded;
  EXPECT_FALSE(reloaded.Load(foreign).ok());
}

// ---- HNSW incremental Add ----

TEST(HnswIncrementalTest, AddIsDeterministic) {
  const std::size_t n = 900, extra = 120, dim = 24;
  const auto base = RandomUnitVectors(n, dim, 7);
  const auto appended = RandomUnitVectors(extra, dim, 8);
  HnswOptions o;
  o.build_bootstrap = 128;

  auto grow = [&](HnswIndex* index) {
    index->Build(base.data(), n, dim).Check();
    index->Add(appended.data(), extra, dim).Check();
  };
  HnswIndex a(o), b(o);
  grow(&a);
  grow(&b);
  EXPECT_EQ(a.size(), n + extra);
  EXPECT_EQ(a.GraphChecksum(), b.GraphChecksum());
}

TEST(HnswIncrementalTest, AddKeepsRecallAgainstFullRebuild) {
  const std::size_t n = 1600, extra = 160, dim = 24;
  auto all = RandomUnitVectors(n + extra, dim, 21);
  HnswOptions o;
  o.build_bootstrap = 128;

  HnswIndex incremental(o);
  incremental.Build(all.data(), n, dim).Check();
  incremental.Add(all.data() + n * dim, extra, dim).Check();

  FlatIndex exact;
  exact.Build(all.data(), n + extra, dim).Check();

  const std::size_t k = 10, num_queries = 40;
  const auto queries = RandomUnitVectors(num_queries, dim, 77);
  std::size_t found = 0;
  for (std::size_t q = 0; q < num_queries; ++q) {
    const float* qv = queries.data() + q * dim;
    const auto truth = exact.TopK(qv, k);
    const auto got = incremental.TopK(qv, k);
    for (const auto& t : truth) {
      for (const auto& g : got) {
        if (g.id == t.id) {
          ++found;
          break;
        }
      }
    }
  }
  const double recall =
      static_cast<double>(found) / static_cast<double>(k * num_queries);
  EXPECT_GE(recall, 0.95) << "incremental recall@10: " << recall;
}

TEST(HnswIncrementalTest, SaveLoadThenAddMatchesUninterruptedGrowth) {
  const std::size_t n = 700, extra = 90, dim = 16;
  const auto base = RandomUnitVectors(n, dim, 31);
  const auto appended = RandomUnitVectors(extra, dim, 32);
  HnswOptions o;
  o.build_bootstrap = 64;

  HnswIndex uninterrupted(o);
  uninterrupted.Build(base.data(), n, dim).Check();
  uninterrupted.Add(appended.data(), extra, dim).Check();

  HnswIndex saved(o);
  saved.Build(base.data(), n, dim).Check();
  std::stringstream buffer(std::ios::in | std::ios::out | std::ios::binary);
  ASSERT_TRUE(saved.Save(buffer).ok());
  HnswIndex reloaded;
  ASSERT_TRUE(reloaded.Load(buffer).ok());
  // The level RNG stream fast-forwards on Load, so growth after a
  // save/load cycle is indistinguishable from uninterrupted growth.
  reloaded.Add(appended.data(), extra, dim).Check();
  EXPECT_EQ(reloaded.GraphChecksum(), uninterrupted.GraphChecksum());
}

TEST(HnswIncrementalTest, AddIsPoolIndependent) {
  // Add runs Build's batched schedule, and the pool only decides how the
  // batch's searches and link re-selections are scheduled: the grown
  // graph is the same with no pool and with any pool size. Two Adds
  // cover a multi-batch append (256 > the first batch) and a small one.
  const std::size_t n = 900, extra = 300, more = 40, dim = 24;
  const auto base = RandomUnitVectors(n, dim, 41);
  const auto appended = RandomUnitVectors(extra + more, dim, 42);
  auto grow = [&](TaskRunner* pool) {
    HnswOptions o;
    o.build_bootstrap = 128;
    o.build_pool = pool;
    HnswIndex index(o);
    index.Build(base.data(), n, dim).Check();
    index.Add(appended.data(), extra, dim).Check();
    index.Add(appended.data() + extra * dim, more, dim).Check();
    EXPECT_EQ(index.size(), n + extra + more);
    return index.GraphChecksum();
  };
  const std::uint64_t serial = grow(nullptr);
  for (const std::size_t threads : {1, 2, 4}) {
    QueryScheduler scheduler(threads);
    auto pool = scheduler.Admit();
    EXPECT_EQ(grow(pool.get()), serial) << threads << " threads";
  }
}

TEST(HnswIncrementalTest, RepeatedAddsKeepRangeRecall) {
  // The refresh shape: a vocabulary graph grown by many small Adds of
  // unseen words (misspellings that land inside existing neighborhoods
  // and fresh words that do not), probed by range searches. Each Add is
  // one batch planned against a frozen graph, so repeated Adds must not
  // erode the graph's reachability: recall stays at the build's level
  // and every hit is exact.
  VocabularyOptions vo;
  vo.num_groups = 250;
  vo.num_singletons = 2200;
  vo.seed = 17;
  const std::vector<std::string> all = AllWords(GenerateVocabulary(vo));
  std::set<std::string> seen(all.begin(), all.end());
  std::vector<std::string> words(seen.begin(), seen.end());
  ASSERT_GE(words.size(), 3000u);
  const std::size_t base_count = words.size();

  constexpr std::size_t kAdds = 16, kPerAdd = 30;
  Rng rng(23);
  while (words.size() < base_count + kAdds * kPerAdd) {
    std::string w = words.size() % 2 == 0
                        ? Misspell(words[rng.Uniform(base_count)], rng)
                        : RandomWord(rng, 11, 14);
    if (seen.insert(w).second) words.push_back(std::move(w));
  }
  const HashEmbeddingModel model;
  const std::size_t dim = model.dim();
  std::vector<float> data(words.size() * dim);
  model.EmbedBatch(words, data.data());

  std::vector<std::string> queries;
  for (std::size_t q = 0; q < 240; ++q) {
    std::string w = words[rng.Uniform(words.size())];
    if (q % 4 == 0) w = Misspell(w, rng);
    queries.push_back(std::move(w));
  }
  std::vector<float> qvecs(queries.size() * dim);
  model.EmbedBatch(queries, qvecs.data());

  // truth[t][q]: the exact fp32 hits of query q at thresholds[t].
  const float thresholds[] = {0.5f, 0.75f};
  FlatIndex exact;
  ASSERT_TRUE(exact.Build(data.data(), words.size(), dim).ok());
  std::vector<std::vector<ScoredId>> truth[2];
  for (int t = 0; t < 2; ++t) {
    truth[t].resize(queries.size());
    std::size_t total = 0;
    for (std::size_t q = 0; q < queries.size(); ++q) {
      exact.RangeSearch(qvecs.data() + q * dim, thresholds[t], &truth[t][q]);
      total += truth[t][q].size();
    }
    ASSERT_GT(total, queries.size() / 2) << thresholds[t];
  }

  QueryScheduler scheduler(2);
  auto pool = scheduler.Admit();
  std::vector<float> decoded(dim);
  for (const VectorCodecKind codec :
       {VectorCodecKind::kFp32, VectorCodecKind::kInt8}) {
    VectorStore stored;
    stored.Reset(codec, dim);
    stored.Append(data.data(), words.size());
    HnswOptions o;
    o.quant.codec = codec;
    o.build_pool = pool.get();
    HnswIndex hnsw(o);
    ASSERT_TRUE(hnsw.Build(data.data(), base_count, dim).ok());
    for (std::size_t a = 0; a < kAdds; ++a) {
      const std::size_t first = base_count + a * kPerAdd;
      ASSERT_TRUE(hnsw.Add(data.data() + first * dim, kPerAdd, dim).ok());
    }
    ASSERT_EQ(hnsw.size(), words.size());

    std::vector<ScoredId> hits;
    for (int t = 0; t < 2; ++t) {
      const float threshold = thresholds[t];
      std::size_t truth_total = 0, found = 0;
      for (std::size_t q = 0; q < queries.size(); ++q) {
        const float* query = qvecs.data() + q * dim;
        hits.clear();
        hnsw.RangeSearch(query, threshold, &hits);
        std::set<std::uint32_t> ids;
        for (const ScoredId& h : hits) {
          ids.insert(h.id);
          // A hit is false when its exact fp32 score over the row the
          // index stores (for int8, the decoded row) is below threshold.
          EXPECT_GE(stored.RescoreOne(query, h.id, decoded.data()),
                    threshold - 1e-5f)
              << VectorCodecName(codec) << " false positive " << words[h.id]
              << " for " << queries[q];
        }
        truth_total += truth[t][q].size();
        for (const ScoredId& h : truth[t][q]) found += ids.count(h.id);
      }
      EXPECT_GE(static_cast<double>(found) / truth_total, 0.99)
          << VectorCodecName(codec) << " @ " << threshold << ": " << found
          << " of " << truth_total;
    }
  }
}

// ---- cooperative cancellation ----

TEST(CancelLatencyTest, HnswBuildCancelsWithBoundedLatency) {
  const std::size_t n = 6000, dim = 32;
  const auto data = RandomUnitVectors(n, dim, 11);

  HnswIndex reference;
  Timer full_timer;
  reference.Build(data.data(), n, dim).Check();
  const double full_seconds = full_timer.Seconds();

  // Pre-cancelled: construction aborts within the first poll stride.
  CancelFlag pre;
  pre.Cancel();
  HnswOptions po;
  po.cancel = &pre;
  HnswIndex never(po);
  Timer pre_timer;
  EXPECT_TRUE(never.Build(data.data(), n, dim).IsCancelled());
  EXPECT_LT(pre_timer.Seconds(), full_seconds);

  // Mid-flight: cancel shortly after the build starts; it must unwind
  // well before the uncancelled build time (one batch, not the tail).
  CancelFlag mid;
  HnswOptions mo;
  mo.cancel = &mid;
  HnswIndex aborted(mo);
  std::thread canceller([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(15));
    mid.Cancel();
  });
  Timer mid_timer;
  const Status status = aborted.Build(data.data(), n, dim);
  const double cancelled_seconds = mid_timer.Seconds();
  canceller.join();
  EXPECT_TRUE(status.IsCancelled()) << status.ToString();
  EXPECT_LT(cancelled_seconds, full_seconds * 0.75)
      << "cancel latency " << cancelled_seconds << "s vs full build "
      << full_seconds << "s";
}

TEST(CancelLatencyTest, SemanticJoinProbeLoopPollsTheFlag) {
  auto model = MakeModel();
  for (const auto strategy :
       {SemanticJoinStrategy::kBruteForce, SemanticJoinStrategy::kHnsw}) {
    CancelFlag flag;
    SemanticJoinOptions options;
    options.threshold = 0.5f;
    options.strategy = strategy;
    options.cancel = &flag;
    auto op = std::make_unique<SemanticJoinOperator>(
        std::make_unique<TableScanOperator>(
            MakeStringTable(Words(500, "left_"))),
        std::make_unique<TableScanOperator>(
            MakeStringTable(Words(400, "right_"))),
        "name", "name", model, std::move(options));
    ASSERT_TRUE(op->Open().ok());
    // Open built the right side; the flag flips before the probe loop
    // runs, so the very first Next() must unwind with Cancelled instead
    // of probing 500x400 pairs.
    flag.Cancel();
    auto batch = op->Next();
    EXPECT_TRUE(batch.status().IsCancelled())
        << SemanticJoinStrategyName(strategy) << ": "
        << batch.status().ToString();
  }
}

// ---- IndexManager incremental refresh ----

TEST(IncrementalRefreshTest, AppendRefreshesInsteadOfRebuilding) {
  Fixture f;
  f.catalog.Put("t", MakeStringTable(Words(1200, "a_", 300)));
  IndexManager manager = f.MakeManager();
  IndexKey key{"t", "name", "m", SemanticJoinStrategy::kHnsw};

  auto first = manager.GetOrBuild(key);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_EQ(first.ValueOrDie()->size(), 1200u);

  ASSERT_TRUE(
      f.catalog.Append("t", *MakeStringTable(Words(120, "b_", 30))).ok());
  EXPECT_FALSE(manager.IsResident(key));

  auto second = manager.GetOrBuild(key);
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  EXPECT_EQ(second.ValueOrDie()->size(), 1320u);
  // Copy-on-write: the first handle still serves the old row count.
  EXPECT_EQ(first.ValueOrDie()->size(), 1200u);

  const auto stats = manager.stats();
  EXPECT_EQ(stats.builds, 1u) << "append must not trigger a rebuild";
  EXPECT_EQ(stats.refreshes, 1u);
  EXPECT_EQ(stats.invalidations, 0u);
  EXPECT_TRUE(manager.IsResident(key));

  // Chained appends keep refreshing.
  ASSERT_TRUE(
      f.catalog.Append("t", *MakeStringTable(Words(60, "c_", 10))).ok());
  ASSERT_TRUE(
      f.catalog.Append("t", *MakeStringTable(Words(40, "d_", 10))).ok());
  auto third = manager.GetOrBuild(key);
  ASSERT_TRUE(third.ok());
  EXPECT_EQ(third.ValueOrDie()->size(), 1420u);
  EXPECT_EQ(manager.stats().builds, 1u);
  EXPECT_EQ(manager.stats().refreshes, 2u);
}

TEST(IncrementalRefreshTest, DestructivePutStillRebuilds) {
  Fixture f;
  f.catalog.Put("t", MakeStringTable(Words(400, "a_")));
  IndexManager manager = f.MakeManager();
  IndexKey key{"t", "name", "m", SemanticJoinStrategy::kHnsw};
  ASSERT_TRUE(manager.GetOrBuild(key).ok());

  f.catalog.Put("t", MakeStringTable(Words(400, "z_")));
  auto rebuilt = manager.GetOrBuild(key);
  ASSERT_TRUE(rebuilt.ok());
  const auto stats = manager.stats();
  EXPECT_EQ(stats.builds, 2u);
  EXPECT_EQ(stats.refreshes, 0u);
  EXPECT_EQ(stats.invalidations, 1u);
}

TEST(IncrementalRefreshTest, RefreshedIndexKeepsRecallAgainstRebuild) {
  Fixture f;
  const std::size_t rows = 1200, appended = 120;
  f.catalog.Put("t", MakeStringTable(Words(rows, "word_")));
  IndexManager manager = f.MakeManager();
  IndexKey key{"t", "name", "m", SemanticJoinStrategy::kHnsw};
  ASSERT_TRUE(manager.GetOrBuild(key).ok());
  ASSERT_TRUE(
      f.catalog.Append("t", *MakeStringTable(Words(appended, "fresh_")))
          .ok());

  auto refreshed_result = manager.GetOrBuild(key);
  ASSERT_TRUE(refreshed_result.ok());
  const auto refreshed = refreshed_result.ValueOrDie();

  // Exact ground truth over the full appended column.
  auto model = f.models.Get("m").ValueOrDie();
  const std::size_t dim = model->dim();
  const auto words_table = f.catalog.Get("t").ValueOrDie();
  const auto& words = words_table->ColumnByName("name").ValueOrDie()->strings();
  std::vector<float> matrix(words.size() * dim);
  model->EmbedBatch(words, matrix.data());
  FlatIndex exact;
  exact.Build(matrix.data(), words.size(), dim).Check();

  const std::size_t k = 10, num_queries = 40;
  std::size_t found = 0;
  for (std::size_t q = 0; q < num_queries; ++q) {
    // Mix of original and appended query points.
    const std::size_t row = (q % 2 == 0) ? q * 17 % rows
                                         : rows + (q * 7 % appended);
    const float* qv = matrix.data() + row * dim;
    const auto truth = exact.TopK(qv, k);
    const auto got = refreshed->TopK(qv, k);
    for (const auto& t : truth) {
      for (const auto& g : got) {
        if (g.id == t.id) {
          ++found;
          break;
        }
      }
    }
  }
  const double recall =
      static_cast<double>(found) / static_cast<double>(k * num_queries);
  EXPECT_GE(recall, 0.95) << "refreshed recall@10: " << recall;
}

TEST(IncrementalRefreshTest, ByteAccountingFollowsRefreshGrowth) {
  Fixture f;
  f.catalog.Put("t", MakeStringTable(Words(800, "a_")));
  IndexManager manager = f.MakeManager();
  IndexKey key{"t", "name", "m", SemanticJoinStrategy::kHnsw};

  auto built = manager.GetOrBuild(key);
  ASSERT_TRUE(built.ok());
  const std::size_t before = manager.stats().resident_bytes;
  EXPECT_EQ(before, built.ValueOrDie()->MemoryBytes());

  ASSERT_TRUE(
      f.catalog.Append("t", *MakeStringTable(Words(200, "b_"))).ok());
  auto refreshed = manager.GetOrBuild(key);
  ASSERT_TRUE(refreshed.ok());
  const std::size_t after = manager.stats().resident_bytes;
  // The budget ledger must track the grown footprint, not the stale
  // build-time figure (the old accounting drift bug).
  EXPECT_EQ(after, refreshed.ValueOrDie()->MemoryBytes());
  EXPECT_GT(after, before);
}

TEST(IncrementalRefreshTest, CostCrossoverPicksRefreshOrRebuild) {
  // An incrementally inserted row costs 4 bulk-build rows, which places
  // the crossover at 25% appended: a 5% append must refresh, a 30%
  // append must fall through to a full rebuild.
  Fixture f;
  f.catalog.Put("t", MakeStringTable(Words(400, "w_")));
  IndexManager manager = f.MakeManager();
  IndexKey key{"t", "name", "m", SemanticJoinStrategy::kHnsw};
  ASSERT_TRUE(manager.GetOrBuild(key).ok());
  EXPECT_EQ(manager.stats().builds, 1u);

  // 5% appended (20 of 420): refresh wins.
  ASSERT_TRUE(f.catalog.Append("t", *MakeStringTable(Words(20, "s_"))).ok());
  auto small = manager.GetOrBuild(key);
  ASSERT_TRUE(small.ok());
  EXPECT_EQ(small.ValueOrDie()->size(), 420u);
  EXPECT_EQ(manager.stats().refreshes, 1u);
  EXPECT_EQ(manager.stats().builds, 1u);

  // 30% appended (180 of 600): estimated refresh cost exceeds the
  // rebuild, so the stale entry is invalidated and rebuilt instead.
  ASSERT_TRUE(f.catalog.Append("t", *MakeStringTable(Words(180, "l_"))).ok());
  auto large = manager.GetOrBuild(key);
  ASSERT_TRUE(large.ok());
  EXPECT_EQ(large.ValueOrDie()->size(), 600u);
  EXPECT_EQ(manager.stats().refreshes, 1u) << "past crossover must rebuild";
  EXPECT_EQ(manager.stats().builds, 2u);
}

TEST(IncrementalRefreshTest, ConcurrentQueriesDuringAppendsAreClean) {
  Fixture f;
  // This test exercises refresh/read concurrency, not the cost policy:
  // all eight appends together (400 rows) stay below the 25% refresh
  // crossover of the grown table, so a reader that observes many pending
  // appends at once never crosses into the rebuild regime.
  f.catalog.Put("t", MakeStringTable(Words(1800, "w_", 300)));
  IndexManager manager = f.MakeManager();
  IndexKey key{"t", "name", "m", SemanticJoinStrategy::kHnsw};
  ASSERT_TRUE(manager.GetOrBuild(key).ok());

  auto model = f.models.Get("m").ValueOrDie();
  std::vector<float> query(model->dim());
  model->Embed("w_7", query.data());

  std::atomic<int> errors{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 4; ++t) {
    readers.emplace_back([&] {
      for (int i = 0; i < 40; ++i) {
        auto r = manager.GetOrBuild(key);
        if (!r.ok()) {
          errors.fetch_add(1);
          continue;
        }
        // Probe the shared instance while refreshes swap entries.
        if (r.ValueOrDie()->TopK(query.data(), 5).empty()) {
          errors.fetch_add(1);
        }
      }
    });
  }
  std::thread writer([&] {
    for (int i = 0; i < 8; ++i) {
      f.catalog.Append("t", *MakeStringTable(Words(50, "n" +
                                                   std::to_string(i) + "_")))
          .status()
          .Check();
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  });
  for (auto& th : readers) th.join();
  writer.join();
  EXPECT_EQ(errors.load(), 0);

  auto final_index = manager.GetOrBuild(key);
  ASSERT_TRUE(final_index.ok());
  EXPECT_EQ(final_index.ValueOrDie()->size(), 1800u + 8u * 50u);
  EXPECT_EQ(manager.stats().builds, 1u) << "appends must never rebuild";
}

TEST(IncrementalRefreshTest, AsyncRefreshRunsOnBackgroundRunner) {
  Fixture f;
  f.catalog.Put("t", MakeStringTable(Words(600, "a_")));
  QueryScheduler scheduler(2);
  auto pool = scheduler.Admit();
  IndexManagerOptions options;
  options.async_builds = true;
  IndexManager manager = f.MakeManager(options);
  manager.EnableAsyncBuilds(pool.get());

  IndexKey key{"t", "name", "m", SemanticJoinStrategy::kHnsw};
  ASSERT_TRUE(manager.GetOrBuild(key).ok());
  ASSERT_TRUE(
      f.catalog.Append("t", *MakeStringTable(Words(80, "b_"))).ok());

  auto async = manager.GetOrBuildAsync(key);
  ASSERT_TRUE(async.ok());
  EXPECT_TRUE(async.ValueOrDie().build_in_flight)
      << "stale-by-append under async must refresh in the background";
  manager.WaitForBuilds();

  const auto stats = manager.stats();
  EXPECT_EQ(stats.refreshes, 1u);
  EXPECT_EQ(stats.builds, 1u);
  auto ready = manager.GetOrBuildAsync(key);
  ASSERT_TRUE(ready.ok());
  ASSERT_NE(ready.ValueOrDie().index, nullptr);
  EXPECT_EQ(ready.ValueOrDie().index->size(), 680u);
}

TEST(IncrementalRefreshTest, DeferredRefreshOfPooledIndexFinishes) {
  // The engine's wiring: foreground builds and refreshes fan out over the
  // background group, and deferred jobs run as tasks of that same group.
  // A deferred refresh must insert without the pool: waiting on the group
  // from inside one of its tasks counts the waiter as outstanding and
  // never returns. The foreground build leaves a pooled graph behind, so
  // this also checks the refresh does not inherit the pool from it.
  const IndexKey key{"t", "name", "m", SemanticJoinStrategy::kHnsw};
  const TablePtr base = MakeStringTable(Words(1200, "a_", 600));
  const TablePtr batch = MakeStringTable(Words(200, "b_"));
  IndexManagerOptions options;
  options.hnsw.build_bootstrap = 128;

  auto scheduler = std::make_unique<QueryScheduler>(2);
  auto group = std::make_unique<std::shared_ptr<QueryScheduler::Group>>(
      scheduler->Admit(QueryPriority::kBackground));
  Fixture deferred;
  deferred.catalog.Put("t", base);
  IndexManagerOptions async_options = options;
  async_options.async_builds = true;
  async_options.hnsw.build_pool = group->get();
  auto manager = std::make_unique<IndexManager>(
      &deferred.catalog, &deferred.models, async_options);
  manager->EnableAsyncBuilds(group->get());
  ASSERT_TRUE(manager->GetOrBuild(key).ok());
  ASSERT_TRUE(deferred.catalog.Append("t", *batch).ok());
  auto async = manager->GetOrBuildAsync(key);
  ASSERT_TRUE(async.ok());
  EXPECT_TRUE(async.ValueOrDie().build_in_flight);

  std::shared_ptr<const VectorIndex> refreshed;
  Timer waited;
  while (refreshed == nullptr && waited.Seconds() < 60.0) {
    auto lookup = manager->GetOrBuildAsync(key);
    ASSERT_TRUE(lookup.ok()) << lookup.status().ToString();
    refreshed = lookup.ValueOrDie().index;
    if (refreshed == nullptr) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  }
  if (refreshed == nullptr) {
    // The refresh is stuck on its own group: leak the manager, group and
    // scheduler so the test reports instead of hanging in their
    // destructors.
    (void)manager.release();
    (void)group.release();
    (void)scheduler.release();
    FAIL() << "deferred refresh did not finish within 60 s";
  }
  EXPECT_EQ(manager->stats().refreshes, 1u);
  EXPECT_EQ(manager->stats().builds, 1u);

  // A synchronous refresh over a pool of its own grows the same graph.
  QueryScheduler sync_scheduler(2);
  auto sync_pool = sync_scheduler.Admit();
  Fixture sync;
  sync.catalog.Put("t", base);
  IndexManagerOptions sync_options = options;
  sync_options.hnsw.build_pool = sync_pool.get();
  IndexManager sync_manager(&sync.catalog, &sync.models, sync_options);
  ASSERT_TRUE(sync_manager.GetOrBuild(key).ok());
  ASSERT_TRUE(sync.catalog.Append("t", *batch).ok());
  auto expected = sync_manager.GetOrBuild(key);
  ASSERT_TRUE(expected.ok()) << expected.status().ToString();
  EXPECT_EQ(sync_manager.stats().refreshes, 1u);
  ASSERT_EQ(refreshed->size(), 1400u);

  auto model = MakeModel();
  const std::vector<std::string> probes = {"a_7", "a_523", "b_42", "b_199"};
  std::vector<float> q(model->dim());
  for (const std::string& probe : probes) {
    model->Embed(probe, q.data());
    std::vector<ScoredId> got, want;
    refreshed->RangeSearch(q.data(), 0.6f, &got);
    expected.ValueOrDie()->RangeSearch(q.data(), 0.6f, &want);
    ASSERT_FALSE(want.empty()) << probe;
    ASSERT_EQ(got.size(), want.size()) << probe;
    for (std::size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i].id, want[i].id) << probe;
      EXPECT_EQ(got[i].score, want[i].score) << probe;
    }
    const auto top_got = refreshed->TopK(q.data(), 10);
    const auto top_want = expected.ValueOrDie()->TopK(q.data(), 10);
    ASSERT_EQ(top_got.size(), top_want.size()) << probe;
    for (std::size_t i = 0; i < top_got.size(); ++i) {
      EXPECT_EQ(top_got[i].id, top_want[i].id) << probe;
    }
  }
}

// ---- on-disk persistence ----

TEST(IndexPersistenceTest, WarmStartsFromDiskWithZeroBuilds) {
  const DirGuard dir(FreshTempDir("warmstart"));
  Fixture f;
  f.catalog.Put("t", MakeStringTable(Words(900, "w_", 200)));
  IndexManagerOptions options;
  options.persist_dir = dir.path;
  IndexKey key{"t", "name", "m", SemanticJoinStrategy::kHnsw};

  std::vector<ScoredId> before_hits;
  auto model = f.models.Get("m").ValueOrDie();
  std::vector<float> query(model->dim());
  model->Embed("w_3", query.data());
  {
    IndexManager first = f.MakeManager(options);
    auto built = first.GetOrBuild(key);
    ASSERT_TRUE(built.ok()) << built.status().ToString();
    before_hits = built.ValueOrDie()->TopK(query.data(), 12);
    EXPECT_EQ(first.stats().disk_writes, 1u);
  }

  // "Restart": a fresh manager over the same directory and catalog.
  IndexManager second = f.MakeManager(options);
  EXPECT_EQ(second.Residency(key), IndexResidency::kOnDisk);
  auto loaded = second.GetOrBuild(key);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(second.Residency(key), IndexResidency::kResident);

  const auto stats = second.stats();
  EXPECT_EQ(stats.builds, 0u) << "warm start must not rebuild";
  EXPECT_EQ(stats.disk_loads, 1u);
  EXPECT_EQ(stats.disk_rejects, 0u);
  EXPECT_EQ(stats.resident_bytes, loaded.ValueOrDie()->MemoryBytes());

  // Byte-identical serving: same ids, same scores.
  const auto after_hits = loaded.ValueOrDie()->TopK(query.data(), 12);
  ASSERT_EQ(after_hits.size(), before_hits.size());
  for (std::size_t i = 0; i < after_hits.size(); ++i) {
    EXPECT_EQ(after_hits[i].id, before_hits[i].id);
    EXPECT_EQ(after_hits[i].score, before_hits[i].score);
  }
}

TEST(IndexPersistenceTest, AllFamiliesSurviveTheRoundTrip) {
  const DirGuard dir(FreshTempDir("families"));
  Fixture f;
  f.catalog.Put("t", MakeStringTable(Words(500, "w_", 120)));
  IndexManagerOptions options;
  options.persist_dir = dir.path;
  for (const auto kind :
       {SemanticJoinStrategy::kIvf, SemanticJoinStrategy::kHnsw,
        SemanticJoinStrategy::kIvfPq}) {
    IndexKey key{"t", "name", "m", kind};
    IndexManager first = f.MakeManager(options);
    ASSERT_TRUE(first.GetOrBuild(key).ok());

    IndexManager second = f.MakeManager(options);
    auto loaded = second.GetOrBuild(key);
    ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
    EXPECT_EQ(second.stats().builds, 0u) << SemanticJoinStrategyName(kind);
    EXPECT_EQ(second.stats().disk_loads, 1u) << SemanticJoinStrategyName(kind);
    EXPECT_EQ(loaded.ValueOrDie()->size(), 500u);
  }
}

TEST(IndexPersistenceTest, RetiredLshFamilyTagIsRejectedAndSkipped) {
  // Family tag 1 belonged to the retired LSH index. Its images must fail
  // the header read and stay out of the warm-start catalog, even when the
  // header's row count matches the live table.
  const DirGuard dir(FreshTempDir("retired_tag"));
  Fixture f;
  f.catalog.Put("t", MakeStringTable(Words(50, "w_")));
  const IndexKey retired{"t", "name", "m",
                         static_cast<SemanticJoinStrategy>(1)};
  std::stringstream image(std::ios::in | std::ios::out | std::ios::binary);
  ASSERT_TRUE(WriteImageHeader(image, retired, /*catalog_stamp=*/1,
                               /*content_hash=*/2, /*rows=*/50)
                  .ok());
  {
    std::ofstream out(dir.path + "/cre_retired.idx", std::ios::binary);
    out << image.str();
  }
  IndexKey key;
  std::uint64_t stamp = 0, hash = 0, rows = 0;
  EXPECT_TRUE(ReadImageHeader(image, &key, &stamp, &hash, &rows)
                  .IsInvalidArgument());

  IndexManagerOptions options;
  options.persist_dir = dir.path;
  IndexManager manager = f.MakeManager(options);
  EXPECT_EQ(manager.Residency(retired), IndexResidency::kAbsent);
  for (const auto kind : kSemanticJoinStrategies) {
    EXPECT_EQ(manager.Residency({"t", "name", "m", kind}),
              IndexResidency::kAbsent)
        << SemanticJoinStrategyName(kind);
  }
}

TEST(IndexPersistenceTest, TruncatedImageFallsBackToCleanRebuild) {
  const DirGuard dir(FreshTempDir("truncated"));
  Fixture f;
  f.catalog.Put("t", MakeStringTable(Words(600, "w_", 150)));
  IndexManagerOptions options;
  options.persist_dir = dir.path;
  IndexKey key{"t", "name", "m", SemanticJoinStrategy::kHnsw};
  {
    IndexManager first = f.MakeManager(options);
    ASSERT_TRUE(first.GetOrBuild(key).ok());
  }
  // Truncate the image to a third: the header still parses (so the scan
  // admits it) but the payload read must fail cleanly.
  for (const auto& de : std::filesystem::directory_iterator(dir.path)) {
    if (de.path().extension() != ".idx") continue;
    std::filesystem::resize_file(de.path(),
                                 std::filesystem::file_size(de.path()) / 3);
  }

  IndexManager second = f.MakeManager(options);
  auto rebuilt = second.GetOrBuild(key);
  ASSERT_TRUE(rebuilt.ok()) << rebuilt.status().ToString();
  EXPECT_EQ(rebuilt.ValueOrDie()->size(), 600u);
  const auto stats = second.stats();
  EXPECT_EQ(stats.disk_rejects, 1u);
  EXPECT_EQ(stats.disk_loads, 0u);
  EXPECT_EQ(stats.builds, 1u) << "corrupt image must fall back to a rebuild";
}

TEST(IndexPersistenceTest, ContentMismatchNeverServesAStaleIndex) {
  const DirGuard dir(FreshTempDir("stale"));
  ModelRegistry models;
  models.Put("m", MakeModel());
  IndexManagerOptions options;
  options.persist_dir = dir.path;
  IndexKey key{"t", "name", "m", SemanticJoinStrategy::kHnsw};
  {
    Catalog old_catalog;
    old_catalog.Put("t", MakeStringTable(Words(400, "old_")));
    IndexManager first(&old_catalog, &models, options);
    ASSERT_TRUE(first.GetOrBuild(key).ok());
  }

  // Same table name, same row count, different contents — the stamp/
  // content check must reject the image, and the rebuilt index must
  // serve the *new* rows.
  Catalog new_catalog;
  const auto new_words = Words(400, "new_");
  new_catalog.Put("t", MakeStringTable(new_words));
  IndexManager second(&new_catalog, &models, options);
  auto rebuilt = second.GetOrBuild(key);
  ASSERT_TRUE(rebuilt.ok());
  const auto stats = second.stats();
  EXPECT_EQ(stats.disk_loads, 0u) << "stale image must never be served";
  EXPECT_EQ(stats.disk_rejects, 1u);
  EXPECT_EQ(stats.builds, 1u);

  auto model = models.Get("m").ValueOrDie();
  std::vector<float> query(model->dim());
  model->Embed("new_42", query.data());
  const auto hits = rebuilt.ValueOrDie()->TopK(query.data(), 1);
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(new_words[hits[0].id], "new_42");
}

TEST(IndexPersistenceTest, AsyncLookupWithImplausibleImageStaysNonBlocking) {
  const DirGuard dir(FreshTempDir("async_stale"));
  Fixture f;
  f.catalog.Put("t", MakeStringTable(Words(500, "a_")));
  IndexManagerOptions options;
  options.persist_dir = dir.path;
  IndexKey key{"t", "name", "m", SemanticJoinStrategy::kHnsw};
  {
    IndexManager first = f.MakeManager(options);
    ASSERT_TRUE(first.GetOrBuild(key).ok());
  }
  // Destructive replacement with a different row count: the persisted
  // image is now implausible, so the async serving path must schedule a
  // background build instead of falling into a blocking load-then-
  // rebuild on the query thread.
  f.catalog.Put("t", MakeStringTable(Words(300, "z_")));
  QueryScheduler scheduler(2);
  auto pool = scheduler.Admit();
  IndexManagerOptions async_options;
  async_options.persist_dir = dir.path;
  async_options.async_builds = true;
  IndexManager second = f.MakeManager(async_options);
  second.EnableAsyncBuilds(pool.get());
  auto r = second.GetOrBuildAsync(key);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r.ValueOrDie().build_in_flight)
      << "stale image must not drag the async path into a blocking build";
  second.WaitForBuilds();
  const auto stats = second.stats();
  EXPECT_EQ(stats.builds, 1u);
  EXPECT_EQ(stats.disk_loads, 0u);
  auto ready = second.GetOrBuildAsync(key);
  ASSERT_TRUE(ready.ok());
  ASSERT_NE(ready.ValueOrDie().index, nullptr);
  EXPECT_EQ(ready.ValueOrDie().index->size(), 300u);
}

TEST(IndexPersistenceTest, EvictionDegradesToOnDiskNotAbsent) {
  const DirGuard dir(FreshTempDir("evict"));
  Fixture f;
  f.catalog.Put("t1", MakeStringTable(Words(400, "a_")));
  f.catalog.Put("t2", MakeStringTable(Words(400, "b_")));
  IndexKey k1{"t1", "name", "m", SemanticJoinStrategy::kHnsw};
  IndexKey k2{"t2", "name", "m", SemanticJoinStrategy::kHnsw};

  IndexManagerOptions probe_options;
  probe_options.persist_dir = dir.path;
  std::size_t one_index_bytes = 0;
  {
    IndexManager probe = f.MakeManager(probe_options);
    ASSERT_TRUE(probe.GetOrBuild(k1).ok());
    one_index_bytes = probe.stats().resident_bytes;
    probe.Clear();
  }

  IndexManagerOptions options;
  options.persist_dir = dir.path;
  options.memory_budget_bytes = one_index_bytes + one_index_bytes / 2;
  IndexManager manager = f.MakeManager(options);
  ASSERT_TRUE(manager.GetOrBuild(k1).ok());
  ASSERT_TRUE(manager.GetOrBuild(k2).ok());
  EXPECT_EQ(manager.stats().evictions, 1u);
  // The evicted key's image survives on disk, so it reloads, not
  // rebuilds — eviction under persistence costs a load, never a build.
  EXPECT_EQ(manager.Residency(k1), IndexResidency::kOnDisk);
  ASSERT_TRUE(manager.GetOrBuild(k1).ok());
  const auto stats = manager.stats();
  EXPECT_EQ(stats.disk_loads, 2u);  // k1's warm start + this reload
  EXPECT_EQ(stats.builds, 1u) << "only k2 should ever have been built";
}

TEST(IndexPersistenceTest, RefreshedImageWarmStartsAtTheNewVersion) {
  const DirGuard dir(FreshTempDir("refreshed"));
  Fixture f;
  f.catalog.Put("t", MakeStringTable(Words(500, "a_")));
  IndexManagerOptions options;
  options.persist_dir = dir.path;
  IndexKey key{"t", "name", "m", SemanticJoinStrategy::kHnsw};
  {
    IndexManager first = f.MakeManager(options);
    ASSERT_TRUE(first.GetOrBuild(key).ok());
    ASSERT_TRUE(
        f.catalog.Append("t", *MakeStringTable(Words(70, "b_"))).ok());
    ASSERT_TRUE(first.GetOrBuild(key).ok());  // refresh, re-persisted
    EXPECT_EQ(first.stats().refreshes, 1u);
    EXPECT_EQ(first.stats().disk_writes, 2u);
  }
  IndexManager second = f.MakeManager(options);
  auto loaded = second.GetOrBuild(key);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded.ValueOrDie()->size(), 570u);
  EXPECT_EQ(second.stats().builds, 0u);
  EXPECT_EQ(second.stats().disk_loads, 1u);
}

/// Hits sorted by id, for comparing indexes whose graphs differ.
std::vector<std::pair<std::uint32_t, float>> ById(
    const std::vector<ScoredId>& hits) {
  std::vector<std::pair<std::uint32_t, float>> out;
  for (const ScoredId& h : hits) out.emplace_back(h.id, h.score);
  std::sort(out.begin(), out.end());
  return out;
}

void ExpectSameHits(const std::vector<ScoredId>& a,
                    const std::vector<ScoredId>& b, const std::string& what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].id, b[i].id) << what << " hit " << i;
    EXPECT_EQ(a[i].score, b[i].score) << what << " hit " << i;
  }
}

TEST(IndexPersistenceTest, AppendedImageLoadsLikeAColdBuild) {
  // A load derives the distinct values and postings from the live column
  // in first-seen order, so it is right only if build + appends keep the
  // inner ids in that order too. The column has fewer distinct values
  // than the HNSW beam, so every search is exact and a cold build over
  // the same column must give the same hits.
  const DirGuard dir(FreshTempDir("appended"));
  Fixture f;
  std::vector<std::string> words = Words(240, "w_", 60);
  f.catalog.Put("t", MakeStringTable(words));
  std::vector<std::string> appended = Words(50, "x_", 12);
  appended.push_back("w_7");  // a known value in the appended rows
  appended.push_back("w_59");
  words.insert(words.end(), appended.begin(), appended.end());
  IndexManagerOptions options;
  options.persist_dir = dir.path;
  IndexKey key{"t", "name", "m", SemanticJoinStrategy::kHnsw};

  std::shared_ptr<const VectorIndex> refreshed;
  {
    IndexManager first = f.MakeManager(options);
    ASSERT_TRUE(first.GetOrBuild(key).ok());
    ASSERT_TRUE(f.catalog.Append("t", *MakeStringTable(appended)).ok());
    auto r = first.GetOrBuild(key);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    refreshed = r.ValueOrDie();
    EXPECT_EQ(first.stats().refreshes, 1u);
  }
  IndexManager second = f.MakeManager(options);
  auto loaded = second.GetOrBuild(key);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(second.stats().disk_loads, 1u);
  EXPECT_EQ(second.stats().builds, 0u);

  Catalog cold_catalog;
  cold_catalog.Put("t", MakeStringTable(words));
  IndexManager cold_manager(&cold_catalog, &f.models, IndexManagerOptions{});
  auto cold = cold_manager.GetOrBuild(key);
  ASSERT_TRUE(cold.ok()) << cold.status().ToString();

  auto model = f.models.Get("m").ValueOrDie();
  std::vector<float> query(model->dim());
  for (const char* text : {"w_7", "w_59", "x_3", "x_11", "w_2x"}) {
    model->Embed(text, query.data());
    for (const float threshold : {0.3f, 0.6f, 0.9f}) {
      std::vector<ScoredId> from_disk, from_refresh, from_cold;
      loaded.ValueOrDie()->RangeSearch(query.data(), threshold, &from_disk);
      refreshed->RangeSearch(query.data(), threshold, &from_refresh);
      cold.ValueOrDie()->RangeSearch(query.data(), threshold, &from_cold);
      const std::string what = std::string(text) + " @" +
                               std::to_string(threshold);
      ExpectSameHits(from_disk, from_refresh, "range " + what);
      EXPECT_EQ(ById(from_disk), ById(from_cold)) << "range " + what;
    }
    const auto top_disk = loaded.ValueOrDie()->TopK(query.data(), 8);
    ExpectSameHits(top_disk, refreshed->TopK(query.data(), 8),
                   std::string("top-k ") + text);
    ExpectSameHits(top_disk, cold.ValueOrDie()->TopK(query.data(), 8),
                   std::string("top-k ") + text);
  }
  // "w_7" sits at base rows 7, 67, 127, 187 and appended row 290.
  model->Embed("w_7", query.data());
  std::vector<ScoredId> exact;
  loaded.ValueOrDie()->RangeSearch(query.data(), 0.999f, &exact);
  std::vector<std::uint32_t> rows;
  for (const ScoredId& h : exact) rows.push_back(h.id);
  std::sort(rows.begin(), rows.end());
  EXPECT_EQ(rows, (std::vector<std::uint32_t>{7, 67, 127, 187, 290}));
}

/// The one image file in `dir` and the offset of its wrapper payload
/// (the bytes after the manager header).
std::pair<std::string, std::streamoff> ImageAndPayload(
    const std::string& dir) {
  std::string path;
  for (const auto& de : std::filesystem::directory_iterator(dir)) {
    if (de.path().extension() == ".idx") path = de.path().string();
  }
  std::ifstream in(path, std::ios::binary);
  IndexKey key;
  std::uint64_t stamp = 0, hash = 0, rows = 0;
  EXPECT_TRUE(ReadImageHeader(in, &key, &stamp, &hash, &rows).ok()) << path;
  return {path, static_cast<std::streamoff>(in.tellg())};
}

std::string ReadBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in), {});
}

TEST(IndexPersistenceTest, VersionOneWrapperImageIsRejectedAndRebuilt) {
  const DirGuard dir(FreshTempDir("wrapper_v1"));
  Fixture f;
  f.catalog.Put("t", MakeStringTable(Words(400, "w_", 100)));
  IndexManagerOptions options;
  options.persist_dir = dir.path;
  IndexKey key{"t", "name", "m", SemanticJoinStrategy::kHnsw};
  {
    IndexManager first = f.MakeManager(options);
    ASSERT_TRUE(first.GetOrBuild(key).ok());
  }
  // The wrapper payload opens with its magic and format version; version
  // 1 images also carried the distinct values and postings.
  const auto [path, payload] = ImageAndPayload(dir.path);
  {
    std::fstream io(path, std::ios::in | std::ios::out | std::ios::binary);
    io.seekp(payload + static_cast<std::streamoff>(sizeof(std::uint32_t)));
    const std::uint32_t version = 1;
    io.write(reinterpret_cast<const char*>(&version), sizeof(version));
  }

  IndexManager second = f.MakeManager(options);
  EXPECT_EQ(second.Residency(key), IndexResidency::kOnDisk);
  auto rebuilt = second.GetOrBuild(key);
  ASSERT_TRUE(rebuilt.ok()) << rebuilt.status().ToString();
  EXPECT_EQ(rebuilt.ValueOrDie()->size(), 400u);
  const auto stats = second.stats();
  EXPECT_EQ(stats.disk_rejects, 1u);
  EXPECT_EQ(stats.disk_loads, 0u);
  EXPECT_EQ(stats.builds, 1u);
}

TEST(IndexPersistenceTest, InnerSizeOtherThanDistinctCountIsRejected) {
  // Two images over columns of equal length: 150 and 200 distinct values.
  // Splicing the 150-entry inner index behind the 200-value column's
  // header and wrapper leaves an image whose identity, content hash and
  // row count all match the live column, but whose inner index does not
  // hold one entry per distinct value.
  const DirGuard small_dir(FreshTempDir("inner_small"));
  const DirGuard live_dir(FreshTempDir("inner_live"));
  ModelRegistry models;
  models.Put("m", MakeModel());
  IndexKey key{"t", "name", "m", SemanticJoinStrategy::kHnsw};
  Catalog small_catalog;
  small_catalog.Put("t", MakeStringTable(Words(600, "w_", 150)));
  Catalog live_catalog;
  live_catalog.Put("t", MakeStringTable(Words(600, "w_", 200)));
  IndexManagerOptions small_options;
  small_options.persist_dir = small_dir.path;
  IndexManagerOptions live_options;
  live_options.persist_dir = live_dir.path;
  {
    IndexManager small(&small_catalog, &models, small_options);
    ASSERT_TRUE(small.GetOrBuild(key).ok());
    IndexManager live(&live_catalog, &models, live_options);
    ASSERT_TRUE(live.GetOrBuild(key).ok());
  }
  // Wrapper payload = magic + version + row count.
  const std::streamoff wrapper_bytes = 2 * sizeof(std::uint32_t) +
                                       sizeof(std::uint64_t);
  const auto [small_path, small_payload] = ImageAndPayload(small_dir.path);
  const auto [live_path, live_payload] = ImageAndPayload(live_dir.path);
  const std::string spliced =
      ReadBytes(live_path).substr(0, live_payload + wrapper_bytes) +
      ReadBytes(small_path).substr(small_payload + wrapper_bytes);
  {
    std::ofstream out(live_path, std::ios::binary | std::ios::trunc);
    out << spliced;
  }

  IndexManager restarted(&live_catalog, &models, live_options);
  EXPECT_EQ(restarted.Residency(key), IndexResidency::kOnDisk);
  auto rebuilt = restarted.GetOrBuild(key);
  ASSERT_TRUE(rebuilt.ok()) << rebuilt.status().ToString();
  const auto stats = restarted.stats();
  EXPECT_EQ(stats.disk_rejects, 1u);
  EXPECT_EQ(stats.disk_loads, 0u);
  EXPECT_EQ(stats.builds, 1u);
}

// ---- blocking vs non-blocking lookup parity ----
//
// Every lifecycle step must count and answer the same whether it is
// reached through the blocking GetOrBuild or through GetOrBuildAsync with
// background builds on (polled with WaitForBuilds until it serves).

enum class LookupMode { kSync, kAsync };

/// Clears the process-global fault injector on entry and exit.
struct FaultReset {
  FaultReset() { FaultInjector::Global().Reset(); }
  ~FaultReset() { FaultInjector::Global().Reset(); }
};

/// One manager driven in one lookup mode. The scheduler and its group are
/// declared first so they outlive the manager's background jobs.
struct ParityManager {
  ParityManager(Fixture* f, LookupMode mode, const std::string& persist_dir)
      : mode(mode),
        manager(&f->catalog, &f->models, MakeOptions(mode, persist_dir)) {
    if (mode == LookupMode::kAsync) manager.EnableAsyncBuilds(pool.get());
  }
  ~ParityManager() { manager.WaitForBuilds(); }

  static IndexManagerOptions MakeOptions(LookupMode mode,
                                         const std::string& persist_dir) {
    IndexManagerOptions options;
    options.async_builds = mode == LookupMode::kAsync;
    options.persist_dir = persist_dir;
    return options;
  }

  /// Serves `key` the way this mode's callers do.
  Result<std::shared_ptr<const VectorIndex>> Serve(const IndexKey& key) {
    if (mode == LookupMode::kSync) return manager.GetOrBuild(key);
    for (int attempt = 0; attempt < 4; ++attempt) {
      CRE_ASSIGN_OR_RETURN(IndexManager::AsyncIndex r,
                           manager.GetOrBuildAsync(key));
      if (r.index != nullptr) return r.index;
      manager.WaitForBuilds();
    }
    return Status::Internal("async lookup never served the index");
  }

  LookupMode mode;
  QueryScheduler scheduler{2};
  std::shared_ptr<QueryScheduler::Group> pool = scheduler.Admit();
  IndexManager manager;
};

struct ParityOutcome {
  std::uint64_t builds = 0;
  std::uint64_t refreshes = 0;
  std::uint64_t invalidations = 0;
  std::uint64_t disk_loads = 0;
  std::uint64_t disk_gc = 0;
  std::vector<ScoredId> top;
};

enum class ParityScenario {
  kColdBuild,
  kFreshHit,
  kAppendBelowCrossover,
  kAppendPastCrossover,
  kDestructivePutReclaimsImage,
  kRefreshFaultRebuilds,
  kColdKeyLoadsImage,
};

/// Runs one scenario to completion and reports its counters plus the
/// served index's answer to a fixed top-k probe.
ParityOutcome RunParityScenario(ParityScenario scenario, LookupMode mode) {
  const FaultReset faults;
  const bool persists =
      scenario == ParityScenario::kDestructivePutReclaimsImage ||
      scenario == ParityScenario::kColdKeyLoadsImage;
  const DirGuard dir(persists ? FreshTempDir("parity") : std::string());
  Fixture f;
  f.catalog.Put("t", MakeStringTable(Words(400, "w_")));
  const IndexKey key{"t", "name", "m", SemanticJoinStrategy::kHnsw};
  if (scenario == ParityScenario::kColdKeyLoadsImage) {
    // A previous process left a valid image behind.
    ParityManager previous(&f, LookupMode::kSync, dir.path);
    previous.Serve(key).status().Check();
  }

  ParityManager pm(&f, mode, dir.path);
  Result<std::shared_ptr<const VectorIndex>> served = pm.Serve(key);
  switch (scenario) {
    case ParityScenario::kColdBuild:
    case ParityScenario::kColdKeyLoadsImage:
      break;
    case ParityScenario::kFreshHit:
      served = pm.Serve(key);
      break;
    case ParityScenario::kAppendBelowCrossover:  // 20 of 420 rows: ~5%
      f.catalog.Append("t", *MakeStringTable(Words(20, "s_"))).status().Check();
      served = pm.Serve(key);
      break;
    case ParityScenario::kAppendPastCrossover:  // 180 of 580 rows: ~31%
      f.catalog.Append("t", *MakeStringTable(Words(180, "l_"))).status().Check();
      served = pm.Serve(key);
      break;
    case ParityScenario::kDestructivePutReclaimsImage:
      pm.manager.WaitForBuilds();  // the first image is on disk
      f.catalog.Put("t", MakeStringTable(Words(400, "z_")));
      served = pm.Serve(key);
      break;
    case ParityScenario::kRefreshFaultRebuilds:
      f.catalog.Append("t", *MakeStringTable(Words(20, "s_"))).status().Check();
      FaultInjector::Global().Arm("index.refresh.append", FaultSpec{});
      served = pm.Serve(key);
      break;
  }
  EXPECT_TRUE(served.ok()) << served.status().ToString();
  pm.manager.WaitForBuilds();

  ParityOutcome out;
  const auto stats = pm.manager.stats();
  out.builds = stats.builds;
  out.refreshes = stats.refreshes;
  out.invalidations = stats.invalidations;
  out.disk_loads = stats.disk_loads;
  out.disk_gc = stats.disk_gc;
  if (served.ok()) {
    auto model = f.models.Get("m").ValueOrDie();
    std::vector<float> query(model->dim());
    model->Embed("w_7", query.data());
    out.top = served.ValueOrDie()->TopK(query.data(), 10);
  }
  return out;
}

class LookupParityTest : public ::testing::TestWithParam<LookupMode> {};

TEST_P(LookupParityTest, LifecycleCountsAndAnswersMatch) {
  struct Expected {
    ParityScenario scenario;
    const char* name;
    std::uint64_t builds, refreshes, invalidations, disk_loads, disk_gc;
  };
  const Expected cases[] = {
      {ParityScenario::kColdBuild, "cold build", 1, 0, 0, 0, 0},
      {ParityScenario::kFreshHit, "fresh hit", 1, 0, 0, 0, 0},
      {ParityScenario::kAppendBelowCrossover, "append below crossover", 1, 1,
       0, 0, 0},
      {ParityScenario::kAppendPastCrossover, "append past crossover", 2, 0, 1,
       0, 0},
      {ParityScenario::kDestructivePutReclaimsImage, "destructive put", 2, 0,
       1, 0, 1},
      {ParityScenario::kRefreshFaultRebuilds, "refresh fault", 2, 0, 1, 0, 0},
      {ParityScenario::kColdKeyLoadsImage, "cold key with image", 0, 0, 0, 1,
       0},
  };
  for (const Expected& c : cases) {
    SCOPED_TRACE(c.name);
    const ParityOutcome got = RunParityScenario(c.scenario, GetParam());
    EXPECT_EQ(got.builds, c.builds);
    EXPECT_EQ(got.refreshes, c.refreshes);
    EXPECT_EQ(got.invalidations, c.invalidations);
    EXPECT_EQ(got.disk_loads, c.disk_loads);
    EXPECT_EQ(got.disk_gc, c.disk_gc);
    // The blocking lookup's answer is the reference for both modes.
    const ParityOutcome ref = RunParityScenario(c.scenario, LookupMode::kSync);
    ASSERT_EQ(got.top.size(), ref.top.size());
    ASSERT_FALSE(got.top.empty());
    for (std::size_t i = 0; i < got.top.size(); ++i) {
      EXPECT_EQ(got.top[i].id, ref.top[i].id) << "rank " << i;
      EXPECT_EQ(got.top[i].score, ref.top[i].score) << "rank " << i;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    IndexManagerParity, LookupParityTest,
    ::testing::Values(LookupMode::kSync, LookupMode::kAsync),
    [](const ::testing::TestParamInfo<LookupMode>& info) {
      return std::string(info.param == LookupMode::kSync ? "Sync" : "Async");
    });

TEST(IndexManagerParityRace, BlockingLookupsOfOneStaleKeyRefreshOnce) {
  // Async builds off: GetOrBuildAsync blocks like GetOrBuild, and every
  // caller must join the one single-flight refresh.
  Fixture f;
  f.catalog.Put("t", MakeStringTable(Words(400, "w_")));
  IndexManager manager = f.MakeManager();
  const IndexKey key{"t", "name", "m", SemanticJoinStrategy::kHnsw};
  ASSERT_TRUE(manager.GetOrBuild(key).ok());
  ASSERT_TRUE(f.catalog.Append("t", *MakeStringTable(Words(20, "s_"))).ok());

  constexpr int kAsyncCallers = 4;
  std::atomic<bool> go{false};
  std::atomic<int> wrong{0};
  std::vector<std::thread> callers;
  for (int t = 0; t < kAsyncCallers; ++t) {
    callers.emplace_back([&] {
      while (!go.load()) std::this_thread::yield();
      auto r = manager.GetOrBuildAsync(key);
      if (!r.ok() || r.ValueOrDie().index == nullptr ||
          r.ValueOrDie().index->size() != 420u) {
        wrong.fetch_add(1);
      }
    });
  }
  callers.emplace_back([&] {
    while (!go.load()) std::this_thread::yield();
    auto r = manager.GetOrBuild(key);
    if (!r.ok() || r.ValueOrDie()->size() != 420u) wrong.fetch_add(1);
  });
  go.store(true);
  for (auto& th : callers) th.join();
  EXPECT_EQ(wrong.load(), 0);
  const auto stats = manager.stats();
  EXPECT_EQ(stats.refreshes, 1u);
  EXPECT_EQ(stats.builds, 1u);
  EXPECT_EQ(stats.invalidations, 0u);
}

// ---- engine end to end ----

TEST(IndexPersistenceEngineTest, RestartServesFirstSelectFromDisk) {
  const DirGuard dir(FreshTempDir("engine"));
  const auto words = Words(2000, "item_", 128);

  EngineOptions eo;
  eo.num_threads = 2;
  eo.index.persist_dir = dir.path;

  {
    Engine engine(eo);
    engine.models().Put("m", MakeModel());
    engine.catalog().Put("products", MakeStringTable(words));
    PlanPtr pinned = PlanNode::SemanticSelect(PlanNode::Scan("products"),
                                              "name", "item_7", "m", 0.98f);
    pinned->strategy = SemanticJoinStrategy::kHnsw;
    pinned->strategy_pinned = true;
    auto r = engine.Execute(pinned);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    // The engine hands the image write to its background runner.
    engine.index_manager()->WaitForBuilds();
    EXPECT_EQ(engine.index_manager()->stats().builds, 1u);
    EXPECT_EQ(engine.index_manager()->stats().disk_writes, 1u);
  }

  // "Restart": a new engine process over the same persist_dir and the
  // same table contents.
  Engine engine(eo);
  engine.models().Put("m", MakeModel());
  engine.catalog().Put("products", MakeStringTable(words));

  PlanPtr select = PlanNode::SemanticSelect(PlanNode::Scan("products"),
                                            "name", "item_7", "m", 0.98f);
  const std::string before = engine.Explain(select).ValueOrDie();
  EXPECT_NE(before.find("strategy=hnsw (on-disk)"), std::string::npos)
      << before;

  auto indexed = engine.Execute(select->Clone());
  ASSERT_TRUE(indexed.ok()) << indexed.status().ToString();
  const auto stats = engine.index_manager()->stats();
  EXPECT_EQ(stats.builds, 0u)
      << "the first post-restart select must not rebuild";
  EXPECT_EQ(stats.disk_loads, 1u);

  const std::string after = engine.Explain(select).ValueOrDie();
  EXPECT_NE(after.find("strategy=hnsw (resident)"), std::string::npos)
      << after;

  // Identical rows to the scanning (exact) plan over the same snapshot.
  PlanPtr brute = PlanNode::SemanticSelect(PlanNode::Scan("products"),
                                           "name", "item_7", "m", 0.98f);
  brute->strategy_pinned = true;  // stays kBruteForce
  auto exact = engine.Execute(brute);
  ASSERT_TRUE(exact.ok());
  ASSERT_EQ(indexed.ValueOrDie()->num_rows(), exact.ValueOrDie()->num_rows());
  EXPECT_EQ(indexed.ValueOrDie()->column(0).strings(),
            exact.ValueOrDie()->column(0).strings());
}

TEST(IndexPersistenceEngineTest, PlannerKeepsIndexStrategyAcrossAppends) {
  EngineOptions eo;
  eo.num_threads = 2;
  Engine engine(eo);
  engine.models().Put("m", MakeModel());
  engine.catalog().Put("products", MakeStringTable(Words(2000, "item_", 128)));

  // Warm the manager, then append: the *unpinned* planned select must
  // keep choosing the index family (costed as a cheap incremental
  // renewal, EXPLAIN "(refreshable)") — not flip to brute force and
  // strand the refresh path — and executing it must refresh, not
  // rebuild.
  ASSERT_TRUE(engine.index_manager()
                  ->GetOrBuild({"products", "name", "m",
                                SemanticJoinStrategy::kHnsw})
                  .ok());
  ASSERT_TRUE(engine.catalog()
                  .Append("products", *MakeStringTable(Words(200, "item_", 128)))
                  .ok());

  PlanPtr select = PlanNode::SemanticSelect(PlanNode::Scan("products"),
                                            "name", "item_7", "m", 0.98f);
  const std::string explained = engine.Explain(select).ValueOrDie();
  EXPECT_NE(explained.find("strategy=hnsw (refreshable)"), std::string::npos)
      << explained;

  auto r = engine.Execute(select->Clone());
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  const auto stats = engine.index_manager()->stats();
  EXPECT_EQ(stats.builds, 1u);
  EXPECT_EQ(stats.refreshes, 1u)
      << "the planned query must route through the refresh path";
}

TEST(IndexPersistenceEngineTest, AppendThenSelectRefreshesThroughEngine) {
  EngineOptions eo;
  eo.num_threads = 2;
  Engine engine(eo);
  engine.models().Put("m", MakeModel());
  engine.catalog().Put("products", MakeStringTable(Words(1500, "item_", 96)));

  auto make_plan = [] {
    PlanPtr plan = PlanNode::SemanticSelect(PlanNode::Scan("products"),
                                            "name", "item_7", "m", 0.98f);
    plan->strategy = SemanticJoinStrategy::kHnsw;
    plan->strategy_pinned = true;
    return plan;
  };
  ASSERT_TRUE(engine.Execute(make_plan()).ok());
  EXPECT_EQ(engine.index_manager()->stats().builds, 1u);

  ASSERT_TRUE(engine.catalog()
                  .Append("products", *MakeStringTable(Words(150, "item_", 96)))
                  .ok());
  auto refreshed = engine.Execute(make_plan());
  ASSERT_TRUE(refreshed.ok()) << refreshed.status().ToString();
  const auto stats = engine.index_manager()->stats();
  EXPECT_EQ(stats.builds, 1u) << "append through the engine must refresh";
  EXPECT_EQ(stats.refreshes, 1u);

  // The refreshed index serves exactly what the exact scan serves.
  PlanPtr brute = PlanNode::SemanticSelect(PlanNode::Scan("products"),
                                           "name", "item_7", "m", 0.98f);
  brute->strategy_pinned = true;
  auto exact = engine.Execute(brute);
  ASSERT_TRUE(exact.ok());
  EXPECT_EQ(refreshed.ValueOrDie()->num_rows(),
            exact.ValueOrDie()->num_rows());
}

}  // namespace
}  // namespace cre
