// Fast-path tests: the parameterized plan cache (hit/miss, binding
// parameters by slot with byte-identical results, the cacheability rule,
// stamp and index-residency invalidation, LRU bounds, single-flight
// population),
// and mid-query index adoption (byte-identity against the all-fallback
// run). The concurrent storm test runs under TSan in CI like the other
// parallel tests.

#include <atomic>
#include <chrono>
#include <cstddef>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/rng.h"
#include "datagen/vocabulary.h"
#include "embed/structured_model.h"
#include "engine/engine.h"
#include "engine/parallel_driver.h"
#include "optimizer/plan_cache.h"

namespace cre {
namespace {

constexpr std::size_t kThreads = 4;
constexpr std::size_t kMorselRows = 512;

/// Ordered row rendering: byte-identity means equal vectors.
std::vector<std::string> OrderedRows(const Table& table) {
  std::vector<std::string> rows;
  rows.reserve(table.num_rows());
  for (std::size_t r = 0; r < table.num_rows(); ++r) {
    std::string row;
    for (std::size_t c = 0; c < table.num_columns(); ++c) {
      row += table.GetValue(r, c).ToString();
      row += '|';
    }
    rows.push_back(std::move(row));
  }
  return rows;
}

PlanCache::VersionProbe ConstVersion(std::uint64_t v) {
  return [v](const std::string&) { return v; };
}

PlanCache::AbsentProbe NeverAbsent() {
  return [](const PlanCache::IndexCandidate&) { return false; };
}

class PlanCacheTest : public ::testing::Test {
 protected:
  void SetUp() override {
    VocabularyOptions vo;
    vo.num_groups = 10;
    vo.words_per_group = 3;
    vo.num_singletons = 15;
    vo.seed = 77;
    groups_ = GenerateVocabulary(vo);
    SynonymStructuredModel::Options mo;
    mo.subword_noise = false;
    model_ = std::make_shared<SynonymStructuredModel>(groups_, mo);
    words_ = AllWords(groups_);

    Rng rng(4242);
    big_ = RandomTable(rng, 6000);
    small_ = RandomTable(rng, 300);
  }

  std::unique_ptr<Engine> MakeEngine(EngineOptions eo) {
    auto engine = std::make_unique<Engine>(eo);
    engine->catalog().Put("big", big_);
    engine->catalog().Put("small", small_);
    engine->models().Put("m", model_);
    return engine;
  }

  std::unique_ptr<Engine> MakeCacheEngine(bool cache_enabled = true) {
    EngineOptions eo;
    eo.num_threads = kThreads;
    eo.morsel_rows = kMorselRows;
    eo.optimizer.allow_approximate_similarity = false;
    eo.plan_cache.enabled = cache_enabled;
    return MakeEngine(eo);
  }

  TablePtr RandomTable(Rng& rng, std::size_t n) {
    auto t = Table::Make(Schema({{"id", DataType::kInt64, 0},
                                 {"word", DataType::kString, 0},
                                 {"num", DataType::kFloat64, 0},
                                 {"flag", DataType::kInt64, 0}}));
    t->Reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      t->column(0).AppendInt64(static_cast<std::int64_t>(rng.Uniform(80)));
      t->column(1).AppendString(words_[rng.Uniform(words_.size())]);
      t->column(2).AppendFloat64(static_cast<double>(rng.Uniform(1000)));
      t->column(3).AppendInt64(static_cast<std::int64_t>(rng.Uniform(4)));
    }
    return t;
  }

  /// A table whose every `num` value is `v` — a version marker the storm
  /// test uses to prove one query never mixes two table versions.
  TablePtr MarkerTable(double v, std::size_t n) {
    auto t = Table::Make(Schema({{"id", DataType::kInt64, 0},
                                 {"word", DataType::kString, 0},
                                 {"num", DataType::kFloat64, 0},
                                 {"flag", DataType::kInt64, 0}}));
    t->Reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      t->column(0).AppendInt64(static_cast<std::int64_t>(i));
      t->column(1).AppendString(words_[i % words_.size()]);
      t->column(2).AppendFloat64(v);
      t->column(3).AppendInt64(static_cast<std::int64_t>(i % 4));
    }
    return t;
  }

  /// Runs `first`, then `second` (same shape, new parameters) on a cache
  /// engine: `second` must hit, and match a cache-off engine byte for
  /// byte and not `first`'s rows (its own parameters took effect).
  void ExpectBoundHit(const PlanPtr& first, const PlanPtr& second) {
    auto engine = MakeCacheEngine();
    auto reference = MakeCacheEngine(/*cache_enabled=*/false);
    ASSERT_TRUE(engine->Execute(first).ok());
    auto got = engine->Execute(second);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    auto s = engine->plan_cache()->stats();
    EXPECT_EQ(s.misses, 1u);
    EXPECT_EQ(s.hits, 1u);
    auto want = reference->Execute(second);
    auto first_rows = reference->Execute(first);
    ASSERT_TRUE(want.ok() && first_rows.ok());
    EXPECT_EQ(OrderedRows(*want.ValueUnsafe()),
              OrderedRows(*got.ValueUnsafe()));
    EXPECT_NE(OrderedRows(*first_rows.ValueUnsafe()),
              OrderedRows(*got.ValueUnsafe()));
  }

  static PlanPtr FilterPlan(double threshold) {
    return PlanNode::Filter(PlanNode::Scan("big"),
                            Gt(Col("num"), Lit(threshold)));
  }

  std::vector<SynonymGroup> groups_;
  std::shared_ptr<SynonymStructuredModel> model_;
  std::vector<std::string> words_;
  TablePtr big_;
  TablePtr small_;
};

// ---------------------------------------------------------------------------
// Shape normalization and parameter rebinding
// ---------------------------------------------------------------------------

TEST_F(PlanCacheTest, NormalizeParameterizesLiterals) {
  auto a = PlanCache::Normalize(*FilterPlan(500.0), "sig");
  auto b = PlanCache::Normalize(*FilterPlan(200.0), "sig");
  // Same shape, different parameter values.
  EXPECT_EQ(a.fingerprint, b.fingerprint);
  ASSERT_EQ(a.params.size(), 1u);
  ASSERT_EQ(b.params.size(), 1u);
  EXPECT_NE(a.params[0].ToString(), b.params[0].ToString());

  // A different knob signature is a different key.
  auto c = PlanCache::Normalize(*FilterPlan(500.0), "other-sig");
  EXPECT_NE(a.fingerprint, c.fingerprint);

  // A structurally different plan is a different key.
  auto d = PlanCache::Normalize(
      *PlanNode::Filter(PlanNode::Scan("big"), Le(Col("num"), Lit(500.0))),
      "sig");
  EXPECT_NE(a.fingerprint, d.fingerprint);

  // Semantic query strings parameterize out too.
  auto s1 = PlanCache::Normalize(
      *PlanNode::SemanticSelect(PlanNode::Scan("big"), "word", words_[0],
                                "m", 0.85f),
      "sig");
  auto s2 = PlanCache::Normalize(
      *PlanNode::SemanticSelect(PlanNode::Scan("big"), "word", words_[1],
                                "m", 0.85f),
      "sig");
  EXPECT_EQ(s1.fingerprint, s2.fingerprint);
  ASSERT_EQ(s1.params.size(), 1u);
  EXPECT_EQ(s1.params[0].AsString(), words_[0]);
  EXPECT_EQ(s2.params[0].AsString(), words_[1]);
}

TEST_F(PlanCacheTest, HitBindsBySlotAndSharesIdenticalParams) {
  PlanCache cache(PlanCacheOptions{});
  PlanPtr cached;
  const auto shape = PlanCache::Normalize(*FilterPlan(500.0), "sig", &cached);
  // The parameterized copy tags its one literal with slot 0.
  ASSERT_EQ(shape.params.size(), 1u);
  EXPECT_EQ(cached->predicate->children()[1]->param_id(), 0);
  ASSERT_EQ(cache.AcquireOrPlan(shape, ConstVersion(1), NeverAbsent()).plan,
            nullptr);
  cache.Install(shape, cached, 0.0, ConstVersion(1), NeverAbsent());

  // Identical parameters: the cached tree is shared untouched.
  auto same = cache.AcquireOrPlan(shape, ConstVersion(1), NeverAbsent());
  EXPECT_EQ(same.plan.get(), cached.get());

  // A new value is written into its slot. Only the node holding the site
  // is copied; the scan below it stays shared.
  auto other =
      cache.AcquireOrPlan(PlanCache::Normalize(*FilterPlan(200.0), "sig"),
                          ConstVersion(1), NeverAbsent());
  ASSERT_NE(other.plan, nullptr);
  EXPECT_NE(other.plan.get(), cached.get());
  EXPECT_EQ(PlanCache::Normalize(*other.plan, "sig").params[0].ToString(),
            Value(200.0).ToString());
  EXPECT_EQ(other.plan->children[0].get(), cached->children[0].get());

  // The cached tree itself is immutable: it still holds the old literal,
  // and the old parameters share it again.
  EXPECT_EQ(PlanCache::Normalize(*cached, "sig").params[0].ToString(),
            Value(500.0).ToString());
  EXPECT_EQ(
      cache.AcquireOrPlan(shape, ConstVersion(1), NeverAbsent()).plan.get(),
      cached.get());
  EXPECT_EQ(cache.stats().hits, 3u);
}

TEST_F(PlanCacheTest, HitKeepsTheSignOfAZeroLiteral) {
  // 0.0 == -0.0, but a projected literal prints "0" vs "-0": a hit must
  // bind the looking query's zero, byte-identical to a cache-off engine.
  auto plan = [](double zero) {
    return PlanNode::Limit(
        PlanNode::Project(PlanNode::Scan("big"), {{"z", Lit(zero)}}), 1);
  };
  auto engine = MakeCacheEngine();
  ASSERT_TRUE(engine->Execute(plan(0.0)).ok());
  auto got = engine->Execute(plan(-0.0));
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(engine->plan_cache()->stats().hits, 1u);
  EXPECT_EQ(OrderedRows(*got.ValueUnsafe()), std::vector<std::string>{"-0|"});
}

TEST_F(PlanCacheTest, UntaggedPlansAreNeverCached) {
  // A plan whose literal carries no parameter id (not the parameterized
  // copy) releases the ticket uncached.
  PlanCache cache(PlanCacheOptions{});
  const PlanPtr plan = FilterPlan(500.0);
  const auto shape = PlanCache::Normalize(*plan, "sig");
  ASSERT_EQ(cache.AcquireOrPlan(shape, ConstVersion(1), NeverAbsent()).plan,
            nullptr);
  cache.Install(shape, plan, 0.0, ConstVersion(1), NeverAbsent());
  EXPECT_EQ(cache.stats().uncacheable, 1u);
  EXPECT_EQ(cache.stats().entries, 0u);

  // A hand-built multi-select's query list carries no id either: every
  // execution re-plans.
  auto engine = MakeCacheEngine();
  auto multi = [&] {
    auto select = PlanNode::SemanticSelect(PlanNode::Scan("big"), "word", "",
                                           "m", 0.85f);
    select->queries = {words_[0], words_[1]};
    return select;
  };
  ASSERT_TRUE(engine->Execute(multi()).ok());
  ASSERT_TRUE(engine->Execute(multi()).ok());
  auto s = engine->plan_cache()->stats();
  EXPECT_EQ(s.hits, 0u);
  EXPECT_EQ(s.misses, 2u);
  EXPECT_EQ(s.uncacheable, 2u);
}

// ---------------------------------------------------------------------------
// Engine-level cache behavior
// ---------------------------------------------------------------------------

TEST_F(PlanCacheTest, HitSkipsOptimizerAndRebindsByteIdentical) {
  auto engine = MakeCacheEngine();
  auto reference = MakeCacheEngine(/*cache_enabled=*/false);

  // Cold: one miss, no hit.
  auto r1 = engine->Execute(FilterPlan(500.0));
  ASSERT_TRUE(r1.ok()) << r1.status().ToString();
  auto s = engine->plan_cache()->stats();
  EXPECT_EQ(s.misses, 1u);
  EXPECT_EQ(s.hits, 0u);
  EXPECT_EQ(s.entries, 1u);

  // Repeat: a hit, and byte-identical to the cold run.
  auto r2 = engine->Execute(FilterPlan(500.0));
  ASSERT_TRUE(r2.ok());
  s = engine->plan_cache()->stats();
  EXPECT_EQ(s.hits, 1u);
  EXPECT_EQ(s.misses, 1u);
  EXPECT_EQ(OrderedRows(*r1.ValueUnsafe()), OrderedRows(*r2.ValueUnsafe()));

  // Same shape, different literal: still a hit (rebind), byte-identical
  // to the same query planned from scratch on a cache-disabled engine.
  auto r3 = engine->Execute(FilterPlan(200.0));
  ASSERT_TRUE(r3.ok());
  s = engine->plan_cache()->stats();
  EXPECT_EQ(s.hits, 2u);
  EXPECT_EQ(s.misses, 1u);
  auto r3_ref = reference->Execute(FilterPlan(200.0));
  ASSERT_TRUE(r3_ref.ok());
  EXPECT_EQ(OrderedRows(*r3_ref.ValueUnsafe()),
            OrderedRows(*r3.ValueUnsafe()));
  EXPECT_EQ(reference->plan_cache()->stats().hits, 0u);

  // EXPLAIN ANALYZE reports the fast path it took.
  auto ea = engine->ExplainAnalyze(FilterPlan(500.0));
  ASSERT_TRUE(ea.ok());
  EXPECT_NE(ea.ValueUnsafe().find("plan: cached(stamp="), std::string::npos);

  // Plan-cache counters export through the unified metrics namespace.
  std::string prom = engine->metrics()->Snapshot().ToPrometheusText();
  EXPECT_NE(prom.find("cre_plan_cache_hits_total"), std::string::npos);
  EXPECT_NE(prom.find("cre_plan_cache_misses_total"), std::string::npos);
  EXPECT_NE(prom.find("cre_scheduler_morsel_rows"), std::string::npos);
}

// Four shapes that value-keyed rebinding could not serve (one old value
// bound to two new ones); slot binding hits on each.

TEST_F(PlanCacheTest, BindsOneValueAtTwoSitesToTwoValues) {
  auto band = [](double lo, double hi) {
    return PlanNode::Filter(
        PlanNode::Filter(PlanNode::Scan("big"), Ge(Col("num"), Lit(lo))),
        Le(Col("num"), Lit(hi)));
  };
  ExpectBoundHit(band(300.0, 300.0), band(200.0, 600.0));
}

TEST_F(PlanCacheTest, BindsOneExprSharedAtTwoSites) {
  const ExprPtr shared = Gt(Col("num"), Lit(300.0));
  const PlanPtr first =
      PlanNode::Filter(PlanNode::Filter(PlanNode::Scan("big"), shared),
                       shared);
  const PlanPtr second = PlanNode::Filter(
      PlanNode::Filter(PlanNode::Scan("big"), Gt(Col("num"), Lit(100.0))),
      Gt(Col("num"), Lit(700.0)));
  ExpectBoundHit(first, second);
}

TEST_F(PlanCacheTest, BindsTwoEqualSelectQueriesToDifferentTexts) {
  auto selects = [&](const std::string& outer, const std::string& inner) {
    return PlanNode::SemanticSelect(
        PlanNode::SemanticSelect(PlanNode::Scan("big"), "word", inner, "m",
                                 0.5f),
        "word", outer, "m", 0.5f);
  };
  ExpectBoundHit(selects(groups_[0].words[0], groups_[0].words[0]),
                 selects(groups_[1].words[0], groups_[1].words[1]));
}

TEST_F(PlanCacheTest, BindsSelectsOnBothSidesOfASwappedJoin) {
  // Disjoint column names on the two sides let RuleReorderJoinInputs put
  // the smaller input on the build (right) side.
  auto side = [&](const char* table, const char* prefix,
                  const std::string& query) {
    const std::string p(prefix);
    return PlanNode::Project(
        PlanNode::SemanticSelect(PlanNode::Scan(table), "word", query, "m",
                                 0.85f),
        {{p + "id", Col("id")}, {p + "word", Col("word")}});
  };
  auto join = [&](const std::string& small_query,
                  const std::string& big_query) {
    return PlanNode::Join(side("small", "s_", small_query),
                          side("big", "b_", big_query), "s_id", "b_id");
  };
  const PlanPtr first = join(words_[0], words_[0]);
  auto engine = MakeCacheEngine();
  auto explained = engine->Explain(first);
  ASSERT_TRUE(explained.ok());
  const std::string& text = explained.ValueUnsafe();
  ASSERT_LT(text.find("Scan(big"), text.find("Scan(small"))
      << "the optimizer no longer swaps this join:\n" << text;
  ExpectBoundHit(first, join(groups_[1].words[0], groups_[2].words[0]));
}

TEST_F(PlanCacheTest, ExplainAnnotatesWithoutPopulating) {
  auto engine = MakeCacheEngine();

  // Cold EXPLAIN: the read-only probe reports "optimized" and must not
  // install an entry.
  auto cold = engine->Explain(FilterPlan(500.0));
  ASSERT_TRUE(cold.ok());
  EXPECT_NE(cold.ValueUnsafe().find("plan: optimized"), std::string::npos);
  EXPECT_EQ(engine->plan_cache()->stats().entries, 0u);

  // After an Execute the same EXPLAIN sees the installed entry.
  ASSERT_TRUE(engine->Execute(FilterPlan(500.0)).ok());
  auto warm = engine->Explain(FilterPlan(500.0));
  ASSERT_TRUE(warm.ok());
  EXPECT_NE(warm.ValueUnsafe().find("plan: cached(stamp="),
            std::string::npos);
}

TEST_F(PlanCacheTest, TableStampInvalidates) {
  auto engine = MakeCacheEngine();

  auto r1 = engine->Execute(FilterPlan(500.0));
  ASSERT_TRUE(r1.ok());
  ASSERT_TRUE(engine->Execute(FilterPlan(500.0)).ok());
  EXPECT_EQ(engine->plan_cache()->stats().hits, 1u);

  // A destructive Put bumps the table stamp: the entry is stale.
  engine->catalog().Put("big", big_);
  auto r2 = engine->Execute(FilterPlan(500.0));
  ASSERT_TRUE(r2.ok());
  auto s = engine->plan_cache()->stats();
  EXPECT_GE(s.invalidations, 1u);
  EXPECT_EQ(s.misses, 2u);
  // Same rows (the replacement was the same table).
  EXPECT_EQ(OrderedRows(*r1.ValueUnsafe()), OrderedRows(*r2.ValueUnsafe()));

  // And the refreshed entry serves hits again.
  ASSERT_TRUE(engine->Execute(FilterPlan(500.0)).ok());
  EXPECT_EQ(engine->plan_cache()->stats().hits, 2u);
}

TEST_F(PlanCacheTest, IndexResidencyFlipInvalidates) {
  EngineOptions eo;
  eo.num_threads = kThreads;
  eo.morsel_rows = kMorselRows;
  eo.optimizer.allow_approximate_similarity = true;
  auto engine = MakeEngine(eo);

  auto make_plan = [&] {
    auto plan = PlanNode::SemanticSelect(PlanNode::Scan("big"), "word",
                                         words_[0], "m", 0.85f);
    plan->strategy = SemanticJoinStrategy::kHnsw;
    plan->strategy_pinned = true;
    return plan;
  };

  // Cold: planned (and installed) while the managed index is absent; the
  // synchronous build during execution flips it to resident.
  auto r1 = engine->Execute(make_plan());
  ASSERT_TRUE(r1.ok()) << r1.status().ToString();
  EXPECT_EQ(engine->plan_cache()->stats().misses, 1u);
  EXPECT_TRUE(engine->index_manager()->IsResident(
      IndexKey{"big", "word", "m", SemanticJoinStrategy::kHnsw}));

  // The absent -> resident class flip can change the strategy choice, so
  // the next lookup re-plans instead of serving the stale entry.
  auto r2 = engine->Execute(make_plan());
  ASSERT_TRUE(r2.ok());
  auto s = engine->plan_cache()->stats();
  EXPECT_GE(s.invalidations, 1u);
  EXPECT_EQ(s.misses, 2u);

  // Re-planned under the resident class: stable hits from here on.
  auto r3 = engine->Execute(make_plan());
  ASSERT_TRUE(r3.ok());
  EXPECT_GE(engine->plan_cache()->stats().hits, 1u);
  EXPECT_EQ(OrderedRows(*r2.ValueUnsafe()), OrderedRows(*r3.ValueUnsafe()));
}

// ---------------------------------------------------------------------------
// PlanCache unit behavior: LRU bound and single-flight population
// ---------------------------------------------------------------------------

TEST_F(PlanCacheTest, LruBoundsInstalledEntries) {
  PlanCacheOptions po;
  po.capacity = 2;
  PlanCache cache(po);

  for (const char* table : {"t1", "t2", "t3"}) {
    auto plan = PlanNode::Scan(table);
    auto shape = PlanCache::Normalize(*plan, "sig");
    auto lookup = cache.AcquireOrPlan(shape, ConstVersion(1), NeverAbsent());
    ASSERT_EQ(lookup.plan, nullptr);
    cache.Install(shape, plan, 0.0, ConstVersion(1), NeverAbsent());
  }

  auto s = cache.stats();
  EXPECT_EQ(s.misses, 3u);
  EXPECT_LE(s.entries, 2u);
  EXPECT_GE(s.evictions, 1u);

  // The LRU victim was the oldest shape: t1 misses again, t3 hits.
  auto s1 = PlanCache::Normalize(*PlanNode::Scan("t1"), "sig");
  auto l1 = cache.AcquireOrPlan(s1, ConstVersion(1), NeverAbsent());
  EXPECT_EQ(l1.plan, nullptr);
  cache.Abort(s1);
  auto s3 = PlanCache::Normalize(*PlanNode::Scan("t3"), "sig");
  auto l3 = cache.AcquireOrPlan(s3, ConstVersion(1), NeverAbsent());
  EXPECT_NE(l3.plan, nullptr);
}

TEST_F(PlanCacheTest, SingleFlightPopulation) {
  PlanCache cache(PlanCacheOptions{});
  auto plan = PlanNode::Scan("t");
  auto shape = PlanCache::Normalize(*plan, "sig");

  // The first caller takes the planning ticket...
  auto first = cache.AcquireOrPlan(shape, ConstVersion(1), NeverAbsent());
  ASSERT_EQ(first.plan, nullptr);

  // ...and concurrent lookups on the same fingerprint wait for the
  // install instead of planning again.
  constexpr int kWaiters = 3;
  std::atomic<int> hits{0};
  std::vector<std::thread> waiters;
  waiters.reserve(kWaiters);
  for (int i = 0; i < kWaiters; ++i) {
    waiters.emplace_back([&] {
      auto lookup =
          cache.AcquireOrPlan(shape, ConstVersion(1), NeverAbsent());
      if (lookup.plan != nullptr) {
        hits.fetch_add(1);
      }
    });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  cache.Install(shape, plan, 0.0, ConstVersion(1), NeverAbsent());
  for (auto& t : waiters) t.join();

  EXPECT_EQ(hits.load(), kWaiters);
  auto s = cache.stats();
  EXPECT_EQ(s.misses, 1u);
  EXPECT_EQ(s.hits, static_cast<std::uint64_t>(kWaiters));
  EXPECT_GE(s.single_flight_waits, 1u);
  // The waiters' hits book their own lookups, not the 50 ms they waited
  // while the first caller held the ticket.
  EXPECT_LT(s.lookup_seconds, 0.025);
}

// ---------------------------------------------------------------------------
// Mid-query index adoption
// ---------------------------------------------------------------------------

// A cold select adopts the finished index mid-query at every degree of
// parallelism.
class PlanCacheDopTest : public PlanCacheTest,
                         public ::testing::WithParamInterface<std::size_t> {};

INSTANTIATE_TEST_SUITE_P(Threads, PlanCacheDopTest,
                         ::testing::Values(std::size_t{1}, std::size_t{2},
                                           kThreads));

TEST_P(PlanCacheDopTest, MidQueryAdoptionIsByteIdenticalToFallback) {
  EngineOptions eo;
  eo.num_threads = GetParam();
  eo.morsel_rows = kMorselRows;
  eo.index.async_builds = true;
  // Probe every IVF list: with exact verification on top, the index path
  // admits exactly the rows the brute-force scan admits.
  eo.index.ivf.num_centroids = 32;
  eo.index.ivf.nprobe = 32;
  auto engine = MakeEngine(eo);

  auto make_plan = [&](SemanticJoinStrategy s) {
    auto plan = PlanNode::SemanticSelect(PlanNode::Scan("big"), "word",
                                         words_[0], "m", 0.85f);
    plan->strategy = s;
    plan->strategy_pinned = true;
    return plan;
  };

  // Reference: the pure brute-force scan (never consults the manager).
  auto ref = engine->ExecuteUnoptimized(
      make_plan(SemanticJoinStrategy::kBruteForce));
  ASSERT_TRUE(ref.ok()) << ref.status().ToString();

  // Adoptive run: the cold index-backed select starts on the fallback
  // while the background build runs; the hook completes the build right
  // before the second wave's poll, so the remaining morsels swap onto
  // the index operator mid-query.
  ParallelPlanDriver::SetAdoptionWaveHookForTesting(
      [&](std::size_t first_morsel) {
        if (first_morsel > 0) engine->index_manager()->WaitForBuilds();
      });
  auto got = engine->ExecuteUnoptimized(make_plan(SemanticJoinStrategy::kIvf));
  ParallelPlanDriver::SetAdoptionWaveHookForTesting(nullptr);

  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_GE(engine->index_adoptions(), 1u);
  EXPECT_EQ(OrderedRows(*ref.ValueUnsafe()), OrderedRows(*got.ValueUnsafe()));

  // The adoption counter exports through metrics.
  std::string prom = engine->metrics()->Snapshot().ToPrometheusText();
  EXPECT_NE(prom.find("cre_index_adoptions_total"), std::string::npos);
}

// When the build a cold select was waiting for is gone partway through
// the waves, polling stops and one last wave brute-forces the rest. Here
// the table changes under the query and the index is rebuilt for the new
// version, so the poll after the first wave finds an index that cannot
// serve this query's snapshot: the answer is the all-fallback one and
// nothing is adopted.
TEST_P(PlanCacheDopTest, FallbackFinishesInOneWaveOnceTheBuildIsGone) {
  EngineOptions eo;
  eo.num_threads = GetParam();
  eo.morsel_rows = kMorselRows;
  eo.index.async_builds = true;
  auto engine = MakeEngine(eo);

  auto make_plan = [&](SemanticJoinStrategy s) {
    auto plan = PlanNode::SemanticSelect(PlanNode::Scan("big"), "word",
                                         words_[0], "m", 0.85f);
    plan->strategy = s;
    plan->strategy_pinned = true;
    return plan;
  };
  auto ref = engine->ExecuteUnoptimized(
      make_plan(SemanticJoinStrategy::kBruteForce));
  ASSERT_TRUE(ref.ok()) << ref.status().ToString();

  Rng rng(77);
  const TablePtr replacement = RandomTable(rng, 1000);
  std::vector<std::size_t> polls;
  ParallelPlanDriver::SetAdoptionWaveHookForTesting(
      [&](std::size_t first_morsel) {
        polls.push_back(first_morsel);
        if (first_morsel == 0) return;
        engine->catalog().Put("big", replacement);
        EXPECT_TRUE(engine->index_manager()
                        ->GetOrBuild(IndexKey{"big", "word", "m",
                                              SemanticJoinStrategy::kIvf})
                        .ok());
      });
  auto got = engine->ExecuteUnoptimized(make_plan(SemanticJoinStrategy::kIvf));
  ParallelPlanDriver::SetAdoptionWaveHookForTesting(nullptr);

  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_EQ(engine->index_adoptions(), 0u);
  EXPECT_EQ(OrderedRows(*ref.ValueUnsafe()), OrderedRows(*got.ValueUnsafe()));
  // The first wave, then one poll that gives up: the 12 morsels span
  // more than one wave of 2 morsels per worker at every dop here.
  EXPECT_EQ(polls, (std::vector<std::size_t>{0, 2 * GetParam()}));
}

// ---------------------------------------------------------------------------
// Concurrency: cache hits under a writer storm (TSan-checked in CI)
// ---------------------------------------------------------------------------

TEST_F(PlanCacheTest, ConcurrentHitsUnderPutStormStaySnapshotConsistent) {
  auto engine = MakeCacheEngine();
  const std::size_t n = 2000;
  TablePtr low = MarkerTable(100.0, n);
  TablePtr high = MarkerTable(900.0, n);
  engine->catalog().Put("big", low);

  // Warm the entry so the clients run the hit path.
  ASSERT_TRUE(engine->Execute(FilterPlan(500.0)).ok());

  std::atomic<bool> stop{false};
  std::atomic<bool> failed{false};
  std::thread writer([&] {
    for (int i = 0; i < 60; ++i) {
      engine->catalog().Put("big", (i % 2 == 0) ? high : low);
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    stop.store(true);
  });

  // Every result must come from exactly one table version: all rows pass
  // the filter (marker 900) or none do (marker 100) — never a mix. The
  // rebinding client proves a parameter-rebound cached plan revalidates
  // against its own snapshot too.
  std::vector<std::thread> clients;
  for (int c = 0; c < 3; ++c) {
    clients.emplace_back([&, c] {
      const double threshold = (c == 2) ? 200.0 : 500.0;
      while (!stop.load()) {
        auto r = engine->Execute(FilterPlan(threshold));
        if (!r.ok()) {
          failed.store(true);
          return;
        }
        const std::size_t rows = r.ValueUnsafe()->num_rows();
        if (rows != 0 && rows != n) {
          failed.store(true);
          return;
        }
      }
    });
  }
  writer.join();
  for (auto& t : clients) t.join();

  EXPECT_FALSE(failed.load());
  auto s = engine->plan_cache()->stats();
  EXPECT_GE(s.hits, 1u);
  EXPECT_GE(s.invalidations, 1u);
}

}  // namespace
}  // namespace cre
