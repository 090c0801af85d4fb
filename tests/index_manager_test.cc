#include <atomic>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "embed/hash_embedding_model.h"
#include "engine/engine.h"
#include "engine/query_builder.h"
#include "index/index_manager.h"
#include "optimizer/rules.h"
#include "storage/catalog.h"

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

std::vector<std::string> WordCorpus(std::size_t n, std::size_t distinct = 64) {
  std::vector<std::string> words;
  words.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    words.push_back("word_" + std::to_string(i % distinct));
  }
  return words;
}

EmbeddingModelPtr MakeModel(std::size_t dim = 32) {
  HashEmbeddingModel::Options o;
  o.dim = dim;
  return std::make_shared<HashEmbeddingModel>(o);
}

struct Fixture {
  Catalog catalog;
  ModelRegistry models;

  Fixture() { models.Put("m", MakeModel()); }

  IndexManager MakeManager(IndexManagerOptions options = {}) {
    return IndexManager(&catalog, &models, options);
  }
};

TEST(CatalogVersionTest, StampsAdvanceOnEveryMutation) {
  Catalog catalog;
  EXPECT_EQ(catalog.Version("t"), 0u);
  ASSERT_TRUE(catalog.Register("t", MakeStringTable({"a"})).ok());
  const std::uint64_t v1 = catalog.Version("t");
  EXPECT_GT(v1, 0u);
  catalog.Put("t", MakeStringTable({"b"}));
  const std::uint64_t v2 = catalog.Version("t");
  EXPECT_GT(v2, v1);
  ASSERT_TRUE(catalog.Drop("t").ok());
  EXPECT_GT(catalog.Version("t"), v2);

  auto missing = catalog.GetVersioned("t");
  EXPECT_TRUE(missing.status().IsNotFound());
}

TEST(IndexManagerTest, BuildsOnceThenServesHits) {
  Fixture f;
  f.catalog.Put("products", MakeStringTable(WordCorpus(300)));
  IndexManager manager = f.MakeManager();

  IndexKey key{"products", "name", "m", SemanticJoinStrategy::kHnsw};
  auto first = manager.GetOrBuild(key);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_EQ(first.ValueOrDie()->size(), 300u);
  EXPECT_TRUE(manager.IsResident(key));

  auto second = manager.GetOrBuild(key);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(first.ValueOrDie().get(), second.ValueOrDie().get());

  const auto stats = manager.stats();
  EXPECT_EQ(stats.builds, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.resident_count, 1u);
  EXPECT_GT(stats.resident_bytes, 0u);
}

TEST(IndexManagerTest, DistinctKindsAndColumnsAreDistinctEntries) {
  Fixture f;
  f.catalog.Put("t", MakeStringTable(WordCorpus(100)));
  IndexManager manager = f.MakeManager();

  ASSERT_TRUE(
      manager.GetOrBuild({"t", "name", "m", SemanticJoinStrategy::kHnsw})
          .ok());
  ASSERT_TRUE(
      manager.GetOrBuild({"t", "name", "m", SemanticJoinStrategy::kIvf})
          .ok());
  ASSERT_TRUE(
      manager.GetOrBuild({"t", "name", "m", SemanticJoinStrategy::kIvfPq})
          .ok());
  EXPECT_EQ(manager.stats().builds, 3u);
  EXPECT_EQ(manager.stats().resident_count, 3u);
}

TEST(IndexManagerTest, TableUpdateInvalidatesAndRebuilds) {
  Fixture f;
  f.catalog.Put("t", MakeStringTable(WordCorpus(100)));
  IndexManager manager = f.MakeManager();
  IndexKey key{"t", "name", "m", SemanticJoinStrategy::kHnsw};

  auto first = manager.GetOrBuild(key);
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(first.ValueOrDie()->size(), 100u);

  // Replacing the table bumps its catalog version: the entry is stale.
  f.catalog.Put("t", MakeStringTable(WordCorpus(150)));
  EXPECT_FALSE(manager.IsResident(key));

  auto second = manager.GetOrBuild(key);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second.ValueOrDie()->size(), 150u);
  EXPECT_NE(first.ValueOrDie().get(), second.ValueOrDie().get());

  const auto stats = manager.stats();
  EXPECT_EQ(stats.builds, 2u);
  EXPECT_EQ(stats.invalidations, 1u);
  EXPECT_EQ(stats.resident_count, 1u);
}

TEST(IndexManagerTest, ExplicitInvalidateTableDropsAllItsEntries) {
  Fixture f;
  f.catalog.Put("a", MakeStringTable(WordCorpus(80)));
  f.catalog.Put("b", MakeStringTable(WordCorpus(80)));
  IndexManager manager = f.MakeManager();
  ASSERT_TRUE(
      manager.GetOrBuild({"a", "name", "m", SemanticJoinStrategy::kHnsw})
          .ok());
  ASSERT_TRUE(
      manager.GetOrBuild({"a", "name", "m", SemanticJoinStrategy::kIvf})
          .ok());
  ASSERT_TRUE(
      manager.GetOrBuild({"b", "name", "m", SemanticJoinStrategy::kHnsw})
          .ok());

  manager.InvalidateTable("a");
  EXPECT_FALSE(
      manager.IsResident({"a", "name", "m", SemanticJoinStrategy::kHnsw}));
  EXPECT_TRUE(
      manager.IsResident({"b", "name", "m", SemanticJoinStrategy::kHnsw}));
  EXPECT_EQ(manager.stats().invalidations, 2u);
  EXPECT_EQ(manager.stats().resident_count, 1u);
}

TEST(IndexManagerTest, LruEvictionUnderMemoryBudget) {
  Fixture f;
  f.catalog.Put("t1", MakeStringTable(WordCorpus(200)));
  f.catalog.Put("t2", MakeStringTable(WordCorpus(200)));

  // Budget fits roughly one index: building the second evicts the first
  // (least recently used), never the entry just built.
  IndexManager probe = f.MakeManager();
  IndexKey k1{"t1", "name", "m", SemanticJoinStrategy::kHnsw};
  IndexKey k2{"t2", "name", "m", SemanticJoinStrategy::kHnsw};
  ASSERT_TRUE(probe.GetOrBuild(k1).ok());
  const std::size_t one_index_bytes = probe.stats().resident_bytes;

  IndexManagerOptions options;
  options.memory_budget_bytes = one_index_bytes + one_index_bytes / 2;
  IndexManager manager = f.MakeManager(options);
  ASSERT_TRUE(manager.GetOrBuild(k1).ok());
  ASSERT_TRUE(manager.GetOrBuild(k2).ok());

  auto stats = manager.stats();
  EXPECT_EQ(stats.evictions, 1u);
  EXPECT_EQ(stats.resident_count, 1u);
  EXPECT_LE(stats.resident_bytes, options.memory_budget_bytes);
  EXPECT_FALSE(manager.IsResident(k1));
  EXPECT_TRUE(manager.IsResident(k2));

  // Touching k1 again is a fresh (miss + build), and k2 becomes the LRU
  // victim in turn.
  ASSERT_TRUE(manager.GetOrBuild(k1).ok());
  stats = manager.stats();
  EXPECT_EQ(stats.builds, 3u);
  EXPECT_EQ(stats.evictions, 2u);
  EXPECT_TRUE(manager.IsResident(k1));
  EXPECT_FALSE(manager.IsResident(k2));
}

TEST(IndexManagerTest, ErrorsAreNotCached) {
  Fixture f;
  Schema schema;
  schema.AddField({"price", DataType::kFloat64, 0});
  auto table = Table::Make(schema);
  table->AppendRow({Value(1.0)}).Check();
  f.catalog.Put("nums", table);
  IndexManager manager = f.MakeManager();

  IndexKey bad_column{"nums", "price", "m", SemanticJoinStrategy::kHnsw};
  EXPECT_TRUE(manager.GetOrBuild(bad_column).status().IsTypeError());
  EXPECT_TRUE(manager.GetOrBuild(bad_column).status().IsTypeError());

  IndexKey bad_table{"missing", "name", "m", SemanticJoinStrategy::kHnsw};
  EXPECT_TRUE(manager.GetOrBuild(bad_table).status().IsNotFound());
  IndexKey bad_model{"nums", "price", "nope", SemanticJoinStrategy::kHnsw};
  EXPECT_FALSE(manager.GetOrBuild(bad_model).ok());
  IndexKey brute{"nums", "price", "m", SemanticJoinStrategy::kBruteForce};
  EXPECT_FALSE(manager.GetOrBuild(brute).ok());

  const auto stats = manager.stats();
  EXPECT_EQ(stats.builds, 0u);
  EXPECT_GE(stats.build_failures, 4u);
  EXPECT_EQ(stats.resident_count, 0u);
}

TEST(IndexManagerTest, EmptyTableBuildsEmptyIndex) {
  Fixture f;
  f.catalog.Put("empty", MakeStringTable({}));
  IndexManager manager = f.MakeManager();
  auto r =
      manager.GetOrBuild({"empty", "name", "m", SemanticJoinStrategy::kHnsw});
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r.ValueOrDie()->size(), 0u);
}

TEST(IndexManagerTest, SingleFlightUnderConcurrency) {
  Fixture f;
  f.catalog.Put("big", MakeStringTable(WordCorpus(3000, 512)));
  IndexManager manager = f.MakeManager();
  IndexKey key{"big", "name", "m", SemanticJoinStrategy::kHnsw};

  constexpr int kThreads = 8;
  std::vector<std::shared_ptr<const VectorIndex>> results(kThreads);
  std::vector<std::thread> threads;
  std::atomic<int> failures{0};
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      auto r = manager.GetOrBuild(key);
      if (r.ok()) {
        results[t] = r.ValueOrDie();
      } else {
        failures.fetch_add(1);
      }
    });
  }
  for (auto& th : threads) th.join();

  EXPECT_EQ(failures.load(), 0);
  for (int t = 1; t < kThreads; ++t) {
    EXPECT_EQ(results[0].get(), results[t].get());
  }
  const auto stats = manager.stats();
  EXPECT_EQ(stats.builds, 1u);
  EXPECT_EQ(stats.misses + stats.hits, static_cast<std::uint64_t>(kThreads));
}

TEST(IndexManagerTest, ConcurrentMixedKeysAndInvalidations) {
  Fixture f;
  for (int i = 0; i < 3; ++i) {
    f.catalog.Put("t" + std::to_string(i), MakeStringTable(WordCorpus(400)));
  }
  IndexManagerOptions options;
  options.memory_budget_bytes = 1ull << 20;  // tight: forces evictions too
  IndexManager manager = f.MakeManager(options);

  std::atomic<int> errors{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < 20; ++i) {
        const std::string table = "t" + std::to_string((t + i) % 3);
        const auto kind = (i % 2 == 0) ? SemanticJoinStrategy::kHnsw
                                       : SemanticJoinStrategy::kIvf;
        auto r = manager.GetOrBuild({table, "name", "m", kind});
        if (!r.ok()) errors.fetch_add(1);
        if (t == 0 && i % 7 == 3) {
          f.catalog.Put(table, MakeStringTable(WordCorpus(400)));
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(errors.load(), 0);

  // Counters stay internally consistent under the mix.
  const auto stats = manager.stats();
  EXPECT_EQ(stats.hits + stats.misses, 8u * 20u);
  EXPECT_GE(stats.builds, 1u);
  EXPECT_LE(stats.resident_bytes, options.memory_budget_bytes);
}

// ---- engine integration: cross-query reuse ----

struct EngineFixture {
  Engine engine;

  explicit EngineFixture(std::size_t threads = 2)
      : engine(MakeOptions(threads)) {
    engine.models().Put("m", MakeModel());
    engine.catalog().Put("products",
                         MakeStringTable(WordCorpus(2000, 128), "name"));
    engine.catalog().Put("labels",
                         MakeStringTable(WordCorpus(64, 64), "label"));
  }

  static EngineOptions MakeOptions(std::size_t threads) {
    EngineOptions o;
    o.num_threads = threads;
    o.morsel_rows = 256;
    return o;
  }
};

TEST(IndexManagerEngineTest, WarmSemanticJoinReusesIndexAcrossQueries) {
  EngineFixture f;
  auto make_plan = [&] {
    PlanPtr plan = PlanNode::SemanticJoin(PlanNode::Scan("products"),
                                          PlanNode::Scan("labels"), "name",
                                          "label", "m", 0.95f);
    plan->strategy = SemanticJoinStrategy::kHnsw;
    plan->strategy_pinned = true;
    return plan;
  };

  auto cold = f.engine.Execute(make_plan());
  ASSERT_TRUE(cold.ok()) << cold.status().ToString();
  const auto cold_stats = f.engine.index_manager()->stats();
  EXPECT_EQ(cold_stats.builds, 1u);

  auto warm = f.engine.Execute(make_plan());
  ASSERT_TRUE(warm.ok());
  const auto warm_stats = f.engine.index_manager()->stats();
  EXPECT_EQ(warm_stats.builds, cold_stats.builds) << "warm run rebuilt";
  EXPECT_GT(warm_stats.hits, cold_stats.hits);

  // Same physical strategy, same rows.
  EXPECT_EQ(cold.ValueOrDie()->num_rows(), warm.ValueOrDie()->num_rows());

  // Updating the build-side table invalidates: next run rebuilds.
  f.engine.catalog().Put("labels",
                         MakeStringTable(WordCorpus(64, 64), "label"));
  auto after_update = f.engine.Execute(make_plan());
  ASSERT_TRUE(after_update.ok());
  const auto final_stats = f.engine.index_manager()->stats();
  EXPECT_EQ(final_stats.builds, warm_stats.builds + 1);
  EXPECT_GE(final_stats.invalidations, 1u);
}

TEST(IndexManagerEngineTest, IndexBackedSelectMatchesScanningSelect) {
  EngineFixture f;

  PlanPtr indexed = PlanNode::SemanticSelect(PlanNode::Scan("products"),
                                             "name", "word_7", "m", 0.98f);
  indexed->strategy = SemanticJoinStrategy::kHnsw;
  indexed->strategy_pinned = true;

  PlanPtr brute = PlanNode::SemanticSelect(PlanNode::Scan("products"),
                                           "name", "word_7", "m", 0.98f);
  brute->strategy_pinned = true;  // stays kBruteForce

  auto indexed_result = f.engine.Execute(indexed);
  ASSERT_TRUE(indexed_result.ok()) << indexed_result.status().ToString();
  auto brute_result = f.engine.Execute(brute);
  ASSERT_TRUE(brute_result.ok());

  // The subword model gives word_7 a sharp self-match at 0.98; the graph
  // search must find the same row set in the same (row) order.
  ASSERT_EQ(indexed_result.ValueOrDie()->num_rows(),
            brute_result.ValueOrDie()->num_rows());
  const auto& a = indexed_result.ValueOrDie()->column(0).strings();
  const auto& b = brute_result.ValueOrDie()->column(0).strings();
  EXPECT_EQ(a, b);
  EXPECT_EQ(f.engine.index_manager()->stats().builds, 1u);

  // Warm repeat: zero additional builds.
  auto again = f.engine.Execute(indexed->Clone());
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(f.engine.index_manager()->stats().builds, 1u);
}

TEST(IndexManagerEngineTest, SerialEngineMatchesParallelEngine) {
  EngineFixture serial(1), parallel(4);
  for (auto* f : {&serial, &parallel}) {
    PlanPtr plan = PlanNode::SemanticSelect(PlanNode::Scan("products"),
                                            "name", "word_3", "m", 0.98f);
    plan->strategy = SemanticJoinStrategy::kHnsw;
    plan->strategy_pinned = true;
    auto r = f->engine.Execute(plan);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
  }
}

// ---- optimizer integration: residency-aware strategy choice ----

TEST(IndexSelectionRuleTest, SelectFlipsToIndexOnlyWithManager) {
  CostModel cost(nullptr);  // default horizon 1: no speculative investment

  auto make_plan = [] {
    PlanPtr scan = PlanNode::Scan("products");
    scan->est_rows = 100000;
    PlanPtr select =
        PlanNode::SemanticSelect(scan, "name", "shoes", "m", 0.9f);
    select->est_rows = 1000;
    return select;
  };

  // Without a residency probe (no IndexManager) the rule must not fire:
  // the physical operator needs the manager to serve the index.
  PlanPtr no_manager = RulePickSemanticSelectStrategy(
      make_plan(), cost, nullptr);
  EXPECT_EQ(no_manager->strategy, SemanticJoinStrategy::kBruteForce);

  // Cold manager at the default horizon: no index is resident and cold
  // builds are charged in full, so the plan stays exactly what the
  // pre-IndexManager engine would run.
  IndexResidencyProbe cold = [](const std::string&, const std::string&,
                                const std::string&, SemanticJoinStrategy) {
    return IndexResidency::kAbsent;
  };
  PlanPtr conservative =
      RulePickSemanticSelectStrategy(make_plan(), cost, cold);
  EXPECT_EQ(conservative->strategy, SemanticJoinStrategy::kBruteForce);

  // Repeated-traffic horizon: the amortized cold build beats embedding
  // 100k rows per query, so the engine invests in an index up front.
  CostParams invest_params;
  invest_params.index_reuse_horizon = 64;
  CostModel investing(nullptr, invest_params);
  PlanPtr invested =
      RulePickSemanticSelectStrategy(make_plan(), investing, cold);
  EXPECT_NE(invested->strategy, SemanticJoinStrategy::kBruteForce);
  EXPECT_FALSE(invested->index_resident);

  // Resident index: flips even at the conservative horizon, flagged
  // resident, and strictly cheaper than its own cold form.
  IndexResidencyProbe warm = [](const std::string&, const std::string&,
                                const std::string&, SemanticJoinStrategy) {
    return IndexResidency::kResident;
  };
  PlanPtr resident = RulePickSemanticSelectStrategy(make_plan(), cost, warm);
  EXPECT_NE(resident->strategy, SemanticJoinStrategy::kBruteForce);
  EXPECT_TRUE(resident->index_resident);
  EXPECT_LT(cost.SemanticSelectStrategyCost(100000, "m", resident->strategy,
                                            true),
            cost.SemanticSelectStrategyCost(100000, "m", resident->strategy,
                                            false));
}

TEST(IndexSelectionRuleTest, RepeatedSelectInvestsInIvfAtAModerateHorizon) {
  // E6b's shape: a 30k- to 50k-row select on two threads, repeated 32
  // times. IVF trains k-means on a bounded sample and its foreground build
  // fans out over the pool like the scan, so its build amortizes under the
  // scan there; at a horizon of 4 it does not.
  auto pick = [](double horizon, double rows) {
    CostParams params;
    params.parallelism = 2;
    params.index_reuse_horizon = horizon;
    const CostModel cost(nullptr, params);
    PlanPtr scan = PlanNode::Scan("products");
    scan->est_rows = rows;
    const IndexResidencyProbe cold =
        [](const std::string&, const std::string&, const std::string&,
           SemanticJoinStrategy) { return IndexResidency::kAbsent; };
    return RulePickSemanticSelectStrategy(
               PlanNode::SemanticSelect(scan, "name", "shoes", "m", 0.9f),
               cost, cold)
        ->strategy;
  };
  EXPECT_EQ(pick(32, 50000), SemanticJoinStrategy::kIvf);
  EXPECT_EQ(pick(32, 30000), SemanticJoinStrategy::kIvf);
  EXPECT_EQ(pick(4, 50000), SemanticJoinStrategy::kBruteForce);
}

TEST(IndexSelectionRuleTest, RulesSkipFamiliesThatRejectTheModelDim) {
  // IVF-PQ splits each vector into ivfpq_m = 8 subspaces, so it cannot
  // index a dim-100 model. Both rules must pass it over even where its
  // cost is lowest; a dim-96 model is the control that it is.
  ModelRegistry models;
  models.Put("d100", MakeModel(100));
  models.Put("d96", MakeModel(96));
  const CostModel cost(&models);
  const IndexResidencyProbe warm = [](const std::string&, const std::string&,
                                      const std::string&,
                                      SemanticJoinStrategy) {
    return IndexResidency::kResident;
  };
  auto select_over = [&](const std::string& model) {
    PlanPtr scan = PlanNode::Scan("products");
    scan->est_rows = 100000;
    return RulePickSemanticSelectStrategy(
        PlanNode::SemanticSelect(scan, "name", "shoes", model, 0.9f), cost,
        warm);
  };
  auto join_over = [&](const std::string& model) {
    PlanPtr probe = PlanNode::Scan("products");
    probe->est_rows = 50000;
    PlanPtr build = PlanNode::Scan("labels");
    build->est_rows = 256;
    return RulePickSemanticJoinStrategy(
        PlanNode::SemanticJoin(probe, build, "name", "label", model, 0.9f),
        cost);
  };
  EXPECT_EQ(select_over("d96")->strategy, SemanticJoinStrategy::kIvfPq);
  EXPECT_EQ(join_over("d96")->strategy, SemanticJoinStrategy::kIvfPq);

  const PlanPtr select = select_over("d100");
  EXPECT_NE(select->strategy, SemanticJoinStrategy::kIvfPq);
  EXPECT_NE(select->strategy, SemanticJoinStrategy::kBruteForce);
  EXPECT_NE(join_over("d100")->strategy, SemanticJoinStrategy::kIvfPq);

  // The check follows the configured subspace count: 5 divides 100 but
  // not 96.
  CostParams five;
  five.ivfpq_m = 5;
  EXPECT_TRUE(CostModel(&models, five)
                  .StrategyAcceptsModel(SemanticJoinStrategy::kIvfPq, "d100"));
  EXPECT_FALSE(CostModel(&models, five)
                   .StrategyAcceptsModel(SemanticJoinStrategy::kIvfPq, "d96"));
}

TEST(IndexSelectionRuleTest, UnpinnedJoinOverIndivisibleDimExecutes) {
  // A repeated-traffic horizon and a large probe side make IVF-PQ the
  // cheapest join family by cost; the model's dim rules it out under the
  // engine's configured pq_m (the default 8 for dim 100, and 5 for 96).
  for (const auto& [pq_m, dim] :
       {std::pair<std::size_t, std::size_t>{8, 100}, {5, 96}}) {
    EngineOptions eo;
    eo.num_threads = 2;
    eo.optimizer.index_reuse_horizon = 32;
    eo.index.ivfpq.pq_m = pq_m;
    Engine engine(eo);
    engine.models().Put("m", MakeModel(dim));
    engine.catalog().Put("products",
                         MakeStringTable(WordCorpus(2000, 500), "name"));
    engine.catalog().Put("labels", MakeStringTable(WordCorpus(256, 256),
                                                   "label"));
    PlanPtr join = PlanNode::SemanticJoin(PlanNode::Scan("products"),
                                          PlanNode::Scan("labels"), "name",
                                          "label", "m", 0.9f);
    const std::string explained = engine.Explain(join).ValueOrDie();
    EXPECT_EQ(explained.find("strategy=ivfpq"), std::string::npos)
        << "pq_m=" << pq_m << "\n" << explained;
    auto result = engine.Execute(join);
    ASSERT_TRUE(result.ok()) << "pq_m=" << pq_m << ": "
                             << result.status().ToString();
    EXPECT_GT(result.ValueOrDie()->num_rows(), 0u);
  }
}

TEST(IndexSelectionRuleTest, ResidencyLowersJoinStrategyCost) {
  CostParams params;
  params.index_reuse_horizon = 8;
  CostModel cost(nullptr, params);
  for (const auto s : {SemanticJoinStrategy::kIvf, SemanticJoinStrategy::kHnsw,
                       SemanticJoinStrategy::kIvfPq}) {
    const double cold =
        cost.AmortizedStrategyCost(s, 10000, 10000, false, false);
    const double reusable =
        cost.AmortizedStrategyCost(s, 10000, 10000, false, true);
    const double warm =
        cost.AmortizedStrategyCost(s, 10000, 10000, true, true);
    EXPECT_LT(warm, reusable) << SemanticJoinStrategyName(s);
    EXPECT_LT(reusable, cold) << SemanticJoinStrategyName(s);
    EXPECT_DOUBLE_EQ(warm, cost.SemanticIndexProbeCost(s, 10000, 10000))
        << SemanticJoinStrategyName(s);
  }
}

TEST(IndexSelectionRuleTest, EngineOptimizerPicksResidentIndexForSelect) {
  EngineFixture f;
  // Warm the manager for the exact (table, column, model, kind) the
  // optimizer will consider.
  ASSERT_TRUE(f.engine.index_manager()
                  ->GetOrBuild({"products", "name", "m",
                                SemanticJoinStrategy::kHnsw})
                  .ok());

  PlanPtr plan = PlanNode::SemanticSelect(PlanNode::Scan("products"), "name",
                                          "word_1", "m", 0.9f);
  auto explained = f.engine.Explain(plan);
  ASSERT_TRUE(explained.ok());
  EXPECT_NE(explained.ValueOrDie().find("strategy=hnsw (resident)"),
            std::string::npos)
      << explained.ValueOrDie();
}

}  // namespace
}  // namespace cre
