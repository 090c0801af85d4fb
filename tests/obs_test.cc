// Observability coverage (src/obs + the engine wiring):
//
//  - MetricsRegistry: instrument identity (same name+labels -> same
//    pointer), disabled-registry semantics, collector emission, JSON and
//    Prometheus exports.
//  - Histogram: percentiles against a sorted-reference within the
//    log-bucket error bound, exact counts under concurrent Observe from
//    many threads racing Snapshot (TSan-clean).
//  - Structured logging: key=value formatting, quoting, the capturing
//    test sink.
//  - Query tracing: span tree shape for a parallel semantic-join query,
//    trace ring retention, slow-query log emission.
//  - EXPLAIN ANALYZE: measured per-node annotations, scheduling counters,
//    index residency transitions, pipeline routing, and the span tree;
//    its query metrics and trace, also when planning fails.
//  - IndexManager persisted-image GC: destructive invalidation reclaims
//    this-process images; the size-budget sweep deletes oldest-first and
//    never the just-written image.

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <filesystem>
#include <memory>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/logging.h"
#include "embed/embedding_cache.h"
#include "embed/hash_embedding_model.h"
#include "engine/engine.h"
#include "index/index_manager.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "plan/plan_node.h"
#include "sql/sql.h"
#include "storage/catalog.h"

namespace cre {
namespace {

TablePtr MakeWordTable(std::size_t n, const std::string& prefix,
                       std::size_t distinct = 0) {
  if (distinct == 0) distinct = n;
  Schema schema;
  schema.AddField({"word", DataType::kString, 0});
  schema.AddField({"num", DataType::kFloat64, 0});
  auto table = Table::Make(schema);
  for (std::size_t i = 0; i < n; ++i) {
    table
        ->AppendRow({Value(prefix + std::to_string(i % distinct)),
                     Value(static_cast<double>(i))})
        .Check();
  }
  return table;
}

EmbeddingModelPtr MakeModel(std::size_t dim = 16) {
  HashEmbeddingModel::Options o;
  o.dim = dim;
  return std::make_shared<HashEmbeddingModel>(o);
}

std::string FreshTempDir(const std::string& tag) {
  const std::string dir =
      (std::filesystem::temp_directory_path() /
       ("cre_obs_test_" + tag + "_" + std::to_string(::getpid())))
          .string();
  std::filesystem::remove_all(dir);
  return dir;
}

std::size_t CountImages(const std::string& dir) {
  std::size_t n = 0;
  std::error_code ec;
  for (const auto& de : std::filesystem::directory_iterator(dir, ec)) {
    if (de.path().extension() == ".idx") ++n;
  }
  return n;
}

// ---- metrics registry ----

TEST(MetricsRegistry, InstrumentIdentityAndValues) {
  MetricsRegistry reg;
  Counter* a = reg.counter("cre_test_total", {{"kind", "x"}});
  Counter* same = reg.counter("cre_test_total", {{"kind", "x"}});
  Counter* other = reg.counter("cre_test_total", {{"kind", "y"}});
  EXPECT_EQ(a, same);
  EXPECT_NE(a, other);

  a->Increment();
  a->Increment(4);
  other->Increment();
  EXPECT_EQ(a->value(), 5u);

  Gauge* g = reg.gauge("cre_test_gauge");
  g->Set(2.5);
  EXPECT_DOUBLE_EQ(g->value(), 2.5);

  const MetricsSnapshot snap = reg.Snapshot();
  ASSERT_EQ(snap.counters.size(), 2u);
  ASSERT_EQ(snap.gauges.size(), 1u);
  std::uint64_t total = 0;
  for (const auto& c : snap.counters) total += c.value;
  EXPECT_EQ(total, 6u);
}

TEST(MetricsRegistry, DisabledRegistryIsInertAndEmpty) {
  MetricsRegistry reg(/*enabled=*/false);
  Counter* c = reg.counter("cre_test_total");
  Histogram* h = reg.histogram("cre_test_seconds");
  c->Increment(10);
  h->Observe(0.5);
  EXPECT_EQ(c->value(), 0u);
  EXPECT_EQ(h->Snapshot().count, 0u);
  reg.AddCollector([](MetricsRegistry::Emitter* e) {
    e->Counter("cre_collected_total", {}, 1);
  });
  EXPECT_TRUE(reg.Snapshot().counters.empty());

  // Re-enabling resurrects the same instrument pointers.
  reg.set_enabled(true);
  c->Increment(3);
  EXPECT_EQ(c->value(), 3u);
  EXPECT_EQ(reg.Snapshot().counters.size(), 2u);  // own + collected
}

TEST(MetricsRegistry, CollectorsEmitIntoSnapshot) {
  MetricsRegistry reg;
  reg.AddCollector([](MetricsRegistry::Emitter* e) {
    e->Counter("cre_sub_total", {{"outcome", "hit"}}, 7);
    e->Gauge("cre_sub_bytes", {}, 128.0);
  });
  const MetricsSnapshot snap = reg.Snapshot();
  ASSERT_EQ(snap.counters.size(), 1u);
  EXPECT_EQ(snap.counters[0].name, "cre_sub_total");
  EXPECT_EQ(snap.counters[0].value, 7u);
  ASSERT_EQ(snap.gauges.size(), 1u);
  EXPECT_DOUBLE_EQ(snap.gauges[0].value, 128.0);
}

TEST(MetricsRegistry, ExportFormats) {
  MetricsRegistry reg;
  reg.counter("cre_q_total", {{"status", "ok"}})->Increment(3);
  reg.gauge("cre_depth")->Set(2);
  Histogram* h = reg.histogram("cre_lat_seconds", {{"kind", "execute"}});
  h->Observe(0.001);
  h->Observe(0.004);

  const MetricsSnapshot snap = reg.Snapshot();
  const std::string json = snap.ToJson();
  EXPECT_NE(json.find("\"cre_q_total{status=\\\"ok\\\"}\": 3"),
            std::string::npos);
  EXPECT_NE(json.find("\"cre_depth\": 2"), std::string::npos);
  EXPECT_NE(json.find("cre_lat_seconds{kind=\\\"execute\\\"}"),
            std::string::npos);
  EXPECT_NE(json.find("\"count\": 2"), std::string::npos);

  const std::string prom = snap.ToPrometheusText();
  EXPECT_NE(prom.find("# TYPE cre_q_total counter"), std::string::npos);
  EXPECT_NE(prom.find("cre_q_total{status=\"ok\"} 3"), std::string::npos);
  EXPECT_NE(prom.find("# TYPE cre_lat_seconds histogram"), std::string::npos);
  EXPECT_NE(prom.find("cre_lat_seconds_bucket{kind=\"execute\",le="),
            std::string::npos);
  EXPECT_NE(prom.find("cre_lat_seconds_count{kind=\"execute\"} 2"),
            std::string::npos);
}

TEST(Histogram, PercentilesWithinLogBucketErrorBound) {
  MetricsRegistry reg;
  Histogram* h = reg.histogram("cre_ref_seconds");
  std::mt19937_64 rng(42);
  std::uniform_real_distribution<double> uni(0.0, 1.0);
  std::vector<double> values;
  values.reserve(20000);
  for (int i = 0; i < 20000; ++i) {
    // Log-uniform across [10us, 10s] — spans 20 octaves of the grid.
    const double v = 1e-5 * std::pow(10.0, 6.0 * uni(rng));
    values.push_back(v);
    h->Observe(v);
  }
  std::sort(values.begin(), values.end());
  const HistogramSnapshot snap = h->Snapshot();
  ASSERT_EQ(snap.count, values.size());
  EXPECT_DOUBLE_EQ(snap.max, values.back());
  for (const double q : {0.50, 0.90, 0.99}) {
    const double ref =
        values[static_cast<std::size_t>(q * (values.size() - 1))];
    const double est = snap.Percentile(q);
    EXPECT_LT(std::abs(est - ref) / ref, 0.25)
        << "q=" << q << " ref=" << ref << " est=" << est;
  }
  // The tail percentile never exceeds the observed max.
  EXPECT_LE(snap.Percentile(1.0), snap.max);
}

TEST(MetricsRegistry, ConcurrentUpdatesAndSnapshotsAreExact) {
  MetricsRegistry reg;
  constexpr int kThreads = 8;
  constexpr int kPerThread = 20000;
  Counter* c = reg.counter("cre_conc_total");
  Histogram* h = reg.histogram("cre_conc_seconds");
  std::atomic<bool> stop{false};
  // A racing snapshotter: TSan validates Observe vs Snapshot.
  std::thread snapshotter([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      (void)reg.Snapshot();
    }
  });
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        c->Increment();
        h->Observe(1e-4 * (1 + (i + t) % 100));
        // Registration races registration: same key from every thread.
        reg.counter("cre_conc_other", {{"t", "shared"}})->Increment();
      }
    });
  }
  for (auto& w : workers) w.join();
  stop.store(true);
  snapshotter.join();

  EXPECT_EQ(c->value(), static_cast<std::uint64_t>(kThreads) * kPerThread);
  EXPECT_EQ(h->Snapshot().count,
            static_cast<std::uint64_t>(kThreads) * kPerThread);
  EXPECT_EQ(reg.counter("cre_conc_other", {{"t", "shared"}})->value(),
            static_cast<std::uint64_t>(kThreads) * kPerThread);
}

// ---- structured logging ----

TEST(StructuredLogging, FormatsAndCaptures) {
  ScopedLogCapture capture;
  LogStructured(LogLevel::kInfo, "test_event",
                {{"query", std::string("q1")},
                 {"seconds", 0.25},
                 {"rows", std::int64_t{42}},
                 {"note", std::string("two words")}});
  ASSERT_FALSE(capture.lines().empty());
  EXPECT_TRUE(capture.Contains("event=test_event"));
  EXPECT_TRUE(capture.Contains("query=q1"));
  EXPECT_TRUE(capture.Contains("rows=42"));
  EXPECT_TRUE(capture.Contains("note=\"two words\""));
}

// ---- tracing ----

TEST(QueryTrace, SpanTreeShapeAndRendering) {
  QueryTrace trace(7, "unit");
  TraceSpan* outer = trace.Begin(nullptr, "execute");
  TraceSpan* inner = trace.Begin(outer, "pipeline:Scan");
  trace.Annotate(inner, "rows", "100");
  trace.End(inner);
  trace.End(outer);
  trace.Finish();

  ASSERT_EQ(trace.root()->children.size(), 1u);
  ASSERT_EQ(trace.root()->children[0]->children.size(), 1u);
  EXPECT_EQ(trace.root()->children[0]->name, "execute");
  EXPECT_GE(trace.TotalSeconds(), 0.0);

  const std::string text = trace.ToString();
  EXPECT_NE(text.find("execute"), std::string::npos);
  EXPECT_NE(text.find("pipeline:Scan"), std::string::npos);
  EXPECT_NE(text.find("rows=100"), std::string::npos);
  const std::string compact = trace.ToCompactString();
  EXPECT_NE(compact.find("pipeline:Scan="), std::string::npos);
}

TEST(TraceRing, BoundedNewestFirst) {
  TraceRing ring(3);
  for (int i = 0; i < 5; ++i) {
    auto t = std::make_shared<QueryTrace>(static_cast<std::uint64_t>(i), "q");
    t->Finish();
    ring.Push(std::move(t));
  }
  const auto snap = ring.Snapshot();
  ASSERT_EQ(snap.size(), 3u);
  EXPECT_EQ(snap[0]->query_id(), 4u);
  EXPECT_EQ(snap[2]->query_id(), 2u);
}

// ---- engine wiring ----

class ObsEngineTest : public ::testing::Test {
 protected:
  std::unique_ptr<Engine> MakeEngine(EngineOptions eo = {}) {
    if (eo.num_threads == 0) eo.num_threads = 2;
    eo.morsel_rows = 256;
    auto engine = std::make_unique<Engine>(eo);
    engine->catalog().Put("items", MakeWordTable(3000, "w", 40));
    engine->catalog().Put("dims", MakeWordTable(200, "w", 40));
    engine->models().Put("m", MakeModel());
    return engine;
  }

  PlanPtr SemanticJoinPlan(SemanticJoinStrategy strategy) {
    PlanPtr join = PlanNode::SemanticJoin(PlanNode::Scan("items"),
                                          PlanNode::Scan("dims"), "word",
                                          "word", "m", 0.95f);
    join->strategy = strategy;
    join->strategy_pinned = true;
    return join;
  }
};

TEST_F(ObsEngineTest, QueryMetricsAccumulate) {
  auto engine = MakeEngine();
  for (int i = 0; i < 3; ++i) {
    auto r = engine->Execute(PlanNode::Limit(
        PlanNode::Sort(PlanNode::Scan("items"), "num", false), 10));
    ASSERT_TRUE(r.ok()) << r.status().message();
  }
  const MetricsSnapshot snap = engine->metrics()->Snapshot();
  const std::string json = snap.ToJson();
  EXPECT_NE(json.find("cre_queries_total{status=\\\"ok\\\"}\": 3"),
            std::string::npos)
      << json;
  bool found_hist = false;
  for (const auto& h : snap.histograms) {
    if (h.name == "cre_query_seconds") {
      EXPECT_EQ(h.hist.count, 3u);
      found_hist = true;
    }
  }
  EXPECT_TRUE(found_hist);
  // The unified namespace carries the collector-backed subsystems.
  EXPECT_NE(json.find("cre_scheduler_active_queries"), std::string::npos);
  EXPECT_NE(json.find("cre_index_lookups_total"), std::string::npos);
  EXPECT_NE(json.find("cre_governor_peak_bytes"), std::string::npos);
  EXPECT_NE(json.find("cre_plan_cache_hits_total"), std::string::npos);
}

TEST_F(ObsEngineTest, EmbedCacheMetricsSurfaceForCachingModels) {
  auto engine = MakeEngine();
  engine->models().Put(
      "cached", std::make_shared<CachingEmbeddingModel>(MakeModel(), 64));
  auto plan =
      PlanNode::SemanticSelect(PlanNode::Scan("items"), "word", "w1",
                               "cached", 0.95f);
  ASSERT_TRUE(engine->Execute(plan).ok());
  const std::string json = engine->metrics()->Snapshot().ToJson();
  EXPECT_NE(json.find("cre_embed_cache_hits_total{model=\\\"cached\\\"}"),
            std::string::npos)
      << json;
  EXPECT_NE(json.find("cre_embed_cache_entries"), std::string::npos);
}

// The span tree has the same shape at every degree of parallelism.
class ObsEngineDopTest : public ObsEngineTest,
                         public ::testing::WithParamInterface<std::size_t> {};

INSTANTIATE_TEST_SUITE_P(Threads, ObsEngineDopTest, ::testing::Values(1, 2));

TEST_P(ObsEngineDopTest, SemanticJoinTraceTreeShape) {
  EngineOptions eo;
  eo.num_threads = GetParam();
  auto engine = MakeEngine(eo);
  auto r = engine->Execute(SemanticJoinPlan(SemanticJoinStrategy::kBruteForce));
  ASSERT_TRUE(r.ok()) << r.status().message();

  auto traces = engine->traces()->Snapshot();
  ASSERT_FALSE(traces.empty());
  const auto& trace = *traces[0];
  // Root -> {optimize, execute -> pipeline spans}.
  auto* root = const_cast<QueryTrace&>(trace).root();
  ASSERT_GE(root->children.size(), 2u);
  EXPECT_EQ(root->children[0]->name, "optimize");
  EXPECT_EQ(root->children[1]->name, "execute");
  const std::string text = trace.ToString();
  EXPECT_NE(text.find("pipeline:"), std::string::npos) << text;
  // Every span closed by Finish-time.
  EXPECT_GE(root->children[1]->DurationSeconds(), 0.0);
}

TEST_F(ObsEngineTest, TraceSamplingSkipsQueries) {
  EngineOptions eo;
  eo.obs.trace_sample_every = 0;  // tracing off
  auto engine = MakeEngine(eo);
  auto r = engine->Execute(PlanNode::Scan("items"));
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(engine->traces()->Snapshot().empty());
}

TEST_F(ObsEngineTest, SlowQueryLogEmits) {
  EngineOptions eo;
  eo.obs.slow_query_seconds = 1e-9;  // everything is slow
  auto engine = MakeEngine(eo);
  ScopedLogCapture capture;
  auto r = engine->Execute(PlanNode::Scan("items"));
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(capture.Contains("event=slow_query")) << "no slow_query line";
  EXPECT_TRUE(capture.Contains("kind=execute"));
}

TEST_F(ObsEngineTest, ExplainAnalyzeRendersMeasuredPlan) {
  auto engine = MakeEngine();
  auto r = engine->ExplainAnalyze(SemanticJoinPlan(SemanticJoinStrategy::kHnsw));
  ASSERT_TRUE(r.ok()) << r.status().message();
  const std::string& text = r.ValueOrDie();
  EXPECT_NE(text.find("EXPLAIN ANALYZE"), std::string::npos) << text;
  EXPECT_NE(text.find("[rows="), std::string::npos) << text;
  EXPECT_NE(text.find("wall="), std::string::npos);
  EXPECT_NE(text.find("dop="), std::string::npos);
  EXPECT_NE(text.find("scheduling:"), std::string::npos);
  EXPECT_NE(text.find("index residency:"), std::string::npos) << text;
  // The managed HNSW index was built during execution: absent -> resident.
  EXPECT_NE(text.find("-> resident"), std::string::npos) << text;
  EXPECT_NE(text.find("pipelines ("), std::string::npos);
  EXPECT_NE(text.find("trace:"), std::string::npos);
}

TEST_F(ObsEngineTest, ExplainAnalyzeSqlEndToEnd) {
  auto engine = MakeEngine();
  auto r = sql::ExplainAnalyzeSql(
      engine.get(), "SELECT word FROM items WHERE num > 100 LIMIT 5");
  ASSERT_TRUE(r.ok()) << r.status().message();
  EXPECT_NE(r.ValueOrDie().find("EXPLAIN ANALYZE"), std::string::npos);
  EXPECT_NE(r.ValueOrDie().find("[rows="), std::string::npos);
}

// EXPLAIN ANALYZE runs on Execute's tracked path: a query that fails in
// planning is still counted and its trace kept, and the latency it records
// covers optimization as well as execution.
TEST_F(ObsEngineTest, ExplainAnalyzeCountsPlanningFailuresAndTimesOptimize) {
  auto engine = MakeEngine();
  auto explain_seconds = [&]() {
    for (const auto& h : engine->metrics()->Snapshot().histograms) {
      if (h.name == "cre_query_seconds" &&
          h.labels == MetricLabels{{"kind", "explain_analyze"}}) {
        return h.hist;
      }
    }
    return HistogramSnapshot{};
  };

  ASSERT_FALSE(engine->ExplainAnalyze(PlanNode::Scan("missing")).ok());
  std::uint64_t errors = 0;
  for (const auto& c : engine->metrics()->Snapshot().counters) {
    if (c.name == "cre_queries_total" &&
        c.labels == MetricLabels{{"status", "error"}}) {
      errors = c.value;
    }
  }
  EXPECT_EQ(errors, 1u);
  auto traces = engine->traces()->Snapshot();
  ASSERT_EQ(traces.size(), 1u);
  EXPECT_EQ(traces[0]->label(), "explain_analyze");
  auto* root = const_cast<QueryTrace&>(*traces[0]).root();
  ASSERT_FALSE(root->children.empty());
  EXPECT_EQ(root->children[0]->name, "optimize");
  const HistogramSnapshot failed = explain_seconds();
  EXPECT_EQ(failed.count, 1u);
  EXPECT_GE(failed.sum, root->children[0]->DurationSeconds());

  ASSERT_TRUE(engine
                  ->ExplainAnalyze(PlanNode::Sort(PlanNode::Scan("items"),
                                                  "num", true))
                  .ok());
  traces = engine->traces()->Snapshot();
  ASSERT_EQ(traces.size(), 2u);
  root = const_cast<QueryTrace&>(*traces[0]).root();
  ASSERT_GE(root->children.size(), 2u);
  EXPECT_EQ(root->children[0]->name, "optimize");
  EXPECT_EQ(root->children[1]->name, "execute");
  const HistogramSnapshot both = explain_seconds();
  EXPECT_EQ(both.count, 2u);
  EXPECT_GE(both.sum - failed.sum, root->children[0]->DurationSeconds() +
                                       root->children[1]->DurationSeconds());
}

TEST_F(ObsEngineTest, DisabledMetricsStaysEmptyThroughQueries) {
  EngineOptions eo;
  eo.obs.metrics_enabled = false;
  auto engine = MakeEngine(eo);
  auto r = engine->Execute(PlanNode::Scan("items"));
  ASSERT_TRUE(r.ok());
  const MetricsSnapshot snap = engine->metrics()->Snapshot();
  EXPECT_TRUE(snap.counters.empty());
  EXPECT_TRUE(snap.histograms.empty());
}

// ---- persisted-image GC ----

TEST(IndexImageGc, DestructiveChangeReclaimsLocalImage) {
  const std::string dir = FreshTempDir("gc_destructive");
  Catalog catalog;
  ModelRegistry models;
  catalog.Put("t", MakeWordTable(100, "a"));
  models.Put("m", MakeModel());
  IndexManagerOptions opts;
  opts.persist_dir = dir;
  IndexManager mgr(&catalog, &models, opts);
  const IndexKey key{"t", "word", "m", SemanticJoinStrategy::kHnsw};

  ASSERT_TRUE(mgr.GetOrBuild(key).ok());
  EXPECT_EQ(CountImages(dir), 1u);
  EXPECT_EQ(mgr.stats().disk_gc, 0u);

  // Destructive replacement: the image at the old stamp can never
  // validate again; the next lookup reclaims it and rebuilds (which
  // write-throughs a fresh image at the same path).
  catalog.Put("t", MakeWordTable(100, "b"));
  ASSERT_TRUE(mgr.GetOrBuild(key).ok());
  EXPECT_EQ(mgr.stats().disk_gc, 1u);
  EXPECT_EQ(mgr.stats().invalidations, 1u);
  EXPECT_EQ(CountImages(dir), 1u);
  std::filesystem::remove_all(dir);
}

TEST(IndexImageGc, BudgetSweepDeletesOldestFirst) {
  const std::string dir = FreshTempDir("gc_budget");
  Catalog catalog;
  ModelRegistry models;
  catalog.Put("t1", MakeWordTable(100, "a"));
  catalog.Put("t2", MakeWordTable(100, "b"));
  catalog.Put("t3", MakeWordTable(100, "c"));
  models.Put("m", MakeModel());
  IndexManagerOptions opts;
  opts.persist_dir = dir;
  opts.persist_budget_bytes = 1;  // nothing fits beside the fresh image
  IndexManager mgr(&catalog, &models, opts);

  const IndexKey k1{"t1", "word", "m", SemanticJoinStrategy::kHnsw};
  const IndexKey k2{"t2", "word", "m", SemanticJoinStrategy::kHnsw};
  const IndexKey k3{"t3", "word", "m", SemanticJoinStrategy::kHnsw};
  ASSERT_TRUE(mgr.GetOrBuild(k1).ok());
  // The just-written image is never its own victim, even over budget.
  EXPECT_EQ(CountImages(dir), 1u);
  EXPECT_EQ(mgr.stats().disk_gc, 0u);

  ASSERT_TRUE(mgr.GetOrBuild(k2).ok());
  EXPECT_EQ(CountImages(dir), 1u);  // k1's image swept
  EXPECT_EQ(mgr.stats().disk_gc, 1u);
  ASSERT_TRUE(mgr.GetOrBuild(k3).ok());
  EXPECT_EQ(CountImages(dir), 1u);
  EXPECT_EQ(mgr.stats().disk_gc, 2u);

  // The sweep only reclaims the on-disk tier: k1's entry is still
  // memory-resident and keeps serving as a hit, no rebuild.
  ASSERT_TRUE(mgr.GetOrBuild(k1).ok());
  EXPECT_EQ(mgr.stats().builds, 3u);
  EXPECT_GE(mgr.stats().hits, 1u);
  std::filesystem::remove_all(dir);
}

TEST(IndexImageGc, UnlimitedBudgetKeepsAllImages) {
  const std::string dir = FreshTempDir("gc_unlimited");
  Catalog catalog;
  ModelRegistry models;
  catalog.Put("t1", MakeWordTable(60, "a"));
  catalog.Put("t2", MakeWordTable(60, "b"));
  models.Put("m", MakeModel());
  IndexManagerOptions opts;
  opts.persist_dir = dir;
  IndexManager mgr(&catalog, &models, opts);
  ASSERT_TRUE(
      mgr.GetOrBuild({"t1", "word", "m", SemanticJoinStrategy::kHnsw}).ok());
  ASSERT_TRUE(
      mgr.GetOrBuild({"t2", "word", "m", SemanticJoinStrategy::kHnsw}).ok());
  EXPECT_EQ(CountImages(dir), 2u);
  EXPECT_EQ(mgr.stats().disk_gc, 0u);
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace cre
