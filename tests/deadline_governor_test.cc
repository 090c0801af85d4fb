// Deadline, resource-governor, and admission-control coverage:
//
//  - CancelFlag deadline semantics: precise CheckStop, first-cause-wins
//    between Cancel() and ExpireDeadline(), slack reporting.
//  - DeadlineReaper: trips armed tokens, ignores tokens whose query
//    finished first, pushed-out deadlines are re-checked.
//  - Engine deadlines end to end: pre-expired deadlines fail fast with
//    kDeadlineExceeded, the engine default timeout applies when the query
//    sets none, a deadline mid detect-scan and mid local index build
//    unwinds cleanly, and the engine serves correct queries afterwards.
//  - Cancellation mid detect-scan (the per-image poll inside shards).
//  - ResourceGovernor: hash-join and sort breaches return exactly
//    kResourceExhausted with the engine healthy after; an index build
//    breach degrades the semantic select to the scanning fallback with
//    identical results; the hash-join, aggregation and sort charges cover
//    what those structures hold, from a fresh engine's first query on.
//  - Bounded admission: per-class shed policy (high never, normal at the
//    limit, background at half), engine-level shedding under overload
//    with high-priority queries never shed.
//  - EXPLAIN ANALYZE surfaces deadline slack and governor bytes.

#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "core/cancel.h"
#include "core/resource_governor.h"
#include "core/timer.h"
#include "datagen/shop.h"
#include "embed/hash_embedding_model.h"
#include "engine/engine.h"
#include "engine/query_builder.h"
#include "engine/scheduler.h"
#include "exec/aggregate.h"
#include "exec/hash_join.h"
#include "exec/parallel_sort.h"
#include "plan/plan_node.h"

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

void SleepMs(double ms) {
  std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(ms));
}

// ---- CancelFlag deadline semantics ----

TEST(CancelFlagDeadlineTest, CheckStopCatchesExpiredDeadlinePrecisely) {
  CancelFlag flag;
  EXPECT_TRUE(flag.CheckStop().ok());
  // A deadline in the past trips on the next precise poll even though no
  // reaper ever ran.
  flag.SetDeadline(CancelFlag::NowNs() - 1);
  Status st = flag.CheckStop();
  EXPECT_TRUE(st.IsDeadlineExceeded()) << st.ToString();
  EXPECT_TRUE(flag.cancelled());
  EXPECT_TRUE(flag.deadline_exceeded());
  EXPECT_EQ(flag.cause(), StopCause::kDeadline);
}

TEST(CancelFlagDeadlineTest, UnarmedFlagHasHugeSlack) {
  CancelFlag flag;
  EXPECT_GT(flag.SlackSeconds(), 1e12);
  flag.SetTimeout(10.0);
  EXPECT_LT(flag.SlackSeconds(), 10.5);
  EXPECT_GT(flag.SlackSeconds(), 5.0);
}

TEST(CancelFlagDeadlineTest, FirstCauseWins) {
  CancelFlag flag;
  flag.Cancel();
  flag.ExpireDeadline();  // racing expiry must not rewrite the cause
  EXPECT_EQ(flag.cause(), StopCause::kCancelled);
  EXPECT_FALSE(flag.deadline_exceeded());
  EXPECT_TRUE(flag.CheckStop().IsCancelled());

  CancelFlag other;
  other.ExpireDeadline();
  other.Cancel();
  EXPECT_EQ(other.cause(), StopCause::kDeadline);
  EXPECT_TRUE(other.CheckStop().IsDeadlineExceeded());
}

// ---- DeadlineReaper ----

TEST(DeadlineReaperTest, TripsArmedTokens) {
  DeadlineReaper reaper;
  auto flag = std::make_shared<CancelFlag>();
  flag->SetTimeout(0.02);
  reaper.Watch(flag);
  // Deep poll sites watch only the boolean; wait for the reaper to flip
  // it without ever calling CheckStop.
  Timer timer;
  while (!flag->cancelled() && timer.Seconds() < 5.0) SleepMs(1);
  EXPECT_TRUE(flag->cancelled());
  EXPECT_TRUE(flag->deadline_exceeded());
  EXPECT_GE(reaper.expired_total(), 1u);
}

TEST(DeadlineReaperTest, FinishedQueriesDropOffTheHeap) {
  DeadlineReaper reaper;
  auto flag = std::make_shared<CancelFlag>();
  flag->SetTimeout(0.02);
  reaper.Watch(flag);
  flag.reset();  // the query finished; the weak entry must just expire
  SleepMs(60);
  EXPECT_EQ(reaper.expired_total(), 0u);
}

TEST(DeadlineReaperTest, PushedOutDeadlineIsNotTrippedEarly) {
  DeadlineReaper reaper;
  auto flag = std::make_shared<CancelFlag>();
  flag->SetTimeout(0.02);
  reaper.Watch(flag);
  flag->SetTimeout(10.0);  // the deadline moved; the old due time is stale
  SleepMs(80);
  EXPECT_FALSE(flag->cancelled());
  EXPECT_EQ(reaper.expired_total(), 0u);
}

// ---- engine deadlines end to end ----

TEST(EngineDeadlineTest, PreExpiredDeadlineFailsFast) {
  EngineOptions eo;
  eo.num_threads = 2;
  Engine engine(eo);
  engine.catalog().Put("t", MakeWordTable(100, "w_"));

  QueryBuilder qb(&engine);
  qb.Scan("t");
  QueryOptions q;
  q.timeout_seconds = 1e-9;
  auto result = engine.Execute(qb.plan(), q);
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsDeadlineExceeded())
      << result.status().ToString();
}

TEST(EngineDeadlineTest, EngineDefaultTimeoutApplies) {
  EngineOptions eo;
  eo.num_threads = 2;
  eo.default_query_timeout_seconds = 1e-9;
  Engine engine(eo);
  engine.catalog().Put("t", MakeWordTable(100, "w_"));

  QueryBuilder qb(&engine);
  qb.Scan("t");
  auto result = engine.Execute(qb.plan(), QueryOptions{});
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsDeadlineExceeded())
      << result.status().ToString();

  // A per-query timeout overrides the default.
  QueryOptions generous;
  generous.timeout_seconds = 30.0;
  EXPECT_TRUE(engine.Execute(qb.plan(), generous).ok());
}

/// Fixture with an image store expensive enough that a detect scan runs
/// for hundreds of milliseconds — room for a deadline or a cancel to land
/// mid-scan.
class DetectScanStopTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ShopOptions options;
    options.num_products = 50;
    options.num_transactions = 50;
    options.num_images = 600;
    dataset_ = GenerateShopDataset(options);
    EngineOptions eo;
    eo.num_threads = 2;
    engine_ = std::make_unique<Engine>(eo);
    detector_ = std::make_unique<ObjectDetector>(
        ObjectDetector::Options{/*cost_per_image_us=*/1500.0, 7});
    engine_->detectors().Put("shop_images",
                             {&dataset_.images, detector_.get()});
  }

  ShopDataset dataset_;
  std::unique_ptr<Engine> engine_;
  std::unique_ptr<ObjectDetector> detector_;
};

TEST_F(DetectScanStopTest, DeadlineExpiresMidDetectScan) {
  QueryBuilder qb(engine_.get());
  qb.DetectScan("shop_images");
  QueryOptions q;
  q.timeout_seconds = 0.05;  // full scan needs ~600 * 1.5ms / 2 threads
  Timer timer;
  auto result = engine_->Execute(qb.plan(), q);
  const double seconds = timer.Seconds();
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsDeadlineExceeded())
      << result.status().ToString();
  // The per-image poll stops the scan long before the full corpus.
  EXPECT_LT(seconds, 0.3);

  // The engine stays healthy: the same scan without a deadline completes.
  auto full = engine_->Execute(qb.plan(), QueryOptions{});
  ASSERT_TRUE(full.ok()) << full.status().ToString();
  EXPECT_GT(full.ValueOrDie()->num_rows(), 0u);
}

TEST_F(DetectScanStopTest, CancelLandsMidDetectScan) {
  QueryBuilder qb(engine_.get());
  qb.DetectScan("shop_images");
  QueryOptions q;
  q.cancel = std::make_shared<CancelFlag>();
  Result<TablePtr> result = Status::OK();
  std::thread runner(
      [&] { result = engine_->Execute(qb.plan(), q); });
  SleepMs(30);
  q.cancel->Cancel();
  runner.join();
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsCancelled()) << result.status().ToString();
}

TEST(EngineDeadlineTest, DeadlineExpiresMidLocalIndexBuild) {
  EngineOptions eo;
  eo.num_threads = 2;
  eo.index.enabled = false;  // force the per-execution local build
  Engine engine(eo);
  engine.models().Put("m", std::make_shared<HashEmbeddingModel>(
                               HashEmbeddingModel::Options{64}));
  engine.catalog().Put("probe", MakeWordTable(50, "p_"));
  engine.catalog().Put("build", MakeWordTable(30000, "b_"));

  PlanPtr plan =
      PlanNode::SemanticJoin(PlanNode::Scan("probe"), PlanNode::Scan("build"),
                             "word", "word", "m", 0.95f);
  plan->strategy = SemanticJoinStrategy::kHnsw;
  QueryOptions q;
  q.timeout_seconds = 0.03;
  auto result = engine.ExecuteUnoptimized(plan, q);
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsDeadlineExceeded())
      << result.status().ToString();
}

// ---- resource governor ----

// Breaches must surface at every degree of parallelism: dop 1 runs the
// same driver as dop 2, single-chain.
class GovernorDopTest : public ::testing::TestWithParam<std::size_t> {};

INSTANTIATE_TEST_SUITE_P(Threads, GovernorDopTest, ::testing::Values(1, 2));

TEST_P(GovernorDopTest, HashJoinBreachReturnsResourceExhausted) {
  EngineOptions eo;
  eo.num_threads = GetParam();
  eo.governor.engine_memory_bytes = 4096;
  Engine engine(eo);
  engine.catalog().Put("left", MakeWordTable(5000, "w_", 100));
  engine.catalog().Put("right", MakeWordTable(5000, "w_", 100));

  QueryBuilder qb(&engine);
  qb.Scan("left").JoinWith(QueryBuilder(&engine).Scan("right"), "word",
                           "word");
  auto result = engine.Execute(qb.plan(), QueryOptions{});
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsResourceExhausted())
      << result.status().ToString();
  EXPECT_GE(engine.governor()->breaches(), 1u);

  // Charges unwound: nothing leaked into the engine-wide ledger, and a
  // query that stays under the ceiling still runs.
  EXPECT_EQ(engine.governor()->charged_bytes(), 0u);
  QueryBuilder cheap(&engine);
  cheap.Scan("left").Filter(Gt(Col("num"), Lit(4990.0)));
  auto ok = engine.Execute(cheap.plan(), QueryOptions{});
  ASSERT_TRUE(ok.ok()) << ok.status().ToString();
  EXPECT_GT(ok.ValueOrDie()->num_rows(), 0u);
}

// A group-by is charged for its aggregation state whether its input spans
// one morsel (a single state) or many (per-chunk states).
class GovernorAggregateTest
    : public ::testing::TestWithParam<std::tuple<std::size_t, std::size_t>> {
};

INSTANTIATE_TEST_SUITE_P(ThreadsByRows, GovernorAggregateTest,
                         ::testing::Combine(::testing::Values(1, 2),
                                            ::testing::Values(4000, 40000)));

TEST_P(GovernorAggregateTest, AggregateBudgetBreach) {
  const auto [threads, rows] = GetParam();
  EngineOptions eo;
  eo.num_threads = threads;
  Engine engine(eo);
  engine.catalog().Put("t", MakeWordTable(rows, "g_"));  // one group per row

  QueryBuilder qb(&engine);
  qb.Scan("t").Aggregate({"word"}, {{AggKind::kCount, "", "n"}});
  QueryOptions tight;
  tight.memory_budget_bytes = 1024;
  auto result = engine.Execute(qb.plan(), tight);
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsResourceExhausted())
      << result.status().ToString();
  EXPECT_EQ(engine.governor()->charged_bytes(), 0u);

  auto full = engine.Execute(qb.plan());
  ASSERT_TRUE(full.ok()) << full.status().ToString();
  EXPECT_EQ(full.ValueOrDie()->num_rows(), rows);
}

TEST(GovernorTest, PerQuerySortBudgetBreach) {
  EngineOptions eo;
  eo.num_threads = 2;
  Engine engine(eo);
  engine.catalog().Put("t", MakeWordTable(20000, "w_"));

  QueryBuilder qb(&engine);
  qb.Scan("t").OrderBy("num", /*ascending=*/false);
  QueryOptions tight;
  tight.memory_budget_bytes = 1024;
  auto result = engine.Execute(qb.plan(), tight);
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsResourceExhausted())
      << result.status().ToString();

  // The same query without a budget completes (engine-wide ceiling off).
  auto full = engine.Execute(qb.plan(), QueryOptions{});
  ASSERT_TRUE(full.ok()) << full.status().ToString();
  EXPECT_EQ(full.ValueOrDie()->num_rows(), 20000u);
}

// On a fresh engine's first budgeted query, the hash-join build side, the
// aggregation state and the sort are each charged from their own layouts
// before they are built: at least the bytes the structure then holds and
// at most twice them. Each query runs alone on its engine, so the
// governor's peak is that one charge.
TEST(GovernorTest, ChargesCoverStructureFootprint) {
  constexpr std::size_t kRows = 20000;
  QueryOptions budgeted;
  budgeted.memory_budget_bytes = std::size_t{1} << 40;
  auto make_table = [](DataType key_type, std::size_t distinct) {
    auto t = Table::Make(Schema({{"id", DataType::kInt64, 0},
                                 {"k", key_type, 0}}));
    for (std::size_t i = 0; i < kRows; ++i) {
      t->column(0).AppendInt64(static_cast<std::int64_t>(i));
      const std::size_t key = (i * 7919) % distinct;
      if (key_type == DataType::kString) {
        t->column(1).AppendString("key_" + std::to_string(key));
      } else {
        t->column(1).AppendInt64(static_cast<std::int64_t>(key));
      }
    }
    return t;
  };
  // Runs `plan` unoptimized (as written) as the first budgeted query of a
  // fresh engine over table "t" (and a 10-row probe table "p"); returns
  // the governor's peak charge and, in `scanned`, "t" as the driver
  // materializes it.
  auto first_query_charge = [&](std::size_t threads, const TablePtr& t,
                                const PlanPtr& plan, TablePtr* scanned) {
    EngineOptions eo;
    eo.num_threads = threads;
    Engine engine(eo);
    engine.catalog().Put("t", t);
    engine.catalog().Put("p", make_table(t->column(1).type(), 10));
    auto result = engine.ExecuteUnoptimized(plan, budgeted);
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    const std::size_t peak = engine.governor()->peak_bytes();
    *scanned = engine.ExecuteUnoptimized(PlanNode::Scan("t")).ValueOrDie();
    return peak;
  };
  auto expect_covers = [](std::size_t charge, std::size_t bytes,
                          const std::string& what) {
    EXPECT_GE(charge, bytes) << what;
    EXPECT_LE(charge, 2 * bytes) << what;
  };

  for (const DataType type : {DataType::kInt64, DataType::kString}) {
    for (const std::size_t distinct : {kRows, kRows / 100}) {
      const std::string what = std::string("hash join, ") +
                               DataTypeName(type) + " keys, " +
                               std::to_string(distinct) + " distinct";
      TablePtr scanned;
      const std::size_t charge = first_query_charge(
          2, make_table(type, distinct),
          PlanNode::Join(PlanNode::Scan("p"), PlanNode::Scan("t"), "k", "k"),
          &scanned);
      auto join = HashJoinTable::Build(scanned, "k");
      ASSERT_TRUE(join.ok()) << join.status().ToString();
      expect_covers(charge, join.ValueOrDie()->MemoryBytes(), what);
    }

    // One group per row, charged for the input row count: an unoptimized
    // plan carries no group estimate.
    const std::string what =
        std::string("aggregation, ") + DataTypeName(type) + " keys";
    TablePtr scanned;
    const std::size_t charge = first_query_charge(
        1, make_table(type, kRows),
        PlanNode::Aggregate(PlanNode::Scan("t"), {"k"},
                            {{AggKind::kCount, "", "n"}}),
        &scanned);
    GroupedAggregationState state;
    ASSERT_TRUE(
        state.Init(scanned->schema(), {"k"}, {{AggKind::kCount, "", "n"}})
            .ok());
    ASSERT_TRUE(state.Consume(*scanned).ok());
    expect_covers(charge, state.MemoryBytes(), what);
  }

  TablePtr scanned;
  const std::size_t charge = first_query_charge(
      2, make_table(DataType::kString, kRows),
      PlanNode::Sort(PlanNode::Scan("t"), "id", false), &scanned);
  auto sorted = SortTable(scanned, "id", false, /*pool=*/nullptr);
  ASSERT_TRUE(sorted.ok()) << sorted.status().ToString();
  expect_covers(charge, sorted.ValueOrDie()->MemoryBytes(), "sort");
}

TEST(GovernorTest, IndexBuildBreachDegradesToScanningFallback) {
  auto model = std::make_shared<HashEmbeddingModel>(
      HashEmbeddingModel::Options{64});
  TablePtr table = MakeWordTable(2000, "w_", 500);

  // Baseline: unlimited engine, managed index allowed to build.
  EngineOptions base;
  base.num_threads = 2;
  base.index.enabled = false;
  Engine baseline(base);
  baseline.models().Put("m", model);
  baseline.catalog().Put("t", table);
  QueryBuilder bq(&baseline);
  bq.Scan("t").SemanticSelect("word", "w_7", "m", 0.8f);
  PlanPtr base_plan = bq.plan();
  base_plan->strategy = SemanticJoinStrategy::kHnsw;
  base_plan->strategy_pinned = true;
  auto expect = baseline.Execute(base_plan, QueryOptions{});
  ASSERT_TRUE(expect.ok()) << expect.status().ToString();

  // Governed engine whose ceiling the build's embed matrix (500 * 64 * 4
  // bytes) cannot fit: the managed build fails with kResourceExhausted
  // and the select silently degrades to the scanning fallback. The
  // fallback's per-morsel embed matrices are charged too; 32-row morsels
  // keep each at 32 * 64 * 4 bytes, so the three threads' fit.
  EngineOptions eo;
  eo.num_threads = 2;
  eo.morsel_rows = 32;
  eo.index.enabled = true;
  eo.index.async_builds = false;
  eo.governor.engine_memory_bytes = 64 * 1024;
  Engine engine(eo);
  engine.models().Put("m", model);
  engine.catalog().Put("t", table);
  QueryBuilder qb(&engine);
  qb.Scan("t").SemanticSelect("word", "w_7", "m", 0.8f);
  PlanPtr plan = qb.plan();
  plan->strategy = SemanticJoinStrategy::kHnsw;
  plan->strategy_pinned = true;
  auto result = engine.Execute(plan, QueryOptions{});
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result.ValueOrDie()->num_rows(),
            expect.ValueOrDie()->num_rows());
  EXPECT_GE(engine.index_manager()->stats().build_failures, 1u);
}

TEST(GovernorTest, IndexRefreshBreachDegradesToScanningFallback) {
  // The build's embed matrix (50 distinct values * 64 * 4 bytes) fits the
  // ceiling; the refresh's (400 new values) does not. The refresh fails
  // with kResourceExhausted before embedding, the rebuild it falls back
  // to breaches too, and the select degrades to the scanning fallback
  // with the answer of an unlimited engine over the appended table.
  auto model = std::make_shared<HashEmbeddingModel>(
      HashEmbeddingModel::Options{64});
  TablePtr table = MakeWordTable(2000, "w_", 50);
  TablePtr batch = MakeWordTable(400, "v_");
  auto select = [](Engine* engine, const std::string& word) {
    QueryBuilder qb(engine);
    qb.Scan("t").SemanticSelect("word", word, "m", 0.8f);
    PlanPtr plan = qb.plan();
    plan->strategy = SemanticJoinStrategy::kHnsw;
    plan->strategy_pinned = true;
    return engine->Execute(plan, QueryOptions{});
  };

  EngineOptions base;
  base.num_threads = 2;
  base.index.enabled = false;
  Engine baseline(base);
  baseline.models().Put("m", model);
  baseline.catalog().Put("t", table);
  ASSERT_TRUE(baseline.catalog().Append("t", *batch).ok());

  EngineOptions eo;
  eo.num_threads = 2;
  eo.index.enabled = true;
  eo.index.async_builds = false;
  // The scanning fallback's per-morsel embed matrices (32 * 64 * 4 bytes
  // each, one per thread) fit under the ceiling.
  eo.morsel_rows = 32;
  eo.governor.engine_memory_bytes = 32 * 1024;
  Engine engine(eo);
  engine.models().Put("m", model);
  engine.catalog().Put("t", table);
  ASSERT_TRUE(select(&engine, "w_7").ok());
  ASSERT_EQ(engine.index_manager()->stats().builds, 1u);
  ASSERT_TRUE(engine.catalog().Append("t", *batch).ok());

  for (const std::string word : {"v_17", "w_7"}) {
    auto expect = select(&baseline, word);
    ASSERT_TRUE(expect.ok()) << expect.status().ToString();
    auto result = select(&engine, word);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_EQ(result.ValueOrDie()->num_rows(),
              expect.ValueOrDie()->num_rows())
        << word;
  }
  const IndexManager::Stats stats = engine.index_manager()->stats();
  EXPECT_EQ(stats.refreshes, 0u);
  EXPECT_GE(stats.invalidations, 1u) << "the failed refresh drops its entry";
  EXPECT_GE(stats.build_failures, 1u);
  EXPECT_GE(engine.governor()->breaches(), 2u);
  EXPECT_EQ(engine.governor()->charged_bytes(), 0u);
}

TEST(GovernorTest, SemanticEmbedMatricesChargeTheQueryBudget) {
  // The semantic join's build-side matrix (300 * 64 * 4 bytes), its
  // per-batch probe matrix (200 * 64 * 4), the scanning select's
  // per-batch matrix (200 * 64 * 4) and the semantic group-by's per-batch
  // matrix (200 * 64 * 4) are charged before they are allocated: a budget
  // that fits none of them (but does fit the 256-byte query embed matrix)
  // fails the query with kResourceExhausted, and the breach leaves
  // nothing charged.
  auto model = std::make_shared<HashEmbeddingModel>(
      HashEmbeddingModel::Options{64});
  EngineOptions eo;
  eo.num_threads = 2;
  eo.index.enabled = false;
  Engine engine(eo);
  engine.models().Put("m", model);
  engine.catalog().Put("l", MakeWordTable(200, "w_"));
  engine.catalog().Put("r", MakeWordTable(300, "w_"));

  QueryBuilder right(&engine);
  right.Scan("r");
  QueryBuilder join(&engine);
  join.Scan("l").SemanticJoinWith(right, "word", "word", "m", 0.9f);
  QueryBuilder select(&engine);
  select.Scan("l").SemanticSelect("word", "w_7", "m", 0.8f);
  QueryBuilder group(&engine);
  group.Scan("l").SemanticGroupBy("word", "m", 0.9f);

  QueryOptions tight;
  tight.memory_budget_bytes = 16 * 1024;
  for (const PlanPtr& plan : {join.plan(), select.plan(), group.plan()}) {
    auto result = engine.Execute(plan, tight);
    ASSERT_FALSE(result.ok()) << PlanKindName(plan->kind);
    EXPECT_TRUE(result.status().IsResourceExhausted())
        << result.status().ToString();
    EXPECT_NE(result.status().ToString().find("embed matrix"),
              std::string::npos)
        << result.status().ToString();
    EXPECT_EQ(engine.governor()->charged_bytes(), 0u);

    auto full = engine.Execute(plan, QueryOptions{});
    ASSERT_TRUE(full.ok()) << full.status().ToString();
    EXPECT_GT(full.ValueOrDie()->num_rows(), 0u);
    EXPECT_EQ(engine.governor()->charged_bytes(), 0u);
  }
}

// ---- bounded admission ----

TEST(AdmissionTest, ShedPolicyByClass) {
  QueryScheduler scheduler(2, AdmissionOptions{2});

  auto n1 = scheduler.TryAdmit(QueryPriority::kNormal);
  auto n2 = scheduler.TryAdmit(QueryPriority::kNormal);
  ASSERT_TRUE(n1.ok());
  ASSERT_TRUE(n2.ok());
  auto g1 = std::move(n1).ValueUnsafe();
  auto g2 = std::move(n2).ValueUnsafe();

  // Normal class is full; background class (limit/2 == 1) is beyond full.
  auto n3 = scheduler.TryAdmit(QueryPriority::kNormal);
  ASSERT_FALSE(n3.ok());
  EXPECT_TRUE(n3.status().IsResourceExhausted()) << n3.status().ToString();
  auto bg = scheduler.TryAdmit(QueryPriority::kBackground);
  ASSERT_FALSE(bg.ok());
  EXPECT_TRUE(bg.status().IsResourceExhausted());

  // High priority is never shed.
  auto high = scheduler.TryAdmit(QueryPriority::kHigh);
  ASSERT_TRUE(high.ok()) << high.status().ToString();
  auto gh = std::move(high).ValueUnsafe();

  AdmissionStats stats = scheduler.admission_stats();
  EXPECT_EQ(stats.active_admitted, 3u);
  EXPECT_EQ(stats.shed[static_cast<int>(QueryPriority::kNormal)], 1u);
  EXPECT_EQ(stats.shed[static_cast<int>(QueryPriority::kBackground)], 1u);
  EXPECT_EQ(stats.shed[static_cast<int>(QueryPriority::kHigh)], 0u);

  // High-priority queries still occupy slots: releasing one normal group
  // leaves two active, which is the normal-class limit.
  g1.reset();
  EXPECT_FALSE(scheduler.TryAdmit(QueryPriority::kNormal).ok());
  // Draining below the limit restores admission.
  gh.reset();
  auto again = scheduler.TryAdmit(QueryPriority::kNormal);
  EXPECT_TRUE(again.ok());
  g2.reset();
}

TEST(AdmissionTest, UnlimitedByDefault) {
  QueryScheduler scheduler(2);
  std::vector<std::shared_ptr<QueryScheduler::Group>> groups;
  for (int i = 0; i < 32; ++i) {
    auto g = scheduler.TryAdmit(QueryPriority::kBackground);
    ASSERT_TRUE(g.ok());
    groups.push_back(std::move(g).ValueUnsafe());
  }
  EXPECT_EQ(scheduler.admission_stats().shed[2], 0u);
}

TEST(AdmissionTest, EngineShedsNormalButNeverHigh) {
  EngineOptions eo;
  eo.num_threads = 2;
  eo.admission.max_active_queries = 1;
  Engine engine(eo);
  engine.catalog().Put("t", MakeWordTable(100, "w_"));

  // Occupy the only admission slot.
  auto hold = engine.scheduler()->TryAdmit(QueryPriority::kNormal);
  ASSERT_TRUE(hold.ok());
  auto hold_group = std::move(hold).ValueUnsafe();

  QueryBuilder qb(&engine);
  qb.Scan("t");
  auto shed = engine.Execute(qb.plan(), QueryOptions{});
  ASSERT_FALSE(shed.ok());
  EXPECT_TRUE(shed.status().IsResourceExhausted())
      << shed.status().ToString();

  QueryOptions high;
  high.priority = QueryPriority::kHigh;
  auto served = engine.Execute(qb.plan(), high);
  ASSERT_TRUE(served.ok()) << served.status().ToString();

  hold_group.reset();
  auto after = engine.Execute(qb.plan(), QueryOptions{});
  EXPECT_TRUE(after.ok()) << after.status().ToString();

  const AdmissionStats stats = engine.scheduler()->admission_stats();
  EXPECT_GE(stats.shed[static_cast<int>(QueryPriority::kNormal)], 1u);
  EXPECT_EQ(stats.shed[static_cast<int>(QueryPriority::kHigh)], 0u);
  // Shed queries surface in the metrics namespace.
  EXPECT_NE(engine.metrics()->Snapshot().ToPrometheusText().find(
                "cre_admission_shed_total"),
            std::string::npos);
}

TEST(AdmissionTest, OverloadShedsBackgroundWhileHighCompletes) {
  EngineOptions eo;
  eo.num_threads = 2;
  eo.admission.max_active_queries = 2;  // background class limit: 1
  Engine engine(eo);
  engine.catalog().Put("t", MakeWordTable(30000, "w_"));

  std::atomic<int> bg_ok{0}, bg_shed{0}, high_fail{0};
  auto sort_query = [&](QueryPriority priority) -> Status {
    QueryBuilder qb(&engine);
    qb.Scan("t").OrderBy("num", false);
    QueryOptions q;
    q.priority = priority;
    return engine.Execute(qb.plan(), q).status();
  };

  std::vector<std::thread> threads;
  for (int i = 0; i < 6; ++i) {
    threads.emplace_back([&] {
      for (int j = 0; j < 3; ++j) {
        Status st = sort_query(QueryPriority::kBackground);
        if (st.ok()) {
          ++bg_ok;
        } else {
          ASSERT_TRUE(st.IsResourceExhausted()) << st.ToString();
          ++bg_shed;
        }
      }
    });
  }
  for (int i = 0; i < 2; ++i) {
    threads.emplace_back([&] {
      for (int j = 0; j < 3; ++j) {
        if (!sort_query(QueryPriority::kHigh).ok()) ++high_fail;
      }
    });
  }
  for (auto& t : threads) t.join();

  // Every high-priority query completed; background overload was shed
  // (6 threads contending for a background class limit of 1).
  EXPECT_EQ(high_fail.load(), 0);
  EXPECT_GT(bg_shed.load(), 0);
  EXPECT_GT(bg_ok.load(), 0);
  const AdmissionStats stats = engine.scheduler()->admission_stats();
  EXPECT_EQ(stats.shed[static_cast<int>(QueryPriority::kHigh)], 0u);
  EXPECT_EQ(stats.shed[static_cast<int>(QueryPriority::kBackground)],
            static_cast<std::uint64_t>(bg_shed.load()));
}

// ---- EXPLAIN ANALYZE surfacing ----

TEST(GovernorTest, ExplainAnalyzeShowsDeadlineSlackAndGovernorBytes) {
  EngineOptions eo;
  eo.num_threads = 2;
  eo.governor.engine_memory_bytes = 1ull << 30;
  Engine engine(eo);
  engine.catalog().Put("left", MakeWordTable(2000, "w_", 50));
  engine.catalog().Put("right", MakeWordTable(2000, "w_", 50));

  QueryBuilder qb(&engine);
  qb.Scan("left")
      .JoinWith(QueryBuilder(&engine).Scan("right"), "word", "word")
      .Limit(10);
  QueryOptions q;
  q.timeout_seconds = 30.0;
  auto text = engine.ExplainAnalyze(qb.plan(), q);
  ASSERT_TRUE(text.ok()) << text.status().ToString();
  EXPECT_NE(text.ValueOrDie().find("deadline: slack"), std::string::npos)
      << text.ValueOrDie();
  EXPECT_NE(text.ValueOrDie().find("governor: query peak="),
            std::string::npos)
      << text.ValueOrDie();
}

}  // namespace
}  // namespace cre
