#include <gtest/gtest.h>

#include "engine/engine.h"
#include "exec/aggregate.h"
#include "exec/filter.h"
#include "exec/hash_join.h"
#include "exec/operator.h"
#include "exec/parallel_sort.h"
#include "exec/project.h"
#include "exec/scan.h"
#include "plan/plan_node.h"

namespace cre {
namespace {

TablePtr Products() {
  auto t = Table::Make(Schema({{"id", DataType::kInt64, 0},
                               {"label", DataType::kString, 0},
                               {"price", DataType::kFloat64, 0}}));
  t->AppendRow({Value(1), Value("coat"), Value(30.0)}).Check();
  t->AppendRow({Value(2), Value("lamp"), Value(12.0)}).Check();
  t->AppendRow({Value(3), Value("boot"), Value(55.0)}).Check();
  t->AppendRow({Value(4), Value("coat"), Value(8.0)}).Check();
  return t;
}

TablePtr Sales() {
  auto t = Table::Make(Schema({{"sale_id", DataType::kInt64, 0},
                               {"pid", DataType::kInt64, 0},
                               {"qty", DataType::kInt64, 0}}));
  t->AppendRow({Value(100), Value(1), Value(2)}).Check();
  t->AppendRow({Value(101), Value(3), Value(1)}).Check();
  t->AppendRow({Value(102), Value(1), Value(5)}).Check();
  t->AppendRow({Value(103), Value(9), Value(1)}).Check();  // dangling pid
  return t;
}

TEST(ScanTest, SingleBatchSharesTable) {
  auto table = Products();
  TableScanOperator scan(table);
  ASSERT_TRUE(scan.Open().ok());
  auto batch = scan.Next().ValueOrDie();
  EXPECT_EQ(batch.get(), table.get());  // zero-copy fast path
  EXPECT_EQ(scan.Next().ValueOrDie(), nullptr);
}

TEST(ScanTest, BatchesCoverAllRows) {
  auto table = Table::Make(Schema({{"x", DataType::kInt64, 0}}));
  for (int i = 0; i < 10; ++i) table->AppendRow({Value(i)}).Check();
  TableScanOperator scan(table, /*batch_size=*/3);
  ASSERT_TRUE(scan.Open().ok());
  std::size_t total = 0, batches = 0;
  for (;;) {
    auto b = scan.Next().ValueOrDie();
    if (b == nullptr) break;
    total += b->num_rows();
    ++batches;
  }
  EXPECT_EQ(total, 10u);
  EXPECT_EQ(batches, 4u);
}

TEST(FilterTest, KeepsMatchingRows) {
  FilterOperator filter(std::make_unique<TableScanOperator>(Products()),
                        Gt(Col("price"), Lit(20.0)));
  auto out = ExecuteToTable(&filter).ValueOrDie();
  EXPECT_EQ(out->num_rows(), 2u);
  EXPECT_EQ(out->GetValue(0, 1).AsString(), "coat");
  EXPECT_EQ(out->GetValue(1, 1).AsString(), "boot");
}

TEST(FilterTest, EmptyResult) {
  FilterOperator filter(std::make_unique<TableScanOperator>(Products()),
                        Gt(Col("price"), Lit(1000.0)));
  auto out = ExecuteToTable(&filter).ValueOrDie();
  EXPECT_EQ(out->num_rows(), 0u);
}

TEST(ProjectTest, KeepColumns) {
  auto op = ProjectOperator::KeepColumns(
      std::make_unique<TableScanOperator>(Products()), {"label", "price"});
  auto out = ExecuteToTable(op.get()).ValueOrDie();
  EXPECT_EQ(out->num_columns(), 2u);
  EXPECT_EQ(out->schema().field(0).name, "label");
  EXPECT_EQ(out->GetValue(2, 0).AsString(), "boot");
}

TEST(ProjectTest, ComputedColumn) {
  std::vector<ProjectionItem> items = {
      {"id", Col("id")},
      {"double_price", Expr::Arith(ArithOp::kMul, Col("price"), Lit(2.0))}};
  ProjectOperator project(std::make_unique<TableScanOperator>(Products()),
                          items);
  auto out = ExecuteToTable(&project).ValueOrDie();
  EXPECT_EQ(out->schema().field(1).type, DataType::kFloat64);
  EXPECT_DOUBLE_EQ(out->GetValue(0, 1).AsFloat64(), 60.0);
}

TEST(ProjectTest, RenameViaColumnRef) {
  std::vector<ProjectionItem> items = {{"product_label", Col("label")}};
  ProjectOperator project(std::make_unique<TableScanOperator>(Products()),
                          items);
  auto out = ExecuteToTable(&project).ValueOrDie();
  EXPECT_EQ(out->schema().field(0).name, "product_label");
  EXPECT_EQ(out->schema().field(0).type, DataType::kString);
}

TEST(ProjectTest, MissingColumnFailsAtOpen) {
  std::vector<ProjectionItem> items = {{"x", Col("missing")}};
  ProjectOperator project(std::make_unique<TableScanOperator>(Products()),
                          items);
  EXPECT_TRUE(project.Open().IsNotFound());
}

/// Probe-only hash join over a table built from `build` on `build_key`.
std::unique_ptr<HashJoinOperator> MakeJoin(TablePtr probe, TablePtr build,
                                           const std::string& probe_key,
                                           const std::string& build_key) {
  auto table = HashJoinTable::Build(std::move(build), build_key).ValueOrDie();
  return std::make_unique<HashJoinOperator>(
      std::make_unique<TableScanOperator>(std::move(probe)), std::move(table),
      probe_key, build_key);
}

TEST(HashJoinTest, InnerJoinIntKeys) {
  auto join = MakeJoin(Sales(), Products(), "pid", "id");
  auto out = ExecuteToTable(join.get()).ValueOrDie();
  // sale 100 -> product 1, 101 -> 3, 102 -> 1; 103 dangles.
  EXPECT_EQ(out->num_rows(), 3u);
  EXPECT_TRUE(out->schema().HasField("label"));
  EXPECT_TRUE(out->schema().HasField("sale_id"));
}

TEST(HashJoinTest, DuplicateNameSuffixed) {
  auto join = MakeJoin(Products(), Products(), "id", "id");
  ASSERT_TRUE(join->Open().ok());
  EXPECT_TRUE(join->output_schema().HasField("id"));
  EXPECT_TRUE(join->output_schema().HasField("id_r"));
  EXPECT_TRUE(join->output_schema().HasField("label_r"));
}

TEST(HashJoinTest, StringKeys) {
  auto left = Table::Make(Schema({{"k", DataType::kString, 0}}));
  left->AppendRow({Value("a")}).Check();
  left->AppendRow({Value("b")}).Check();
  auto right = Table::Make(Schema({{"k2", DataType::kString, 0},
                                   {"v", DataType::kInt64, 0}}));
  right->AppendRow({Value("b"), Value(10)}).Check();
  right->AppendRow({Value("b"), Value(20)}).Check();
  auto join = MakeJoin(left, right, "k", "k2");
  auto out = ExecuteToTable(join.get()).ValueOrDie();
  EXPECT_EQ(out->num_rows(), 2u);  // "b" matches twice
}

TEST(HashJoinTest, TypeMismatchFails) {
  auto join = MakeJoin(Products(), Sales(), "label", "pid");
  ASSERT_TRUE(join->Open().ok());
  auto r = join->Next();
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsTypeError());
}

TEST(HashJoinTest, UnsupportedBuildKeyTypeFails) {
  auto r = HashJoinTable::Build(Products(), "price");
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsTypeError());
}

/// Runs `batches` through one aggregation state, as the driver's
/// single-state form does.
Result<TablePtr> AggregateBatches(const std::vector<TablePtr>& batches,
                                  std::vector<std::string> group_keys,
                                  std::vector<AggSpec> aggs) {
  GroupedAggregationState state;
  CRE_RETURN_NOT_OK(
      state.Init(batches[0]->schema(), std::move(group_keys), std::move(aggs)));
  for (const TablePtr& batch : batches) {
    CRE_RETURN_NOT_OK(state.Consume(*batch));
  }
  return state.Finalize();
}

TEST(AggregateTest, GroupByWithAggs) {
  TablePtr products = Products();
  // Two batches, so the coat group accumulates across a batch boundary.
  auto out =
      AggregateBatches({products->Slice(0, 2), products->Slice(2, 2)},
                       {"label"},
                       {{AggKind::kCount, "", "n"},
                        {AggKind::kSum, "price", "total"},
                        {AggKind::kMin, "price", "cheapest"},
                        {AggKind::kMax, "price", "dearest"},
                        {AggKind::kAvg, "price", "avg_price"}})
          .ValueOrDie();
  EXPECT_EQ(out->num_rows(), 3u);  // coat, lamp, boot
  bool saw_coat = false;
  for (std::size_t r = 0; r < out->num_rows(); ++r) {
    if (out->GetValue(r, 0).AsString() == "coat") {
      saw_coat = true;
      EXPECT_EQ(out->GetValue(r, 1).AsInt64(), 2);
      EXPECT_DOUBLE_EQ(out->GetValue(r, 2).AsFloat64(), 38.0);
      EXPECT_DOUBLE_EQ(out->GetValue(r, 3).AsFloat64(), 8.0);
      EXPECT_DOUBLE_EQ(out->GetValue(r, 4).AsFloat64(), 30.0);
      EXPECT_DOUBLE_EQ(out->GetValue(r, 5).AsFloat64(), 19.0);
    }
  }
  EXPECT_TRUE(saw_coat);
}

TEST(AggregateTest, GlobalAggregateNoKeys) {
  auto out =
      AggregateBatches({Products()}, {}, {{AggKind::kCount, "", "n"}})
          .ValueOrDie();
  ASSERT_EQ(out->num_rows(), 1u);
  EXPECT_EQ(out->GetValue(0, 0).AsInt64(), 4);
}

TEST(AggregateTest, EmptyGlobalAggregateYieldsIdentityRow) {
  auto out = AggregateBatches({Products()->Slice(0, 0)}, {},
                              {{AggKind::kCount, "", "n"},
                               {AggKind::kSum, "price", "total"}})
                 .ValueOrDie();
  ASSERT_EQ(out->num_rows(), 1u);
  EXPECT_EQ(out->GetValue(0, 0).AsInt64(), 0);
  EXPECT_DOUBLE_EQ(out->GetValue(0, 1).AsFloat64(), 0.0);
}

TEST(AggregateTest, MissingAggColumnFails) {
  GroupedAggregationState state;
  EXPECT_TRUE(state.Init(Products()->schema(), {},
                         {{AggKind::kSum, "missing", "s"}})
                  .IsNotFound());
  EXPECT_TRUE(state.Init(Products()->schema(), {"missing"},
                         {{AggKind::kCount, "", "n"}})
                  .IsNotFound());
}

/// One FLOAT64 key column holding `keys`, with a count per group.
Result<TablePtr> CountByFloatKey(const std::vector<double>& keys) {
  auto t = Table::Make(Schema({{"k", DataType::kFloat64, 0}}));
  for (const double k : keys) t->column(0).AppendFloat64(k);
  return AggregateBatches({t}, {"k"}, {{AggKind::kCount, "", "n"}});
}

TEST(AggregateTest, FloatKeysDifferingPastSixDigitsStayApart) {
  auto out = CountByFloatKey({1.0000001, 1.0000002, 1.0000001}).ValueOrDie();
  ASSERT_EQ(out->num_rows(), 2u);
  // First-seen group order.
  EXPECT_EQ(out->GetValue(0, 0).AsFloat64(), 1.0000001);
  EXPECT_EQ(out->GetValue(0, 1).AsInt64(), 2);
  EXPECT_EQ(out->GetValue(1, 0).AsFloat64(), 1.0000002);
  EXPECT_EQ(out->GetValue(1, 1).AsInt64(), 1);
}

TEST(AggregateTest, NegativeZeroAndZeroShareAGroup) {
  auto out = CountByFloatKey({0.0, -0.0, 0.0}).ValueOrDie();
  ASSERT_EQ(out->num_rows(), 1u);
  EXPECT_EQ(out->GetValue(0, 1).AsInt64(), 3);
}

TEST(AggregateTest, VectorKeyIsTypeError) {
  auto t = Table::Make(Schema({{"v", DataType::kFloatVector, 2}}));
  const float a[2] = {1.0f, 0.0f};
  const float b[2] = {0.0f, 1.0f};
  t->column(0).AppendVector(a, 2);
  t->column(0).AppendVector(b, 2);
  GroupedAggregationState state;
  EXPECT_TRUE(
      state.Init(t->schema(), {"v"}, {{AggKind::kCount, "", "n"}})
          .IsTypeError());
}

TEST(AggregateTest, MultiKeyGroupsInFirstSeenOrder) {
  auto t = Table::Make(Schema({{"a", DataType::kInt64, 0},
                               {"b", DataType::kString, 0},
                               {"v", DataType::kInt64, 0}}));
  // (1,"x") (2,"x") (1,"y") (1,"x"): the string half alone or the int half
  // alone would merge groups.
  t->AppendRow({Value(1), Value("x"), Value(10)}).Check();
  t->AppendRow({Value(2), Value("x"), Value(20)}).Check();
  t->AppendRow({Value(1), Value("y"), Value(30)}).Check();
  t->AppendRow({Value(1), Value("x"), Value(40)}).Check();
  auto out = AggregateBatches({t->Slice(0, 3), t->Slice(3, 1)}, {"a", "b"},
                              {{AggKind::kSum, "v", "s"}})
                 .ValueOrDie();
  ASSERT_EQ(out->num_rows(), 3u);
  EXPECT_EQ(out->GetValue(0, 0).AsInt64(), 1);
  EXPECT_EQ(out->GetValue(0, 1).AsString(), "x");
  EXPECT_EQ(out->GetValue(0, 2).AsFloat64(), 50.0);
  EXPECT_EQ(out->GetValue(1, 0).AsInt64(), 2);
  EXPECT_EQ(out->GetValue(1, 2).AsFloat64(), 20.0);
  EXPECT_EQ(out->GetValue(2, 1).AsString(), "y");
  EXPECT_EQ(out->GetValue(2, 2).AsFloat64(), 30.0);
}

TEST(SortTest, AscendingAndDescending) {
  auto out = SortTable(Products(), "price", true, /*pool=*/nullptr)
                 .ValueOrDie();
  EXPECT_DOUBLE_EQ(out->GetValue(0, 2).AsFloat64(), 8.0);
  EXPECT_DOUBLE_EQ(out->GetValue(3, 2).AsFloat64(), 55.0);

  auto out2 = SortTable(Products(), "price", false, /*pool=*/nullptr)
                  .ValueOrDie();
  EXPECT_DOUBLE_EQ(out2->GetValue(0, 2).AsFloat64(), 55.0);
}

TEST(SortTest, StringKey) {
  auto out = SortTable(Products(), "label", true, /*pool=*/nullptr)
                 .ValueOrDie();
  EXPECT_EQ(out->GetValue(0, 1).AsString(), "boot");
}

/// A one-thread engine over the two fixture tables: every query runs
/// through the morsel driver on the calling thread. `morsel_rows` is also
/// the scan batch size, so a small value makes pipelines cross batches.
std::unique_ptr<Engine> OneThreadEngine(std::size_t morsel_rows = 8 * 1024) {
  EngineOptions eo;
  eo.num_threads = 1;
  eo.morsel_rows = morsel_rows;
  auto engine = std::make_unique<Engine>(eo);
  engine->catalog().Put("products", Products());
  engine->catalog().Put("sales", Sales());
  return engine;
}

TEST(LimitTest, TruncatesOutput) {
  auto engine = OneThreadEngine();
  auto out = engine->ExecuteUnoptimized(
                       PlanNode::Limit(PlanNode::Scan("products"), 2))
                 .ValueOrDie();
  EXPECT_EQ(out->num_rows(), 2u);
}

TEST(LimitTest, LimitLargerThanInput) {
  auto engine = OneThreadEngine();
  auto out = engine->ExecuteUnoptimized(
                       PlanNode::Limit(PlanNode::Scan("products"), 99))
                 .ValueOrDie();
  EXPECT_EQ(out->num_rows(), 4u);
}

TEST(LimitTest, AcrossBatches) {
  auto engine = OneThreadEngine(/*morsel_rows=*/16);
  auto table = Table::Make(Schema({{"x", DataType::kInt64, 0}}));
  for (int i = 0; i < 100; ++i) table->AppendRow({Value(i)}).Check();
  engine->catalog().Put("t", table);
  auto out =
      engine->ExecuteUnoptimized(PlanNode::Limit(PlanNode::Scan("t"), 40))
          .ValueOrDie();
  EXPECT_EQ(out->num_rows(), 40u);
  EXPECT_EQ(out->GetValue(39, 0).AsInt64(), 39);
}

TEST(PipelineTest, ScanFilterProjectJoinAggregate) {
  // Full relational pipeline: sales joined to products over 20, count per
  // label.
  auto engine = OneThreadEngine();
  PlanPtr plan = PlanNode::Aggregate(
      PlanNode::Join(PlanNode::Scan("sales"),
                     PlanNode::Filter(PlanNode::Scan("products"),
                                      Gt(Col("price"), Lit(20.0))),
                     "pid", "id"),
      {"label"}, {{AggKind::kSum, "qty", "total_qty"}});
  auto out = engine->ExecuteUnoptimized(plan).ValueOrDie();
  ASSERT_EQ(out->num_rows(), 2u);
  for (std::size_t r = 0; r < out->num_rows(); ++r) {
    const std::string label = out->GetValue(r, 0).AsString();
    const double qty = out->GetValue(r, 1).AsFloat64();
    if (label == "coat") {
      EXPECT_DOUBLE_EQ(qty, 7.0);
    } else {
      EXPECT_EQ(label, "boot");
      EXPECT_DOUBLE_EQ(qty, 1.0);
    }
  }
}

}  // namespace
}  // namespace cre
