// Edge cases and failure injection across the stack: empty inputs,
// degenerate thresholds, missing catalog entries mid-plan, and boundary
// conditions the main suites don't exercise.

#include <memory>

#include <gtest/gtest.h>

#include "datagen/vocabulary.h"
#include "embed/structured_model.h"
#include "engine/engine.h"
#include "engine/query_builder.h"
#include "exec/scan.h"
#include "semantic/consolidation.h"
#include "semantic/semantic_group_by.h"
#include "semantic/semantic_join.h"
#include "semantic/semantic_select.h"
#include "sql/sql.h"

namespace cre {
namespace {

std::shared_ptr<SynonymStructuredModel> Model() {
  return std::make_shared<SynonymStructuredModel>(
      TableOneGroups(), SynonymStructuredModel::Options{});
}

TablePtr Labels(const std::vector<std::string>& labels) {
  auto t = Table::Make(Schema({{"label", DataType::kString, 0}}));
  for (const auto& l : labels) t->AppendRow({Value(l)}).Check();
  return t;
}

class EdgeEngine : public ::testing::Test {
 protected:
  void SetUp() override {
    engine_ = std::make_unique<Engine>();
    engine_->models().Put("m", Model());
    engine_->catalog().Put("empty", Labels({}));
    engine_->catalog().Put("one", Labels({"boots"}));
  }
  std::unique_ptr<Engine> engine_;
};

TEST_F(EdgeEngine, EmptyTableThroughFullPipeline) {
  auto result = QueryBuilder(engine_.get())
                    .Scan("empty")
                    .SemanticSelect("label", "jacket", "m", 0.9f)
                    .SemanticGroupBy("label", "m", 0.9f)
                    .Execute()
                    .ValueOrDie();
  EXPECT_EQ(result->num_rows(), 0u);
  EXPECT_TRUE(result->schema().HasField("cluster_id"));
}

TEST_F(EdgeEngine, EmptySemanticJoinSides) {
  auto result =
      QueryBuilder(engine_.get())
          .Scan("one")
          .SemanticJoinWith(QueryBuilder(engine_.get()).Scan("empty"),
                            "label", "label", "m", 0.5f)
          .Execute()
          .ValueOrDie();
  EXPECT_EQ(result->num_rows(), 0u);
  auto result2 =
      QueryBuilder(engine_.get())
          .Scan("empty")
          .SemanticJoinWith(QueryBuilder(engine_.get()).Scan("one"),
                            "label", "label", "m", 0.5f)
          .Execute()
          .ValueOrDie();
  EXPECT_EQ(result2->num_rows(), 0u);
}

TEST_F(EdgeEngine, ThresholdAboveOneMatchesNothing) {
  auto table = Labels({"boots", "boots", "sneakers"});
  engine_->catalog().Put("t", table);
  auto result = QueryBuilder(engine_.get())
                    .Scan("t")
                    .SemanticSelect("label", "boots", "m", 1.01f)
                    .Execute()
                    .ValueOrDie();
  EXPECT_EQ(result->num_rows(), 0u);
}

TEST_F(EdgeEngine, NegativeThresholdMatchesEverything) {
  engine_->catalog().Put("t", Labels({"boots", "kitten", "lantern"}));
  auto result =
      QueryBuilder(engine_.get())
          .Scan("t")
          .SemanticJoinWith(QueryBuilder(engine_.get()).Scan("t"), "label",
                            "label", "m", -1.0f)
          .Execute()
          .ValueOrDie();
  EXPECT_EQ(result->num_rows(), 9u);  // full cross product
}

TEST_F(EdgeEngine, DuplicateRowsJoinMultiplicity) {
  engine_->catalog().Put("dups", Labels({"boots", "boots"}));
  auto result =
      QueryBuilder(engine_.get())
          .Scan("dups")
          .SemanticJoinWith(QueryBuilder(engine_.get()).Scan("dups"),
                            "label", "label", "m", 0.9f)
          .Execute()
          .ValueOrDie();
  EXPECT_EQ(result->num_rows(), 4u);  // 2x2 identical pairs
}

TEST_F(EdgeEngine, MissingModelSurfacesMidPlan) {
  engine_->catalog().Put("t", Labels({"boots"}));
  auto r = QueryBuilder(engine_.get())
               .Scan("t")
               .Filter(Eq(Col("label"), Lit("boots")))
               .SemanticSelect("label", "boots", "ghost_model", 0.5f)
               .Execute();
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsNotFound());
}

TEST_F(EdgeEngine, SqlOnEmptyTable) {
  auto result =
      sql::ExecuteSql(engine_.get(),
                      "SELECT COUNT(*) AS n FROM empty WHERE label = 'x'")
          .ValueOrDie();
  ASSERT_EQ(result->num_rows(), 1u);
  EXPECT_EQ(result->GetValue(0, 0).AsInt64(), 0);
}

TEST_F(EdgeEngine, ProjectionOfMissingColumnFails) {
  auto r = QueryBuilder(engine_.get())
               .Scan("one")
               .Project({"label", "ghost"})
               .Execute();
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsNotFound());
}

TEST(EdgeSemantic, GroupByOnSingleRow) {
  auto model = Model();
  SemanticGroupByOperator op(
      std::make_unique<TableScanOperator>(Labels({"boots"})), "label", model,
      0.9f);
  auto out = ExecuteToTable(&op).ValueOrDie();
  ASSERT_EQ(out->num_rows(), 1u);
  EXPECT_EQ(out->GetValue(0, 1).AsInt64(), 0);
  EXPECT_EQ(out->GetValue(0, 2).AsString(), "boots");
}

TEST(EdgeSemantic, ConsolidateEmptyAndSingle) {
  auto model = Model();
  auto empty = ConsolidateLabels({}, *model, 0.9f);
  EXPECT_EQ(empty.num_clusters(), 0u);
  auto single = ConsolidateLabels({"boots"}, *model, 0.9f);
  EXPECT_EQ(single.num_clusters(), 1u);
  EXPECT_EQ(single.representatives[0], "boots");
}

TEST(EdgeSemantic, EmptyStringEmbedsAndJoins) {
  auto model = Model();
  auto v = model->EmbedToVector("");
  // Empty string still embeds ("<>" boundary n-grams) to a unit vector.
  float norm = 0;
  for (float x : v) norm += x * x;
  EXPECT_NEAR(norm, 1.0f, 1e-3f);
  SemanticJoinOptions options;
  options.threshold = 0.99f;
  auto matches = SemanticStringJoin({""}, {""}, *model, options).ValueOrDie();
  EXPECT_EQ(matches.size(), 1u);  // identical strings always match
}

TEST(EdgeSemantic, UnicodeBytesSurvive) {
  auto model = Model();
  // Multi-byte UTF-8 labels are treated as opaque byte strings.
  const float self = model->Similarity("ジャケット", "ジャケット");
  EXPECT_NEAR(self, 1.0f, 1e-5f);
  auto result = ConsolidateLabels({"ジャケット", "ジャケット", "コート"},
                                  *model, 0.95f);
  EXPECT_EQ(result.cluster_of[0], result.cluster_of[1]);
}

TEST(EdgeSemantic, VeryLongStringEmbeds) {
  auto model = Model();
  std::string longword(5000, 'a');
  auto v = model->EmbedToVector(longword);
  float norm = 0;
  for (float x : v) norm += x * x;
  EXPECT_NEAR(norm, 1.0f, 1e-3f);
}

TEST(EdgeOptimizer, OptimizeDegenerateSingleScan) {
  Engine engine;
  engine.catalog().Put("t", Labels({"a", "b"}));
  auto plan = PlanNode::Scan("t");
  auto optimized = engine.MakeOptimizer().Optimize(plan).ValueOrDie();
  EXPECT_EQ(optimized->kind, PlanKind::kScan);
  auto result = engine.ExecuteUnoptimized(optimized).ValueOrDie();
  EXPECT_EQ(result->num_rows(), 2u);
}

TEST(EdgeOptimizer, ContradictoryFilterYieldsEmpty) {
  Engine engine;
  auto t = Table::Make(Schema({{"x", DataType::kInt64, 0}}));
  for (int i = 0; i < 100; ++i) t->AppendRow({Value(i)}).Check();
  engine.catalog().Put("t", t);
  auto result = QueryBuilder(&engine)
                    .Scan("t")
                    .Filter(And(Gt(Col("x"), Lit(50)), Lt(Col("x"), Lit(10))))
                    .Execute()
                    .ValueOrDie();
  EXPECT_EQ(result->num_rows(), 0u);
}

TEST(EdgeOptimizer, LimitZero) {
  Engine engine;
  engine.catalog().Put("t", Labels({"a", "b", "c"}));
  auto result =
      QueryBuilder(&engine).Scan("t").Limit(0).Execute().ValueOrDie();
  EXPECT_EQ(result->num_rows(), 0u);
}

}  // namespace
}  // namespace cre
