#include <atomic>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "datagen/vocabulary.h"
#include "engine/engine.h"
#include "optimizer/optimizer.h"
#include "plan/schema_inference.h"

namespace cre {
namespace {

/// Fixture: an engine with products/kb tables, a Table-I model, and an
/// image store behind a detector binding.
class OptimizerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    EngineOptions options;
    options.num_threads = 2;
    engine_ = std::make_unique<Engine>(options);

    auto products = Table::Make(Schema({{"id", DataType::kInt64, 0},
                                        {"label", DataType::kString, 0},
                                        {"price", DataType::kFloat64, 0}}));
    const char* labels[] = {"boots", "parka", "kitten", "lantern", "coat",
                            "sneakers", "oxfords", "windbreaker"};
    for (int i = 0; i < 800; ++i) {
      products
          ->AppendRow({Value(i), Value(labels[i % 8]),
                       Value(5.0 + (i % 50) * 1.0)})
          .Check();
    }
    engine_->catalog().Put("products", products);

    auto kb = Table::Make(Schema({{"subject", DataType::kString, 0},
                                  {"object", DataType::kString, 0}}));
    kb->AppendRow({Value("shoes"), Value("clothes")}).Check();
    kb->AppendRow({Value("jacket"), Value("clothes")}).Check();
    kb->AppendRow({Value("cat"), Value("animal")}).Check();
    engine_->catalog().Put("kb", kb);

    model_ = std::make_shared<SynonymStructuredModel>(
        TableOneGroups(), SynonymStructuredModel::Options{});
    engine_->models().Put("m", model_);

    for (int i = 0; i < 200; ++i) {
      SyntheticImage img;
      img.image_id = i;
      img.date_taken = 19000 + i;
      img.objects = {"boots", "person"};
      store_.AddImage(std::move(img));
    }
    detector_ = std::make_unique<ObjectDetector>(
        ObjectDetector::Options{/*cost_per_image_us=*/1.0, 7});
    engine_->detectors().Put("imgs", {&store_, detector_.get()});
  }

  std::unique_ptr<Engine> engine_;
  std::shared_ptr<SynonymStructuredModel> model_;
  ImageStore store_;
  std::unique_ptr<ObjectDetector> detector_;
};

TEST_F(OptimizerTest, FilterPushesIntoScan) {
  auto plan = PlanNode::Filter(PlanNode::Scan("products"),
                               Gt(Col("price"), Lit(20.0)));
  auto optimized =
      RulePushDownFilters(plan, engine_->catalog()).ValueOrDie();
  ASSERT_EQ(optimized->kind, PlanKind::kScan);
  ASSERT_NE(optimized->predicate, nullptr);
  EXPECT_EQ(optimized->predicate->ToString(), "(price > 20)");
}

TEST_F(OptimizerTest, FilterSplitsAcrossJoin) {
  auto plan = PlanNode::Filter(
      PlanNode::Join(PlanNode::Scan("products"), PlanNode::Scan("kb"), "label",
                     "subject"),
      And(Gt(Col("price"), Lit(20.0)), Eq(Col("object"), Lit("clothes"))));
  auto optimized =
      RulePushDownFilters(plan, engine_->catalog()).ValueOrDie();
  ASSERT_EQ(optimized->kind, PlanKind::kJoin);
  ASSERT_NE(optimized->children[0]->predicate, nullptr);
  ASSERT_NE(optimized->children[1]->predicate, nullptr);
  EXPECT_NE(optimized->children[0]->predicate->ToString().find("price"),
            std::string::npos);
  EXPECT_NE(optimized->children[1]->predicate->ToString().find("object"),
            std::string::npos);
}

TEST_F(OptimizerTest, FilterOnJoinOutputStays) {
  // "similarity" is produced by the semantic join itself: cannot push.
  auto plan = PlanNode::Filter(
      PlanNode::SemanticJoin(PlanNode::Scan("products"), PlanNode::Scan("kb"),
                             "label", "subject", "m", 0.85f),
      Gt(Col("similarity"), Lit(0.9)));
  auto optimized =
      RulePushDownFilters(plan, engine_->catalog()).ValueOrDie();
  EXPECT_EQ(optimized->kind, PlanKind::kFilter);
  EXPECT_EQ(optimized->children[0]->kind, PlanKind::kSemanticJoin);
}

TEST_F(OptimizerTest, FilterPushesBelowSemanticSelect) {
  auto plan = PlanNode::Filter(
      PlanNode::SemanticSelect(PlanNode::Scan("products"), "label", "shoes",
                               "m", 0.85f),
      Gt(Col("price"), Lit(20.0)));
  auto optimized =
      RulePushDownFilters(plan, engine_->catalog()).ValueOrDie();
  // Semantic select on top, relational predicate inside the scan.
  ASSERT_EQ(optimized->kind, PlanKind::kSemanticSelect);
  ASSERT_EQ(optimized->children[0]->kind, PlanKind::kScan);
  EXPECT_NE(optimized->children[0]->predicate, nullptr);
}

TEST_F(OptimizerTest, FilterPushesIntoDetectScan) {
  auto plan = PlanNode::Filter(
      PlanNode::DetectScan("imgs"),
      And(Gt(Col("date_taken"), Lit(Value::Date(19100))),
          Gt(Col("objects_in_image"), Lit(1))));
  auto optimized =
      RulePushDownFilters(plan, engine_->catalog()).ValueOrDie();
  // date_taken binds to the detect scan; objects_in_image is also part of
  // the detection schema so both attach (the scan applies what it can to
  // metadata pre-inference at execution time).
  ASSERT_EQ(optimized->kind, PlanKind::kDetectScan);
  ASSERT_NE(optimized->predicate, nullptr);
}

TEST_F(OptimizerTest, FilterDoesNotCrossLimit) {
  auto plan = PlanNode::Filter(
      PlanNode::Limit(PlanNode::Scan("products"), 10),
      Gt(Col("price"), Lit(20.0)));
  auto optimized =
      RulePushDownFilters(plan, engine_->catalog()).ValueOrDie();
  EXPECT_EQ(optimized->kind, PlanKind::kFilter);
  EXPECT_EQ(optimized->children[0]->kind, PlanKind::kLimit);
}

TEST_F(OptimizerTest, CardinalityScanWithPredicate) {
  auto plan = PlanNode::Scan("products");
  plan->predicate = Gt(Col("price"), Lit(29.5));  // prices 5..54 uniform
  CardinalityEstimator est(&engine_->catalog(), &engine_->models(),
                           &engine_->detectors());
  ASSERT_TRUE(est.Annotate(plan.get()).ok());
  EXPECT_NEAR(plan->est_rows, 800 * 0.5, 800 * 0.15);
}

TEST_F(OptimizerTest, CardinalitySemanticSelectSampled) {
  // 3 of 8 labels (parka/coat/windbreaker) are jacket-synonyms => ~37%.
  auto plan = PlanNode::SemanticSelect(PlanNode::Scan("products"), "label",
                                       "jacket", "m", 0.85f);
  CardinalityEstimator est(&engine_->catalog(), &engine_->models(),
                           &engine_->detectors());
  ASSERT_TRUE(est.Annotate(plan.get()).ok());
  EXPECT_NEAR(plan->est_rows / 800.0, 0.375, 0.1);
}

/// Forwards to a real model and counts every embedding it computes.
class CountingModel : public EmbeddingModel {
 public:
  explicit CountingModel(EmbeddingModelPtr inner) : inner_(std::move(inner)) {}
  std::size_t dim() const override { return inner_->dim(); }
  void Embed(std::string_view text, float* out) const override {
    ++embeds_;
    inner_->Embed(text, out);
  }
  std::string name() const override { return "counting"; }
  std::size_t embeds() const { return embeds_.load(); }

 private:
  EmbeddingModelPtr inner_;
  mutable std::atomic<std::size_t> embeds_{0};
};

TEST_F(OptimizerTest, SemanticSelectSelectivityEmbedsEachQueryOnce) {
  auto counting = std::make_shared<CountingModel>(model_);
  engine_->models().Put("counted", counting);
  auto plan = PlanNode::SemanticSelect(PlanNode::Scan("products"), "label",
                                       "jacket", "counted", 0.85f);
  plan->queries = {"jacket", "shoes", "cat", "lamp"};
  CardinalityEstimator est(&engine_->catalog(), &engine_->models(),
                           &engine_->detectors());
  ASSERT_TRUE(est.Annotate(plan.get()).ok());
  const std::size_t samples = CardinalityOptions{}.sample_size;
  EXPECT_LE(counting->embeds(), samples + plan->queries.size());
  EXPECT_GT(counting->embeds(), 0u);

  // Same estimate as the uncounted model: counting changes no vector.
  auto reference = PlanNode::SemanticSelect(PlanNode::Scan("products"),
                                            "label", "jacket", "m", 0.85f);
  reference->queries = plan->queries;
  ASSERT_TRUE(est.Annotate(reference.get()).ok());
  EXPECT_EQ(plan->est_rows, reference->est_rows);
}

TEST_F(OptimizerTest, JoinReorderPutsSmallSideRight) {
  auto plan = PlanNode::Join(PlanNode::Scan("kb"), PlanNode::Scan("products"),
                             "subject", "label");
  CardinalityEstimator est(&engine_->catalog(), &engine_->models(),
                           &engine_->detectors());
  ASSERT_TRUE(est.Annotate(plan.get()).ok());
  auto reordered =
      RuleReorderJoinInputs(plan, engine_->catalog()).ValueOrDie();
  // products (800) should now be on the left, kb (3) on the right build.
  EXPECT_EQ(reordered->children[0]->table_name, "products");
  EXPECT_EQ(reordered->children[1]->table_name, "kb");
  EXPECT_EQ(reordered->left_key, "label");
  EXPECT_EQ(reordered->right_key, "subject");
}

TEST_F(OptimizerTest, DataInducedPredicateInserted) {
  auto plan = PlanNode::SemanticJoin(PlanNode::Scan("products"),
                                     PlanNode::Scan("kb"), "label", "subject",
                                     "m", 0.85f);
  CardinalityEstimator est(&engine_->catalog(), &engine_->models(),
                           &engine_->detectors());
  ASSERT_TRUE(est.Annotate(plan.get()).ok());
  Engine* engine = engine_.get();
  SubplanExecutor executor = [engine](const PlanPtr& p) {
    return engine->ExecuteUnoptimized(p);
  };
  auto optimized =
      RuleDataInducedPredicates(plan, executor, 64).ValueOrDie();
  // The large (products) side should now have a derived multi-query
  // semantic select listing the kb subjects.
  ASSERT_EQ(optimized->children[0]->kind, PlanKind::kSemanticSelect);
  EXPECT_EQ(optimized->children[0]->column, "label");
  EXPECT_EQ(optimized->children[0]->queries.size(), 3u);
}

TEST_F(OptimizerTest, DipSkipsBalancedJoin) {
  auto plan = PlanNode::SemanticJoin(PlanNode::Scan("products"),
                                     PlanNode::Scan("products"), "label",
                                     "label", "m", 0.85f);
  CardinalityEstimator est(&engine_->catalog(), &engine_->models(),
                           &engine_->detectors());
  ASSERT_TRUE(est.Annotate(plan.get()).ok());
  Engine* engine = engine_.get();
  SubplanExecutor executor = [engine](const PlanPtr& p) {
    return engine->ExecuteUnoptimized(p);
  };
  auto optimized =
      RuleDataInducedPredicates(plan, executor, 64).ValueOrDie();
  EXPECT_EQ(optimized->children[0]->kind, PlanKind::kScan);
  EXPECT_EQ(optimized->children[1]->kind, PlanKind::kScan);
}

TEST_F(OptimizerTest, StrategySelectionPrefersIndexForLargeInputs) {
  CostModel cost(&engine_->models());
  // Small join: brute force wins (no build amortization).
  const double small_brute = cost.SemanticJoinStrategyCost(
      SemanticJoinStrategy::kBruteForce, 10, 10);
  const double small_ivf =
      cost.SemanticJoinStrategyCost(SemanticJoinStrategy::kIvf, 10, 10);
  EXPECT_LT(small_brute, small_ivf);
  // Large join: an index strategy must win.
  const double big_brute = cost.SemanticJoinStrategyCost(
      SemanticJoinStrategy::kBruteForce, 100000, 100000);
  const double big_ivf =
      cost.SemanticJoinStrategyCost(SemanticJoinStrategy::kIvf, 100000,
                                    100000);
  EXPECT_LT(big_ivf, big_brute);
}

TEST_F(OptimizerTest, StrategyRuleRespectsPin) {
  auto plan = PlanNode::SemanticJoin(PlanNode::Scan("products"),
                                     PlanNode::Scan("products"), "label",
                                     "label", "m", 0.85f);
  plan->children[0]->est_rows = 100000;
  plan->children[1]->est_rows = 100000;
  plan->strategy = SemanticJoinStrategy::kBruteForce;
  plan->strategy_pinned = true;
  CostModel cost(&engine_->models());
  auto optimized = RulePickSemanticJoinStrategy(plan, cost);
  EXPECT_EQ(optimized->strategy, SemanticJoinStrategy::kBruteForce);
  optimized->strategy_pinned = false;
  optimized = RulePickSemanticJoinStrategy(optimized, cost);
  EXPECT_NE(optimized->strategy, SemanticJoinStrategy::kBruteForce);
}

TEST_F(OptimizerTest, PruneInsertsProjectAboveScan) {
  std::vector<ProjectionItem> items = {{"label", Col("label")}};
  auto plan = PlanNode::Project(PlanNode::Scan("products"), items);
  auto pruned = RulePruneColumns(plan, engine_->catalog()).ValueOrDie();
  // Under the user's project a narrowing project should now sit on the
  // scan (or the project directly reads a narrowed scan).
  ASSERT_EQ(pruned->kind, PlanKind::kProject);
  EXPECT_EQ(pruned->children[0]->kind, PlanKind::kProject);
  EXPECT_EQ(pruned->children[0]->children[0]->kind, PlanKind::kScan);
}

TEST_F(OptimizerTest, EndToEndOptimizeProducesAnnotatedPlan) {
  auto plan = PlanNode::Filter(
      PlanNode::SemanticJoin(PlanNode::Scan("products"), PlanNode::Scan("kb"),
                             "label", "subject", "m", 0.85f),
      Gt(Col("price"), Lit(20.0)));
  Optimizer opt = engine_->MakeOptimizer();
  auto optimized = opt.Optimize(plan).ValueOrDie();
  EXPECT_GE(optimized->est_rows, 0);
  EXPECT_GE(optimized->est_cost, 0);
  // Execution of original and optimized plans must agree on row count.
  auto a = engine_->ExecuteUnoptimized(plan).ValueOrDie();
  auto b = engine_->ExecuteUnoptimized(optimized).ValueOrDie();
  EXPECT_EQ(a->num_rows(), b->num_rows());
}

TEST_F(OptimizerTest, OptimizedPlanCheaperThanNaive) {
  auto plan = PlanNode::Filter(
      PlanNode::SemanticJoin(PlanNode::Scan("products"), PlanNode::Scan("kb"),
                             "label", "subject", "m", 0.85f),
      And(Gt(Col("price"), Lit(50.0)), Eq(Col("object"), Lit("clothes"))));
  Optimizer opt = engine_->MakeOptimizer();
  PlanPtr naive = plan->Clone();
  ASSERT_TRUE(opt.Annotate(naive.get()).ok());
  auto optimized = opt.Optimize(plan).ValueOrDie();
  EXPECT_LT(optimized->est_cost, naive->est_cost);
}

TEST_F(OptimizerTest, ExplainMentionsRulesEffects) {
  auto plan = PlanNode::Filter(PlanNode::Scan("products"),
                               Gt(Col("price"), Lit(20.0)));
  Optimizer opt = engine_->MakeOptimizer();
  const std::string text = opt.Explain(plan).ValueOrDie();
  EXPECT_NE(text.find("pushed:"), std::string::npos);
  EXPECT_NE(text.find("rows"), std::string::npos);
}

}  // namespace
}  // namespace cre
