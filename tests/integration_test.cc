// Cross-module integration and property tests: full engine pipelines over
// generated datasets, equivalence of optimized vs unoptimized execution,
// and end-to-end reproduction invariants behind the paper's experiments.

#include <map>
#include <memory>
#include <set>

#include <gtest/gtest.h>

#include "baseline/interpreted_join.h"
#include "datagen/corpus.h"
#include "datagen/shop.h"
#include "datagen/vocabulary.h"
#include "engine/engine.h"
#include "engine/query_builder.h"
#include "semantic/consolidation.h"
#include "semantic/semantic_join.h"

namespace cre {
namespace {

class IntegrationTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    ShopOptions o;
    o.num_products = 400;
    o.num_transactions = 1000;
    o.num_images = 80;
    dataset_ = new ShopDataset(GenerateShopDataset(o));
    EngineOptions eo;
    eo.num_threads = 4;
    engine_ = new Engine(eo);
    engine_->catalog().Put("products", dataset_->products);
    engine_->catalog().Put("transactions", dataset_->transactions);
    engine_->catalog().Put("kb_category", dataset_->kb.Export("category"));
    engine_->models().Put("shop", dataset_->model);
    detector_ = new ObjectDetector(ObjectDetector::Options{1.0, 7});
    engine_->detectors().Put("shop_images",
                             {&dataset_->images, detector_});
  }
  static void TearDownTestSuite() {
    delete engine_;
    delete detector_;
    delete dataset_;
  }

  static ShopDataset* dataset_;
  static Engine* engine_;
  static ObjectDetector* detector_;
};

ShopDataset* IntegrationTest::dataset_ = nullptr;
Engine* IntegrationTest::engine_ = nullptr;
ObjectDetector* IntegrationTest::detector_ = nullptr;

PlanPtr MotivatingQueryPlan(Engine* engine) {
  return QueryBuilder(engine)
      .Scan("products")
      .Filter(Gt(Col("price"), Lit(20.0)))
      .SemanticJoinWith(QueryBuilder(engine)
                            .Scan("kb_category")
                            .Filter(Eq(Col("object"), Lit("clothes"))),
                        "type_label", "subject", "shop", 0.80f)
      .SemanticJoinWith(
          QueryBuilder(engine)
              .DetectScan("shop_images")
              .Filter(And(Gt(Col("date_taken"), Lit(Value::Date(19200))),
                          Gt(Col("objects_in_image"), Lit(2)))),
          "type_label", "object_label", "shop", 0.80f)
      .plan();
}

TEST_F(IntegrationTest, MotivatingQueryOptimizedEqualsNaive) {
  auto plan = MotivatingQueryPlan(engine_);
  auto naive = engine_->ExecuteUnoptimized(plan).ValueOrDie();
  auto optimized = engine_->Execute(plan).ValueOrDie();
  EXPECT_EQ(naive->num_rows(), optimized->num_rows());
}

TEST_F(IntegrationTest, OptimizationReducesDetectorWork) {
  auto plan = MotivatingQueryPlan(engine_);
  detector_->ResetCounter();
  engine_->ExecuteUnoptimized(plan).ValueOrDie();
  const std::size_t naive_images = detector_->images_processed();
  detector_->ResetCounter();
  engine_->Execute(plan).ValueOrDie();
  const std::size_t optimized_images = detector_->images_processed();
  // Unoptimized detects the whole store; optimized only post-date images.
  EXPECT_EQ(naive_images, dataset_->images.size());
  EXPECT_LT(optimized_images, naive_images);
}

TEST_F(IntegrationTest, SemanticJoinPrecisionRecallOnGroundTruth) {
  // Join products with KB clothing concepts; score against ground truth.
  auto result =
      QueryBuilder(engine_)
          .Scan("products")
          .SemanticJoinWith(QueryBuilder(engine_)
                                .Scan("kb_category")
                                .Filter(Eq(Col("object"), Lit("clothes"))),
                            "type_label", "subject", "shop", 0.80f)
          .Execute()
          .ValueOrDie();
  std::set<std::string> clothing(dataset_->clothing_concepts.begin(),
                                 dataset_->clothing_concepts.end());
  // Precision: joined (product, subject) pairs with subject == concept_col.
  const auto* concept_col = result->ColumnByName("concept").ValueOrDie();
  const auto* subject = result->ColumnByName("subject").ValueOrDie();
  std::size_t tp = 0;
  for (std::size_t r = 0; r < result->num_rows(); ++r) {
    if (concept_col->strings()[r] == subject->strings()[r]) ++tp;
  }
  const double precision =
      result->num_rows() ? static_cast<double>(tp) / result->num_rows() : 1.0;
  // Recall: clothing products that appear at least once with the right
  // concept_col.
  std::set<std::int64_t> matched_ids;
  const auto* pid = result->ColumnByName("product_id").ValueOrDie();
  for (std::size_t r = 0; r < result->num_rows(); ++r) {
    if (concept_col->strings()[r] == subject->strings()[r]) {
      matched_ids.insert(pid->i64()[r]);
    }
  }
  const auto* all_concepts =
      dataset_->products->ColumnByName("concept").ValueOrDie();
  std::size_t clothing_products = 0;
  for (const auto& c : all_concepts->strings()) {
    if (clothing.count(c)) ++clothing_products;
  }
  const double recall =
      static_cast<double>(matched_ids.size()) / clothing_products;
  EXPECT_GT(precision, 0.9);
  EXPECT_GT(recall, 0.9);
}

TEST_F(IntegrationTest, ExactJoinMissesWhatSemanticJoinFinds) {
  // The reason the paper wants semantic joins: string-equality against the
  // KB's canonical names matches nothing (products use aliases).
  auto exact = QueryBuilder(engine_)
                   .Scan("products")
                   .JoinWith(QueryBuilder(engine_).Scan("kb_category"),
                             "type_label", "subject")
                   .Execute()
                   .ValueOrDie();
  EXPECT_EQ(exact->num_rows(), 0u);
}

TEST_F(IntegrationTest, InterpretedAndEngineAgreeOnCorpus) {
  VocabularyOptions vo;
  vo.num_groups = 30;
  vo.words_per_group = 3;
  vo.num_singletons = 40;
  auto groups = GenerateVocabulary(vo);
  SynonymStructuredModel::Options mo;
  mo.subword_noise = false;
  auto model = std::make_shared<SynonymStructuredModel>(groups, mo);

  CorpusGenerator gen(AllWords(groups), {});
  auto left_words = gen.Sample(120);
  auto right_words = gen.Sample(120);

  std::vector<StringRow> left, right;
  for (std::size_t i = 0; i < left_words.size(); ++i) {
    left.push_back({left_words[i], static_cast<std::int64_t>(i)});
    right.push_back({right_words[i], static_cast<std::int64_t>(i)});
  }
  auto interpreted =
      InterpretedSimilarityJoin(left, right, *model, 0.9f, 1 << 30, {});
  SemanticJoinOptions compiled;
  compiled.threshold = 0.9f;
  auto reference = SemanticStringJoin(left_words, right_words, *model,
                                      compiled).ValueOrDie();
  EXPECT_EQ(interpreted.size(), reference.size());
}

TEST_F(IntegrationTest, ConsolidationBeatsBaselinesOnDirtyLabels) {
  // Dirty multi-source labels: aliases of the same concepts from KB and
  // products plus misspellings (Fig. 3 scenario).
  Rng rng(99);
  std::vector<std::string> dirty;
  std::map<std::string, std::string> truth;  // label -> concept_col
  const auto* labels =
      dataset_->products->ColumnByName("type_label").ValueOrDie();
  const auto* concepts =
      dataset_->products->ColumnByName("concept").ValueOrDie();
  for (std::size_t r = 0; r < 150; ++r) {
    dirty.push_back(labels->strings()[r]);
    truth[labels->strings()[r]] = concepts->strings()[r];
  }
  auto semantic = ConsolidateLabels(dirty, *dataset_->model, 0.80f);
  auto exact = ConsolidateLabelsExact(dirty);

  // Count cluster purity violations and fragmentation for both.
  auto score = [&](const ConsolidationResult& result) {
    std::map<std::uint32_t, std::set<std::string>> members;
    for (std::size_t i = 0; i < dirty.size(); ++i) {
      members[result.cluster_of[i]].insert(truth[dirty[i]]);
    }
    std::size_t impure = 0;
    for (const auto& [cid, concepts_in_cluster] : members) {
      if (concepts_in_cluster.size() > 1) ++impure;
    }
    return std::pair<std::size_t, std::size_t>(result.num_clusters(),
                                               impure);
  };
  auto [semantic_clusters, semantic_impure] = score(semantic);
  auto [exact_clusters, exact_impure] = score(exact);
  // Semantic consolidation: few clusters (close to #concepts), all pure.
  EXPECT_EQ(semantic_impure, 0u);
  EXPECT_LT(semantic_clusters, exact_clusters);
  EXPECT_LE(semantic_clusters, 20u);  // 16 concepts + slack
}

TEST_F(IntegrationTest, TransactionsRevenuePipeline) {
  // Revenue per clothing concept_col cluster: semantic ops + relational ops in
  // one declarative pipeline.
  auto result =
      QueryBuilder(engine_)
          .Scan("transactions")
          .JoinWith(QueryBuilder(engine_).Scan("products"), "product_id",
                    "product_id")
          .SemanticSelect("type_label", "clothes", "shop", 0.50f)
          .Aggregate({"concept"}, {{AggKind::kCount, "", "n"},
                                   {AggKind::kSum, "price", "revenue"}})
          .Execute()
          .ValueOrDie();
  ASSERT_GT(result->num_rows(), 0u);
  std::set<std::string> clothing(dataset_->clothing_concepts.begin(),
                                 dataset_->clothing_concepts.end());
  const auto* concept_col = result->ColumnByName("concept").ValueOrDie();
  std::size_t clothing_rows = 0;
  for (const auto& c : concept_col->strings()) {
    if (clothing.count(c)) ++clothing_rows;
  }
  EXPECT_GT(static_cast<double>(clothing_rows) / result->num_rows(), 0.8);
}

class ScaleSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(ScaleSweep, BruteAndIvfJoinAgreeAcrossScales) {
  const std::size_t n = GetParam();
  VocabularyOptions vo;
  vo.num_groups = n / 8 + 4;
  vo.words_per_group = 4;
  vo.num_singletons = n / 4;
  vo.seed = n;
  auto groups = GenerateVocabulary(vo);
  SynonymStructuredModel::Options mo;
  mo.subword_noise = false;
  SynonymStructuredModel model(groups, mo);
  CorpusGenerator gen(AllWords(groups), CorpusGenerator::Options{1.0, 0.0,
                                                                 n * 3});
  auto left = gen.Sample(n);
  auto right = gen.Sample(n);

  SemanticJoinOptions brute;
  brute.threshold = 0.9f;
  auto ref = SemanticStringJoin(left, right, model, brute).ValueOrDie();

  SemanticJoinOptions ivf = brute;
  ivf.strategy = SemanticJoinStrategy::kIvf;
  ivf.ivf.num_centroids = 8;
  ivf.ivf.nprobe = 8;  // exhaustive probing: exact results expected
  auto via_ivf = SemanticStringJoin(left, right, model, ivf).ValueOrDie();
  EXPECT_EQ(via_ivf.size(), ref.size()) << "n=" << n;
}

INSTANTIATE_TEST_SUITE_P(Sizes, ScaleSweep,
                         ::testing::Values(64, 128, 256, 512));

}  // namespace
}  // namespace cre
