#include <memory>
#include <set>

#include <gtest/gtest.h>

#include "datagen/vocabulary.h"
#include "exec/scan.h"
#include "semantic/consolidation.h"
#include "semantic/semantic_group_by.h"
#include "semantic/semantic_join.h"
#include "semantic/semantic_select.h"

namespace cre {
namespace {

std::shared_ptr<SynonymStructuredModel> TableOneModel() {
  return std::make_shared<SynonymStructuredModel>(
      TableOneGroups(), SynonymStructuredModel::Options{});
}

TablePtr LabelTable(const std::vector<std::string>& labels,
                    const std::string& column = "label") {
  auto t = Table::Make(Schema({{column, DataType::kString, 0},
                               {"row_id", DataType::kInt64, 0}}));
  for (std::size_t i = 0; i < labels.size(); ++i) {
    t->AppendRow({Value(labels[i]), Value(static_cast<int>(i))}).Check();
  }
  return t;
}

TEST(SemanticSelectTest, FindsSynonyms) {
  auto model = TableOneModel();
  auto table = LabelTable({"boots", "kitten", "parka", "lantern", "coat"});
  SemanticSelectOperator op(std::make_unique<TableScanOperator>(table),
                            "label", "jacket", model, 0.85f);
  auto out = ExecuteToTable(&op).ValueOrDie();
  std::set<std::string> labels;
  for (std::size_t r = 0; r < out->num_rows(); ++r) {
    labels.insert(out->GetValue(r, 0).AsString());
  }
  EXPECT_TRUE(labels.count("parka"));
  EXPECT_TRUE(labels.count("coat"));
  EXPECT_FALSE(labels.count("kitten"));
  EXPECT_FALSE(labels.count("lantern"));
}

TEST(SemanticSelectTest, ThresholdOneKeepsOnlyExact) {
  auto model = TableOneModel();
  auto table = LabelTable({"jacket", "parka", "coat"});
  SemanticSelectOperator op(std::make_unique<TableScanOperator>(table),
                            "label", "jacket", model, 0.999f);
  auto out = ExecuteToTable(&op).ValueOrDie();
  ASSERT_EQ(out->num_rows(), 1u);
  EXPECT_EQ(out->GetValue(0, 0).AsString(), "jacket");
}

TEST(SemanticSelectTest, NonStringColumnFails) {
  auto model = TableOneModel();
  auto table = LabelTable({"a"});
  SemanticSelectOperator op(std::make_unique<TableScanOperator>(table),
                            "row_id", "jacket", model, 0.9f);
  EXPECT_TRUE(op.Open().IsTypeError());
}

TEST(SemanticSelectTest, FunctionFormMatchesOperator) {
  auto model = TableOneModel();
  auto table = LabelTable({"boots", "kitten", "parka"});
  auto via_fn =
      SemanticFilter(table, "label", "jacket", *model, 0.85f).ValueOrDie();
  SemanticSelectOperator op(std::make_unique<TableScanOperator>(table),
                            "label", "jacket", model, 0.85f);
  auto via_op = ExecuteToTable(&op).ValueOrDie();
  EXPECT_EQ(via_fn->num_rows(), via_op->num_rows());
}

TEST(SemanticMultiSelectTest, MatchesAnyQuery) {
  auto model = TableOneModel();
  auto table = LabelTable({"boots", "kitten", "parka", "lantern"});
  SemanticMultiSelectOperator op(std::make_unique<TableScanOperator>(table),
                                 "label", {"shoes", "cat"}, model, 0.85f);
  auto out = ExecuteToTable(&op).ValueOrDie();
  std::set<std::string> labels;
  for (std::size_t r = 0; r < out->num_rows(); ++r) {
    labels.insert(out->GetValue(r, 0).AsString());
  }
  EXPECT_TRUE(labels.count("boots"));
  EXPECT_TRUE(labels.count("kitten"));
  EXPECT_FALSE(labels.count("parka"));
  EXPECT_FALSE(labels.count("lantern"));
}

TEST(SemanticJoinTest, JoinsSynonymsAcrossRelations) {
  auto model = TableOneModel();
  auto left = LabelTable({"boots", "kitten", "parka"}, "l");
  auto right = LabelTable({"sneakers", "feline", "lantern"}, "r");
  SemanticJoinOptions options;
  options.threshold = 0.85f;
  SemanticJoinOperator join(std::make_unique<TableScanOperator>(left),
                            std::make_unique<TableScanOperator>(right), "l",
                            "r", model, options);
  auto out = ExecuteToTable(&join).ValueOrDie();
  std::set<std::pair<std::string, std::string>> pairs;
  for (std::size_t i = 0; i < out->num_rows(); ++i) {
    pairs.insert({out->GetValue(i, 0).AsString(),
                  out->GetValue(i, 2).AsString()});
  }
  EXPECT_TRUE(pairs.count({"boots", "sneakers"}));
  EXPECT_TRUE(pairs.count({"kitten", "feline"}));
  EXPECT_FALSE(pairs.count({"parka", "lantern"}));
  // Score column exists and scores are above threshold.
  const int score_idx = out->schema().FieldIndex("similarity");
  ASSERT_GE(score_idx, 0);
  for (std::size_t i = 0; i < out->num_rows(); ++i) {
    EXPECT_GE(out->GetValue(i, score_idx).AsFloat64(), 0.85);
  }
}

TEST(SemanticJoinTest, StrategiesAgreeOnTightClusters) {
  auto model = TableOneModel();
  std::vector<std::string> left_words = {"boots", "kitten", "parka", "puppy",
                                         "coat", "sneakers"};
  std::vector<std::string> right_words = {"lace-ups", "feline", "windbreaker",
                                          "canine", "oxfords"};
  SemanticJoinOptions brute;
  brute.threshold = 0.85f;
  auto ref =
      SemanticStringJoin(left_words, right_words, *model, brute).ValueOrDie();

  SemanticJoinOptions ivf = brute;
  ivf.strategy = SemanticJoinStrategy::kIvf;
  ivf.ivf.num_centroids = 4;
  ivf.ivf.nprobe = 4;  // full probe: exact on this scale
  auto via_ivf =
      SemanticStringJoin(left_words, right_words, *model, ivf).ValueOrDie();
  EXPECT_EQ(via_ivf.size(), ref.size());
}

TEST(SemanticJoinTest, StringJoinReturnsIndexBuildError) {
  // IVF-PQ cannot split a dim that pq_m does not divide; the standalone
  // join reports the build failure instead of aborting.
  auto model = TableOneModel();
  SemanticJoinOptions options;
  options.strategy = SemanticJoinStrategy::kIvfPq;
  options.ivfpq.pq_m = model->dim() + 1;
  auto result = SemanticStringJoin({"boots"}, {"sneakers"}, *model, options);
  EXPECT_TRUE(result.status().IsInvalidArgument()) << result.status();
}

TEST(SemanticJoinTest, DuplicateColumnSuffixing) {
  auto model = TableOneModel();
  auto left = LabelTable({"boots"});
  auto right = LabelTable({"sneakers"});
  SemanticJoinOptions options;
  options.threshold = 0.8f;
  SemanticJoinOperator join(std::make_unique<TableScanOperator>(left),
                            std::make_unique<TableScanOperator>(right),
                            "label", "label", model, options);
  ASSERT_TRUE(join.Open().ok());
  EXPECT_TRUE(join.output_schema().HasField("label"));
  EXPECT_TRUE(join.output_schema().HasField("label_r"));
  EXPECT_TRUE(join.output_schema().HasField("row_id_r"));
  EXPECT_TRUE(join.output_schema().HasField("similarity"));
}

TEST(SemanticGroupByTest, ClustersSynonyms) {
  auto model = TableOneModel();
  auto table = LabelTable(
      {"boots", "sneakers", "kitten", "feline", "oxfords", "cat"});
  SemanticGroupByOperator op(std::make_unique<TableScanOperator>(table),
                             "label", model, 0.85f);
  auto out = ExecuteToTable(&op).ValueOrDie();
  ASSERT_EQ(out->num_rows(), 6u);
  const int cid_idx = out->schema().FieldIndex("cluster_id");
  const int rep_idx = out->schema().FieldIndex("cluster_rep");
  ASSERT_GE(cid_idx, 0);
  ASSERT_GE(rep_idx, 0);
  // boots/sneakers/oxfords share a cluster; kitten/feline/cat share one.
  const auto cid = [&](std::size_t r) {
    return out->GetValue(r, cid_idx).AsInt64();
  };
  EXPECT_EQ(cid(0), cid(1));
  EXPECT_EQ(cid(0), cid(4));
  EXPECT_EQ(cid(2), cid(3));
  EXPECT_EQ(cid(2), cid(5));
  EXPECT_NE(cid(0), cid(2));
  // Representative is the first member of each cluster.
  EXPECT_EQ(out->GetValue(1, rep_idx).AsString(), "boots");
  EXPECT_EQ(out->GetValue(3, rep_idx).AsString(), "kitten");
}

TEST(OnlineClustererTest, DeterministicAssignment) {
  const std::size_t dim = 8;
  OnlineClusterer c(dim, 0.9f);
  std::vector<float> a(dim, 0.f), b(dim, 0.f);
  a[0] = 1.f;
  b[1] = 1.f;
  EXPECT_EQ(c.Assign(a.data()), 0u);
  EXPECT_EQ(c.Assign(b.data()), 1u);
  EXPECT_EQ(c.Assign(a.data()), 0u);
  EXPECT_EQ(c.num_clusters(), 2u);
}

TEST(ConsolidationTest, SemanticMergesSynonyms) {
  auto model = TableOneModel();
  std::vector<std::string> labels = {"boots", "sneakers", "lace-ups",
                                     "kitten", "cat", "feline"};
  auto result = ConsolidateLabels(labels, *model, 0.85f);
  EXPECT_EQ(result.num_clusters(), 2u);
  EXPECT_EQ(result.cluster_of[0], result.cluster_of[1]);
  EXPECT_EQ(result.cluster_of[3], result.cluster_of[5]);
  EXPECT_NE(result.cluster_of[0], result.cluster_of[3]);
  EXPECT_EQ(result.representatives[0], "boots");
}

TEST(ConsolidationTest, ExactBaselineMissesSynonyms) {
  std::vector<std::string> labels = {"boots", "Boots", "sneakers"};
  auto result = ConsolidateLabelsExact(labels);
  EXPECT_EQ(result.num_clusters(), 2u);  // case-folded exact match only
  EXPECT_EQ(result.cluster_of[0], result.cluster_of[1]);
  EXPECT_NE(result.cluster_of[0], result.cluster_of[2]);
}

TEST(ConsolidationTest, EditDistanceCatchesTyposNotSynonyms) {
  std::vector<std::string> labels = {"boots", "bots", "sneakers"};
  auto result = ConsolidateLabelsEditDistance(labels, 0.75);
  EXPECT_EQ(result.cluster_of[0], result.cluster_of[1]);  // typo merged
  EXPECT_NE(result.cluster_of[0], result.cluster_of[2]);  // synonym missed
}

TEST(EditDistanceTest, KnownValues) {
  EXPECT_EQ(EditDistance("", ""), 0u);
  EXPECT_EQ(EditDistance("abc", ""), 3u);
  EXPECT_EQ(EditDistance("", "ab"), 2u);
  EXPECT_EQ(EditDistance("kitten", "sitting"), 3u);
  EXPECT_EQ(EditDistance("same", "same"), 0u);
}

class ThresholdSweep : public ::testing::TestWithParam<float> {};

TEST_P(ThresholdSweep, HigherThresholdNeverMoreMatches) {
  auto model = TableOneModel();
  std::vector<std::string> left = {"boots", "kitten", "parka", "coat",
                                   "sneakers", "puppy"};
  std::vector<std::string> right = {"lace-ups", "feline", "windbreaker",
                                    "canine", "oxfords", "blazer"};
  SemanticJoinOptions lo;
  lo.threshold = GetParam();
  SemanticJoinOptions hi;
  hi.threshold = GetParam() + 0.05f;
  auto matches_lo = SemanticStringJoin(left, right, *model, lo).ValueOrDie();
  auto matches_hi = SemanticStringJoin(left, right, *model, hi).ValueOrDie();
  EXPECT_GE(matches_lo.size(), matches_hi.size());
}

INSTANTIATE_TEST_SUITE_P(Thresholds, ThresholdSweep,
                         ::testing::Values(0.5f, 0.7f, 0.8f, 0.85f, 0.9f));

}  // namespace
}  // namespace cre
