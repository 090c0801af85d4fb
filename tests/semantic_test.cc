#include <memory>
#include <set>

#include <gtest/gtest.h>

#include "datagen/vocabulary.h"
#include "engine/engine.h"
#include "exec/scan.h"
#include "semantic/consolidation.h"
#include "semantic/semantic_group_by.h"
#include "semantic/semantic_join.h"
#include "semantic/semantic_select.h"
#include "vecsim/kernels.h"

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
                            "label", model, 0.85f,
                            EmbedQueries(*model, {"jacket"}));
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
                            "label", model, 0.999f,
                            EmbedQueries(*model, {"jacket"}));
  auto out = ExecuteToTable(&op).ValueOrDie();
  ASSERT_EQ(out->num_rows(), 1u);
  EXPECT_EQ(out->GetValue(0, 0).AsString(), "jacket");
}

TEST(SemanticSelectTest, NonStringColumnFails) {
  auto model = TableOneModel();
  auto table = LabelTable({"a"});
  SemanticSelectOperator op(std::make_unique<TableScanOperator>(table),
                            "row_id", model, 0.9f,
                            EmbedQueries(*model, {"jacket"}));
  EXPECT_TRUE(op.Open().IsTypeError());
}

TEST(SemanticSelectTest, MatchesAnyQuery) {
  auto model = TableOneModel();
  auto table = LabelTable({"boots", "kitten", "parka", "lantern"});
  SemanticSelectOperator op(std::make_unique<TableScanOperator>(table),
                            "label", model, 0.85f,
                            EmbedQueries(*model, {"shoes", "cat"}));
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

/// Rows of `table` whose `column` scores >= threshold against any query,
/// computed row by row with the dispatched dot kernel: the oracle the
/// engine's select must match byte for byte.
std::vector<std::uint32_t> ReferenceSelect(
    const Table& table, const std::string& column,
    const std::vector<std::string>& queries, const EmbeddingModel& model,
    float threshold) {
  const std::size_t dim = model.dim();
  const DotFn dot = GetDotKernel(BestKernelVariant());
  const auto& words = table.ColumnByName(column).ValueOrDie()->strings();
  std::vector<std::vector<float>> qvs;
  for (const auto& q : queries) qvs.push_back(model.EmbedToVector(q));
  std::vector<std::uint32_t> rows;
  std::vector<float> v(dim);
  for (std::size_t i = 0; i < words.size(); ++i) {
    model.Embed(words[i], v.data());
    for (const auto& qv : qvs) {
      if (dot(qv.data(), v.data(), dim) >= threshold) {
        rows.push_back(static_cast<std::uint32_t>(i));
        break;
      }
    }
  }
  return rows;
}

/// Engine-level characterization of the scanning select: the literal
/// single-query form, the DIP multi-query form and a one-element query
/// list, each at dop 1 and 4 over many small morsels of repeated words.
TEST(SemanticSelectEngineTest, SingleAndMultiQueryMatchReferenceAtEveryDop) {
  auto model = TableOneModel();
  const std::vector<std::string> vocab = {
      "boots",  "kitten",   "parka", "lantern", "coat",  "sneakers", "cat",
      "puppy",  "blazer",   "feline", "oxfords", "dog",  "windbreaker"};
  std::vector<std::string> labels;
  for (std::size_t i = 0; i < 300; ++i) {
    labels.push_back(vocab[(i * 7 + i / 13) % vocab.size()]);
  }
  auto table = LabelTable(labels);
  const float threshold = 0.85f;
  const std::vector<std::string> dip = {"jacket", "cat", "sneakers"};

  struct Case {
    std::vector<std::string> queries;  ///< empty: single literal query
    std::vector<std::string> reference_queries;
  };
  const std::vector<Case> cases = {
      {{}, {"jacket"}}, {dip, dip}, {{"jacket"}, {"jacket"}}};

  std::vector<std::vector<std::uint32_t>> expected;
  for (const Case& c : cases) {
    expected.push_back(ReferenceSelect(*table, "label", c.reference_queries,
                                       *model, threshold));
    ASSERT_FALSE(expected.back().empty());
    ASSERT_LT(expected.back().size(), labels.size());
  }
  EXPECT_EQ(expected[0], expected[2]);
  EXPECT_GT(expected[1].size(), expected[0].size());

  for (std::size_t threads : {1, 4}) {
    EngineOptions eo;
    eo.num_threads = threads;
    eo.morsel_rows = 32;  // 300 rows -> 10 morsels
    Engine engine(eo);
    engine.catalog().Put("words", table);
    engine.models().Put("m", model);
    std::vector<TablePtr> outs;
    for (std::size_t c = 0; c < cases.size(); ++c) {
      SCOPED_TRACE("threads=" + std::to_string(threads) +
                   " case=" + std::to_string(c));
      PlanPtr plan = PlanNode::SemanticSelect(PlanNode::Scan("words"), "label",
                                              "jacket", "m", threshold);
      plan->queries = cases[c].queries;
      auto out = engine.ExecuteUnoptimized(plan).ValueOrDie();
      ASSERT_EQ(out->num_rows(), expected[c].size());
      for (std::size_t r = 0; r < out->num_rows(); ++r) {
        const std::uint32_t id = expected[c][r];
        ASSERT_EQ(out->GetValue(r, 0).AsString(), labels[id]) << "row " << r;
        ASSERT_EQ(out->GetValue(r, 1).AsInt64(), static_cast<int64_t>(id))
            << "row " << r;
      }
      outs.push_back(out);
    }
    // The one-element query list is the literal select.
    ASSERT_EQ(outs[0]->num_rows(), outs[2]->num_rows());
    for (std::size_t r = 0; r < outs[0]->num_rows(); ++r) {
      EXPECT_EQ(outs[0]->GetValue(r, 1).AsInt64(),
                outs[2]->GetValue(r, 1).AsInt64());
    }
  }
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
