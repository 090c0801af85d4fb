#include <algorithm>
#include <memory>

#include <gtest/gtest.h>

#include "baseline/interpreted_join.h"
#include "datagen/vocabulary.h"
#include "embed/structured_model.h"
#include "semantic/semantic_join.h"

namespace cre {
namespace {

std::shared_ptr<SynonymStructuredModel> Model() {
  return std::make_shared<SynonymStructuredModel>(
      TableOneGroups(), SynonymStructuredModel::Options{});
}

std::vector<StringRow> Rows(const std::vector<std::string>& words) {
  std::vector<StringRow> rows;
  for (std::size_t i = 0; i < words.size(); ++i) {
    rows.push_back({words[i], static_cast<std::int64_t>(i)});
  }
  return rows;
}

std::vector<std::uint64_t> Keys(const std::vector<MatchPair>& ms) {
  std::vector<std::uint64_t> keys;
  for (const auto& m : ms) {
    keys.push_back((static_cast<std::uint64_t>(m.left) << 32) | m.right);
  }
  std::sort(keys.begin(), keys.end());
  return keys;
}

TEST(InterpretedDotTest, MatchesDirectComputation) {
  const float a[4] = {1, 2, 3, 4};
  const float b[4] = {2, 2, 2, 2};
  const auto mul = [](double x, double y) { return x * y; };
  const auto add = [](double x, double y) { return x + y; };
  EXPECT_DOUBLE_EQ(InterpretedDot(a, b, 4, mul, add), 20.0);
}

TEST(InterpretedJoinTest, AllRungsProduceSameMatches) {
  auto model = Model();
  auto left = Rows({"boots", "kitten", "parka", "coat", "sneakers", "puppy"});
  auto right = Rows({"lace-ups", "feline", "windbreaker", "canine",
                     "oxfords", "blazer"});
  const std::int64_t cutoff = 100;  // filter passes everything

  InterpretedOptions naive;
  InterpretedJoinStats naive_stats;
  auto ref =
      InterpretedSimilarityJoin(left, right, *model, 0.85f, cutoff, naive,
                                &naive_stats);

  InterpretedOptions pushed;
  pushed.filter_pushdown = true;
  auto via_pushed =
      InterpretedSimilarityJoin(left, right, *model, 0.85f, cutoff, pushed);

  InterpretedOptions cached = pushed;
  cached.cache_embeddings = true;
  auto via_cached =
      InterpretedSimilarityJoin(left, right, *model, 0.85f, cutoff, cached);

  InterpretedOptions prefetched = cached;
  prefetched.prefetch = true;
  auto via_prefetched = InterpretedSimilarityJoin(left, right, *model, 0.85f,
                                                  cutoff, prefetched);

  EXPECT_EQ(Keys(ref), Keys(via_pushed));
  EXPECT_EQ(Keys(ref), Keys(via_cached));
  EXPECT_EQ(Keys(ref), Keys(via_prefetched));
  EXPECT_GT(ref.size(), 0u);
}

TEST(InterpretedJoinTest, MatchesCompiledJoin) {
  auto model = Model();
  std::vector<std::string> lw = {"boots", "kitten", "parka", "coat"};
  std::vector<std::string> rw = {"lace-ups", "feline", "windbreaker"};
  auto interpreted = InterpretedSimilarityJoin(Rows(lw), Rows(rw), *model,
                                               0.85f, 100, {});
  SemanticJoinOptions compiled;
  compiled.threshold = 0.85f;
  auto reference = SemanticStringJoin(lw, rw, *model, compiled).ValueOrDie();
  EXPECT_EQ(Keys(interpreted), Keys(reference));
}

TEST(InterpretedJoinTest, LateFilterDiscardsNonQualifying) {
  auto model = Model();
  auto left = Rows({"boots", "sneakers", "oxfords", "lace-ups"});
  auto right = Rows({"boots", "sneakers", "oxfords", "lace-ups"});
  // Only rows with attr < 2 qualify.
  InterpretedOptions no_push;
  InterpretedJoinStats s1;
  auto late = InterpretedSimilarityJoin(left, right, *model, 0.85f, 2,
                                        no_push, &s1);
  InterpretedOptions push;
  push.filter_pushdown = true;
  InterpretedJoinStats s2;
  auto early =
      InterpretedSimilarityJoin(left, right, *model, 0.85f, 2, push, &s2);
  EXPECT_EQ(Keys(late), Keys(early));
  for (const auto& m : late) {
    EXPECT_LT(left[m.left].attr, 2);
    EXPECT_LT(right[m.right].attr, 2);
  }
  // Pushdown evaluates 16x fewer pairs (2x2 vs 4x4).
  EXPECT_EQ(s1.pairs_evaluated, 16u);
  EXPECT_EQ(s2.pairs_evaluated, 4u);
}

TEST(InterpretedJoinTest, StatsCountEmbeddings) {
  auto model = Model();
  auto left = Rows({"boots", "kitten"});
  auto right = Rows({"lace-ups", "feline"});
  InterpretedOptions naive;
  InterpretedJoinStats stats;
  InterpretedSimilarityJoin(left, right, *model, 0.85f, 100, naive, &stats);
  // Eager: 1 left embed per row + 1 right embed per PAIR.
  EXPECT_EQ(stats.rows_embedded, 2u + 4u);
  InterpretedOptions cached;
  cached.cache_embeddings = true;
  InterpretedSimilarityJoin(left, right, *model, 0.85f, 100, cached, &stats);
  EXPECT_EQ(stats.rows_embedded, 4u);  // each row embedded once
}

}  // namespace
}  // namespace cre
