#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "embed/hash_embedding_model.h"
#include "embed/model_registry.h"
#include "embed/structured_model.h"
#include "embed/vocab_hash_table.h"
#include "vecsim/kernels.h"

namespace cre {
namespace {

TEST(VocabHashTableTest, InsertLookup) {
  VocabHashTable table;
  EXPECT_TRUE(table.Insert("dog", 0));
  EXPECT_TRUE(table.Insert("cat", 1));
  EXPECT_FALSE(table.Insert("dog", 5));  // duplicate
  EXPECT_EQ(table.Lookup("dog"), 0u);
  EXPECT_EQ(table.Lookup("cat"), 1u);
  EXPECT_EQ(table.Lookup("bird"), VocabHashTable::kNotFound);
  EXPECT_EQ(table.size(), 2u);
}

TEST(VocabHashTableTest, GrowsUnderLoad) {
  VocabHashTable table;
  const std::size_t n = 5000;
  for (std::size_t i = 0; i < n; ++i) {
    ASSERT_TRUE(table.Insert("word_" + std::to_string(i),
                             static_cast<std::uint32_t>(i)));
  }
  EXPECT_EQ(table.size(), n);
  EXPECT_GT(table.capacity(), n);
  for (std::size_t i = 0; i < n; i += 37) {
    EXPECT_EQ(table.Lookup("word_" + std::to_string(i)), i);
  }
}

TEST(VocabHashTableTest, PrefetchDoesNotCrash) {
  VocabHashTable table;
  table.Insert("x", 0);
  table.PrefetchWord("x");
  table.PrefetchWord("unknown");
  SUCCEED();
}

TEST(HashModelTest, DeterministicAndUnit) {
  HashEmbeddingModel model;
  auto a = model.EmbedToVector("receive");
  auto b = model.EmbedToVector("receive");
  EXPECT_EQ(a, b);
  EXPECT_NEAR(Norm(a.data(), a.size()), 1.f, 1e-4f);
  EXPECT_EQ(model.dim(), 100u);
}

TEST(HashModelTest, DifferentWordsFar) {
  HashEmbeddingModel model;
  // Unrelated words should have low cosine similarity.
  EXPECT_LT(model.Similarity("carburetor", "philosophy"), 0.5f);
  EXPECT_LT(model.Similarity("xylophone", "quagmire"), 0.5f);
}

TEST(HashModelTest, MisspellingsClose) {
  HashEmbeddingModel model;
  // Shared character n-grams keep misspellings measurably closer than
  // unrelated words [17]. (Untrained subword hashing gives moderate
  // absolute cosine; the separation is the property that matters.)
  const float sim_typo = model.Similarity("receive", "recieve");
  const float sim_unrelated = model.Similarity("receive", "zebra");
  EXPECT_GT(sim_typo, 0.3f);
  EXPECT_GT(sim_typo, sim_unrelated + 0.2f);
}

TEST(HashModelTest, SharedSubwordsRelated) {
  HashEmbeddingModel model;
  const float sim = model.Similarity("windbreaker", "windbreakers");
  EXPECT_GT(sim, 0.75f);
}

std::vector<SynonymGroup> TestGroups() {
  return {
      {"dog", 3.0f, {"dog", "canine", "puppy"}},
      {"cat", 3.0f, {"cat", "feline", "kitten"}},
      {"animal", 1.2f, {"animal", "dog", "canine", "puppy", "cat", "feline",
                        "kitten"}},
  };
}

TEST(StructuredModelTest, WithinGroupHighCosine) {
  SynonymStructuredModel model(TestGroups(), {});
  EXPECT_GT(model.Similarity("dog", "canine"), 0.8f);
  EXPECT_GT(model.Similarity("cat", "kitten"), 0.8f);
}

TEST(StructuredModelTest, CrossGroupLowerThanWithin) {
  SynonymStructuredModel model(TestGroups(), {});
  const float within = model.Similarity("dog", "puppy");
  const float cross = model.Similarity("dog", "cat");
  EXPECT_GT(within, cross + 0.2f);
}

TEST(StructuredModelTest, UmbrellaRelatesMembersAboveStrangers) {
  SynonymStructuredModel model(TestGroups(), {});
  const float umbrella = model.Similarity("animal", "dog");
  const float stranger = model.Similarity("animal", "carburetor");
  EXPECT_GT(umbrella, stranger + 0.2f);
}

TEST(StructuredModelTest, OovFallsBackToSubword) {
  SynonymStructuredModel::Options o;
  o.oov_snap_max_vocab = 0;  // isolate the pure fallback path
  SynonymStructuredModel model(TestGroups(), o);
  auto v = model.EmbedToVector("notinvocab");
  EXPECT_NEAR(Norm(v.data(), v.size()), 1.f, 1e-4f);
  // The fallback is deterministic and matches the fallback model directly.
  auto via_fallback = model.fallback().EmbedToVector("notinvocab");
  EXPECT_EQ(v, via_fallback);
}

TEST(StructuredModelTest, OovTypoSnapsToVocabularyWord) {
  SynonymStructuredModel model(TestGroups(), {});
  // "canin" is an OOV typo of "canine": with snapping it inherits the
  // vocabulary word's structured vector and thus its group similarity.
  const float typo_sim = model.Similarity("canin", "dog");
  const float true_sim = model.Similarity("canine", "dog");
  EXPECT_GT(typo_sim, 0.8f);
  EXPECT_NEAR(typo_sim, true_sim, 1e-5f);
  // Unrelated OOV words must NOT snap.
  EXPECT_LT(model.Similarity("xylophone", "dog"), 0.5f);
}

TEST(StructuredModelTest, VocabLookupMatchesEmbed) {
  SynonymStructuredModel model(TestGroups(), {});
  const std::uint32_t row = model.LookupRow("feline");
  ASSERT_NE(row, VocabHashTable::kNotFound);
  auto via_embed = model.EmbedToVector("feline");
  const float* via_row = model.Row(row);
  for (std::size_t d = 0; d < model.dim(); ++d) {
    EXPECT_FLOAT_EQ(via_embed[d], via_row[d]);
  }
}

TEST(StructuredModelTest, BatchPrefetchEqualsNoPrefetch) {
  SynonymStructuredModel model(TestGroups(), {});
  std::vector<std::string> words = {"dog",    "cat",   "kitten", "oovword",
                                    "canine", "puppy", "feline", "dog"};
  std::vector<float> with(words.size() * model.dim());
  std::vector<float> without(words.size() * model.dim());
  model.EmbedBatchPrefetch(words, with.data(), true);
  model.EmbedBatchPrefetch(words, without.data(), false);
  EXPECT_EQ(with, without);
}

TEST(StructuredModelTest, ParameterBytes) {
  SynonymStructuredModel model(TestGroups(), {});
  EXPECT_EQ(model.ParameterBytes(),
            model.vocab_size() * model.dim() * sizeof(float));
}

TEST(StructuredModelTest, WeightControlsTightness) {
  std::vector<SynonymGroup> loose = {{"g", 1.0f, {"alpha", "beta"}}};
  std::vector<SynonymGroup> tight = {{"g", 5.0f, {"alpha", "beta"}}};
  SynonymStructuredModel loose_model(loose, {});
  SynonymStructuredModel tight_model(tight, {});
  EXPECT_GT(tight_model.Similarity("alpha", "beta"),
            loose_model.Similarity("alpha", "beta"));
}

TEST(StructuredModelTest, ZeroWeightSingletonsUnrelated) {
  std::vector<SynonymGroup> groups = {{"s1", 0.0f, {"lonely"}},
                                      {"s2", 0.0f, {"alone"}}};
  SynonymStructuredModel model(groups, {});
  EXPECT_LT(model.Similarity("lonely", "alone"), 0.5f);
}

TEST(ModelRegistryTest, RegisterGet) {
  ModelRegistry registry;
  auto model = std::make_shared<HashEmbeddingModel>();
  ASSERT_TRUE(registry.Register("m1", model).ok());
  EXPECT_EQ(registry.Register("m1", model).code(),
            StatusCode::kAlreadyExists);
  EXPECT_TRUE(registry.Contains("m1"));
  EXPECT_EQ(registry.Get("m1").ValueOrDie().get(), model.get());
  EXPECT_TRUE(registry.Get("m2").status().IsNotFound());
  EXPECT_EQ(registry.ListModels(), std::vector<std::string>{"m1"});
}

class StructuredDimSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(StructuredDimSweep, UnitNormAcrossDims) {
  SynonymStructuredModel::Options o;
  o.dim = GetParam();
  SynonymStructuredModel model(TestGroups(), o);
  for (const auto& w : model.vocabulary()) {
    auto v = model.EmbedToVector(w);
    EXPECT_NEAR(Norm(v.data(), v.size()), 1.f, 1e-3f) << w;
  }
}

INSTANTIATE_TEST_SUITE_P(Dims, StructuredDimSweep,
                         ::testing::Values(16, 50, 100, 128, 300));

}  // namespace
}  // namespace cre
