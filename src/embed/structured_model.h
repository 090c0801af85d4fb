#ifndef CRE_EMBED_STRUCTURED_MODEL_H_
#define CRE_EMBED_STRUCTURED_MODEL_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "core/aligned.h"
#include "embed/embedding_model.h"
#include "embed/hash_embedding_model.h"
#include "embed/vocab_hash_table.h"

namespace cre {

/// A set of words sharing a latent base direction. `weight` controls how
/// strongly members align: with weight w and unit noise, within-group
/// cosine is about w^2 / (w^2 + 1) — weight 3 gives ~0.9, matching the
/// paper's similarity thresholds. Umbrella categories (e.g. "animal",
/// "clothes" in Table I) use lower weights so members relate without
/// collapsing onto one point.
struct SynonymGroup {
  std::string name;
  float weight = 3.0f;
  std::vector<std::string> words;
};

/// The trained-model substitution (see DESIGN.md): a deterministic
/// embedding model whose vocabulary has controlled semantic structure.
/// Each vocabulary word's vector is
///     normalize( sum_{g : w in g} weight_g * B_g  +  noise_weight * n_w )
/// where B_g is a deterministic random unit direction per group and n_w is
/// per-word noise (subword-hash embedding by default, giving misspelling
/// tolerance for free). Out-of-vocabulary strings fall back to the subword
/// model, so unrelated text stays far in the latent space.
///
/// Vocabulary vectors are precomputed into a row-major matrix fronted by an
/// open-addressing hash table — reproducing the fastText lookup structure
/// whose prefetch behaviour Figure 4's "prefetch" rung measures.
class SynonymStructuredModel : public EmbeddingModel {
 public:
  struct Options {
    std::size_t dim = 100;
    float noise_weight = 1.0f;
    std::uint64_t seed = 0xabcdULL;
    /// Use full subword-hash noise (misspelling tolerance) vs a single
    /// word-hash direction (cheaper to build for very large vocabularies).
    bool subword_noise = true;
    /// Misspelling-oblivious lookup [17]: when the vocabulary is at most
    /// this large, an out-of-vocabulary string is matched against the
    /// vocabulary in *subword* space, and a hit above oov_snap_threshold
    /// returns that vocabulary word's structured vector (so typos of a
    /// known word join its semantic group). 0 disables snapping.
    std::size_t oov_snap_max_vocab = 4096;
    float oov_snap_threshold = 0.45f;
  };

  SynonymStructuredModel(std::vector<SynonymGroup> groups, Options options);

  // ---- EmbeddingModel ----
  std::size_t dim() const override { return options_.dim; }
  void Embed(std::string_view text, float* out) const override;
  std::string name() const override { return "synonym_structured"; }
  double cost_ns_per_embedding() const override { return 250.0; }
  void EmbedBatch(Span<std::string> texts, float* out) const override {
    EmbedBatchPrefetch(texts, out, /*prefetch=*/true);
  }

  /// Batch embedding with explicit control over software prefetching of
  /// the vocabulary table and embedding matrix rows (Figure 4 rung E1).
  void EmbedBatchPrefetch(Span<std::string> texts, float* out,
                          bool prefetch) const;

  // ---- vocabulary access ----
  std::size_t vocab_size() const { return vocabulary_.size(); }
  const std::vector<std::string>& vocabulary() const { return vocabulary_; }
  std::uint32_t LookupRow(std::string_view word) const {
    return table_.Lookup(word);
  }
  const float* Row(std::uint32_t row) const {
    return matrix_.data() + static_cast<std::size_t>(row) * options_.dim;
  }

  /// Approximate parameter footprint in bytes (optimizer: model shipping
  /// cost, Sec. VI).
  std::size_t ParameterBytes() const {
    return matrix_.size() * sizeof(float);
  }

  const HashEmbeddingModel& fallback() const { return fallback_; }

 private:
  void BuildMatrix(const std::vector<SynonymGroup>& groups);
  /// Embeds an out-of-vocabulary string: subword embedding, optionally
  /// snapped onto the closest vocabulary word's structured vector.
  void EmbedOov(std::string_view text, float* out) const;

  Options options_;
  HashEmbeddingModel fallback_;
  std::vector<std::string> vocabulary_;
  VocabHashTable table_;
  AlignedBuffer<float> matrix_;
  /// Subword-space embeddings of the vocabulary (only when snapping is
  /// enabled for this vocabulary size).
  std::vector<float> subword_matrix_;
};

}  // namespace cre

#endif  // CRE_EMBED_STRUCTURED_MODEL_H_
