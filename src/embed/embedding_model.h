#ifndef CRE_EMBED_EMBEDDING_MODEL_H_
#define CRE_EMBED_EMBEDDING_MODEL_H_

#include <cstddef>
#include <string>
#include <string_view>
#include <vector>

#include "core/span.h"

namespace cre {

/// A representation model mapping strings into a latent vector space where
/// cosine similarity captures context similarity (paper Sec. III/IV).
/// Implementations must be deterministic and thread-safe for reads, and must
/// produce unit-normalized vectors.
class EmbeddingModel {
 public:
  virtual ~EmbeddingModel() = default;

  /// Embedding dimensionality.
  virtual std::size_t dim() const = 0;

  /// Writes the unit-normalized embedding of `text` into out[0..dim).
  /// Never fails: out-of-vocabulary inputs fall back to subword hashing.
  virtual void Embed(std::string_view text, float* out) const = 0;

  /// Human-readable model identifier.
  virtual std::string name() const = 0;

  /// Cost-model hint: approximate nanoseconds per single embedding,
  /// exposed to the optimizer like any operator cost (paper Sec. V).
  virtual double cost_ns_per_embedding() const { return 500.0; }

  /// Convenience: embeds into a fresh vector.
  std::vector<float> EmbedToVector(std::string_view text) const {
    std::vector<float> v(dim());
    Embed(text, v.data());
    return v;
  }

  /// Embeds a batch of strings into a row-major matrix out[n x dim].
  virtual void EmbedBatch(Span<std::string> texts, float* out) const {
    for (std::size_t i = 0; i < texts.size(); ++i) {
      Embed(texts[i], out + i * dim());
    }
  }

  /// Cosine similarity between the embeddings of two strings.
  float Similarity(std::string_view a, std::string_view b) const;
};

}  // namespace cre

#endif  // CRE_EMBED_EMBEDDING_MODEL_H_
