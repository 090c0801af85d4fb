#include "embed/structured_model.h"

#include <cstring>
#include <map>

#include "core/hash.h"
#include "vecsim/kernels.h"

namespace cre {

SynonymStructuredModel::SynonymStructuredModel(
    std::vector<SynonymGroup> groups, Options options)
    : options_(options), fallback_([&options] {
        HashEmbeddingModel::Options fo;
        fo.dim = options.dim;
        fo.bucket_seed = options.seed ^ 0x5eedULL;
        return fo;
      }()) {
  BuildMatrix(groups);
}

void SynonymStructuredModel::BuildMatrix(
    const std::vector<SynonymGroup>& groups) {
  const std::size_t dim = options_.dim;

  // Collect per-word group memberships; vocabulary order is first
  // occurrence across groups (deterministic).
  std::map<std::string, std::vector<std::pair<std::size_t, float>>> members;
  for (std::size_t g = 0; g < groups.size(); ++g) {
    for (const auto& w : groups[g].words) {
      auto& m = members[w];
      if (m.empty()) vocabulary_.push_back(w);
      m.emplace_back(g, groups[g].weight);
    }
  }

  // Deterministic base direction per group.
  std::vector<float> bases(groups.size() * dim);
  for (std::size_t g = 0; g < groups.size(); ++g) {
    const std::uint64_t h =
        HashString(groups[g].name, options_.seed ^ 0x9e3779b97f4a7c15ULL);
    fallback_.BucketVector(h, bases.data() + g * dim);
  }

  matrix_.Allocate(vocabulary_.size() * dim);
  std::vector<float> noise(dim);
  for (std::size_t i = 0; i < vocabulary_.size(); ++i) {
    const std::string& w = vocabulary_[i];
    float* row = matrix_.data() + i * dim;
    std::memset(row, 0, dim * sizeof(float));
    for (const auto& [g, weight] : members[w]) {
      const float* base = bases.data() + g * dim;
      for (std::size_t d = 0; d < dim; ++d) row[d] += weight * base[d];
    }
    if (options_.subword_noise) {
      fallback_.Embed(w, noise.data());
    } else {
      fallback_.BucketVector(HashString(w, options_.seed), noise.data());
    }
    for (std::size_t d = 0; d < dim; ++d) {
      row[d] += options_.noise_weight * noise[d];
    }
    NormalizeInPlace(row, dim);
    table_.Insert(w, static_cast<std::uint32_t>(i));
  }

  if (options_.oov_snap_max_vocab > 0 &&
      vocabulary_.size() <= options_.oov_snap_max_vocab) {
    subword_matrix_.resize(vocabulary_.size() * dim);
    for (std::size_t i = 0; i < vocabulary_.size(); ++i) {
      fallback_.Embed(vocabulary_[i], subword_matrix_.data() + i * dim);
    }
  }
}

void SynonymStructuredModel::EmbedOov(std::string_view text,
                                      float* out) const {
  const std::size_t dim = options_.dim;
  fallback_.Embed(text, out);
  if (subword_matrix_.empty()) return;
  // Snap: nearest vocabulary word in subword space.
  float best = -2.f;
  std::size_t best_row = 0;
  for (std::size_t i = 0; i < vocabulary_.size(); ++i) {
    const float s =
        DotUnrolled(out, subword_matrix_.data() + i * dim, dim);
    if (s > best) {
      best = s;
      best_row = i;
    }
  }
  if (best >= options_.oov_snap_threshold) {
    std::memcpy(out, Row(static_cast<std::uint32_t>(best_row)),
                dim * sizeof(float));
  }
}

void SynonymStructuredModel::Embed(std::string_view text, float* out) const {
  const std::uint32_t row = table_.Lookup(text);
  if (row != VocabHashTable::kNotFound) {
    std::memcpy(out, Row(row), options_.dim * sizeof(float));
    return;
  }
  EmbedOov(text, out);
}

void SynonymStructuredModel::EmbedBatchPrefetch(
    Span<std::string> texts, float* out, bool prefetch) const {
  const std::size_t n = texts.size();
  const std::size_t dim = options_.dim;
  if (!prefetch) {
    for (std::size_t i = 0; i < n; ++i) {
      Embed(texts[i], out + i * dim);
    }
    return;
  }

  constexpr std::size_t kDistance = 8;
  // Phase 1: hash every word once, then resolve row ids with the
  // vocabulary table slot prefetched ahead of each probe.
  std::vector<std::uint64_t> hashes(n);
  for (std::size_t i = 0; i < n; ++i) hashes[i] = HashString(texts[i]);
  std::vector<std::uint32_t> rows(n);
  for (std::size_t i = 0; i < n; ++i) {
    if (i + kDistance < n) table_.PrefetchHash(hashes[i + kDistance]);
    rows[i] = table_.LookupWithHash(texts[i], hashes[i]);
  }
  // Phase 2: gather matrix rows with every cache line of the upcoming row
  // prefetched ahead.
  const std::size_t row_bytes = dim * sizeof(float);
  for (std::size_t i = 0; i < n; ++i) {
    if (i + kDistance < n && rows[i + kDistance] != VocabHashTable::kNotFound) {
      const char* next =
          reinterpret_cast<const char*>(Row(rows[i + kDistance]));
      for (std::size_t off = 0; off < row_bytes; off += 64) {
        PrefetchRead(next + off);
      }
    }
    if (rows[i] != VocabHashTable::kNotFound) {
      std::memcpy(out + i * dim, Row(rows[i]), dim * sizeof(float));
    } else {
      EmbedOov(texts[i], out + i * dim);
    }
  }
}

}  // namespace cre
