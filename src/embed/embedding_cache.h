#ifndef CRE_EMBED_EMBEDDING_CACHE_H_
#define CRE_EMBED_EMBEDDING_CACHE_H_

#include <cstdint>
#include <list>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/mutex.h"
#include "embed/model_registry.h"

namespace cre {

/// LRU-memoizing decorator around an EmbeddingModel. Repeated strings
/// (Zipfian corpora, repeated query constants, hot join keys) skip the
/// underlying model entirely — the paper's "cost of shipping and
/// initializing model parameters / inference" amortization applied at the
/// granularity of individual inputs. Thread-safe.
class CachingEmbeddingModel : public EmbeddingModel {
 public:
  CachingEmbeddingModel(EmbeddingModelPtr inner, std::size_t capacity)
      : inner_(std::move(inner)), capacity_(capacity) {}

  std::size_t dim() const override { return inner_->dim(); }
  void Embed(std::string_view text, float* out) const override;
  /// Batched form used by the semantic operators' per-morsel embedding:
  /// cache hits are served directly, the remaining *unique* misses go to
  /// the inner model as one EmbedBatch call (so a batched backend keeps
  /// its amortization), and their vectors are inserted into the LRU.
  /// Counters match what row-at-a-time Embed() calls would record: the
  /// first occurrence of an uncached string counts as a miss, its
  /// repeats within the batch count as hits.
  void EmbedBatch(Span<std::string> texts, float* out) const override;
  std::string name() const override {
    return inner_->name() + "+lru" + std::to_string(capacity_);
  }
  double cost_ns_per_embedding() const override {
    // Optimistic annotation: with a warm cache the lookup is ~a hash map
    // probe plus a memcpy.
    return 60.0;
  }

  std::size_t hits() const {
    MutexLock lock(mu_);
    return hits_;
  }
  std::size_t misses() const {
    MutexLock lock(mu_);
    return misses_;
  }
  std::size_t size() const {
    MutexLock lock(mu_);
    return map_.size();
  }

 private:
  struct Entry {
    std::string key;
    std::vector<float> vec;
  };

  EmbeddingModelPtr inner_;
  std::size_t capacity_;
  mutable Mutex mu_;
  mutable std::list<Entry> lru_ CRE_GUARDED_BY(mu_);  ///< front = most recent
  mutable std::unordered_map<std::string, std::list<Entry>::iterator>
      map_ CRE_GUARDED_BY(mu_);
  mutable std::size_t hits_ CRE_GUARDED_BY(mu_) = 0;
  mutable std::size_t misses_ CRE_GUARDED_BY(mu_) = 0;
};

}  // namespace cre

#endif  // CRE_EMBED_EMBEDDING_CACHE_H_
