#include "embed/embedding_cache.h"

#include <cstring>

namespace cre {

void CachingEmbeddingModel::EmbedBatch(Span<std::string> texts,
                                       float* out) const {
  const std::size_t d = dim();
  constexpr std::size_t kNoMiss = static_cast<std::size_t>(-1);
  std::vector<std::string> miss_texts;  ///< unique cache misses, in order
  std::unordered_map<std::string, std::size_t> miss_index;
  std::vector<std::size_t> row_to_miss(texts.size(), kNoMiss);
  {
    MutexLock lock(mu_);
    for (std::size_t i = 0; i < texts.size(); ++i) {
      auto it = map_.find(texts[i]);
      if (it != map_.end()) {
        ++hits_;
        lru_.splice(lru_.begin(), lru_, it->second);  // move to front
        std::memcpy(out + i * d, it->second->vec.data(), d * sizeof(float));
        continue;
      }
      auto [mit, inserted] = miss_index.emplace(texts[i], miss_texts.size());
      if (inserted) {
        miss_texts.push_back(texts[i]);
      } else {
        ++hits_;  // repeat of an in-batch miss: Embed() would hit now
      }
      row_to_miss[i] = mit->second;
    }
  }
  if (miss_texts.empty()) return;

  // Compute all unique misses in one batched call outside the lock.
  std::vector<float> miss_vecs(miss_texts.size() * d);
  inner_->EmbedBatch(miss_texts, miss_vecs.data());
  for (std::size_t i = 0; i < texts.size(); ++i) {
    if (row_to_miss[i] == kNoMiss) continue;
    std::memcpy(out + i * d, miss_vecs.data() + row_to_miss[i] * d,
                d * sizeof(float));
  }

  MutexLock lock(mu_);
  misses_ += miss_texts.size();
  for (std::size_t m = 0; m < miss_texts.size(); ++m) {
    if (map_.count(miss_texts[m])) continue;  // raced: keep theirs
    lru_.push_front({miss_texts[m],
                     std::vector<float>(miss_vecs.begin() + m * d,
                                        miss_vecs.begin() + (m + 1) * d)});
    map_[miss_texts[m]] = lru_.begin();
    if (map_.size() > capacity_) {
      map_.erase(lru_.back().key);
      lru_.pop_back();
    }
  }
}

void CachingEmbeddingModel::Embed(std::string_view text, float* out) const {
  const std::string key(text);
  {
    MutexLock lock(mu_);
    auto it = map_.find(key);
    if (it != map_.end()) {
      ++hits_;
      lru_.splice(lru_.begin(), lru_, it->second);  // move to front
      std::memcpy(out, it->second->vec.data(), dim() * sizeof(float));
      return;
    }
  }
  // Miss: compute outside the lock (inner model is thread-safe).
  std::vector<float> vec(dim());
  inner_->Embed(text, vec.data());
  std::memcpy(out, vec.data(), dim() * sizeof(float));

  MutexLock lock(mu_);
  ++misses_;
  auto it = map_.find(key);
  if (it != map_.end()) return;  // raced with another thread: keep theirs
  lru_.push_front({key, std::move(vec)});
  map_[key] = lru_.begin();
  if (map_.size() > capacity_) {
    map_.erase(lru_.back().key);
    lru_.pop_back();
  }
}

}  // namespace cre
