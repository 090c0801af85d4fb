#include "vecsim/ivf_index.h"

#include <algorithm>
#include <limits>

#include "core/rng.h"
#include "vecsim/index_io.h"
#include "vecsim/top_k.h"

namespace cre {

namespace {

/// Posting-list ids scored per batch-gather kernel call; also the
/// cancellation poll granularity of the scans, so a cancelled query
/// stops within one block rather than after the whole probe set.
constexpr std::size_t kListBlock = 64;

bool Cancelled(const CancelFlag* cancel) {
  return cancel != nullptr && cancel->cancelled();
}

}  // namespace

Status IvfIndex::Build(const float* data, std::size_t n, std::size_t dim) {
  if (dim == 0) return Status::InvalidArgument("dim must be positive");
  n_ = n;
  dim_ = dim;
  data_.assign(data, data + n * dim);
  centroid_count_ = std::min(options_.num_centroids, std::max<std::size_t>(n, 1));
  if (n == 0) {
    lists_.clear();
    centroids_.clear();
    return Status::OK();
  }

  // k-means++ style seeding simplified: random distinct starting points.
  // The same partial shuffle continues past the seeds to draw the training
  // sample when the base is larger than the training budget.
  const std::size_t train_n =
      std::min(n, centroid_count_ * kTrainPointsPerCentroid);
  Rng rng(options_.seed);
  centroids_.resize(centroid_count_ * dim);
  std::vector<std::size_t> perm(n);
  for (std::size_t i = 0; i < n; ++i) perm[i] = i;
  for (std::size_t i = 0; i < centroid_count_; ++i) {
    std::swap(perm[i], perm[i + rng.Uniform(n - i)]);
    std::copy(data + perm[i] * dim, data + (perm[i] + 1) * dim,
              centroids_.begin() + i * dim);
  }
  std::vector<float> sample;
  const float* train = data;
  if (train_n < n) {
    for (std::size_t i = centroid_count_; i < train_n; ++i) {
      std::swap(perm[i], perm[i + rng.Uniform(n - i)]);
    }
    std::sort(perm.begin(),
              perm.begin() + static_cast<std::ptrdiff_t>(train_n));
    sample.resize(train_n * dim);
    for (std::size_t i = 0; i < train_n; ++i) {
      std::copy(data + perm[i] * dim, data + (perm[i] + 1) * dim,
                sample.begin() + static_cast<std::ptrdiff_t>(i * dim));
    }
    train = sample.data();
  }

  // Assign step (L2 on unit vectors == ordering by dot). Rows are
  // independent, so the pool splits them without changing the result.
  auto assign_rows = [&](const float* rows, std::size_t count,
                         std::vector<std::uint32_t>* out) {
    auto range = [&](std::size_t begin, std::size_t end) {
      for (std::size_t i = begin; i < end; ++i) {
        const float* v = rows + i * dim;
        float best = -std::numeric_limits<float>::max();
        std::uint32_t best_c = 0;
        for (std::size_t c = 0; c < centroid_count_; ++c) {
          const float s = DotUnrolled(v, centroids_.data() + c * dim, dim);
          if (s > best) {
            best = s;
            best_c = static_cast<std::uint32_t>(c);
          }
        }
        (*out)[i] = best_c;
      }
    };
    if (build_pool_ != nullptr && build_pool_->num_threads() > 1) {
      build_pool_->ParallelFor(count, range, /*grain=*/256);
    } else {
      range(0, count);
    }
  };

  std::vector<std::uint32_t> assign(train_n, 0);
  std::vector<float> sums(centroid_count_ * dim);
  std::vector<std::size_t> counts(centroid_count_);
  for (std::size_t iter = 0; iter < options_.kmeans_iters; ++iter) {
    // Iteration-level cancellation: k-means dominates build time, and a
    // cancelled build must not run the remaining iterations.
    if (Cancelled(options_.cancel)) {
      return Status::Cancelled("ivf build cancelled");
    }
    assign_rows(train, train_n, &assign);
    // Update step.
    std::fill(sums.begin(), sums.end(), 0.f);
    std::fill(counts.begin(), counts.end(), 0);
    for (std::size_t i = 0; i < train_n; ++i) {
      const float* v = train + i * dim;
      float* s = sums.data() + assign[i] * dim;
      for (std::size_t d = 0; d < dim; ++d) s[d] += v[d];
      ++counts[assign[i]];
    }
    for (std::size_t c = 0; c < centroid_count_; ++c) {
      if (counts[c] == 0) continue;  // keep old centroid for empty cluster
      float* ctr = centroids_.data() + c * dim;
      const float inv = 1.f / static_cast<float>(counts[c]);
      for (std::size_t d = 0; d < dim; ++d) ctr[d] = sums[c * dim + d] * inv;
      NormalizeInPlace(ctr, dim);
    }
  }
  if (train_n < n) {
    if (Cancelled(options_.cancel)) {
      return Status::Cancelled("ivf build cancelled");
    }
    assign.assign(n, 0);
    assign_rows(data, n, &assign);
  }

  lists_.assign(centroid_count_, {});
  for (std::size_t i = 0; i < n; ++i) {
    lists_[assign[i]].push_back(static_cast<std::uint32_t>(i));
  }
  return Status::OK();
}

Status IvfIndex::Add(const float* data, std::size_t n, std::size_t dim) {
  if (n_ == 0) return Build(data, n, dim);  // no trained centroids yet
  if (dim != dim_) return Status::InvalidArgument("ivf Add: dim mismatch");
  data_.insert(data_.end(), data, data + n * dim);
  for (std::size_t i = 0; i < n; ++i) {
    const float* v = data + i * dim;
    float best = -std::numeric_limits<float>::max();
    std::uint32_t best_c = 0;
    for (std::size_t c = 0; c < centroid_count_; ++c) {
      const float s = DotUnrolled(v, centroids_.data() + c * dim, dim);
      if (s > best) {
        best = s;
        best_c = static_cast<std::uint32_t>(c);
      }
    }
    lists_[best_c].push_back(static_cast<std::uint32_t>(n_ + i));
  }
  n_ += n;
  return Status::OK();
}

namespace {
constexpr std::uint32_t kIvfMagic = 0x43495646;  // "CIVF"
constexpr std::uint32_t kIvfVersion = 1;
}  // namespace

Status IvfIndex::Save(std::ostream& out) const {
  CRE_RETURN_NOT_OK(vecio::WriteTag(out, kIvfMagic, kIvfVersion));
  CRE_RETURN_NOT_OK(
      vecio::WritePod<std::uint64_t>(out, options_.num_centroids));
  CRE_RETURN_NOT_OK(vecio::WritePod<std::uint64_t>(out, options_.nprobe));
  CRE_RETURN_NOT_OK(
      vecio::WritePod<std::uint64_t>(out, options_.kmeans_iters));
  CRE_RETURN_NOT_OK(vecio::WritePod<std::uint64_t>(out, options_.seed));
  CRE_RETURN_NOT_OK(vecio::WritePod<std::uint64_t>(out, n_));
  CRE_RETURN_NOT_OK(vecio::WritePod<std::uint64_t>(out, dim_));
  CRE_RETURN_NOT_OK(vecio::WritePod<std::uint64_t>(out, centroid_count_));
  CRE_RETURN_NOT_OK(vecio::WriteVec(out, data_));
  CRE_RETURN_NOT_OK(vecio::WriteVec(out, centroids_));
  CRE_RETURN_NOT_OK(vecio::WritePod<std::uint64_t>(out, lists_.size()));
  for (const auto& list : lists_) {
    CRE_RETURN_NOT_OK(vecio::WriteVec(out, list));
  }
  return Status::OK();
}

Status IvfIndex::Load(std::istream& in) {
  CRE_RETURN_NOT_OK(vecio::ExpectTag(in, kIvfMagic, kIvfVersion, "ivf"));
  std::uint64_t num_centroids = 0, nprobe = 0, iters = 0, seed = 0;
  std::uint64_t n = 0, dim = 0, centroid_count = 0, list_count = 0;
  CRE_RETURN_NOT_OK(vecio::ReadPod(in, &num_centroids));
  CRE_RETURN_NOT_OK(vecio::ReadPod(in, &nprobe));
  CRE_RETURN_NOT_OK(vecio::ReadPod(in, &iters));
  CRE_RETURN_NOT_OK(vecio::ReadPod(in, &seed));
  CRE_RETURN_NOT_OK(vecio::ReadPod(in, &n));
  CRE_RETURN_NOT_OK(vecio::ReadPod(in, &dim));
  CRE_RETURN_NOT_OK(vecio::ReadPod(in, &centroid_count));
  // Bounds before any multiplication: caps keep n*dim and
  // centroid_count*dim far from uint64 wraparound.
  if (dim == 0 || dim > vecio::kMaxDim || n > vecio::kMaxArrayElems ||
      centroid_count > vecio::kMaxArrayElems) {
    return Status::InvalidArgument("ivf load: implausible header");
  }
  CRE_RETURN_NOT_OK(vecio::ReadVec(in, &data_));
  CRE_RETURN_NOT_OK(vecio::ReadVec(in, &centroids_));
  CRE_RETURN_NOT_OK(vecio::ReadPod(in, &list_count));
  if (n == 0) {
    // An empty build keeps a nominal centroid_count but stores no
    // centroids and no lists (Build returns before training).
    if (!data_.empty() || !centroids_.empty() || list_count != 0) {
      return Status::InvalidArgument("ivf load: inconsistent empty index");
    }
    lists_.clear();
  } else if (data_.size() != n * dim ||
             centroids_.size() != centroid_count * dim ||
             list_count != centroid_count) {
    return Status::InvalidArgument("ivf load: inconsistent sizes");
  }
  lists_.assign(static_cast<std::size_t>(list_count), {});
  std::uint64_t total_ids = 0;
  for (auto& list : lists_) {
    CRE_RETURN_NOT_OK(vecio::ReadVec(in, &list));
    total_ids += list.size();
    for (const std::uint32_t id : list) {
      if (id >= n) return Status::InvalidArgument("ivf load: id out of range");
    }
  }
  if (total_ids != n) {
    return Status::InvalidArgument("ivf load: lists do not partition ids");
  }
  // Restore build-structural options only; nprobe is a query-time
  // recall/latency knob that must follow this instance's configuration,
  // not silently revert to the save-time value on warm start.
  (void)nprobe;
  options_.num_centroids = static_cast<std::size_t>(num_centroids);
  options_.kmeans_iters = static_cast<std::size_t>(iters);
  options_.seed = seed;
  n_ = static_cast<std::size_t>(n);
  dim_ = static_cast<std::size_t>(dim);
  centroid_count_ = static_cast<std::size_t>(centroid_count);
  return Status::OK();
}

std::vector<std::uint32_t> IvfIndex::NearestCentroids(
    const float* query, std::size_t nprobe) const {
  TopKCollector collector(std::min(nprobe, centroid_count_));
  for (std::size_t c = 0; c < centroid_count_; ++c) {
    collector.Offer(static_cast<std::uint32_t>(c),
                    DotUnrolled(query, centroids_.data() + c * dim_, dim_));
  }
  std::vector<std::uint32_t> out;
  for (const auto& s : collector.TakeSorted()) out.push_back(s.id);
  return out;
}

void IvfIndex::RangeSearch(const float* query, float threshold,
                           std::vector<ScoredId>* out) const {
  if (n_ == 0) return;
  // Posting lists score through the batch-gather kernel (one call per
  // block, software prefetch hiding the scattered row loads).
  const DotBatchGatherFn dot_gather = GetDotBatchGatherKernel(
      BestKernelVariant());
  float scores[kListBlock];
  for (const std::uint32_t c : NearestCentroids(query, options_.nprobe)) {
    const auto& list = lists_[c];
    for (std::size_t i0 = 0; i0 < list.size(); i0 += kListBlock) {
      if (Cancelled(options_.cancel)) return;
      const std::size_t count = std::min(kListBlock, list.size() - i0);
      dot_gather(query, data_.data(), list.data() + i0, count, dim_, scores);
      for (std::size_t i = 0; i < count; ++i) {
        if (scores[i] >= threshold) out->push_back({list[i0 + i], scores[i]});
      }
    }
  }
}

std::vector<ScoredId> IvfIndex::TopK(const float* query, std::size_t k) const {
  TopKCollector collector(k);
  if (n_ == 0) return collector.TakeSorted();
  const DotBatchGatherFn dot_gather = GetDotBatchGatherKernel(
      BestKernelVariant());
  float scores[kListBlock];
  for (const std::uint32_t c : NearestCentroids(query, options_.nprobe)) {
    const auto& list = lists_[c];
    for (std::size_t i0 = 0; i0 < list.size(); i0 += kListBlock) {
      if (Cancelled(options_.cancel)) return collector.TakeSorted();
      const std::size_t count = std::min(kListBlock, list.size() - i0);
      dot_gather(query, data_.data(), list.data() + i0, count, dim_, scores);
      for (std::size_t i = 0; i < count; ++i) {
        collector.Offer(list[i0 + i], scores[i]);
      }
    }
  }
  return collector.TakeSorted();
}

std::size_t IvfIndex::MemoryBytes() const {
  std::size_t bytes =
      (data_.size() + centroids_.size()) * sizeof(float);
  for (const auto& l : lists_) bytes += l.size() * sizeof(std::uint32_t);
  return bytes;
}

}  // namespace cre
