#ifndef CRE_VECSIM_IVF_INDEX_H_
#define CRE_VECSIM_IVF_INDEX_H_

#include <cstdint>
#include <vector>

#include "core/cancel.h"
#include "core/task_runner.h"
#include "vecsim/kernels.h"
#include "vecsim/vector_index.h"

namespace cre {

/// IVF-Flat index (Faiss-style): k-means partitions the base set into
/// `num_centroids` inverted lists; queries scan the `nprobe` nearest lists
/// and verify exactly. Models the "index-based access for similarity
/// search [20]" the paper wants the optimizer to cost (Sec. IV/V).
struct IvfOptions {
  std::size_t num_centroids = 64;
  std::size_t nprobe = 8;
  std::size_t kmeans_iters = 10;
  std::uint64_t seed = 11;
  /// Cooperative cancellation, polled every few rows inside the
  /// posting-list scans (RangeSearch/TopK) and between k-means
  /// iterations during Build. A flipped flag makes a scan stop early and
  /// return a partial result; the caller (who owns the flag) must check
  /// it afterwards and discard the output, unwinding with
  /// Status::Cancelled. Not serialized.
  const CancelFlag* cancel = nullptr;
};

class IvfIndex : public VectorIndex {
 public:
  /// `build_pool` splits the k-means assignment passes of Build across
  /// its workers (nullptr builds serially); the index is the same either
  /// way.
  explicit IvfIndex(IvfOptions options = {}, TaskRunner* build_pool = nullptr)
      : options_(options), build_pool_(build_pool) {}

  Status Build(const float* data, std::size_t n, std::size_t dim) override;
  /// Incremental append: new vectors join the inverted list of their
  /// nearest existing centroid (standard IVF maintenance — centroids are
  /// not retrained, so heavy drift eventually warrants a rebuild).
  Status Add(const float* data, std::size_t n, std::size_t dim) override;
  /// The clone builds serially: it may be refreshed on a pool worker,
  /// which must not wait on its own pool.
  std::unique_ptr<VectorIndex> Clone() const override {
    auto copy = std::make_unique<IvfIndex>(*this);
    copy->build_pool_ = nullptr;
    return copy;
  }
  void SetBuildPool(TaskRunner* pool) override { build_pool_ = pool; }
  Status Save(std::ostream& out) const override;
  Status Load(std::istream& in) override;
  void RangeSearch(const float* query, float threshold,
                   std::vector<ScoredId>* out) const override;
  std::vector<ScoredId> TopK(const float* query, std::size_t k) const override;

  std::size_t size() const override { return n_; }
  std::size_t dim() const override { return dim_; }
  std::string name() const override { return "ivf"; }
  std::size_t MemoryBytes() const override;

  std::size_t num_centroids() const { return centroid_count_; }

  /// k-means trains on at most this many base vectors per centroid (a
  /// seeded sample when the base is larger); every vector is then
  /// assigned to its nearest trained centroid in one final pass. So a
  /// large base costs num_centroids * kTrainPointsPerCentroid *
  /// kmeans_iters + n * num_centroids dots instead of n * num_centroids *
  /// kmeans_iters. CostModel::SemanticIndexBuildCost mirrors this.
  static constexpr std::size_t kTrainPointsPerCentroid = 64;

 private:
  /// Indices of the nprobe nearest centroids to `query`.
  std::vector<std::uint32_t> NearestCentroids(const float* query,
                                              std::size_t nprobe) const;

  IvfOptions options_;
  TaskRunner* build_pool_ = nullptr;
  std::size_t n_ = 0;
  std::size_t dim_ = 0;
  std::size_t centroid_count_ = 0;
  std::vector<float> data_;
  std::vector<float> centroids_;
  std::vector<std::vector<std::uint32_t>> lists_;
};

}  // namespace cre

#endif  // CRE_VECSIM_IVF_INDEX_H_
