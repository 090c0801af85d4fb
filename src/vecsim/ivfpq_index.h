#ifndef CRE_VECSIM_IVFPQ_INDEX_H_
#define CRE_VECSIM_IVFPQ_INDEX_H_

#include <cstdint>
#include <vector>

#include "core/cancel.h"
#include "vecsim/kernels.h"
#include "vecsim/vector_index.h"

namespace cre {

/// IVF-PQ index (Jegou et al., "Product Quantization for Nearest
/// Neighbor Search"): a coarse k-means quantizer partitions the base set
/// into inverted lists, and each vector's *residual* (vector minus its
/// coarse centroid) is product-quantized — split into `pq_m` subspaces,
/// each encoded as one byte naming the nearest of 256 per-subspace
/// centroids. A vector costs pq_m bytes plus a list id instead of
/// 4*dim bytes, an order-of-magnitude footprint reduction.
///
/// Queries scan the nprobe nearest lists with asymmetric distance
/// computation (ADC): per probed list, a lookup table
/// lut[s][j] = dot(query_s, codebook[s][j]) turns each stored code into
/// score = dot(query, centroid) + sum_s lut[s][code[s]] — pq_m table
/// loads per vector, no decode. The top rescore_factor * k ADC
/// candidates are re-ranked by exact reconstruction
/// (centroid + decoded residual), repairing ordering errors inside the
/// top-k band.
struct IvfPqOptions {
  /// Coarse quantizer (same role as IvfOptions).
  std::size_t num_centroids = 32;
  std::size_t nprobe = 8;
  std::size_t kmeans_iters = 10;
  /// Product quantizer: pq_m subspaces of dim/pq_m components each (dim
  /// must be divisible by pq_m; Build rejects otherwise), 256 centroids
  /// per subspace trained with pq_kmeans_iters Lloyd iterations over the
  /// residuals.
  std::size_t pq_m = 8;
  std::size_t pq_kmeans_iters = 8;
  /// ADC over-fetch multiplier for the exact-reconstruction re-rank.
  std::size_t rescore_factor = 4;
  std::uint64_t seed = 17;
  /// Cooperative cancellation, polled between k-means iterations during
  /// Build and every few rows inside the ADC scans. Partial results must
  /// be discarded by the flag's owner (see IvfOptions). Not serialized.
  const CancelFlag* cancel = nullptr;
};

class IvfPqIndex : public VectorIndex {
 public:
  explicit IvfPqIndex(IvfPqOptions options = {}) : options_(options) {}

  Status Build(const float* data, std::size_t n, std::size_t dim) override;
  /// Incremental append with frozen quantizers: each new vector joins
  /// the list of its nearest coarse centroid and its residual is encoded
  /// against the trained codebooks (standard PQ maintenance — heavy
  /// distribution drift eventually warrants a rebuild/retrain).
  Status Add(const float* data, std::size_t n, std::size_t dim) override;
  std::unique_ptr<VectorIndex> Clone() const override {
    return std::make_unique<IvfPqIndex>(*this);
  }
  Status Save(std::ostream& out) const override;
  Status Load(std::istream& in) override;
  void RangeSearch(const float* query, float threshold,
                   std::vector<ScoredId>* out) const override;
  std::vector<ScoredId> TopK(const float* query, std::size_t k) const override;

  std::size_t size() const override { return n_; }
  std::size_t dim() const override { return dim_; }
  std::string name() const override { return "ivfpq"; }
  std::size_t MemoryBytes() const override;

  std::size_t num_centroids() const { return centroid_count_; }
  std::size_t pq_m() const { return options_.pq_m; }
  /// Whether Build accepts `dim`-wide vectors split into `pq_m` subspaces.
  static bool AcceptsDim(std::size_t dim, std::size_t pq_m) {
    return dim > 0 && pq_m > 0 && dim % pq_m == 0;
  }

  /// Reconstructs vector `id` (coarse centroid + decoded residual) into
  /// out[0..dim). This is the best approximation the index can produce —
  /// the original fp32 rows are not retained.
  void Reconstruct(std::uint32_t id, float* out) const;

 private:
  /// Indices of the nprobe nearest coarse centroids to `query`.
  std::vector<std::uint32_t> NearestCentroids(const float* query,
                                              std::size_t nprobe) const;
  /// Fills the per-query ADC table: lut[s*256 + j] = dot(query_s,
  /// codebook[s][j]). One table serves every probed list because the
  /// codebooks quantize residuals globally.
  void BuildLut(const float* query, std::vector<float>* lut) const;
  /// PQ-encodes `v` minus centroid `c` into code[0..pq_m).
  void EncodeResidual(const float* v, std::uint32_t c,
                      std::uint8_t* code) const;
  /// ADC scan of the probed lists; emits (id, approx score) via `emit`.
  /// Returns false if cancelled mid-scan.
  template <typename Emit>
  bool ScanLists(const float* query, const std::vector<std::uint32_t>& probes,
                 const std::vector<float>& lut, Emit&& emit) const;

  std::size_t SubDim() const { return dim_ / options_.pq_m; }

  IvfPqOptions options_;
  std::size_t n_ = 0;
  std::size_t dim_ = 0;
  std::size_t centroid_count_ = 0;
  /// Coarse centroids, [centroid_count_][dim] flattened.
  std::vector<float> centroids_;
  /// PQ codebooks over residuals, [pq_m][256][SubDim()] flattened.
  std::vector<float> codebooks_;
  /// Per-vector PQ codes, [n][pq_m] flattened (id-indexed).
  std::vector<std::uint8_t> codes_;
  /// Per-vector coarse assignment (id-indexed) — needed to reconstruct.
  std::vector<std::uint32_t> assign_;
  std::vector<std::vector<std::uint32_t>> lists_;
};

}  // namespace cre

#endif  // CRE_VECSIM_IVFPQ_INDEX_H_
