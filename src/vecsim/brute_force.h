#ifndef CRE_VECSIM_BRUTE_FORCE_H_
#define CRE_VECSIM_BRUTE_FORCE_H_

#include <cstdint>
#include <vector>

#include "core/cancel.h"
#include "core/task_runner.h"
#include "vecsim/codec.h"
#include "vecsim/kernels.h"
#include "vecsim/top_k.h"
#include "vecsim/vector_index.h"

namespace cre {

/// One (left row, right row, score) result of a similarity join.
struct MatchPair {
  std::uint32_t left = 0;
  std::uint32_t right = 0;
  float score = 0.f;
};

/// Options controlling the brute-force similarity join kernels.
struct BruteForceOptions {
  KernelVariant variant = BestKernelVariant();
  TaskRunner* pool = nullptr;  ///< parallel over left rows when set
  /// Cooperative cancellation, polled between left rows. A flipped flag
  /// makes the scan stop early and return a partial result — the caller
  /// (who owns the flag) must check it afterwards and discard the
  /// matches, unwinding with Status::Cancelled.
  const CancelFlag* cancel = nullptr;
};

/// Exact all-pairs similarity join over two row-major, unit-normalized
/// vector sets: emits every pair with dot >= threshold. This is the
/// "tight C++ loop" rung of Figure 4; variant/pool toggle the SIMD and
/// scale-up rungs. Each left row scores the right side through the
/// one-to-many batch kernel.
std::vector<MatchPair> SimilarityJoinBrute(
    const float* left, std::size_t n_left, const float* right,
    std::size_t n_right, std::size_t dim, float threshold,
    const BruteForceOptions& options = {});

/// Exact flat index: linear scan with the best available batch kernel.
/// With a quantized codec the scan scores the compressed rows
/// asymmetrically, over-fetches rescore_factor * k candidates, and
/// re-ranks them with exact fp32 arithmetic over the decoded vectors.
class FlatIndex : public VectorIndex {
 public:
  explicit FlatIndex(KernelVariant variant = BestKernelVariant(),
                     QuantizationOptions quant = {})
      : variant_(variant), quant_(quant) {
    store_.SetVariant(variant);
  }

  Status Build(const float* data, std::size_t n, std::size_t dim) override;
  Status Add(const float* data, std::size_t n, std::size_t dim) override;
  std::unique_ptr<VectorIndex> Clone() const override {
    return std::make_unique<FlatIndex>(*this);
  }
  Status Save(std::ostream& out) const override;
  Status Load(std::istream& in) override;
  void RangeSearch(const float* query, float threshold,
                   std::vector<ScoredId>* out) const override;
  std::vector<ScoredId> TopK(const float* query, std::size_t k) const override;

  std::size_t size() const override { return n_; }
  std::size_t dim() const override { return dim_; }
  std::string name() const override { return "flat"; }
  std::size_t MemoryBytes() const override { return store_.MemoryBytes(); }

  VectorCodecKind codec() const { return store_.kind(); }

 private:
  KernelVariant variant_;
  QuantizationOptions quant_;
  VectorStore store_;
  std::size_t n_ = 0;
  std::size_t dim_ = 0;
};

}  // namespace cre

#endif  // CRE_VECSIM_BRUTE_FORCE_H_
