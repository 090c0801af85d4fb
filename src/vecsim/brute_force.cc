#include "vecsim/brute_force.h"

#include <algorithm>
#include <mutex>

#include "vecsim/index_io.h"

namespace cre {

namespace {
/// Rows scored per batch-kernel call on the scan paths: big enough to
/// amortize the query loads and keep the prefetcher busy, small enough
/// that the score buffer stays in L1.
constexpr std::size_t kScanBlock = 256;
}  // namespace

std::vector<MatchPair> SimilarityJoinBrute(const float* left,
                                           std::size_t n_left,
                                           const float* right,
                                           std::size_t n_right,
                                           std::size_t dim, float threshold,
                                           const BruteForceOptions& options) {
  const DotBatchFn dot_batch = GetDotBatchKernel(options.variant);
  std::vector<MatchPair> matches;

  auto scan_range = [&](std::size_t begin, std::size_t end,
                        std::vector<MatchPair>* out) {
    float scores[kScanBlock];
    for (std::size_t i = begin; i < end; ++i) {
      // Cancellation lands between left rows (one row = n_right dots),
      // so a cancelled query stops scanning within microseconds instead
      // of finishing the whole all-pairs block.
      if ((i & 63) == 0 && options.cancel != nullptr &&
          options.cancel->cancelled()) {
        return;
      }
      const float* lv = left + i * dim;
      for (std::size_t j0 = 0; j0 < n_right; j0 += kScanBlock) {
        const std::size_t count = std::min(kScanBlock, n_right - j0);
        dot_batch(lv, right + j0 * dim, count, dim, scores);
        for (std::size_t j = 0; j < count; ++j) {
          if (scores[j] >= threshold) {
            out->push_back({static_cast<std::uint32_t>(i),
                            static_cast<std::uint32_t>(j0 + j), scores[j]});
          }
        }
      }
    }
  };

  if (options.pool == nullptr || options.pool->num_threads() <= 1 ||
      n_left < 64) {
    scan_range(0, n_left, &matches);
    return matches;
  }

  std::mutex merge_mu;
  options.pool->ParallelFor(
      n_left,
      [&](std::size_t begin, std::size_t end) {
        std::vector<MatchPair> local;
        scan_range(begin, end, &local);
        std::lock_guard<std::mutex> lock(merge_mu);
        matches.insert(matches.end(), local.begin(), local.end());
      },
      /*grain=*/64);
  return matches;
}

Status FlatIndex::Build(const float* data, std::size_t n, std::size_t dim) {
  if (dim == 0) return Status::InvalidArgument("dim must be positive");
  store_.Reset(quant_.codec, dim);
  store_.SetVariant(variant_);
  store_.Append(data, n);
  n_ = n;
  dim_ = dim;
  return Status::OK();
}

Status FlatIndex::Add(const float* data, std::size_t n, std::size_t dim) {
  if (dim_ == 0) return Build(data, n, dim);
  if (dim != dim_) {
    return Status::InvalidArgument("flat Add: dim mismatch");
  }
  store_.Append(data, n);
  n_ += n;
  return Status::OK();
}

namespace {
constexpr std::uint32_t kFlatMagic = 0x43464C54;  // "CFLT"
// v2: codec-encoded payload (kind byte + blobs) instead of a raw fp32 vec.
constexpr std::uint32_t kFlatVersion = 2;
}  // namespace

Status FlatIndex::Save(std::ostream& out) const {
  CRE_RETURN_NOT_OK(vecio::WriteTag(out, kFlatMagic, kFlatVersion));
  CRE_RETURN_NOT_OK(vecio::WritePod<std::uint64_t>(out, n_));
  CRE_RETURN_NOT_OK(vecio::WritePod<std::uint64_t>(out, dim_));
  return store_.Save(out);
}

Status FlatIndex::Load(std::istream& in) {
  CRE_RETURN_NOT_OK(vecio::ExpectTag(in, kFlatMagic, kFlatVersion, "flat"));
  std::uint64_t n = 0, dim = 0;
  CRE_RETURN_NOT_OK(vecio::ReadPod(in, &n));
  CRE_RETURN_NOT_OK(vecio::ReadPod(in, &dim));
  // Bound before multiplying: a crafted n*dim must not wrap into a
  // "consistent" product.
  if (dim == 0 || dim > vecio::kMaxDim || n > vecio::kMaxArrayElems) {
    return Status::InvalidArgument("flat load: implausible header");
  }
  CRE_RETURN_NOT_OK(store_.Load(in, static_cast<std::size_t>(n),
                                static_cast<std::size_t>(dim)));
  store_.SetVariant(variant_);
  quant_.codec = store_.kind();
  n_ = static_cast<std::size_t>(n);
  dim_ = static_cast<std::size_t>(dim);
  return Status::OK();
}

void FlatIndex::RangeSearch(const float* query, float threshold,
                            std::vector<ScoredId>* out) const {
  const float pre = store_.QueryPrecompute(query);
  float scores[kScanBlock];
  if (!store_.quantized()) {
    for (std::size_t i0 = 0; i0 < n_; i0 += kScanBlock) {
      const std::size_t count = std::min(kScanBlock, n_ - i0);
      store_.ScoreRange(query, pre, i0, count, scores);
      for (std::size_t i = 0; i < count; ++i) {
        if (scores[i] >= threshold) {
          out->push_back({static_cast<std::uint32_t>(i0 + i), scores[i]});
        }
      }
    }
    return;
  }
  // Quantized: gather candidates at a slackened threshold, then re-rank
  // with exact fp32 arithmetic over the decoded rows and filter exactly.
  const float gate = threshold - store_.ScoreSlack();
  std::vector<float> scratch(dim_);
  for (std::size_t i0 = 0; i0 < n_; i0 += kScanBlock) {
    const std::size_t count = std::min(kScanBlock, n_ - i0);
    store_.ScoreRange(query, pre, i0, count, scores);
    for (std::size_t i = 0; i < count; ++i) {
      if (scores[i] < gate) continue;
      const auto id = static_cast<std::uint32_t>(i0 + i);
      const float exact = store_.RescoreOne(query, id, scratch.data());
      if (exact >= threshold) out->push_back({id, exact});
    }
  }
}

std::vector<ScoredId> FlatIndex::TopK(const float* query,
                                      std::size_t k) const {
  const float pre = store_.QueryPrecompute(query);
  float scores[kScanBlock];
  const std::size_t fetch =
      store_.quantized()
          ? std::max(k, k * std::max<std::size_t>(quant_.rescore_factor, 1))
          : k;
  TopKCollector collector(fetch);
  for (std::size_t i0 = 0; i0 < n_; i0 += kScanBlock) {
    const std::size_t count = std::min(kScanBlock, n_ - i0);
    store_.ScoreRange(query, pre, i0, count, scores);
    for (std::size_t i = 0; i < count; ++i) {
      collector.Offer(static_cast<std::uint32_t>(i0 + i), scores[i]);
    }
  }
  if (!store_.quantized()) return collector.TakeSorted();
  std::vector<float> scratch(dim_);
  TopKCollector rescored(k);
  for (const auto& cand : collector.TakeSorted()) {
    rescored.Offer(cand.id, store_.RescoreOne(query, cand.id, scratch.data()));
  }
  return rescored.TakeSorted();
}

}  // namespace cre
