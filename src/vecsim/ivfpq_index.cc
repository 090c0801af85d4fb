#include "vecsim/ivfpq_index.h"

#include <algorithm>
#include <limits>

#include "core/rng.h"
#include "vecsim/index_io.h"
#include "vecsim/top_k.h"

namespace cre {

namespace {

/// PQ codebook size per subspace: one byte per code, so 256 centroids —
/// the standard choice (Jegou et al. Sec. V) and the one that makes ADC
/// tables exactly 1 KiB per subspace.
constexpr std::size_t kPqK = 256;

/// Rows scored per cancellation poll in the ADC scans.
constexpr std::size_t kScanPollStride = 64;

bool Cancelled(const CancelFlag* cancel) {
  return cancel != nullptr && cancel->cancelled();
}

/// Lloyd k-means over `n` points of dimension `d` (row-major in `pts`),
/// maximizing dot against points that are NOT unit vectors (residuals),
/// so the assignment minimizes L2 explicitly. Centroids are seeded from
/// the points (cycling when n < k) and empty clusters keep their old
/// centroid. Deterministic for a fixed rng state.
void KMeansL2(const float* pts, std::size_t n, std::size_t d, std::size_t k,
              std::size_t iters, Rng* rng, std::vector<float>* centroids) {
  centroids->resize(k * d);
  // Seed with a random permutation prefix; when n < k, cycle so every
  // codeword is at least a valid point (duplicates split via updates).
  std::vector<std::size_t> perm(n);
  for (std::size_t i = 0; i < n; ++i) perm[i] = i;
  for (std::size_t i = 0; i + 1 < n; ++i) {
    std::swap(perm[i], perm[i + rng->Uniform(n - i)]);
  }
  for (std::size_t c = 0; c < k; ++c) {
    const std::size_t src = perm[c % n];
    std::copy(pts + src * d, pts + (src + 1) * d,
              centroids->begin() + c * d);
  }

  std::vector<std::uint32_t> assign(n, 0);
  std::vector<float> sums(k * d);
  std::vector<std::size_t> counts(k);
  for (std::size_t iter = 0; iter < iters; ++iter) {
    for (std::size_t i = 0; i < n; ++i) {
      const float* v = pts + i * d;
      float best = std::numeric_limits<float>::max();
      std::uint32_t best_c = 0;
      for (std::size_t c = 0; c < k; ++c) {
        const float* ctr = centroids->data() + c * d;
        float dist = 0.f;
        for (std::size_t j = 0; j < d; ++j) {
          const float diff = v[j] - ctr[j];
          dist += diff * diff;
        }
        if (dist < best) {
          best = dist;
          best_c = static_cast<std::uint32_t>(c);
        }
      }
      assign[i] = best_c;
    }
    std::fill(sums.begin(), sums.end(), 0.f);
    std::fill(counts.begin(), counts.end(), 0);
    for (std::size_t i = 0; i < n; ++i) {
      const float* v = pts + i * d;
      float* s = sums.data() + assign[i] * d;
      for (std::size_t j = 0; j < d; ++j) s[j] += v[j];
      ++counts[assign[i]];
    }
    for (std::size_t c = 0; c < k; ++c) {
      if (counts[c] == 0) continue;
      float* ctr = centroids->data() + c * d;
      const float inv = 1.f / static_cast<float>(counts[c]);
      for (std::size_t j = 0; j < d; ++j) ctr[j] = sums[c * d + j] * inv;
    }
  }
}

}  // namespace

Status IvfPqIndex::Build(const float* data, std::size_t n, std::size_t dim) {
  if (dim == 0) return Status::InvalidArgument("dim must be positive");
  if (!AcceptsDim(dim, options_.pq_m)) {
    return Status::InvalidArgument(
        "ivfpq: dim must be divisible by pq_m (pq_m >= 1)");
  }
  n_ = n;
  dim_ = dim;
  centroid_count_ =
      std::min(options_.num_centroids, std::max<std::size_t>(n, 1));
  codes_.clear();
  assign_.clear();
  if (n == 0) {
    lists_.clear();
    centroids_.clear();
    codebooks_.clear();
    return Status::OK();
  }

  // --- Coarse quantizer: same simplified k-means as IVF-Flat (random
  // distinct seeding, dot-ordering assignment on unit vectors,
  // normalized centroid updates). ---
  Rng rng(options_.seed);
  centroids_.resize(centroid_count_ * dim);
  std::vector<std::size_t> perm(n);
  for (std::size_t i = 0; i < n; ++i) perm[i] = i;
  for (std::size_t i = 0; i < centroid_count_; ++i) {
    std::swap(perm[i], perm[i + rng.Uniform(n - i)]);
    std::copy(data + perm[i] * dim, data + (perm[i] + 1) * dim,
              centroids_.begin() + i * dim);
  }
  assign_.assign(n, 0);
  std::vector<float> sums(centroid_count_ * dim);
  std::vector<std::size_t> counts(centroid_count_);
  for (std::size_t iter = 0; iter < options_.kmeans_iters; ++iter) {
    if (Cancelled(options_.cancel)) {
      return Status::Cancelled("ivfpq build cancelled");
    }
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
      assign_[i] = best_c;
    }
    std::fill(sums.begin(), sums.end(), 0.f);
    std::fill(counts.begin(), counts.end(), 0);
    for (std::size_t i = 0; i < n; ++i) {
      const float* v = data + i * dim;
      float* s = sums.data() + assign_[i] * dim;
      for (std::size_t d = 0; d < dim; ++d) s[d] += v[d];
      ++counts[assign_[i]];
    }
    for (std::size_t c = 0; c < centroid_count_; ++c) {
      if (counts[c] == 0) continue;
      float* ctr = centroids_.data() + c * dim;
      const float inv = 1.f / static_cast<float>(counts[c]);
      for (std::size_t d = 0; d < dim; ++d) ctr[d] = sums[c * dim + d] * inv;
      NormalizeInPlace(ctr, dim);
    }
  }

  // --- Residuals: what the PQ has to represent. Quantizing residuals
  // instead of raw vectors is the "IVFADC" variant — residual energy is
  // much smaller than vector energy, so the same code budget yields a
  // far finer quantizer. ---
  std::vector<float> residuals(n * dim);
  for (std::size_t i = 0; i < n; ++i) {
    const float* v = data + i * dim;
    const float* ctr = centroids_.data() + assign_[i] * dim;
    float* r = residuals.data() + i * dim;
    for (std::size_t d = 0; d < dim; ++d) r[d] = v[d] - ctr[d];
  }

  // --- Product codebooks: an independent 256-way k-means per subspace
  // over the residual slices (global across lists — one ADC table per
  // query serves every probed list). ---
  const std::size_t sub = SubDim();
  codebooks_.assign(options_.pq_m * kPqK * sub, 0.f);
  std::vector<float> slice(n * sub);
  std::vector<float> book;
  for (std::size_t s = 0; s < options_.pq_m; ++s) {
    if (Cancelled(options_.cancel)) {
      return Status::Cancelled("ivfpq build cancelled");
    }
    for (std::size_t i = 0; i < n; ++i) {
      std::copy(residuals.begin() + i * dim + s * sub,
                residuals.begin() + i * dim + (s + 1) * sub,
                slice.begin() + i * sub);
    }
    KMeansL2(slice.data(), n, sub, kPqK, options_.pq_kmeans_iters, &rng,
             &book);
    std::copy(book.begin(), book.end(),
              codebooks_.begin() + s * kPqK * sub);
  }

  // --- Encode every residual and fill the inverted lists. ---
  codes_.resize(n * options_.pq_m);
  lists_.assign(centroid_count_, {});
  for (std::size_t i = 0; i < n; ++i) {
    EncodeResidual(data + i * dim, assign_[i],
                   codes_.data() + i * options_.pq_m);
    lists_[assign_[i]].push_back(static_cast<std::uint32_t>(i));
  }
  return Status::OK();
}

void IvfPqIndex::EncodeResidual(const float* v, std::uint32_t c,
                                std::uint8_t* code) const {
  const std::size_t sub = SubDim();
  const float* ctr = centroids_.data() + static_cast<std::size_t>(c) * dim_;
  for (std::size_t s = 0; s < options_.pq_m; ++s) {
    const float* book = codebooks_.data() + s * kPqK * sub;
    float best = std::numeric_limits<float>::max();
    std::uint8_t best_j = 0;
    for (std::size_t j = 0; j < kPqK; ++j) {
      const float* word = book + j * sub;
      float dist = 0.f;
      for (std::size_t d = 0; d < sub; ++d) {
        const float r = v[s * sub + d] - ctr[s * sub + d];
        const float diff = r - word[d];
        dist += diff * diff;
      }
      if (dist < best) {
        best = dist;
        best_j = static_cast<std::uint8_t>(j);
      }
    }
    code[s] = best_j;
  }
}

Status IvfPqIndex::Add(const float* data, std::size_t n, std::size_t dim) {
  if (n_ == 0) return Build(data, n, dim);  // no trained quantizers yet
  if (dim != dim_) return Status::InvalidArgument("ivfpq Add: dim mismatch");
  codes_.resize((n_ + n) * options_.pq_m);
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
    const std::uint32_t id = static_cast<std::uint32_t>(n_ + i);
    EncodeResidual(v, best_c, codes_.data() + id * options_.pq_m);
    assign_.push_back(best_c);
    lists_[best_c].push_back(id);
  }
  n_ += n;
  return Status::OK();
}

void IvfPqIndex::Reconstruct(std::uint32_t id, float* out) const {
  const std::size_t sub = SubDim();
  const float* ctr =
      centroids_.data() + static_cast<std::size_t>(assign_[id]) * dim_;
  const std::uint8_t* code = codes_.data() + id * options_.pq_m;
  for (std::size_t s = 0; s < options_.pq_m; ++s) {
    const float* word =
        codebooks_.data() + (s * kPqK + code[s]) * sub;
    for (std::size_t d = 0; d < sub; ++d) {
      out[s * sub + d] = ctr[s * sub + d] + word[d];
    }
  }
}

std::vector<std::uint32_t> IvfPqIndex::NearestCentroids(
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

void IvfPqIndex::BuildLut(const float* query, std::vector<float>* lut) const {
  const std::size_t sub = SubDim();
  lut->resize(options_.pq_m * kPqK);
  for (std::size_t s = 0; s < options_.pq_m; ++s) {
    const float* q = query + s * sub;
    const float* book = codebooks_.data() + s * kPqK * sub;
    float* t = lut->data() + s * kPqK;
    for (std::size_t j = 0; j < kPqK; ++j) {
      t[j] = DotUnrolled(q, book + j * sub, sub);
    }
  }
}

template <typename Emit>
bool IvfPqIndex::ScanLists(const float* query,
                           const std::vector<std::uint32_t>& probes,
                           const std::vector<float>& lut, Emit&& emit) const {
  const std::size_t m = options_.pq_m;
  for (const std::uint32_t c : probes) {
    // dot(q, reconstruction) = dot(q, centroid) + sum_s lut[s][code_s]:
    // the centroid term is shared by the whole list.
    const float base =
        DotUnrolled(query, centroids_.data() + c * dim_, dim_);
    const auto& list = lists_[c];
    for (std::size_t i = 0; i < list.size(); ++i) {
      if (i % kScanPollStride == 0 && Cancelled(options_.cancel)) {
        return false;
      }
      const std::uint32_t id = list[i];
      const std::uint8_t* code = codes_.data() + id * m;
      float s = base;
      for (std::size_t sp = 0; sp < m; ++sp) {
        s += lut[sp * kPqK + code[sp]];
      }
      emit(id, s);
    }
  }
  return true;
}

std::vector<ScoredId> IvfPqIndex::TopK(const float* query,
                                       std::size_t k) const {
  TopKCollector adc(
      std::max(k, k * std::max<std::size_t>(options_.rescore_factor, 1)));
  if (n_ == 0 || k == 0) return {};
  std::vector<float> lut;
  BuildLut(query, &lut);
  ScanLists(query, NearestCentroids(query, options_.nprobe), lut,
            [&](std::uint32_t id, float s) { adc.Offer(id, s); });
  // Exact re-rank of the ADC band: recompute dot(q, reconstruction) in
  // straight fp32 (the ADC path accumulates per-subspace table entries,
  // whose rounding differs from a direct dot). The fetch band also
  // absorbs ADC ties that table rounding ordered arbitrarily.
  std::vector<float> rec(dim_);
  TopKCollector rescored(k);
  for (const auto& cand : adc.TakeSorted()) {
    Reconstruct(cand.id, rec.data());
    rescored.Offer(cand.id, DotUnrolled(query, rec.data(), dim_));
  }
  return rescored.TakeSorted();
}

void IvfPqIndex::RangeSearch(const float* query, float threshold,
                             std::vector<ScoredId>* out) const {
  if (n_ == 0) return;
  // Scores are exact dots against the *reconstructed* vectors — the
  // closest this index can get to the originals, which it does not
  // retain. PQ's reconstruction error is the accuracy the caller opted
  // into by picking this family.
  std::vector<float> lut;
  BuildLut(query, &lut);
  ScanLists(query, NearestCentroids(query, options_.nprobe), lut,
            [&](std::uint32_t id, float s) {
              if (s >= threshold) out->push_back({id, s});
            });
}

namespace {
constexpr std::uint32_t kIvfPqMagic = 0x43505149;  // "CPQI"
constexpr std::uint32_t kIvfPqVersion = 1;
}  // namespace

Status IvfPqIndex::Save(std::ostream& out) const {
  CRE_RETURN_NOT_OK(vecio::WriteTag(out, kIvfPqMagic, kIvfPqVersion));
  CRE_RETURN_NOT_OK(
      vecio::WritePod<std::uint64_t>(out, options_.num_centroids));
  CRE_RETURN_NOT_OK(vecio::WritePod<std::uint64_t>(out, options_.nprobe));
  CRE_RETURN_NOT_OK(
      vecio::WritePod<std::uint64_t>(out, options_.kmeans_iters));
  CRE_RETURN_NOT_OK(vecio::WritePod<std::uint64_t>(out, options_.pq_m));
  CRE_RETURN_NOT_OK(
      vecio::WritePod<std::uint64_t>(out, options_.pq_kmeans_iters));
  CRE_RETURN_NOT_OK(vecio::WritePod<std::uint64_t>(out, options_.seed));
  CRE_RETURN_NOT_OK(vecio::WritePod<std::uint64_t>(out, n_));
  CRE_RETURN_NOT_OK(vecio::WritePod<std::uint64_t>(out, dim_));
  CRE_RETURN_NOT_OK(vecio::WritePod<std::uint64_t>(out, centroid_count_));
  CRE_RETURN_NOT_OK(vecio::WriteVec(out, centroids_));
  CRE_RETURN_NOT_OK(vecio::WriteVec(out, codebooks_));
  CRE_RETURN_NOT_OK(vecio::WriteVec(out, codes_));
  CRE_RETURN_NOT_OK(vecio::WriteVec(out, assign_));
  CRE_RETURN_NOT_OK(vecio::WritePod<std::uint64_t>(out, lists_.size()));
  for (const auto& list : lists_) {
    CRE_RETURN_NOT_OK(vecio::WriteVec(out, list));
  }
  return Status::OK();
}

Status IvfPqIndex::Load(std::istream& in) {
  CRE_RETURN_NOT_OK(vecio::ExpectTag(in, kIvfPqMagic, kIvfPqVersion, "ivfpq"));
  std::uint64_t num_centroids = 0, nprobe = 0, iters = 0, pq_m = 0;
  std::uint64_t pq_iters = 0, seed = 0;
  std::uint64_t n = 0, dim = 0, centroid_count = 0, list_count = 0;
  CRE_RETURN_NOT_OK(vecio::ReadPod(in, &num_centroids));
  CRE_RETURN_NOT_OK(vecio::ReadPod(in, &nprobe));
  CRE_RETURN_NOT_OK(vecio::ReadPod(in, &iters));
  CRE_RETURN_NOT_OK(vecio::ReadPod(in, &pq_m));
  CRE_RETURN_NOT_OK(vecio::ReadPod(in, &pq_iters));
  CRE_RETURN_NOT_OK(vecio::ReadPod(in, &seed));
  CRE_RETURN_NOT_OK(vecio::ReadPod(in, &n));
  CRE_RETURN_NOT_OK(vecio::ReadPod(in, &dim));
  CRE_RETURN_NOT_OK(vecio::ReadPod(in, &centroid_count));
  // Bounds before any multiplication: the caps keep every product below
  // (n*dim, centroid_count*dim, pq_m*256*sub) far from uint64 wraparound,
  // and the divisibility check pins the subspace geometry every ADC loop
  // assumes.
  if (dim == 0 || dim > vecio::kMaxDim || n > vecio::kMaxArrayElems ||
      centroid_count > vecio::kMaxArrayElems || pq_m == 0 || pq_m > dim ||
      dim % pq_m != 0) {
    return Status::InvalidArgument("ivfpq load: implausible header");
  }
  CRE_RETURN_NOT_OK(vecio::ReadVec(in, &centroids_));
  CRE_RETURN_NOT_OK(vecio::ReadVec(in, &codebooks_));
  CRE_RETURN_NOT_OK(vecio::ReadVec(in, &codes_));
  CRE_RETURN_NOT_OK(vecio::ReadVec(in, &assign_));
  CRE_RETURN_NOT_OK(vecio::ReadPod(in, &list_count));
  const std::uint64_t sub = dim / pq_m;
  if (n == 0) {
    if (!centroids_.empty() || !codebooks_.empty() || !codes_.empty() ||
        !assign_.empty() || list_count != 0) {
      return Status::InvalidArgument("ivfpq load: inconsistent empty index");
    }
  } else if (centroids_.size() != centroid_count * dim ||
             codebooks_.size() != pq_m * kPqK * sub ||
             codes_.size() != n * pq_m || assign_.size() != n ||
             list_count != centroid_count) {
    return Status::InvalidArgument("ivfpq load: inconsistent sizes");
  }
  for (const std::uint32_t a : assign_) {
    if (a >= centroid_count) {
      return Status::InvalidArgument("ivfpq load: assignment out of range");
    }
  }
  lists_.assign(static_cast<std::size_t>(list_count), {});
  std::uint64_t total_ids = 0;
  for (auto& list : lists_) {
    CRE_RETURN_NOT_OK(vecio::ReadVec(in, &list));
    total_ids += list.size();
    for (const std::uint32_t id : list) {
      if (id >= n) {
        return Status::InvalidArgument("ivfpq load: id out of range");
      }
    }
  }
  if (total_ids != n) {
    return Status::InvalidArgument("ivfpq load: lists do not partition ids");
  }
  // Build-structural options restore from the image (they shape the
  // stored quantizers and keep future Adds/retrains deterministic);
  // nprobe and rescore_factor are query-time recall/latency knobs that
  // follow this instance's configuration.
  (void)nprobe;
  options_.num_centroids = static_cast<std::size_t>(num_centroids);
  options_.kmeans_iters = static_cast<std::size_t>(iters);
  options_.pq_m = static_cast<std::size_t>(pq_m);
  options_.pq_kmeans_iters = static_cast<std::size_t>(pq_iters);
  options_.seed = seed;
  n_ = static_cast<std::size_t>(n);
  dim_ = static_cast<std::size_t>(dim);
  centroid_count_ = static_cast<std::size_t>(centroid_count);
  return Status::OK();
}

std::size_t IvfPqIndex::MemoryBytes() const {
  std::size_t bytes = (centroids_.size() + codebooks_.size()) * sizeof(float) +
                      codes_.size() * sizeof(std::uint8_t) +
                      assign_.size() * sizeof(std::uint32_t);
  for (const auto& l : lists_) bytes += l.size() * sizeof(std::uint32_t);
  return bytes;
}

}  // namespace cre
