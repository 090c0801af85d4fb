// E5 - kernel-variant and quantization ablation (Sec. VI
// hardware-conscious claims), four tables:
//
//   dispatch - what the runtime CPUID dispatch found on this host and
//              the variant it binds for every shape
//   kernels  - ns/op for every float kernel variant in the single-pair,
//              batch (one-to-many), and batch-gather shapes, plus the
//              fp16 asymmetric kernel: the batch columns show what load
//              amortization + software prefetch buy at each ISA width
//   codecs   - FlatIndex footprint / top-10 latency / recall@10 for the
//              fp32, fp16 (2x smaller), and int8 (4x smaller) codecs with
//              exact-rescore search
//   ivfpq    - IVF-Flat vs IVF-PQ footprint / latency / recall@10: the
//              product-quantized family holds ~an order of magnitude less
//              resident data (the IVF-PQ row is skipped when pq_m does
//              not divide the dim)
//
// `--json <path>` additionally writes every measurement machine-readably
// (one row per table line) for the perf-trajectory artifacts.
//
// Scaling knobs: CRE_BENCH_VECS (base rows, default 20000),
// CRE_BENCH_DIM (vector dim, default 128), CRE_BENCH_QUERIES (default 64).

#include <cmath>
#include <cstdio>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "core/rng.h"
#include "core/timer.h"
#include "vecsim/brute_force.h"
#include "vecsim/codec.h"
#include "vecsim/fp16.h"
#include "vecsim/ivf_index.h"
#include "vecsim/ivfpq_index.h"
#include "vecsim/kernels.h"

namespace cre {
namespace {

std::vector<float> ClusteredRows(std::size_t n, std::size_t dim,
                                 std::uint64_t seed) {
  // ~10 rows per cluster (matching the recall@10 the tables report),
  // with the noise energy scaled by 1/dim so the cluster signal survives
  // at any dimensionality (total noise energy 4 vs. center energy 9):
  // each query has a well-defined neighborhood — the regime approximate
  // indexes are for.
  const std::size_t clusters = std::max<std::size_t>(n / 10, 1);
  const float noise = 2.f / std::sqrt(static_cast<float>(dim));
  Rng rng(seed);
  std::vector<float> centers(clusters * dim);
  for (auto& x : centers) x = static_cast<float>(rng.NextGaussian());
  for (std::size_t c = 0; c < clusters; ++c) {
    NormalizeInPlace(centers.data() + c * dim, dim);
  }
  std::vector<float> data(n * dim);
  for (std::size_t i = 0; i < n; ++i) {
    const float* ctr = centers.data() + (i % clusters) * dim;
    float* v = data.data() + i * dim;
    for (std::size_t d = 0; d < dim; ++d) {
      v[d] = 3.f * ctr[d] + static_cast<float>(rng.NextGaussian()) * noise;
    }
    NormalizeInPlace(v, dim);
  }
  return data;
}

/// Queries derived from base rows (perturbed members, re-normalized).
std::vector<float> QueriesFrom(const std::vector<float>& data, std::size_t n,
                               std::size_t dim, std::size_t count) {
  Rng rng(77);
  std::vector<float> out(count * dim);
  for (std::size_t q = 0; q < count; ++q) {
    const float* v = data.data() + (rng.Uniform(n)) * dim;
    float* p = out.data() + q * dim;
    for (std::size_t d = 0; d < dim; ++d) {
      p[d] = v[d] + static_cast<float>(rng.NextGaussian()) * 0.05f;
    }
    NormalizeInPlace(p, dim);
  }
  return out;
}

// Accumulator the optimizer cannot delete (kernel results feed it).
volatile float g_sink = 0.f;

/// ns per dot for the single-pair shape of `variant`.
double TimeSingle(KernelVariant variant, const std::vector<float>& data,
                  std::size_t n, std::size_t dim, std::size_t reps) {
  const DotFn fn = GetDotKernel(variant);
  float acc = 0.f;
  Timer t;
  for (std::size_t r = 0; r < reps; ++r) {
    acc += fn(data.data() + ((r * 131) % n) * dim,
              data.data() + ((r * 37 + 11) % n) * dim, dim);
  }
  g_sink = g_sink + acc;
  return t.Seconds() * 1e9 / static_cast<double>(reps);
}

/// ns per dot for the one-to-many batch shape (whole base per call).
double TimeBatch(KernelVariant variant, const std::vector<float>& query,
                 const std::vector<float>& data, std::size_t n,
                 std::size_t dim, std::size_t calls) {
  const DotBatchFn fn = GetDotBatchKernel(variant);
  std::vector<float> out(n);
  Timer t;
  for (std::size_t c = 0; c < calls; ++c) {
    fn(query.data() + (c % 8) * dim, data.data(), n, dim, out.data());
    g_sink = g_sink + out[c % n];
  }
  return t.Seconds() * 1e9 / static_cast<double>(calls * n);
}

/// ns per dot for the scattered batch-gather shape (posting lists,
/// adjacency lists).
double TimeGather(KernelVariant variant, const std::vector<float>& query,
                  const std::vector<float>& data,
                  const std::vector<std::uint32_t>& ids, std::size_t dim,
                  std::size_t calls) {
  const DotBatchGatherFn fn = GetDotBatchGatherKernel(variant);
  std::vector<float> out(ids.size());
  Timer t;
  for (std::size_t c = 0; c < calls; ++c) {
    fn(query.data() + (c % 8) * dim, data.data(), ids.data(), ids.size(), dim,
       out.data());
    g_sink = g_sink + out[c % ids.size()];
  }
  return t.Seconds() * 1e9 / static_cast<double>(calls * ids.size());
}

double Recall10(const VectorIndex& index,
                const std::vector<std::vector<std::uint32_t>>& truth,
                const std::vector<float>& queries, std::size_t dim) {
  std::size_t hits = 0, total = 0;
  for (std::size_t q = 0; q * dim < queries.size(); ++q) {
    std::set<std::uint32_t> want(truth[q].begin(), truth[q].end());
    for (const auto& s : index.TopK(queries.data() + q * dim, 10)) {
      hits += want.count(s.id);
    }
    total += want.size();
  }
  return total == 0 ? 0.0 : static_cast<double>(hits) / total;
}

/// Mean top-10 latency (microseconds) over all queries, best of 3 sweeps.
double TopKMicros(const VectorIndex& index, const std::vector<float>& queries,
                  std::size_t dim) {
  const std::size_t nq = queries.size() / dim;
  double best = 1e300;
  for (int rep = 0; rep < 3; ++rep) {
    Timer t;
    for (std::size_t q = 0; q < nq; ++q) {
      g_sink = g_sink + index.TopK(queries.data() + q * dim, 10).front().score;
    }
    best = std::min(best, t.Seconds());
  }
  return best * 1e6 / static_cast<double>(nq);
}

}  // namespace
}  // namespace cre

int main(int argc, char** argv) {
  using namespace cre;
  const std::size_t n = bench::EnvSize("CRE_BENCH_VECS", 20000);
  const std::size_t dim = bench::EnvSize("CRE_BENCH_DIM", 128);
  const std::size_t nq = bench::EnvSize("CRE_BENCH_QUERIES", 64);
  bench::JsonReport json("kernel_variants",
                         bench::JsonPathFromArgs(argc, argv));

  auto data = ClusteredRows(n, dim, 5);
  auto queries = QueriesFrom(data, n, dim, std::max<std::size_t>(nq, 8));

  // ---- dispatch: what runtime detection found and binds ----
  bench::PrintHeader("runtime kernel dispatch (dim=" + std::to_string(dim) +
                     ")");
  std::printf("cpu: avx2=%s avx512f=%s -> BestKernelVariant=%s\n",
              CpuSupportsAvx2() ? "yes" : "no",
              CpuSupportsAvx512() ? "yes" : "no",
              KernelVariantName(BestKernelVariant()));
  json.Add("dispatch",
           {{"avx2", CpuSupportsAvx2() ? 1.0 : 0.0},
            {"avx512", CpuSupportsAvx512() ? 1.0 : 0.0},
            {"bound", static_cast<double>(BestKernelVariant())}});

  // ---- kernels: single vs batch vs gather per variant ----
  bench::PrintHeader("kernel shapes, ns/op (n=" + std::to_string(n) +
                     ", dim=" + std::to_string(dim) + ")");
  const std::size_t reps = 200000;
  const std::size_t calls = std::max<std::size_t>(2000000 / n, 4);
  Rng idrng(13);
  std::vector<std::uint32_t> gather_ids(1024);
  for (auto& id : gather_ids) {
    id = static_cast<std::uint32_t>(idrng.Uniform(n));
  }
  std::printf("%-10s %12s %12s %12s\n", "variant", "single", "batch",
              "gather");
  const KernelVariant variants[] = {
      KernelVariant::kScalar, KernelVariant::kUnrolled, KernelVariant::kAvx2,
      KernelVariant::kAvx512};
  for (const KernelVariant v : variants) {
    const double single = TimeSingle(v, data, n, dim, reps);
    const double batch = TimeBatch(v, queries, data, n, dim, calls);
    const double gather = TimeGather(v, queries, data, gather_ids, dim,
                                     calls * (n / 1024));
    std::printf("%-10s %12.2f %12.2f %12.2f\n", KernelVariantName(v), single,
                batch, gather);
    json.Add(std::string("kernel/") + KernelVariantName(v),
             {{"single_ns", single},
              {"batch_ns", batch},
              {"gather_ns", gather}});
  }
  {
    // fp16 asymmetric batch (the quantized scan's inner loop).
    std::vector<std::uint16_t> half(data.size());
    FloatsToHalves(data.data(), half.data(), data.size());
    std::vector<float> out(n);
    Timer t;
    for (std::size_t c = 0; c < calls; ++c) {
      DotHalfAsymBatch(queries.data() + (c % 8) * dim, half.data(), n, dim,
                       out.data());
      g_sink = g_sink + out[c % n];
    }
    const double ns = t.Seconds() * 1e9 / static_cast<double>(calls * n);
    std::printf("%-10s %12s %12.2f %12s\n", "fp16-asym", "-", ns, "-");
    json.Add("kernel/fp16-asym", {{"batch_ns", ns}});
  }

  // ---- ground truth for the recall columns ----
  FlatIndex exact(BestKernelVariant());
  exact.Build(data.data(), n, dim).Check();
  std::vector<std::vector<std::uint32_t>> truth;
  for (std::size_t q = 0; q * dim < queries.size(); ++q) {
    std::vector<std::uint32_t> ids;
    for (const auto& s : exact.TopK(queries.data() + q * dim, 10)) {
      ids.push_back(s.id);
    }
    truth.push_back(std::move(ids));
  }

  // ---- codecs: footprint / latency / recall on the flat index ----
  bench::PrintHeader("vector codecs, flat index");
  std::printf("%-8s %14s %10s %12s %10s\n", "codec", "bytes", "vs fp32",
              "topk_us", "recall@10");
  const std::size_t fp32_bytes = exact.MemoryBytes();
  for (const VectorCodecKind kind :
       {VectorCodecKind::kFp32, VectorCodecKind::kFp16,
        VectorCodecKind::kInt8}) {
    QuantizationOptions quant;
    quant.codec = kind;
    FlatIndex index(BestKernelVariant(), quant);
    index.Build(data.data(), n, dim).Check();
    const double us = TopKMicros(index, queries, dim);
    const double recall = Recall10(index, truth, queries, dim);
    const double ratio =
        static_cast<double>(fp32_bytes) / static_cast<double>(index.MemoryBytes());
    std::printf("%-8s %14zu %9.2fx %12.1f %10.3f\n", VectorCodecName(kind),
                index.MemoryBytes(), ratio, us, recall);
    json.Add(std::string("codec/") + VectorCodecName(kind),
             {{"bytes", static_cast<double>(index.MemoryBytes())},
              {"footprint_ratio", ratio},
              {"topk_us", us},
              {"recall_at_10", recall}});
  }

  // ---- ivf-pq vs ivf-flat ----
  bench::PrintHeader("ivf families");
  std::printf("%-8s %14s %10s %12s %10s\n", "family", "bytes", "vs fp32",
              "topk_us", "recall@10");
  const std::size_t num_centroids =
      bench::EnvSize("CRE_BENCH_IVF_CENTROIDS",
                     std::max<std::size_t>(n / 128, 8));
  const std::size_t nprobe = bench::EnvSize(
      "CRE_BENCH_IVF_NPROBE", std::max<std::size_t>(num_centroids / 4, 4));
  {
    IvfOptions ivf;
    ivf.num_centroids = num_centroids;
    ivf.nprobe = nprobe;
    IvfIndex index(ivf);
    index.Build(data.data(), n, dim).Check();
    const double us = TopKMicros(index, queries, dim);
    const double recall = Recall10(index, truth, queries, dim);
    const double ratio =
        static_cast<double>(fp32_bytes) / static_cast<double>(index.MemoryBytes());
    std::printf("%-8s %14zu %9.2fx %12.1f %10.3f\n", "ivf",
                index.MemoryBytes(), ratio, us, recall);
    json.Add("ivf", {{"bytes", static_cast<double>(index.MemoryBytes())},
                     {"footprint_ratio", ratio},
                     {"topk_us", us},
                     {"recall_at_10", recall}});
  }
  IvfPqOptions pq;
  pq.num_centroids = num_centroids;
  pq.nprobe = nprobe;
  pq.pq_m = std::min<std::size_t>(dim / 2, 32);
  if (!IvfPqIndex::AcceptsDim(dim, pq.pq_m)) {
    std::printf("%-8s skipped: pq_m=%zu does not divide dim=%zu\n", "ivfpq",
                pq.pq_m, dim);
  } else {
    IvfPqIndex index(pq);
    index.Build(data.data(), n, dim).Check();
    const double us = TopKMicros(index, queries, dim);
    const double recall = Recall10(index, truth, queries, dim);
    const double ratio =
        static_cast<double>(fp32_bytes) / static_cast<double>(index.MemoryBytes());
    std::printf("%-8s %14zu %9.2fx %12.1f %10.3f\n", "ivfpq",
                index.MemoryBytes(), ratio, us, recall);
    json.Add("ivfpq", {{"bytes", static_cast<double>(index.MemoryBytes())},
                       {"footprint_ratio", ratio},
                       {"topk_us", us},
                       {"recall_at_10", recall}});
  }

  if (!json.Write()) return 1;
  return 0;
}
