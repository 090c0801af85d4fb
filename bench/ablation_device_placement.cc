// E7 - transfer-cost-aware device placement (Sec. VI / Fig. 5): for the
// semantic-similarity-join workload across batch sizes, prints the
// estimated execution time on each simulated device (CPU, PCIe GPU-like,
// TPU-like), including kernel startup and model-parameter shipping, and
// the placement optimizer's decision. The crossover batch size is the
// figure's takeaway.

#include <cstdio>
#include <vector>

#include "bench/bench_util.h"
#include "core/rng.h"
#include "core/timer.h"
#include "hw/device.h"
#include "hw/placement.h"
#include "vecsim/kernels.h"

namespace cre {
namespace {

void RunPlacement() {
  bench::PrintHeader(
      "E7 - just-in-time device placement for the similarity join\n"
      "per-device estimate = compute + transfer + startup + model load");

  PlacementOptimizer optimizer(DeviceRegistry::Default());

  std::printf("-- without model shipping (parameters resident) --\n");
  std::printf("%10s %12s %12s %12s %10s\n", "n/side", "cpu[s]", "gpu-sim[s]",
              "tpu-sim[s]", "placed");
  for (std::size_t n = 60; n <= 245760; n *= 4) {
    auto w = SimilarityJoinProfile(n, n, 100);
    auto all = optimizer.EstimateAll(w);
    auto placed = optimizer.Place(w);
    std::printf("%10zu %12.5f %12.5f %12.5f %10s\n", n, all[0].est_seconds,
                all[1].est_seconds, all[2].est_seconds,
                placed.device.name.c_str());
  }

  std::printf("\n-- with 400MB of model parameters shipped per query --\n");
  std::printf("%10s %12s %12s %12s %10s\n", "n/side", "cpu[s]", "gpu-sim[s]",
              "tpu-sim[s]", "placed");
  for (std::size_t n = 60; n <= 245760; n *= 4) {
    auto w = SimilarityJoinProfile(n, n, 100, /*ship_model=*/true,
                                   /*model_bytes=*/400u * 1000 * 1000);
    auto all = optimizer.EstimateAll(w);
    auto placed = optimizer.Place(w);
    std::printf("%10zu %12.5f %12.5f %12.5f %10s\n", n, all[0].est_seconds,
                all[1].est_seconds, all[2].est_seconds,
                placed.device.name.c_str());
  }

  std::printf("\n-- kernel binding on the host CPU --\n");
  const std::size_t dim = 100, rows = 64, reps = 20000;
  Rng rng(123);
  std::vector<float> a(dim), b(dim * rows);
  for (auto& x : a) x = rng.NextFloat() - 0.5f;
  for (auto& x : b) x = rng.NextFloat() - 0.5f;
  volatile float sink = 0;
  std::printf("ns/dot(dim=100):");
  for (const KernelVariant v :
       {KernelVariant::kScalar, KernelVariant::kUnrolled, KernelVariant::kAvx2,
        KernelVariant::kAvx512}) {
    if ((v == KernelVariant::kAvx2 && !CpuSupportsAvx2()) ||
        (v == KernelVariant::kAvx512 && !CpuSupportsAvx512())) {
      continue;
    }
    const DotFn fn = GetDotKernel(v);
    Timer t;
    for (std::size_t i = 0; i < reps; ++i) {
      sink = sink + fn(a.data(), b.data() + (i % rows) * dim, dim);
    }
    std::printf(" %s=%.1f", KernelVariantName(v),
                t.Seconds() * 1e9 / static_cast<double>(reps));
  }
  std::printf("  -> bound by CPUID: %s\n",
              KernelVariantName(BestKernelVariant()));

  std::printf(
      "\nexpected shape: small batches stay on the CPU (startup+transfer\n"
      "dominate); large batches offload; shipping model parameters moves\n"
      "the crossover to larger batch sizes - the Sec. VI placement\n"
      "trade-off.\n");
}

}  // namespace
}  // namespace cre

int main() {
  cre::RunPlacement();
  return 0;
}
