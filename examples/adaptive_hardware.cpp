// Hardware-conscious execution (paper Sec. VI): the same logical
// similarity-join workload is (a) bound to the widest CPU kernel variant
// the host supports, detected by CPUID, and (b) placed onto the best
// simulated device by the transfer-cost-aware placement optimizer.

#include <cstdio>

#include "core/rng.h"
#include "core/timer.h"
#include "hw/device.h"
#include "hw/placement.h"
#include "vecsim/brute_force.h"

using namespace cre;

int main() {
  const std::size_t dim = 100;

  Rng rng(1);
  const std::size_t n = 2000;
  std::vector<float> base(n * dim), query(dim);
  for (auto& x : base) x = rng.NextFloat() - 0.5f;
  for (auto& x : query) x = rng.NextFloat() - 0.5f;
  for (std::size_t i = 0; i < n; ++i) NormalizeInPlace(base.data() + i * dim, dim);
  NormalizeInPlace(query.data(), dim);

  // --- kernel binding by CPUID, with every variant's speed beside it ---
  std::printf("kernel variants (ns per dim-%zu dot):\n", dim);
  volatile float sink = 0;
  for (const KernelVariant v :
       {KernelVariant::kScalar, KernelVariant::kUnrolled, KernelVariant::kAvx2,
        KernelVariant::kAvx512}) {
    if ((v == KernelVariant::kAvx2 && !CpuSupportsAvx2()) ||
        (v == KernelVariant::kAvx512 && !CpuSupportsAvx512())) {
      continue;
    }
    const DotFn fn = GetDotKernel(v);
    Timer timer;
    for (std::size_t i = 0; i < n; ++i) {
      sink = sink + fn(query.data(), base.data() + i * dim, dim);
    }
    std::printf("  %-8s %7.1f\n", KernelVariantName(v),
                timer.Seconds() * 1e9 / static_cast<double>(n));
  }
  std::printf("bound variant (CPUID): %s\n\n",
              KernelVariantName(BestKernelVariant()));

  // Use the bound kernel for a real scan.
  const DotFn kernel = GetDotKernel(BestKernelVariant());
  Timer t;
  float best = -2.f;
  for (std::size_t i = 0; i < n; ++i) {
    best = std::max(best, kernel(query.data(), base.data() + i * dim, dim));
  }
  std::printf("scanned %zu vectors in %.3f ms (best cosine %.3f)\n\n", n,
              t.Millis(), best);

  // --- device placement across batch sizes ---
  PlacementOptimizer placement(DeviceRegistry::Default());
  std::printf("placement decisions for the similarity join:\n");
  std::printf("%10s %12s %12s %12s -> %s\n", "n/side", "cpu[s]",
              "gpu-sim[s]", "tpu-sim[s]", "choice");
  for (std::size_t side = 60; side <= 245760; side *= 4) {
    auto profile = SimilarityJoinProfile(side, side, dim);
    auto estimates = placement.EstimateAll(profile);
    auto chosen = placement.Place(profile);
    std::printf("%10zu %12.5f %12.5f %12.5f -> %s\n", side,
                estimates[0].est_seconds, estimates[1].est_seconds,
                estimates[2].est_seconds, chosen.device.name.c_str());
  }
  std::printf("\nsmall batches stay on the CPU (kernel startup and PCIe\n"
              "transfers dominate); large batches are worth offloading —\n"
              "the just-in-time decision of paper Sec. VI.\n");
  return 0;
}
