#include <gtest/gtest.h>

#include "hw/device.h"
#include "hw/placement.h"

namespace cre {
namespace {

TEST(DeviceRegistryTest, DefaultTopology) {
  auto registry = DeviceRegistry::Default();
  ASSERT_EQ(registry.devices().size(), 3u);
  EXPECT_EQ(registry.Get("cpu").ValueOrDie().kind, DeviceKind::kCpu);
  EXPECT_EQ(registry.Get("gpu0").ValueOrDie().kind, DeviceKind::kGpuSim);
  EXPECT_TRUE(registry.Get("fpga9").status().IsNotFound());
}

TEST(DeviceKindTest, Names) {
  EXPECT_STREQ(DeviceKindName(DeviceKind::kCpu), "cpu");
  EXPECT_STREQ(DeviceKindName(DeviceKind::kGpuSim), "gpu-sim");
  EXPECT_STREQ(DeviceKindName(DeviceKind::kTpuSim), "tpu-sim");
}

TEST(PlacementTest, CpuHasNoTransferCost) {
  auto registry = DeviceRegistry::Default();
  const auto cpu = registry.Get("cpu").ValueOrDie();
  WorkloadProfile w;
  w.flops = 1e9;
  w.bytes_in = 1e9;
  w.model_param_bytes = 1e8;
  auto d = PlacementOptimizer::EstimateOn(cpu, w);
  EXPECT_DOUBLE_EQ(d.transfer_seconds, 0.0);
  EXPECT_DOUBLE_EQ(d.model_load_seconds, 0.0);
  EXPECT_GT(d.compute_seconds, 0.0);
}

TEST(PlacementTest, GpuPaysTransferAndStartup) {
  auto registry = DeviceRegistry::Default();
  const auto gpu = registry.Get("gpu0").ValueOrDie();
  WorkloadProfile w;
  w.flops = 1e9;
  w.bytes_in = 1e8;
  w.model_param_bytes = 1e7;
  auto d = PlacementOptimizer::EstimateOn(gpu, w);
  EXPECT_GT(d.transfer_seconds, 0.0);
  EXPECT_GT(d.startup_seconds, 0.0);
  EXPECT_GT(d.model_load_seconds, 0.0);
  EXPECT_DOUBLE_EQ(d.est_seconds,
                   d.compute_seconds + d.transfer_seconds +
                       d.startup_seconds + d.model_load_seconds);
}

TEST(PlacementTest, SmallWorkStaysOnCpu) {
  PlacementOptimizer opt(DeviceRegistry::Default());
  // Tiny join: startup + transfer dwarf the compute savings.
  auto w = SimilarityJoinProfile(100, 100, 100);
  auto d = opt.Place(w);
  EXPECT_EQ(d.device.kind, DeviceKind::kCpu);
}

TEST(PlacementTest, LargeWorkOffloads) {
  PlacementOptimizer opt(DeviceRegistry::Default());
  auto w = SimilarityJoinProfile(200000, 200000, 100);
  auto d = opt.Place(w);
  EXPECT_NE(d.device.kind, DeviceKind::kCpu);
}

TEST(PlacementTest, CrossoverIsMonotone) {
  // As batch size grows, the ratio cpu_time/offload_time must grow: once
  // offload wins it keeps winning.
  PlacementOptimizer opt(DeviceRegistry::Default());
  const auto cpu = opt.registry().Get("cpu").ValueOrDie();
  const auto gpu = opt.registry().Get("gpu0").ValueOrDie();
  double prev_ratio = 0;
  for (std::size_t n : {1000u, 4000u, 16000u, 64000u, 256000u}) {
    auto w = SimilarityJoinProfile(n, n, 100);
    const double cpu_t = PlacementOptimizer::EstimateOn(cpu, w).est_seconds;
    const double gpu_t = PlacementOptimizer::EstimateOn(gpu, w).est_seconds;
    const double ratio = cpu_t / gpu_t;
    EXPECT_GE(ratio, prev_ratio * 0.99);
    prev_ratio = ratio;
  }
  EXPECT_GT(prev_ratio, 1.0);  // offload eventually wins
}

TEST(PlacementTest, ModelShippingPenalizesAccelerators) {
  PlacementOptimizer opt(DeviceRegistry::Default());
  const auto gpu = opt.registry().Get("gpu0").ValueOrDie();
  auto without = SimilarityJoinProfile(50000, 50000, 100, false);
  auto with = SimilarityJoinProfile(50000, 50000, 100, true,
                                    /*model_bytes=*/400 * 1000 * 1000);
  EXPECT_GT(PlacementOptimizer::EstimateOn(gpu, with).est_seconds,
            PlacementOptimizer::EstimateOn(gpu, without).est_seconds);
}

TEST(PlacementTest, InferenceProfileScalesWithBatch) {
  auto small = InferenceProfile(10, 1e7, 1e5, 1e8);
  auto large = InferenceProfile(1000, 1e7, 1e5, 1e8);
  EXPECT_GT(large.flops, small.flops);
  EXPECT_DOUBLE_EQ(large.model_param_bytes, small.model_param_bytes);
}

TEST(PlacementTest, EstimateAllCoversRegistry) {
  PlacementOptimizer opt(DeviceRegistry::Default());
  auto all = opt.EstimateAll(SimilarityJoinProfile(1000, 1000, 100));
  EXPECT_EQ(all.size(), 3u);
}

}  // namespace
}  // namespace cre
