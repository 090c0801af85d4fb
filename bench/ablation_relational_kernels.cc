// Relational kernel ablation: google-benchmark of the two hash kernels
// over 150k input rows arriving in 8192-row batches, like morsels.
//
// BM_GroupedAggregation: hash group-by accumulation
// (GroupedAggregationState) by key shape (one int64 key, one string key,
// an (int64, string) key pair) and group count (5, as in a
// low-cardinality GROUP BY, and 15000, past the radix threshold); each
// iteration accumulates COUNT(*) and SUM(v) and finalizes.
//
// BM_HashJoin: hash join build plus probe (HashJoinTable) by key type
// (int64, string) and build-key multiplicity (1: 20000 unique keys, 4:
// 5000 keys each on 4 of the 20000 build rows); every probe row matches.
// Each iteration builds the table and probes every batch.
//
// The ns_per_row counter reads in seconds per input (probe) row.
//
//   bench_ablation_relational_kernels --benchmark_min_time=0.2

#include <benchmark/benchmark.h>

#include <algorithm>
#include <string>
#include <vector>

#include "core/rng.h"
#include "exec/aggregate.h"
#include "exec/hash_join.h"

namespace cre {
namespace {

constexpr std::size_t kRows = 150000;
constexpr std::size_t kBatchRows = 8192;

enum KeyShape { kInt64Key = 0, kStringKey = 1, kTwoKeys = 2 };

/// kRows rows with group g drawn uniformly from [0, groups): k = g,
/// s = "product_<g>", v an integer-valued double.
TablePtr GroupTable(std::size_t groups) {
  auto t = Table::Make(Schema({{"k", DataType::kInt64, 0},
                               {"s", DataType::kString, 0},
                               {"v", DataType::kFloat64, 0}}));
  t->Reserve(kRows);
  Rng rng(17);
  for (std::size_t r = 0; r < kRows; ++r) {
    const std::size_t g = rng.Uniform(groups);
    t->column(0).AppendInt64(static_cast<std::int64_t>(g));
    t->column(1).AppendString("product_" + std::to_string(g));
    t->column(2).AppendFloat64(static_cast<double>(rng.Uniform(1000)));
  }
  return t;
}

/// range(0): KeyShape; range(1): groups.
void BM_GroupedAggregation(benchmark::State& state) {
  const auto shape = static_cast<KeyShape>(state.range(0));
  const std::size_t groups = static_cast<std::size_t>(state.range(1));
  const TablePtr table = GroupTable(groups);
  std::vector<TablePtr> batches;
  for (std::size_t r = 0; r < kRows; r += kBatchRows) {
    batches.push_back(table->Slice(r, kBatchRows));
  }
  const std::vector<std::string> keys =
      shape == kInt64Key    ? std::vector<std::string>{"k"}
      : shape == kStringKey ? std::vector<std::string>{"s"}
                            : std::vector<std::string>{"k", "s"};
  const std::vector<AggSpec> aggs = {{AggKind::kCount, "", "n"},
                                     {AggKind::kSum, "v", "total"}};
  for (auto _ : state) {
    GroupedAggregationState agg;
    if (!agg.Init(table->schema(), keys, aggs).ok()) {
      state.SkipWithError("Init failed");
      return;
    }
    for (const TablePtr& batch : batches) {
      benchmark::DoNotOptimize(agg.Consume(*batch).ok());
    }
    auto out = agg.Finalize().ValueOrDie();
    benchmark::DoNotOptimize(out->num_rows());
  }
  state.counters["ns_per_row"] = benchmark::Counter(
      static_cast<double>(kRows),
      benchmark::Counter::kIsIterationInvariantRate |
          benchmark::Counter::kInvert);
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations() * kRows));
}
BENCHMARK(BM_GroupedAggregation)
    ->ArgsProduct({{kInt64Key, kStringKey, kTwoKeys}, {5, 15000}})
    ->Unit(benchmark::kMillisecond);

constexpr std::size_t kBuildRows = 20000;

/// range(0): KeyShape (kInt64Key or kStringKey); range(1): how many build
/// rows share each key.
void BM_HashJoin(benchmark::State& state) {
  const bool strings = state.range(0) == kStringKey;
  const std::size_t dup = static_cast<std::size_t>(state.range(1));
  const std::size_t keys = kBuildRows / dup;
  const DataType type = strings ? DataType::kString : DataType::kInt64;
  auto append = [strings](Column* col, std::size_t key) {
    if (strings) {
      col->AppendString("product_" + std::to_string(key));
    } else {
      col->AppendInt64(static_cast<std::int64_t>(key));
    }
  };
  auto build =
      Table::Make(Schema({{"k", type, 0}, {"v", DataType::kInt64, 0}}));
  for (std::size_t r = 0; r < kBuildRows; ++r) {
    append(&build->column(0), r % keys);
    build->column(1).AppendInt64(static_cast<std::int64_t>(r));
  }
  Rng rng(23);
  Column probe(type);
  for (std::size_t r = 0; r < kRows; ++r) append(&probe, rng.Uniform(keys));
  std::vector<Column> batches;
  for (std::size_t r = 0; r < kRows; r += kBatchRows) {
    batches.push_back(probe.Slice(r, std::min(kBatchRows, kRows - r)));
  }
  std::vector<std::uint32_t> probe_rows;
  std::vector<std::uint32_t> build_rows;
  for (auto _ : state) {
    auto table = HashJoinTable::Build(build, "k");
    if (!table.ok()) {
      state.SkipWithError("Build failed");
      return;
    }
    for (const Column& batch : batches) {
      probe_rows.clear();
      build_rows.clear();
      benchmark::DoNotOptimize(
          table.ValueOrDie()->Probe(batch, &probe_rows, &build_rows).ok());
      benchmark::DoNotOptimize(build_rows.data());
      benchmark::ClobberMemory();
    }
  }
  state.counters["ns_per_row"] = benchmark::Counter(
      static_cast<double>(kRows),
      benchmark::Counter::kIsIterationInvariantRate |
          benchmark::Counter::kInvert);
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations() * kRows));
}
BENCHMARK(BM_HashJoin)
    ->ArgsProduct({{kInt64Key, kStringKey}, {1, 4}})
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace cre
