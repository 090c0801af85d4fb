// Index lifecycle figure for the incremental-maintenance + persistence
// subsystem:
//
//   cold build   - first GetOrBuild over the table: embed distinct values
//                  + construct the HNSW graph (+ write-through to disk)
//   warm hit     - the same lookup again: shared resident instance
//   refresh      - after an append-style table mutation (catalog Append,
//                  <= 10% new rows): clone + insert only the appended
//                  rows' new values — measured against...
//   rebuild      - ...a cold manager forced to reconstruct the appended
//                  table from scratch (what every mutation cost before
//                  incremental maintenance)
//   per value    - build, refresh and rebuild again by managers without
//                  persistence, serial and with HNSW construction and
//                  inserts over a 2-thread pool: the refresh's
//                  milliseconds per new distinct value and that cost in
//                  bulk-build values (what the refresh/rebuild crossover's
//                  kRefreshCostPerRow stands for)
//   disk load    - a "process restart": a fresh manager over the same
//                  persist_dir adopts the persisted image (deserialize +
//                  content-hash validation, no embedding, no build)
//   append       - the catalog Append itself (no index), median over a
//                  run of fixed-size batches at the base row count and at
//                  4x it: new versions share the old rows' buffers, so the
//                  cost tracks the batch, not the table
//
// The last section drives the whole path through the engine: a fresh
// engine with persist_dir set EXPLAINs the first semantic select as
// "(on-disk)", serves it index-backed with zero builds, and EXPLAINs the
// next as "(resident)" — the restart story end to end.
//
// The bench exits nonzero unless the lifecycle counts hold: the live
// manager built once and refreshed once, the restarted manager loaded
// once and built nothing, and the restarted engine showed both EXPLAIN
// labels without a build. Counts, not timings, so the check is steady.
//
// Scaling knobs: CRE_PERSIST_ROWS, CRE_PERSIST_DISTINCT,
// CRE_PERSIST_APPEND_PCT (the refresh count needs it at or below the
// 25% refresh crossover). Machine-readable output via --json <path>.

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <functional>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "core/timer.h"
#include "embed/hash_embedding_model.h"
#include "engine/engine.h"
#include "engine/scheduler.h"
#include "index/index_manager.h"
#include "plan/plan_node.h"
#include "storage/catalog.h"

namespace cre {
namespace {

TablePtr MakeWordTable(std::size_t n, std::size_t distinct,
                       const std::string& prefix) {
  Schema schema;
  schema.AddField({"name", DataType::kString, 0});
  auto table = Table::Make(schema);
  table->Reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    table->column(0).AppendString(prefix + std::to_string(i % distinct));
  }
  return table;
}

double TimeOnce(const std::function<void()>& fn) {
  Timer t;
  fn();
  return t.Seconds();
}

/// Median seconds of one catalog Append of `batch_rows` rows onto a table
/// of `rows` rows. One untimed append first moves the table into a shared,
/// batch-claimed buffer, as any live table's first append does.
double MedianAppendSeconds(std::size_t rows, std::size_t distinct,
                           std::size_t batch_rows) {
  constexpr int kAppends = 15;
  Catalog catalog;
  catalog.Put("t", MakeWordTable(rows, distinct, "item_"));
  const TablePtr batch = MakeWordTable(batch_rows, distinct, "fresh_");
  catalog.Append("t", *batch).status().Check();
  std::vector<double> seconds;
  for (int i = 0; i < kAppends; ++i) {
    seconds.push_back(
        TimeOnce([&] { catalog.Append("t", *batch).status().Check(); }));
  }
  std::nth_element(seconds.begin(), seconds.begin() + kAppends / 2,
                   seconds.end());
  return seconds[kAppends / 2];
}

/// One append-refresh lifecycle against a manager with `options`: the
/// cold build of `base`, the refresh after appending `batch`, and a cold
/// rebuild of the appended table by a second manager with the same
/// options.
struct RefreshTimes {
  double build_s = 0;
  double refresh_s = 0;
  double rebuild_s = 0;
};

RefreshTimes TimeRefresh(const TablePtr& base, const TablePtr& batch,
                         const ModelRegistry& models,
                         const IndexManagerOptions& options,
                         const IndexKey& key) {
  Catalog catalog;
  catalog.Put(key.table, base);
  IndexManager manager(&catalog, &models, options);
  RefreshTimes t;
  t.build_s = TimeOnce([&] { manager.GetOrBuild(key).status().Check(); });
  catalog.Append(key.table, *batch).status().Check();
  t.refresh_s = TimeOnce([&] { manager.GetOrBuild(key).status().Check(); });
  IndexManager cold(&catalog, &models, options);
  t.rebuild_s = TimeOnce([&] { cold.GetOrBuild(key).status().Check(); });
  return t;
}

/// Prints a failed lifecycle check to stderr; returns whether it held.
bool Expect(bool held, const char* what) {
  if (!held) std::fprintf(stderr, "fig_index_persistence: %s\n", what);
  return held;
}

/// Runs the figure; returns false when a lifecycle count is off.
bool Run(bench::JsonReport* json) {
  const std::size_t rows = bench::EnvSize("CRE_PERSIST_ROWS", 60000);
  const std::size_t distinct = bench::EnvSize("CRE_PERSIST_DISTINCT", 3000);
  const std::size_t append_pct = bench::EnvSize("CRE_PERSIST_APPEND_PCT", 10);
  const std::size_t append_rows = rows * append_pct / 100;

  const std::string dir =
      (std::filesystem::temp_directory_path() /
       ("cre_persist_bench_" + std::to_string(::getpid())))
          .string();

  bench::PrintHeader(
      "fig_index_persistence - incremental refresh + on-disk warm start\n"
      "rows=" + std::to_string(rows) + ", distinct~" +
      std::to_string(distinct) + ", append=" + std::to_string(append_pct) +
      "% (" + std::to_string(append_rows) + " rows), persist_dir=" + dir);

  HashEmbeddingModel::Options mo;
  mo.dim = 64;

  Catalog catalog;
  catalog.Put("products", MakeWordTable(rows, distinct, "item_"));
  ModelRegistry models;
  models.Put("m", std::make_shared<HashEmbeddingModel>(mo));

  IndexManagerOptions persist_options;
  persist_options.persist_dir = dir;
  IndexManager manager(&catalog, &models, persist_options);
  const IndexKey key{"products", "name", "m", SemanticJoinStrategy::kHnsw};

  const double cold_s =
      TimeOnce([&] { manager.GetOrBuild(key).status().Check(); });
  const double warm_s =
      TimeOnce([&] { manager.GetOrBuild(key).status().Check(); });

  // Append-style mutation: ~1/10th of the appended rows introduce new
  // distinct values (the rest repeat known ones) — the Zipfian-ish shape
  // managed corpora actually have.
  const std::size_t new_values = std::max<std::size_t>(
      1, std::min(append_rows, distinct / 10));
  const TablePtr batch = MakeWordTable(append_rows, new_values, "fresh_");
  catalog.Append("products", *batch).status().Check();
  const double refresh_s =
      TimeOnce([&] { manager.GetOrBuild(key).status().Check(); });

  // The pre-incremental-maintenance cost of the same mutation: a cold
  // manager rebuilding the appended table from scratch.
  IndexManager cold_manager(&catalog, &models, IndexManagerOptions{});
  const double rebuild_s =
      TimeOnce([&] { cold_manager.GetOrBuild(key).status().Check(); });

  // "Process restart": a fresh manager over the same persist_dir adopts
  // the refreshed image without any build.
  IndexManager restarted(&catalog, &models, persist_options);
  const double load_s =
      TimeOnce([&] { restarted.GetOrBuild(key).status().Check(); });

  // Fixed 1000-row batches (the serving benchmark's append size).
  const std::size_t append_batch = 1000;
  const double append_base_s =
      MedianAppendSeconds(rows, distinct, append_batch);
  const double append_4x_s =
      MedianAppendSeconds(4 * rows, distinct, append_batch);

  // The refresh's cost per new value, serial and over a 2-thread pool,
  // without the write-through the live manager's refresh row includes.
  // In bulk-build values it is the ratio of the refresh's per-value time
  // to the rebuild's.
  const TablePtr base = MakeWordTable(rows, distinct, "item_");
  const RefreshTimes serial =
      TimeRefresh(base, batch, models, IndexManagerOptions{}, key);
  QueryScheduler scheduler(2);
  auto pool = scheduler.Admit();
  IndexManagerOptions pooled_options;
  pooled_options.hnsw.build_pool = pool.get();
  const RefreshTimes pooled =
      TimeRefresh(base, batch, models, pooled_options, key);
  const std::size_t rebuilt_values = std::min(rows, distinct) + new_values;
  const double refresh_ms_per_value = 1e3 * serial.refresh_s / new_values;
  const double pooled_ms_per_value = 1e3 * pooled.refresh_s / new_values;
  const double cost_per_value =
      (serial.refresh_s / new_values) / (serial.rebuild_s / rebuilt_values);
  const double pooled_cost_per_value =
      (pooled.refresh_s / new_values) / (pooled.rebuild_s / rebuilt_values);

  const IndexManager::Stats live = manager.stats();
  const IndexManager::Stats warm_start = restarted.stats();
  std::printf("\n%-34s %12s\n", "lifecycle step", "seconds");
  std::printf("%-34s %12.4f\n", "cold build (+persist)", cold_s);
  std::printf("%-34s %12.4f\n", "warm hit", warm_s);
  std::printf("%-34s %12.4f\n", "incremental refresh after append",
              refresh_s);
  std::printf("%-34s %12.4f\n", "full rebuild of appended table",
              rebuild_s);
  std::printf("%-34s %12.4f\n", "disk load (restart warm start)", load_s);
  std::printf("%-34s %12.4f\n", "refresh, no persistence", serial.refresh_s);
  std::printf("%-34s %12.4f\n", "rebuild, no persistence", serial.rebuild_s);
  std::printf("%-34s %12.4f\n", "cold build, 2-thread pool",
              pooled.build_s);
  std::printf("%-34s %12.4f\n", "refresh, 2-thread pool", pooled.refresh_s);
  std::printf("%-34s %12.4f\n", "rebuild, 2-thread pool", pooled.rebuild_s);
  std::printf("%-34s %12.6f\n",
              ("catalog append, " + std::to_string(rows) + " rows").c_str(),
              append_base_s);
  std::printf("%-34s %12.6f\n",
              ("catalog append, " + std::to_string(4 * rows) + " rows").c_str(),
              append_4x_s);
  bool counts_hold =
      Expect(live.builds == 1 && live.refreshes == 1,
             "live manager must build once and refresh once");
  counts_hold &= Expect(warm_start.builds == 0 && warm_start.disk_loads == 1,
                        "restarted manager must load once and build nothing");
  std::printf("\nrefresh speedup vs rebuild: %.1fx (2-thread pool: %.1fx)\n",
              rebuild_s / refresh_s, pooled.rebuild_s / pooled.refresh_s);
  std::printf(
      "refresh per new value (%zu new): serial %.3f ms = %.1f bulk-build "
      "values, 2-thread pool %.3f ms = %.1f bulk-build values\n",
      new_values, refresh_ms_per_value, cost_per_value, pooled_ms_per_value,
      pooled_cost_per_value);
  std::printf("disk-load speedup vs rebuild: %.1fx\n", rebuild_s / load_s);
  std::printf(
      "manager: builds=%llu refreshes=%llu disk_writes=%llu | restarted "
      "manager: builds=%llu disk_loads=%llu\n",
      static_cast<unsigned long long>(live.builds),
      static_cast<unsigned long long>(live.refreshes),
      static_cast<unsigned long long>(live.disk_writes),
      static_cast<unsigned long long>(warm_start.builds),
      static_cast<unsigned long long>(warm_start.disk_loads));

  json->Add("lifecycle",
            {{"cold_build_s", cold_s},
             {"warm_hit_s", warm_s},
             {"refresh_s", refresh_s},
             {"rebuild_s", rebuild_s},
             {"disk_load_s", load_s},
             {"new_values", static_cast<double>(new_values)},
             {"serial_refresh_s", serial.refresh_s},
             {"serial_rebuild_s", serial.rebuild_s},
             {"refresh_ms_per_new_value", refresh_ms_per_value},
             {"refresh_cost_per_value", cost_per_value},
             {"pooled_build_s", pooled.build_s},
             {"pooled_refresh_s", pooled.refresh_s},
             {"pooled_rebuild_s", pooled.rebuild_s},
             {"pooled_refresh_ms_per_new_value", pooled_ms_per_value},
             {"pooled_refresh_cost_per_value", pooled_cost_per_value},
             {"refresh_speedup", rebuild_s / refresh_s},
             {"disk_load_speedup", rebuild_s / load_s},
             {"append_base_s", append_base_s},
             {"append_4x_base_s", append_4x_s},
             {"append_batch_rows", static_cast<double>(append_batch)},
             {"append_pct", static_cast<double>(append_pct)}});

  // ---- end-to-end restart through the engine ----
  {
    EngineOptions eo;
    eo.num_threads = 2;
    eo.index.persist_dir = dir;
    Engine engine(eo);
    engine.models().Put("m", std::make_shared<HashEmbeddingModel>(mo));
    engine.catalog().Put("products", catalog.Get("products").ValueOrDie());

    PlanPtr select = PlanNode::SemanticSelect(PlanNode::Scan("products"),
                                              "name", "item_7", "m", 0.98f);
    const std::string before = engine.Explain(select).ValueOrDie();
    const double first_query_s = TimeOnce(
        [&] { engine.Execute(select->Clone()).status().Check(); });
    const std::string after = engine.Explain(select).ValueOrDie();

    const bool on_disk = before.find("(on-disk)") != std::string::npos;
    const bool resident = after.find("(resident)") != std::string::npos;
    const IndexManager::Stats es = engine.index_manager()->stats();
    std::printf(
        "\nengine restart: first EXPLAIN %s, first select %.4fs "
        "(builds=%llu, disk loads=%llu), next EXPLAIN %s\n",
        on_disk ? "shows (on-disk)" : "MISSING (on-disk)", first_query_s,
        static_cast<unsigned long long>(es.builds),
        static_cast<unsigned long long>(es.disk_loads),
        resident ? "shows (resident)" : "MISSING (resident)");
    json->Add("engine_restart",
              {{"first_select_s", first_query_s},
               {"explain_on_disk", on_disk ? 1.0 : 0.0},
               {"explain_resident", resident ? 1.0 : 0.0},
               {"builds", static_cast<double>(es.builds)},
               {"disk_loads", static_cast<double>(es.disk_loads)}});
    counts_hold &= Expect(on_disk && resident && es.builds == 0,
                          "restarted engine must show (on-disk), then "
                          "(resident), with no build");
  }

  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
  return counts_hold;
}

}  // namespace
}  // namespace cre

int main(int argc, char** argv) {
  cre::bench::JsonReport json("fig_index_persistence",
                              cre::bench::JsonPathFromArgs(argc, argv));
  const bool counts_hold = cre::Run(&json);
  return json.Write() && counts_hold ? 0 : 1;
}
