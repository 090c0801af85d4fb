// Scale-up table for the four serial tails this engine eliminated:
//
//   sort   - ORDER BY over a large table: per-run local sorts + a
//            range-partitioned k-way loser-tree merge (exec/parallel_sort)
//   limit  - LIMIT over a filtered scan: morsel pipelines under a shared
//            atomic row budget with an exact prefix cutoff (exec/morsel)
//   agg    - high-cardinality GROUP BY: two-phase radix-partitioned
//            aggregation, per-partition parallel merges (exec/aggregate)
//   hnsw   - cold HNSW index construction: canonical batched inserts,
//            frozen-snapshot candidate searches in parallel
//            (vecsim/hnsw_index)
//
// Each workload runs at 1/2/4/8 worker threads and reports wall time and
// speedup vs the 1-thread run, plus the phase breakdown (local sort vs
// merge, accumulate vs merge) at the highest thread count, read from the
// EXPLAIN ANALYZE trace. The table prints on any machine; the speedups
// are only meaningful on a multi-core runner (single-core machines print
// ~1.0x). The bench exits nonzero when the trace carries no sort or no
// aggregate phase.
//
// The last section fits cost-model constants from the measurements:
// CostParams::parallel_fraction via Amdahl inversion of the observed
// speedups, the HNSW build constants from the measured per-row build
// cost, and the HNSW probe constant from range and top-10 probes of the
// serially built index. Fitted values are recorded next to the constants
// in optimizer/cost_model.h.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "core/rng.h"
#include "core/timer.h"
#include "embed/hash_embedding_model.h"
#include "engine/engine.h"
#include "engine/scheduler.h"
#include "exec/aggregate.h"
#include "optimizer/cost_model.h"
#include "plan/plan_node.h"
#include "vecsim/hnsw_index.h"

namespace cre {
namespace {

struct Workload {
  std::string name;
  // seconds[i] = wall time at thread_counts[i].
  std::vector<double> seconds;
};

TablePtr MakeRows(std::size_t n, std::size_t groups) {
  auto t = Table::Make(Schema({{"id", DataType::kInt64, 0},
                               {"key", DataType::kInt64, 0},
                               {"num", DataType::kFloat64, 0},
                               {"pay", DataType::kFloat64, 0}}));
  t->Reserve(n);
  Rng rng(2024);
  for (std::size_t i = 0; i < n; ++i) {
    t->column(0).AppendInt64(static_cast<std::int64_t>(i));
    t->column(1).AppendInt64(static_cast<std::int64_t>(rng.Uniform(groups)));
    t->column(2).AppendFloat64(static_cast<double>(rng.Uniform(1000000)));
    t->column(3).AppendFloat64(static_cast<double>(rng.Uniform(1000)));
  }
  return t;
}

/// Best-of-3 wall time of one engine execution (first run warms caches).
double TimeExecute(Engine* engine, const PlanPtr& plan) {
  double best = 1e300;
  for (int rep = 0; rep < 3; ++rep) {
    Timer t;
    auto result = engine->Execute(plan);
    result.ValueOrDie();
    best = std::min(best, t.Seconds());
  }
  return best;
}

/// Value of trace attribute `key` in an EXPLAIN ANALYZE rendering (its
/// spans print attributes as ` {key=value, ...}`), or "" when absent.
std::string TraceAttr(const std::string& explain, const std::string& key) {
  const std::size_t trace = explain.find("trace:\n");
  if (trace == std::string::npos) return "";
  for (const char* prefix : {"{", " "}) {
    const std::string needle = prefix + key + "=";
    const std::size_t pos = explain.find(needle, trace);
    if (pos == std::string::npos) continue;
    const std::size_t begin = pos + needle.size();
    return explain.substr(begin, explain.find_first_of(",}\n", begin) - begin);
  }
  return "";
}

void PrintTable(const std::vector<std::size_t>& threads,
                const std::vector<Workload>& workloads) {
  std::printf("\n%-28s", "workload \\ threads");
  for (const std::size_t t : threads) std::printf(" %8zu", t);
  std::printf("   %s\n", "speedup@max");
  for (const auto& w : workloads) {
    std::printf("%-28s", w.name.c_str());
    for (const double s : w.seconds) std::printf(" %8.4f", s);
    std::printf("   %8.2fx\n", w.seconds.front() / w.seconds.back());
  }
  std::printf("\n%-28s", "(speedup vs 1 thread)");
  for (std::size_t i = 0; i < threads.size(); ++i) std::printf(" %8s", "");
  std::printf("\n");
  for (const auto& w : workloads) {
    std::printf("%-28s", w.name.c_str());
    for (const double s : w.seconds) {
      std::printf(" %7.2fx", w.seconds.front() / s);
    }
    std::printf("\n");
  }
}

/// Returns false when the EXPLAIN ANALYZE trace lacks the sort or the
/// aggregate phase timings.
bool RunParallelTails(bench::JsonReport* json) {
  const std::size_t n_rows = bench::EnvSize("CRE_TAILS_ROWS", 200000);
  const std::size_t n_groups = bench::EnvSize("CRE_TAILS_GROUPS", 50000);
  const std::size_t n_vecs = bench::EnvSize("CRE_TAILS_VECS", 20000);
  const std::size_t dim = bench::EnvSize("CRE_TAILS_DIM", 64);
  const std::size_t limit_k = std::max<std::size_t>(1, n_rows / 100);

  bench::PrintHeader(
      "fig_parallel_tails - scale-up of the former serial tails\n"
      "rows=" + std::to_string(n_rows) + ", groups~" +
      std::to_string(n_groups) + ", hnsw vectors=" + std::to_string(n_vecs) +
      " (dim " + std::to_string(dim) + "), limit k=" +
      std::to_string(limit_k) + ", hardware threads=" +
      std::to_string(std::thread::hardware_concurrency()));

  TablePtr rows = MakeRows(n_rows, n_groups);

  // HNSW input: one embedding per distinct synthetic word.
  HashEmbeddingModel::Options mo;
  mo.dim = dim;
  HashEmbeddingModel model(mo);
  std::vector<float> matrix(n_vecs * dim);
  for (std::size_t i = 0; i < n_vecs; ++i) {
    model.Embed("entity_" + std::to_string(i), matrix.data() + i * dim);
  }

  PlanPtr sort_plan = PlanNode::Sort(PlanNode::Scan("rows"), "num", true);
  // ~1% of rows pass the filter, so the budget's prefix cutoff still has
  // to drive most morsels through the pool before it trips — the case a
  // serial LIMIT would run single-threaded.
  PlanPtr limit_plan = PlanNode::Limit(
      PlanNode::Filter(PlanNode::Scan("rows"), Gt(Col("pay"), Lit(990.0))),
      limit_k);
  PlanPtr agg_plan = PlanNode::Aggregate(
      PlanNode::Scan("rows"), {"key"},
      {{AggKind::kCount, "", "n"},
       {AggKind::kSum, "num", "total"},
       {AggKind::kMax, "pay", "top_pay"}});
  PlanPtr topk_plan = PlanNode::Limit(
      PlanNode::Sort(PlanNode::Scan("rows"), "num", false), 100);

  std::vector<std::size_t> thread_counts = {1, 2, 4, 8};
  std::vector<Workload> workloads = {{"ORDER BY (sort)", {}},
                                     {"LIMIT (row budget)", {}},
                                     {"GROUP BY high-card (agg)", {}},
                                     {"ORDER BY + LIMIT (top-k)", {}},
                                     {"cold HNSW build", {}}};

  std::unique_ptr<HnswIndex> probe_index;
  for (const std::size_t threads : thread_counts) {
    EngineOptions eo;
    eo.num_threads = threads;
    Engine engine(eo);
    engine.catalog().Put("rows", rows);
    workloads[0].seconds.push_back(TimeExecute(&engine, sort_plan));
    workloads[1].seconds.push_back(TimeExecute(&engine, limit_plan));
    workloads[2].seconds.push_back(TimeExecute(&engine, agg_plan));
    workloads[3].seconds.push_back(TimeExecute(&engine, topk_plan));

    QueryScheduler scheduler(threads);
    auto pool = scheduler.Admit();
    HnswOptions ho;
    if (threads > 1) ho.build_pool = pool.get();
    double best = 1e300;
    for (int rep = 0; rep < 2; ++rep) {
      auto index = std::make_unique<HnswIndex>(ho);
      Timer t;
      index->Build(matrix.data(), n_vecs, dim).Check();
      best = std::min(best, t.Seconds());
      // The serial build (no pool pointer to outlive) serves the probe fit.
      if (threads == 1) probe_index = std::move(index);
    }
    workloads[4].seconds.push_back(best);
  }

  PrintTable(thread_counts, workloads);

  for (const auto& w : workloads) {
    for (std::size_t i = 0; i < thread_counts.size(); ++i) {
      json->Add(w.name, {{"threads", static_cast<double>(thread_counts[i])},
                         {"seconds", w.seconds[i]},
                         {"speedup", w.seconds.front() / w.seconds[i]}});
    }
  }

  // ---- phase breakdown at the highest thread count ----
  bool phases_found = false;
  {
    EngineOptions eo;
    eo.num_threads = thread_counts.back();
    Engine engine(eo);
    engine.catalog().Put("rows", rows);
    const std::string sort = engine.ExplainAnalyze(sort_plan).ValueOrDie();
    const std::string limit = engine.ExplainAnalyze(limit_plan).ValueOrDie();
    const std::string agg = engine.ExplainAnalyze(agg_plan).ValueOrDie();
    std::printf("\n--- phase breakdown at %zu threads (EXPLAIN ANALYZE "
                "trace) ---\n",
                thread_counts.back());
    const std::string local_ms = TraceAttr(sort, "local_sort_ms");
    const std::string merge_ms = TraceAttr(sort, "merge_ms");
    const std::string acc_ms = TraceAttr(agg, "agg_accumulate_ms");
    const std::string agg_merge_ms = TraceAttr(agg, "agg_merge_ms");
    const std::string partitions = TraceAttr(agg, "agg_partitions");
    const std::string sort_runs =
        "sort: local sort (" + TraceAttr(sort, "runs") + " runs)";
    const std::string sort_merge =
        "sort: merge (" + TraceAttr(sort, "merge_partitions") + " partitions)";
    const std::string agg_acc =
        "aggregate [" + TraceAttr(agg, "agg_mode") +
        (partitions.empty() ? "" : ", " + partitions + " partitions") +
        "]: accumulate";
    std::printf("%-44s %10.3f ms\n", sort_runs.c_str(),
                std::atof(local_ms.c_str()));
    std::printf("%-44s %10.3f ms\n", sort_merge.c_str(),
                std::atof(merge_ms.c_str()));
    std::printf("%-44s %10.3f ms\n", agg_acc.c_str(),
                std::atof(acc_ms.c_str()));
    std::printf("%-44s %10.3f ms\n", "aggregate: merge",
                std::atof(agg_merge_ms.c_str()));
    std::printf("limit: %s/%s morsels run under the shared row budget\n",
                TraceAttr(limit, "morsels_run").c_str(),
                TraceAttr(limit, "morsels_total").c_str());
    phases_found = !local_ms.empty() && !merge_ms.empty() &&
                   !acc_ms.empty() && !agg_merge_ms.empty();
    if (!phases_found) {
      std::fprintf(stderr,
                   "fig_parallel_tails: EXPLAIN ANALYZE trace lacks the sort "
                   "or aggregate phases\n%s\n%s",
                   sort.c_str(), agg.c_str());
    }
  }

  // ---- fitted cost-model constants ----
  std::printf("\n--- fitted cost-model constants ---\n");
  const std::size_t hw = std::max(1u, std::thread::hardware_concurrency());
  // Amdahl inversion at p threads: T_p/T_1 = (1-f) + f/p.
  bool any_fit = false;
  double fit_sum = 0;
  int fit_count = 0;
  for (const auto& w : workloads) {
    for (std::size_t i = 1; i < thread_counts.size(); ++i) {
      const std::size_t p = thread_counts[i];
      if (p > hw) continue;  // oversubscribed points fit nothing
      const double ratio = w.seconds[i] / w.seconds[0];
      const double f = (1.0 - ratio) / (1.0 - 1.0 / static_cast<double>(p));
      if (f > 0.0 && f <= 1.0) {
        std::printf("parallel_fraction[%s @ %zu threads] = %.3f\n",
                    w.name.c_str(), p, f);
        any_fit = true;
        fit_sum += f;
        ++fit_count;
      }
    }
  }
  if (any_fit) {
    std::printf("parallel_fraction (mean over fits) = %.3f\n",
                fit_sum / fit_count);
  } else {
    std::printf(
        "parallel_fraction: not fittable on this machine (%zu hardware "
        "thread%s); needs a multi-core runner\n",
        static_cast<std::size_t>(hw), hw == 1 ? "" : "s");
  }
  // HNSW build constants: measured serial build cost per row =
  // ef_construction * expansion_factor * build_cost_multiplier * dim *
  // dot_per_dim (cost model's SemanticIndexBuildCost form). The
  // measurement alone only pins the product expansion * multiplier;
  // fix expansion from a probe measurement (or the current CostParams
  // value) and this prints the implied build multiplier.
  const double build_ns_per_row = workloads[4].seconds[0] * 1e9 /
                                  static_cast<double>(n_vecs);
  const double dot_ns = static_cast<double>(dim) * 0.35;
  const double fitted_product = build_ns_per_row / (128.0 * dot_ns);
  std::printf("hnsw build: %.0f ns/row serial -> fitted expansion_factor * "
              "build_cost_multiplier = %.2f (at ef_construction=128, "
              "dot_per_dim=0.35); at hnsw_expansion_factor=28 that implies "
              "hnsw_build_cost_multiplier = %.2f\n",
              build_ns_per_row, fitted_product, fitted_product / 28.0);

  // HNSW probe constants: a probe costs (descent + ef_search *
  // expansion_factor) dot products (SemanticIndexProbeCost), with
  // descent = M * log2(n). Probes are near-duplicates of indexed strings
  // ("entity_<i>x"), so range probes at kProbeThreshold have hits.
  constexpr float kProbeThreshold = 0.8f;
  const std::size_t n_probes = std::min<std::size_t>(n_vecs, 500);
  std::vector<float> probes(n_probes * dim);
  for (std::size_t i = 0; i < n_probes; ++i) {
    model.Embed("entity_" + std::to_string(i * (n_vecs / n_probes)) + "x",
                probes.data() + i * dim);
  }
  double range_s = 0, topk_s = 0;
  std::size_t range_hits = 0;
  std::vector<ScoredId> hits;
  for (std::size_t i = 0; i < n_probes; ++i) {
    hits.clear();
    Timer range_timer;
    probe_index->RangeSearch(probes.data() + i * dim, kProbeThreshold, &hits);
    range_s += range_timer.Seconds();
    range_hits += hits.size();
    Timer topk_timer;
    (void)probe_index->TopK(probes.data() + i * dim, 10);
    topk_s += topk_timer.Seconds();
  }
  // The probe index runs on HnswOptions defaults, which CostParams
  // mirrors.
  const CostParams cost;
  const double descent =
      cost.hnsw_m * std::log2(std::max(2.0, static_cast<double>(n_vecs)));
  auto implied_expansion = [&](double seconds) {
    const double dots = seconds * 1e9 / static_cast<double>(n_probes) / dot_ns;
    return (dots - descent) / cost.hnsw_ef_search;
  };
  std::printf("hnsw probe: range@%.2f %.1f us/probe (%.1f hits), top-10 "
              "%.1f us/probe -> implied hnsw_expansion_factor at "
              "ef_search=%.0f: range %.1f, top-10 %.1f\n",
              kProbeThreshold, range_s * 1e6 / static_cast<double>(n_probes),
              static_cast<double>(range_hits) / static_cast<double>(n_probes),
              topk_s * 1e6 / static_cast<double>(n_probes),
              cost.hnsw_ef_search, implied_expansion(range_s),
              implied_expansion(topk_s));
  json->Add("hnsw probe",
            {{"range_us", range_s * 1e6 / static_cast<double>(n_probes)},
             {"topk_us", topk_s * 1e6 / static_cast<double>(n_probes)},
             {"range_hits", static_cast<double>(range_hits) /
                                static_cast<double>(n_probes)}});
  return phases_found;
}

}  // namespace
}  // namespace cre

int main(int argc, char** argv) {
  cre::bench::JsonReport json("fig_parallel_tails",
                              cre::bench::JsonPathFromArgs(argc, argv));
  const bool phases_found = cre::RunParallelTails(&json);
  return json.Write() && phases_found ? 0 : 1;
}
