// Concurrent serving throughput/latency figure: QPS and p50/p99 latency
// for 1/2/4/8 concurrent clients hammering one engine with a mixed
// semantic + relational workload through the QueryScheduler.
//
// Three sections:
//   relational  - filter+aggregate / hash join / top-k sort mix (no
//                 semantic work): pure scheduler fairness + morsel
//                 multiplexing.
//   sem-cold    - index-backed semantic selects against a freshly
//                 cleared IndexManager with async builds ON: the first
//                 queries are served by the brute-force fallback while
//                 HNSW builds run at background priority (the cold cost
//                 is hidden from the latency distribution).
//   sem-warm    - the same selects after WaitForBuilds(): every query
//                 probes the resident index.
//
// Per client count each section reports wall time, QPS, and p50/p99
// per-query latency. On a single-core runner the QPS plateau is flat;
// the interesting signals there are p99 (fair round-robin keeps it
// bounded as clients double) and cold ~= warm p50 (background builds
// never block a query). CI uploads the table as an artifact next to the
// other figures.
//
// Scaling knobs: CRE_CONC_ROWS (base table rows), CRE_CONC_QUERIES
// (queries per client).
//
// Observability hooks:
//   --metrics-out <path>        write the engine's metrics snapshot
//                               (Prometheus text format) after the run;
//   --assert-overhead-pct <x>   measure the telemetry overhead on the
//                               relational mix (obs off vs obs on, paired
//                               back-to-back runs on one engine) and exit
//                               nonzero when the median pair spends more
//                               than x percent more CPU time with obs on —
//                               the CI gate for "telemetry is effectively
//                               free";
//   --json <path>               (existing) additionally embeds the full
//                               cre_* metrics snapshot as engine_metrics.

#include <algorithm>
#include <chrono>
#include <ctime>
#include <condition_variable>
#include <cstdio>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "core/rng.h"
#include "datagen/vocabulary.h"
#include "embed/structured_model.h"
#include "engine/engine.h"
#include "plan/plan_node.h"

namespace cre {
namespace {

using Clock = std::chrono::steady_clock;

double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t i = std::min(
      v.size() - 1, static_cast<std::size_t>(p * static_cast<double>(v.size())));
  return v[i];
}

struct RunResult {
  double wall_seconds = 0;
  double qps = 0;
  double p50_ms = 0;
  double p99_ms = 0;
};

/// `clients` threads each run `queries_per_client` queries round-robin
/// over `plans`, all released together; per-query latencies pool across
/// clients.
RunResult RunClients(Engine* engine, const std::vector<PlanPtr>& plans,
                     std::size_t clients, std::size_t queries_per_client) {
  std::vector<std::vector<double>> latencies(clients);
  std::mutex mu;
  std::condition_variable cv;
  bool go = false;

  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      {
        std::unique_lock<std::mutex> lock(mu);
        cv.wait(lock, [&] { return go; });
      }
      latencies[c].reserve(queries_per_client);
      for (std::size_t q = 0; q < queries_per_client; ++q) {
        const PlanPtr& plan = plans[(q + c) % plans.size()];
        const Clock::time_point start = Clock::now();
        auto r = engine->Execute(plan);
        r.status().Check();
        latencies[c].push_back(
            std::chrono::duration<double>(Clock::now() - start).count());
      }
    });
  }
  const Clock::time_point wall_start = Clock::now();
  {
    std::lock_guard<std::mutex> lock(mu);
    go = true;
  }
  cv.notify_all();
  for (auto& t : threads) t.join();
  const double wall =
      std::chrono::duration<double>(Clock::now() - wall_start).count();

  std::vector<double> all;
  for (const auto& per_client : latencies) {
    all.insert(all.end(), per_client.begin(), per_client.end());
  }
  RunResult out;
  out.wall_seconds = wall;
  out.qps = static_cast<double>(all.size()) / wall;
  out.p50_ms = Percentile(all, 0.50) * 1e3;
  out.p99_ms = Percentile(all, 0.99) * 1e3;
  return out;
}

std::string StringFlag(int argc, char** argv, const std::string& flag) {
  for (int i = 1; i + 1 < argc; ++i) {
    if (argv[i] == flag) return argv[i + 1];
  }
  return "";
}

TablePtr MakeTable(const std::vector<std::string>& words, std::size_t n) {
  auto t = Table::Make(Schema({{"id", DataType::kInt64, 0},
                               {"word", DataType::kString, 0},
                               {"num", DataType::kFloat64, 0},
                               {"flag", DataType::kInt64, 0}}));
  t->Reserve(n);
  Rng rng(7);
  for (std::size_t i = 0; i < n; ++i) {
    t->column(0).AppendInt64(static_cast<std::int64_t>(rng.Uniform(1000)));
    t->column(1).AppendString(words[rng.Uniform(words.size())]);
    t->column(2).AppendFloat64(static_cast<double>(rng.Uniform(100000)));
    t->column(3).AppendInt64(static_cast<std::int64_t>(rng.Uniform(16)));
  }
  return t;
}

}  // namespace
}  // namespace cre

int main(int argc, char** argv) {
  using namespace cre;
  bench::JsonReport json("fig_concurrent_throughput",
                         bench::JsonPathFromArgs(argc, argv));
  const std::size_t rows = bench::EnvSize("CRE_CONC_ROWS", 40000);
  const std::size_t queries = bench::EnvSize("CRE_CONC_QUERIES", 24);
  const std::vector<std::size_t> client_counts = {1, 2, 4, 8};

  VocabularyOptions vo;
  vo.num_groups = 24;
  vo.words_per_group = 4;
  vo.num_singletons = 40;
  vo.seed = 99;
  auto groups = GenerateVocabulary(vo);
  SynonymStructuredModel::Options mo;
  mo.subword_noise = false;
  auto model = std::make_shared<SynonymStructuredModel>(groups, mo);
  auto words = AllWords(groups);

  EngineOptions eo;
  eo.num_threads = 0;  // hardware concurrency
  eo.index.async_builds = true;
  Engine engine(eo);
  const TablePtr items = MakeTable(words, rows);
  const TablePtr dims = MakeTable(words, rows / 20);
  engine.catalog().Put("items", items);
  engine.catalog().Put("dims", dims);
  engine.models().Put("m", model);

  // Relational mix.
  std::vector<PlanPtr> relational;
  relational.push_back(PlanNode::Aggregate(
      PlanNode::Filter(PlanNode::Scan("items"), Gt(Col("num"), Lit(50000.0))),
      {"flag"},
      {{AggKind::kCount, "", "n"}, {AggKind::kSum, "num", "total"}}));
  relational.push_back(PlanNode::Join(PlanNode::Scan("items"),
                                      PlanNode::Scan("dims"), "id", "id"));
  relational.push_back(PlanNode::Limit(
      PlanNode::Sort(PlanNode::Scan("items"), "num", false), 100));

  // Index-backed semantic selects over distinct query words: cold they
  // fall back to the (exact) scan while HNSW builds in background; warm
  // they probe the resident index.
  std::vector<PlanPtr> semantic;
  for (int i = 0; i < 4; ++i) {
    PlanPtr s = PlanNode::SemanticSelect(PlanNode::Scan("items"), "word",
                                         words[static_cast<std::size_t>(i) *
                                               5 % words.size()],
                                         "m", 0.85f);
    s->strategy = SemanticJoinStrategy::kHnsw;
    s->strategy_pinned = true;
    semantic.push_back(std::move(s));
  }

  bench::PrintHeader(
      "fig_concurrent_throughput: QPS + latency vs concurrent clients\n"
      "engine dop=" +
      std::to_string(engine.pool()->num_threads()) + ", rows=" +
      std::to_string(rows) + ", queries/client=" + std::to_string(queries));

  std::printf("%-10s %8s %10s %10s %12s %12s\n", "workload", "clients",
              "wall [s]", "QPS", "p50 [ms]", "p99 [ms]");
  auto report = [&](const char* section, std::size_t clients,
                    const RunResult& r) {
    std::printf("%-10s %8zu %10.3f %10.1f %12.3f %12.3f\n", section, clients,
                r.wall_seconds, r.qps, r.p50_ms, r.p99_ms);
    json.Add(section, {{"clients", static_cast<double>(clients)},
                       {"wall_seconds", r.wall_seconds},
                       {"qps", r.qps},
                       {"p50_ms", r.p50_ms},
                       {"p99_ms", r.p99_ms}});
  };
  for (const std::size_t clients : client_counts) {
    // Fresh engine state between client counts is not needed for the
    // relational mix; for semantics, cold runs clear the manager first.
    report("relational", clients,
           RunClients(&engine, relational, clients, queries));

    engine.index_manager()->Clear();
    report("sem-cold", clients,
           RunClients(&engine, semantic, clients, queries));

    engine.index_manager()->WaitForBuilds();
    report("sem-warm", clients,
           RunClients(&engine, semantic, clients, queries));
  }

  const IndexManager::Stats istats = engine.index_manager()->stats();
  std::printf(
      "\nindex manager: %llu background builds, %llu async fallbacks, "
      "%llu hits\n",
      static_cast<unsigned long long>(istats.background_builds),
      static_cast<unsigned long long>(istats.async_fallbacks),
      static_cast<unsigned long long>(istats.hits));
  std::printf(
      "(single-core runners: QPS stays flat with clients; the signals are\n"
      " bounded p99 under fair round-robin and cold p50 ~= warm p50 —\n"
      " background builds keep cold-index latency off the query path.)\n");

  // The full cre_* namespace accumulated over the run rides along in the
  // JSON artifact, and --metrics-out exports it as Prometheus text.
  const MetricsSnapshot snap = engine.metrics()->Snapshot();
  json.SetEngineMetrics(snap.ToJson());
  const std::string metrics_out = StringFlag(argc, argv, "--metrics-out");
  if (!metrics_out.empty()) {
    std::FILE* f = std::fopen(metrics_out.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot write metrics to %s\n", metrics_out.c_str());
      return 1;
    }
    const std::string text = snap.ToPrometheusText();
    std::fwrite(text.data(), 1, text.size(), f);
    std::fclose(f);
    std::printf("wrote metrics snapshot to %s\n", metrics_out.c_str());
  }

  // Telemetry overhead gate: observability fully off vs the defaults
  // (metrics on, every query traced), on one engine so that both sides
  // share its thread pool, allocations and plan cache — separate engines
  // differ in speed by more than the budget. The engine samples every
  // second query for tracing, and metrics are switched on for exactly
  // those queries, so the two sides alternate run by run. Each query of
  // the relational mix runs back to back on both sides many times, and
  // the gate takes the median of the pairs' ratios of process CPU time.
  // Telemetry costs CPU work; wall time also counts the time a shared
  // runner's other tenants hold the cores. Both runs of a pair see the
  // same machine, and the median ignores the pairs a burst split. On a
  // shared 4-vCPU VM single pairs spread by about +-7% in CPU time (and
  // +-20% in wall time), and the median of 600 pairs stayed within 1%.
  const std::string overhead_flag =
      StringFlag(argc, argv, "--assert-overhead-pct");
  if (!overhead_flag.empty()) {
    const double budget_pct = std::strtod(overhead_flag.c_str(), nullptr);
    EngineOptions opts;
    opts.num_threads = 0;
    opts.obs.trace_sample_every = 2;  // query ids 1, 3, 5, ...
    opts.obs.slow_query_seconds = 0;  // latency only, no log IO skew
    Engine gate(opts);
    gate.catalog().Put("items", items);
    gate.catalog().Put("dims", dims);
    gate.models().Put("m", model);
    std::uint64_t next_id = 1, traced_runs = 0;
    auto run = [&](const PlanPtr& plan, bool obs_on) {
      gate.metrics()->set_enabled(obs_on);
      const std::clock_t start = std::clock();
      gate.Execute(plan).status().Check();
      ++next_id;
      return static_cast<double>(std::clock() - start);
    };
    const PlanPtr filler = PlanNode::Limit(PlanNode::Scan("dims"), 1);
    constexpr int kRounds = 200;
    std::vector<double> on_over_off;
    for (int round = 0; round < kRounds; ++round) {
      for (std::size_t q = 0; q < relational.size(); ++q) {
        // Each side runs first in half the pairs: the second run of a
        // pair finds the query's data warm. An untimed filler query
        // realigns the traced ids when the pair starts with obs off.
        const bool on_first = (round + q) % 2 == 0;
        if ((next_id % 2 == 1) != on_first) run(filler, false);
        double cpu[2] = {0, 0};  // [obs_on]
        for (const bool obs_on : {on_first, !on_first}) {
          cpu[obs_on] = run(relational[q], obs_on);
          traced_runs += obs_on ? 1 : 0;
        }
        if (cpu[0] > 0) on_over_off.push_back(cpu[1] / cpu[0]);
      }
    }
    gate.metrics()->set_enabled(true);
    // Every traced query ran with metrics on, or the sides were crossed.
    std::uint64_t sampled = 0;
    for (const auto& c : gate.metrics()->Snapshot().counters) {
      if (c.name == "cre_traces_sampled_total") sampled += c.value;
    }
    if (sampled != traced_runs) {
      std::fprintf(stderr,
                   "FAIL: %llu traced queries ran with metrics on, expected "
                   "%llu\n",
                   static_cast<unsigned long long>(sampled),
                   static_cast<unsigned long long>(traced_runs));
      return 1;
    }
    const std::size_t pairs = on_over_off.size();
    if (pairs == 0) {
      std::fprintf(stderr, "FAIL: no paired run measured any CPU time\n");
      return 1;
    }
    std::sort(on_over_off.begin(), on_over_off.end());
    auto pct_at = [&](std::size_t i) {
      return (on_over_off[i] - 1.0) * 100.0;
    };
    const double overhead_pct = pct_at(pairs / 2);
    std::printf(
        "\ntelemetry overhead: median of %zu paired runs' CPU time %.2f%% "
        "(quartiles %.2f%%, %.2f%%; budget %.2f%%)\n",
        pairs, overhead_pct, pct_at(pairs / 4), pct_at(pairs * 3 / 4),
        budget_pct);
    json.Add("overhead", {{"pairs", static_cast<double>(pairs)},
                          {"overhead_pct", overhead_pct}});
    if (overhead_pct > budget_pct) {
      std::fprintf(stderr,
                   "FAIL: telemetry overhead %.2f%% exceeds budget %.2f%%\n",
                   overhead_pct, budget_pct);
      json.Write();
      return 1;
    }
  }
  return json.Write() ? 0 : 1;
}
