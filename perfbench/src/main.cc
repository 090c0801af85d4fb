// The benchmark's driver program: one process runs one workload.
//
//   perfbench_cre --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                 [--small] [--corrupt-op <i>] [--setup-reps <n>]
//                 [--out-dir <dir>]
//
// It computes reference answers, times the set-up (repeated; the median
// is reported), runs the closed loop for the given seconds, checks every
// answer, and prints as its last line one JSON object
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// holding the end-to-end metrics (--trace 0) or the per-layer metrics of
// a traced run (--trace 1). The line before it is the run record: host,
// configuration and the sample count behind each percentile.

#include <sys/stat.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "harness.h"

namespace perfbench {
namespace {

struct MetricDef {
  const char* name;
  const char* unit;
};

// End-to-end metrics (untraced runs), every workload.
constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"},           {"qps", "1/s"},
    {"latency_p50_ms", "ms"},   {"latency_p90_ms", "ms"},
    {"cpu_s_per_query", "s"},   {"peak_rss_mb", "MiB"},
    {"result_recall", "ratio"}, {"append_p50_ms", "ms"},
    {"fresh_read_p50_ms", "ms"},
};

// Per-layer metrics (traced runs). A metric of a layer the workload does
// not run reads 0.
constexpr MetricDef kPerLayer[] = {
    {"sql.parse_us", "us"},
    {"optimizer.optimize_ms", "ms"},
    {"optimizer.plan_cache_hit_ratio", "ratio"},
    {"optimizer.knob_refits", "count"},
    {"engine.execute_ms", "ms"},
    {"engine.queue_wait_ms", "ms"},
    {"engine.tasks_per_query", "count"},
    {"engine.unattributed_ms", "ms"},
    {"exec.filter_agg_ms", "ms"},
    {"exec.join_agg_ms", "ms"},
    {"exec.topk_ms", "ms"},
    {"exec.high_card_agg_ms", "ms"},
    {"core.governor_peak_mb", "MiB"},
    {"semantic.join_ms", "ms"},
    {"embed.us_per_string", "us"},
    {"embed.cache_hit_ratio", "ratio"},
    {"embed.strings_per_query", "count"},
    {"index.lookup_us", "us"},
    {"index.refresh_ms", "ms"},
    {"index.refreshes", "count"},
    {"index.builds", "count"},
    {"index.resident_mb", "MiB"},
    {"vecsim.range_search_us", "us"},
    {"vecsim.results_per_probe", "count"},
    {"vecsim.dot_batch_ns", "ns"},
    {"vision.images_per_query", "count"},
    {"vision.detect_us_per_image", "us"},
    {"storage.append_ms", "ms"},
    {"storage.rows_copied_per_appended_row", "ratio"},
    {"storage.snapshot_us", "us"},
    {"obs.trace_overhead_pct", "%"},
};

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload "
               "<motivating_query|relational_mix|semantic_serving|"
               "ingest_refresh> --seed <n> --seconds <s> --trace <0|1> "
               "[--small] [--corrupt-op <i>] [--setup-reps <n>] "
               "[--out-dir <dir>]\n",
               argv0);
  return 2;
}

bool ParseArgs(int argc, char** argv, Config* c) {
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto value = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    const char* v = nullptr;
    if (a == "--small") {
      c->small = true;
      continue;
    }
    if ((v = value()) == nullptr) return false;
    if (a == "--workload") {
      c->workload = v;
    } else if (a == "--seed") {
      c->seed = std::strtoull(v, nullptr, 10);
    } else if (a == "--seconds") {
      c->seconds = std::strtod(v, nullptr);
    } else if (a == "--trace") {
      c->trace = std::strcmp(v, "0") != 0;
    } else if (a == "--corrupt-op") {
      c->corrupt_op = std::strtoll(v, nullptr, 10);
    } else if (a == "--setup-reps") {
      c->setup_reps = std::max(1, std::atoi(v));
    } else if (a == "--out-dir") {
      c->out_dir = v;
    } else {
      return false;
    }
  }
  return !c->workload.empty() && c->seconds > 0;
}

std::unique_ptr<Workload> MakeWorkload(const Config& c) {
  if (c.workload == "motivating_query") return MakeMotivatingQuery(c);
  if (c.workload == "relational_mix") return MakeRelationalMix(c);
  if (c.workload == "semantic_serving") return MakeSemanticServing(c);
  if (c.workload == "ingest_refresh") return MakeIngestRefresh(c);
  return nullptr;
}

void MakeDirs(const std::string& path) {
  std::string prefix;
  for (std::size_t i = 0; i <= path.size(); ++i) {
    if (i == path.size() || path[i] == '/') {
      if (!prefix.empty()) mkdir(prefix.c_str(), 0755);
    }
    if (i < path.size()) prefix.push_back(path[i]);
  }
}

void PrintResult(bool correct, std::uint64_t attempted, std::uint64_t failed,
                 const MetricDef* defs, std::size_t n,
                 const std::map<std::string, double>& values) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  for (std::size_t i = 0; i < n; ++i) {
    auto it = values.find(defs[i].name);
    const double v = it == values.end() ? 0.0 : it->second;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", defs[i].name, v, defs[i].unit);
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

/// Counter- and span-derived per-layer metrics of a traced loop.
void CounterMetrics(const cre::MetricsSnapshot& before,
                    const cre::MetricsSnapshot& after, const LoopStats& loop,
                    std::map<std::string, double>* m) {
  auto delta = [&](const char* name) {
    return CounterTotal(after, name) - CounterTotal(before, name);
  };
  const double reads = static_cast<double>(std::max<std::uint64_t>(1, loop.reads));
  const double hits = delta("cre_plan_cache_hits_total");
  const double misses = delta("cre_plan_cache_misses_total");
  (*m)["optimizer.plan_cache_hit_ratio"] =
      hits + misses > 0 ? hits / (hits + misses) : 0;
  double wait0 = 0, n0 = 0, wait1 = 0, n1 = 0;
  HistogramTotals(before, "cre_query_queue_wait_seconds", &wait0, &n0);
  HistogramTotals(after, "cre_query_queue_wait_seconds", &wait1, &n1);
  (*m)["engine.queue_wait_ms"] = n1 > n0 ? (wait1 - wait0) / (n1 - n0) * 1e3 : 0;
  (*m)["engine.tasks_per_query"] = delta("cre_tasks_dispatched_total") / reads;
  const double ehits = delta("cre_embed_cache_hits_total");
  const double emisses = delta("cre_embed_cache_misses_total");
  (*m)["embed.cache_hit_ratio"] =
      ehits + emisses > 0 ? ehits / (ehits + emisses) : 0;
  (*m)["embed.strings_per_query"] = emisses / reads;
  (*m)["index.refreshes"] = delta("cre_index_refreshes_total");
  (*m)["index.builds"] = delta("cre_index_builds_total");
  (*m)["index.resident_mb"] =
      GaugeTotal(after, "cre_index_resident_bytes") / (1024.0 * 1024.0);
  (*m)["core.governor_peak_mb"] =
      GaugeTotal(after, "cre_governor_peak_bytes") / (1024.0 * 1024.0);
}

double SnapshotUs(cre::Engine* engine) {
  std::vector<double> us;
  for (int i = 0; i < 1000; ++i) {
    const std::int64_t t0 = NowNs();
    auto snapshot = engine->catalog().Snapshot();
    us.push_back(ElapsedMs(t0) * 1e3);
  }
  return Median(us);
}

int Run(const Config& config) {
  std::unique_ptr<Workload> w = MakeWorkload(config);
  if (w == nullptr) {
    std::fprintf(stderr, "unknown workload '%s'\n", config.workload.c_str());
    return 2;
  }
  w->corrupt_op = config.corrupt_op;
  cre::Status st = w->PrepareReferences();
  if (!st.ok()) {
    std::fprintf(stderr, "reference answers failed: %s\n", st.ToString().c_str());
    return 1;
  }

  // Set-up, repeated; each repetition replaces the previous engine.
  std::vector<double> setup_s;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  const int reps = config.trace ? 1 : config.setup_reps;
  for (int r = 0; r < reps; ++r) {
    if (r > 0) w->Teardown();
    const std::int64_t t0 = NowNs();
    st = w->Setup();
    if (!st.ok()) {
      std::fprintf(stderr, "set-up failed: %s\n", st.ToString().c_str());
      return 1;
    }
    const LoopStats warm = RunLoop(w.get(), Phase::kWarmup, 0, 0, w->warmup_ops(), nullptr);
    setup_s.push_back(static_cast<double>(NowNs() - t0) * 1e-9);
    attempted += warm.ops;
    failed += warm.failed;
  }

  cre::Engine* engine = w->engine();
  const std::uint64_t cap = w->max_cycles() * w->cycle();
  std::map<std::string, double> m;
  std::string samples;
  bool correct = true;

  if (!config.trace) {
    const cre::MetricsSnapshot before = engine->metrics()->Snapshot();
    const LoopStats timed = RunLoop(w.get(), Phase::kTimed, 0, config.seconds, cap, nullptr);
    const cre::MetricsSnapshot after = engine->metrics()->Snapshot();
    const double rss = PeakRssMb();
    LoopStats probe;
    if (!w->writes_when_timed()) {
      for (std::size_t i = 0; i < kWriteProbes; ++i) {
        probe.Add(w->ProbeAppend(i, nullptr));
        probe.Add(w->ProbeRead(i, nullptr));
      }
    }
    const LoopStats& writes = w->writes_when_timed() ? timed : probe;
    attempted += timed.ops + probe.ops;
    failed += timed.failed + probe.failed;
    const double checked = static_cast<double>(timed.checked + probe.checked);
    const double recall =
        checked > 0 ? (timed.recall_sum + probe.recall_sum) / checked : 0;
    const double reads = static_cast<double>(std::max<std::uint64_t>(1, timed.reads));
    m["setup_s"] = Median(setup_s);
    m["qps"] = static_cast<double>(timed.reads) / timed.wall_s;
    m["latency_p50_ms"] = Percentile(timed.read_ms, 0.5);
    m["latency_p90_ms"] = Percentile(timed.read_ms, 0.9);
    m["cpu_s_per_query"] = timed.cpu_s / reads;
    m["peak_rss_mb"] = rss;
    m["result_recall"] = recall;
    m["append_p50_ms"] = Median(writes.append_ms);
    m["fresh_read_p50_ms"] = Median(writes.fresh_ms);
    correct = failed == 0 && recall >= w->recall_floor();
    if (timed.reads < 100) {
      std::fprintf(stderr, "warning: only %llu timed reads (< 100)\n",
                   static_cast<unsigned long long>(timed.reads));
    }
    samples = "\"timed_reads\":" + std::to_string(timed.reads) +
              ",\"timed_wall_s\":" + std::to_string(timed.wall_s) +
              ",\"appends\":" + std::to_string(writes.append_ms.size()) +
              ",\"fresh_reads\":" + std::to_string(writes.fresh_ms.size()) +
              ",\"checked_reads\":" + std::to_string(timed.checked + probe.checked) +
              ",\"knob_refits_timed\":" +
              std::to_string(CounterTotal(after, "cre_knob_refits_total") -
                             CounterTotal(before, "cre_knob_refits_total")) +
              ",\"morsel_rows\":" +
              std::to_string(GaugeTotal(after, "cre_scheduler_morsel_rows")) +
              ",\"radix_agg_min_groups\":" +
              std::to_string(GaugeTotal(after, "cre_knob_radix_agg_min_groups")) +
              ",\"index_reuse_horizon\":" +
              std::to_string(GaugeTotal(after, "cre_knob_index_reuse_horizon")) +
              ",\"latency_ms_deciles\":[";
    for (int d = 1; d <= 9; ++d) {
      samples += (d > 1 ? "," : "") + std::to_string(Percentile(timed.read_ms, d / 10.0));
    }
    samples += "],\"setup_s_each\":[";
    for (std::size_t i = 0; i < setup_s.size(); ++i) {
      samples += (i ? "," : "") + std::to_string(setup_s[i]);
    }
    samples += "]";
  } else {
    // Untraced then traced halves of the same seeded loop; the qps ratio
    // is the tracing overhead.
    const double half = config.seconds / 2;
    const cre::MetricsSnapshot s0 = engine->metrics()->Snapshot();
    const LoopStats plain = RunLoop(w.get(), Phase::kTimed, 0, half, cap / 2, nullptr);
    std::vector<SpanLog> logs;
    const cre::MetricsSnapshot s1 = engine->metrics()->Snapshot();
    w->MarkLoopStart();
    const LoopStats traced =
        RunLoop(w.get(), Phase::kTimed, plain.next_op, half, cap / 2, &logs);
    const cre::MetricsSnapshot s2 = engine->metrics()->Snapshot();
    attempted += plain.ops + traced.ops;
    failed += plain.failed + traced.failed;

    CounterMetrics(s1, s2, traced, &m);
    m["optimizer.knob_refits"] = CounterTotal(s2, "cre_knob_refits_total") -
                                 CounterTotal(s0, "cre_knob_refits_total");
    m["sql.parse_us"] = Median(SpanDurationsMs(logs, "parse")) * 1e3;
    m["engine.execute_ms"] = Median(SpanDurationsMs(logs, "execute", true));
    m["storage.append_ms"] = Median(SpanDurationsMs(logs, "append"));
    m["index.refresh_ms"] = Median(SpanDurationsMs(logs, "refresh"));
    m["storage.snapshot_us"] = SnapshotUs(engine);
    const double plain_qps = static_cast<double>(plain.reads) / plain.wall_s;
    const double traced_qps = static_cast<double>(traced.reads) / traced.wall_s;
    m["obs.trace_overhead_pct"] =
        traced_qps > 0 ? (plain_qps / traced_qps - 1.0) * 100.0 : 0;
    w->LayerProbes(traced, logs, &m);
    const double checked = static_cast<double>(plain.checked + traced.checked);
    const double recall =
        checked > 0 ? (plain.recall_sum + traced.recall_sum) / checked : 0;
    correct = failed == 0 && recall >= w->recall_floor();

    MakeDirs(config.out_dir);
    const std::string span_path = config.out_dir + "/spans-" + config.workload +
                                  "-seed" + std::to_string(config.seed) + ".json";
    WriteSpans(span_path, logs);
    samples = "\"traced_reads\":" + std::to_string(traced.reads) +
              ",\"untraced_reads\":" + std::to_string(plain.reads) +
              ",\"spans\":\"" + span_path + "\"";
  }

  const std::string record = "{\"run\":" + HostRecordJson(config, *w) +
                             ",\"samples\":{" + samples + "}}";
  MakeDirs(config.out_dir);
  std::ofstream(config.out_dir + "/run-" + config.workload + "-seed" +
                std::to_string(config.seed) + "-trace" +
                (config.trace ? "1" : "0") + ".json")
      << record << '\n';
  std::printf("%s\n", record.c_str());
  if (config.trace) {
    PrintResult(correct, attempted, failed, kPerLayer,
                sizeof(kPerLayer) / sizeof(kPerLayer[0]), m);
  } else {
    PrintResult(correct, attempted, failed, kEndToEnd,
                sizeof(kEndToEnd) / sizeof(kEndToEnd[0]), m);
  }
  w->Teardown();
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Config config;
  if (!perfbench::ParseArgs(argc, argv, &config)) return perfbench::Usage(argv[0]);
  return perfbench::Run(config);
}
