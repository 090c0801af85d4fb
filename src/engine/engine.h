#ifndef CRE_ENGINE_ENGINE_H_
#define CRE_ENGINE_ENGINE_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/resource_governor.h"
#include "embed/model_registry.h"
#include "engine/query_context.h"
#include "engine/scheduler.h"
#include "exec/operator.h"
#include "exec/stats.h"
#include "index/index_manager.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "optimizer/optimizer.h"
#include "optimizer/plan_cache.h"
#include "plan/plan_node.h"
#include "semantic/semantic_select.h"
#include "storage/catalog.h"
#include "vision/detection_scan.h"

namespace cre {

/// Telemetry knobs (src/obs): the metrics registry, per-query trace
/// sampling, and the slow-query log.
struct ObsOptions {
  /// Master switch for the metrics registry. Disabled, every instrument
  /// update is a relaxed load + branch and snapshots are empty.
  bool metrics_enabled = true;
  /// Trace every Nth admitted query (1 = trace all, 0 = tracing off).
  /// Untraced queries carry a null QueryTrace* — every span site is a
  /// branch.
  std::uint64_t trace_sample_every = 1;
  /// Finished traces retained in the in-memory ring (Engine::traces()).
  std::size_t trace_ring_capacity = 64;
  /// Queries slower than this emit a structured `event=slow_query` log
  /// line (with the compact trace when sampled). 0 disables.
  double slow_query_seconds = 1.0;
};

/// See EngineOptions::tuning.
struct TuningOptions {
  bool enabled = false;
};

/// Top-level engine options.
struct EngineOptions {
  OptimizerOptions optimizer;
  /// Worker threads for parallel operators (0 = hardware concurrency,
  /// 1 = single-threaded).
  std::size_t num_threads = 0;
  /// Rows per morsel for the parallel pipeline driver.
  std::size_t morsel_rows = 8 * 1024;
  /// Persistent vector-index subsystem: cache/eviction budget, build
  /// parameters, and async (background) build policy for managed indexes
  /// shared across queries.
  IndexManagerOptions index;
  /// Engine telemetry: metrics registry, tracing, slow-query log.
  ObsOptions obs;
  /// Default per-query deadline, seconds from admission, applied when
  /// QueryOptions::timeout_seconds is 0. 0 = queries run unbounded.
  double default_query_timeout_seconds = 0;
  /// Tracked-memory ceilings (engine-wide and default per-query) enforced
  /// by the resource governor at the big allocation points: hash-join
  /// builds, sort runs, aggregation state, index-build embed matrices,
  /// query embed batches. Breach unwinds with kResourceExhausted through
  /// the normal Status path — never std::bad_alloc.
  ResourceGovernorOptions governor;
  /// Bounded admission: cap on concurrently active user queries, with
  /// per-priority-class load shedding (see AdmissionOptions).
  AdmissionOptions admission;
  /// Parameterized plan cache: repeat plan shapes skip the optimizer and
  /// bind their literals into the cached optimized plan by parameter slot
  /// (stamp- and residency-validated at every lookup).
  PlanCacheOptions plan_cache;
  /// Inert: nothing reads it. The engine runs on the configured
  /// morsel_rows, optimizer.radix_agg_min_groups and
  /// optimizer.index_reuse_horizon. It stays only because the benchmark
  /// harness (perfbench/src/harness.cc) still assigns
  /// `tuning.enabled = false`; the next benchmark change deletes that
  /// line, and then this field and TuningOptions.
  TuningOptions tuning;
};

/// The context-rich analytical engine: a catalog of relational tables, a
/// registry of representation models, detector bindings for image stores,
/// a holistic optimizer over all of them, and a morsel-driven parallel
/// executor behind a concurrent serving layer. Users state what to
/// compute (a logical plan, usually via QueryBuilder) and the engine
/// decides how — including how to spread it across cores and how to
/// multiplex it against concurrently admitted queries.
///
/// Serving architecture: Execute (and friends) are re-entrant and
/// thread-safe. Each call admits a QueryContext — a pinned catalog
/// snapshot plus a QueryScheduler group — then optimizes, lowers, and
/// drives the plan entirely against that context. Concurrent queries
/// interleave their morsel tasks fairly on the scheduler's workers
/// (round-robin within a priority class, strict across classes) and produce
/// byte-identical results to running them serially; background index
/// builds run at the lowest priority and never block a query.
class Engine {
 public:
  Engine();
  explicit Engine(EngineOptions options);
  ~Engine();

  Catalog& catalog() { return catalog_; }
  const Catalog& catalog() const { return catalog_; }
  ModelRegistry& models() { return models_; }
  const ModelRegistry& models() const { return models_; }
  DetectorRegistry& detectors() { return detectors_; }
  const DetectorRegistry& detectors() const { return detectors_; }

  /// The fair multi-query task scheduler and worker pool every admitted
  /// query and background index job runs on.
  QueryScheduler* scheduler() { return scheduler_.get(); }
  /// The engine's persistent vector-index subsystem (never null; its use
  /// is gated by options().index.enabled).
  IndexManager* index_manager() { return index_manager_.get(); }
  const IndexManager* index_manager() const { return index_manager_.get(); }

  /// Engine-wide memory accountant (never null; limits of 0 = unlimited).
  ResourceGovernor* governor() { return governor_.get(); }
  const ResourceGovernor* governor() const { return governor_.get(); }
  /// Deadline enforcement thread (never null; idle until a query with a
  /// timeout is admitted).
  DeadlineReaper* reaper() { return reaper_.get(); }
  const DeadlineReaper* reaper() const { return reaper_.get(); }

  /// The engine-wide metrics registry (never null). Snapshot() exports
  /// the unified namespace — engine-owned latency histograms and query
  /// counters plus collector-pulled scheduler / index-manager / governor
  /// / plan-cache / embed-cache state — as JSON or Prometheus text.
  MetricsRegistry* metrics() { return metrics_.get(); }
  const MetricsRegistry* metrics() const { return metrics_.get(); }
  /// Ring of recently finished query traces (sampled per ObsOptions).
  TraceRing* traces() { return traces_.get(); }

  /// The parameterized plan cache (never null; gated by
  /// options().plan_cache.enabled).
  PlanCache* plan_cache() { return plan_cache_.get(); }
  const PlanCache* plan_cache() const { return plan_cache_.get(); }

  /// Mid-query index adoptions: fallback scans that swapped their
  /// remaining morsels onto a freshly completed background index build.
  void RecordIndexAdoption() {
    index_adoptions_.fetch_add(1, std::memory_order_relaxed);
  }
  std::uint64_t index_adoptions() const {
    return index_adoptions_.load(std::memory_order_relaxed);
  }

  const EngineOptions& options() const { return options_; }
  void set_optimizer_options(const OptimizerOptions& o) {
    options_.optimizer = o;
  }

  /// Optimizes and executes a logical plan through the morsel-driven
  /// driver at the scheduler's degree of parallelism (at dop 1 every
  /// pipeline runs on the calling thread). `query` carries the per-call
  /// admission knobs: priority class, deadline, memory budget and an
  /// optional cooperative cancellation handle. Safe to call from many
  /// threads at once; each call is admitted as an independent query.
  Result<TablePtr> Execute(const PlanPtr& plan, const QueryOptions& query = {});

  /// Executes the plan exactly as written (the "analyst's hand-rolled
  /// pipeline") — the baseline side of E3/E8. Uses the same parallel
  /// driver as Execute, just without the optimizer pass.
  Result<TablePtr> ExecuteUnoptimized(const PlanPtr& plan,
                                      const QueryOptions& query = {});

  /// Optimized plan rendering with cardinality and cost annotations,
  /// pipeline routing, and the serving-layer state (scheduler load,
  /// background builds) the query would be admitted into.
  Result<std::string> Explain(const PlanPtr& plan);

  /// EXPLAIN ANALYZE: optimizes and *executes* the plan on Execute's
  /// tracked path (always traced, always instrumented), then renders the
  /// plan tree annotated with measured per-node wall time, rows, batches,
  /// and dop — plus scheduling waits, managed-index residency transitions
  /// observed across the execution, the pipeline routing, and the
  /// query's span tree, whose breaker spans carry the phase breakdowns
  /// (sort runs and merge, aggregation accumulate and merge, LIMIT
  /// budget).
  Result<std::string> ExplainAnalyze(const PlanPtr& plan,
                                     const QueryOptions& query = {});

  /// Constructs the physical operator for `node` over already-lowered
  /// children (for leaves pass an empty vector), against `ctx`'s pinned
  /// snapshot. The parallel driver calls it for the kinds it does not run
  /// itself: DetectScan, Filter, Project, SemanticJoin and
  /// SemanticGroupBy, with materialized tables substituted for children.
  /// Any other kind returns kInternal. Operators may capture ctx's task
  /// runner; the context must outlive the returned operator.
  Result<OperatorPtr> LowerNodeOver(QueryContext* ctx, const PlanNode& node,
                                    std::vector<OperatorPtr> children);

  /// Lowers a scanning kSemanticSelect over `child` with its pre-embedded
  /// query matrix. The parallel driver embeds each select node's query
  /// constant(s) once per query and passes the shared matrix to every
  /// per-morsel instance; each instance charges its embed matrices to
  /// ctx's budget.
  Result<OperatorPtr> LowerSemanticSelectOver(QueryContext* ctx,
                                              const PlanNode& node,
                                              OperatorPtr child,
                                              SharedQueryMatrix queries);

  /// Resolves an index-backed kSemanticSelect against ctx's snapshot and
  /// the (possibly asynchronous) IndexManager. Returns the index-probing
  /// operator when a ready index pairs exactly with the snapshot's
  /// version of the table; returns null (OK status) when the caller must
  /// use the scanning brute-force fallback instead — because a
  /// background build is still in flight, or the resident index was
  /// built against a different table version than this query's snapshot.
  ///
  /// `build_in_flight` (optional) reports whether a background build for
  /// this node's index was running at probe time — the parallel driver's
  /// mid-query adoption signal. `min_row_id` restricts the operator to
  /// rows >= that id (the rows an adopting driver has not yet scanned);
  /// `exact_verify` re-scores index candidates with exact brute-force
  /// dots so approximate probes (e.g. IVF-PQ's quantized distances)
  /// cannot admit rows the scanning fallback would reject.
  Result<OperatorPtr> TryLowerIndexSelect(QueryContext* ctx,
                                          const PlanNode& node,
                                          bool* build_in_flight = nullptr,
                                          std::size_t min_row_id = 0,
                                          bool exact_verify = false);

  /// An optimizer bound to this engine's catalog/models/detectors, with
  /// subplan execution enabled for data-induced predicates and the cost
  /// model aware of the engine's degree of parallelism. Reads the live
  /// catalog; per-query optimizers (pinned snapshot + in-context subplan
  /// execution) are built internally by Execute.
  Optimizer MakeOptimizer() const;

 private:
  /// Admits one query: pins the catalog snapshot, joins the scheduler at
  /// `query.priority` under the bounded-admission policy (may shed with
  /// kResourceExhausted), arms the deadline token, and attaches the
  /// query's memory budget.
  Result<QueryContext> MakeContext(const QueryOptions& query,
                                   StatsCollector* stats);
  /// Registers the pull-style metric collectors (scheduler, index
  /// manager, governor, plan cache, embed caches) on metrics_.
  void RegisterCollectors();
  /// Allocates the query id and, when this query is sampled or analyzed
  /// (ctx carries a StatsCollector), its trace. Wires both into `ctx`.
  std::shared_ptr<QueryTrace> AdmitForObs(QueryContext* ctx, const char* kind);
  /// Telemetry tail of every query: latency/queue-wait histograms, status
  /// counters, trace ring push, slow-query log.
  void FinishQuery(QueryContext* ctx, const char* kind, double seconds,
                   const Status& status, std::size_t rows,
                   std::shared_ptr<QueryTrace> trace);
  /// What EXPLAIN ANALYZE reads back from its tracked run.
  struct AnalyzedRun {
    /// Called with the physical plan just before it executes.
    std::function<void(const PlanNode&)> before_execute;
    PlanPtr physical;  ///< null when planning failed
    std::string plan_origin;
    /// Admission to finish, optimization included (the same figure
    /// cre_query_seconds observes).
    double seconds = 0;
    std::shared_ptr<QueryTrace> trace;
  };
  /// The one optimize → execute path, with tracing + telemetry around
  /// it, shared by every entry point. `analyzed` is non-null only for
  /// EXPLAIN ANALYZE.
  Result<TablePtr> RunTracked(QueryContext* ctx, const PlanPtr& plan,
                              bool optimize, const char* kind,
                              AnalyzedRun* analyzed = nullptr);
  /// The planning front door shared by Execute and EXPLAIN ANALYZE:
  /// plan-cache lookup (when enabled) with single-flight population,
  /// falling back to a full optimizer pass. `origin` (optional) receives
  /// "cached(stamp=N)" or "optimized" for EXPLAIN-style annotation; the
  /// same string is annotated onto `trace`'s optimize span.
  Result<PlanPtr> OptimizePlan(QueryContext* ctx, const PlanPtr& plan,
                               QueryTrace* trace, std::string* origin);
  /// Serialized effective optimizer knobs — part of every plan-cache key,
  /// so a reconfiguration re-plans instead of serving a plan chosen under
  /// different costs.
  std::string KnobSignature() const;
  /// Plan-cache freshness probes: table stamps against `ctx`'s pinned
  /// snapshot (or the live catalog when ctx is null, for EXPLAIN), and
  /// managed-index absent-class against the IndexManager.
  PlanCache::VersionProbe PlanCacheVersionProbe(QueryContext* ctx) const;
  PlanCache::AbsentProbe PlanCacheAbsentProbe() const;
  /// Per-query optimizer over ctx's pinned snapshot.
  Optimizer MakeOptimizerFor(QueryContext* ctx) const;
  /// Managed-index residency as the optimizers and the plan cache see
  /// it: the IndexManager's, or null while the manager is off.
  IndexResidencyProbe ResidencyProbe() const;
  /// Engine-level optimizer options with the scheduler's dop and the
  /// async build discount filled in (shared by MakeOptimizer/MakeOptimizerFor
  /// so EXPLAIN and Execute agree on plans).
  OptimizerOptions EffectiveOptimizerOptions() const;
  /// Executes a (possibly optimized) plan through the morsel-driven
  /// parallel driver at the scheduler's degree of parallelism.
  Result<TablePtr> RunPhysical(QueryContext* ctx, const PlanPtr& plan);

  EngineOptions options_;
  Catalog catalog_;
  ModelRegistry models_;
  DetectorRegistry detectors_;
  /// Destruction order matters: ~Engine waits on background_group_, so
  /// background index jobs finish while everything they touch is alive;
  /// index_manager_, then the group, then the scheduler (which joins its
  /// workers) are destroyed after it with nothing queued.
  std::unique_ptr<QueryScheduler> scheduler_;
  /// Long-lived background-priority group for IndexManager builds.
  std::shared_ptr<QueryScheduler::Group> background_group_;
  std::unique_ptr<IndexManager> index_manager_;
  std::unique_ptr<MetricsRegistry> metrics_;
  std::unique_ptr<TraceRing> traces_;
  /// Engine-wide memory accounting; IndexManager and per-query budgets
  /// charge against it (safe at destruction: ~Engine waits on
  /// background_group_ first, so no build task outlives the governor).
  std::unique_ptr<ResourceGovernor> governor_;
  std::unique_ptr<DeadlineReaper> reaper_;
  std::unique_ptr<PlanCache> plan_cache_;
  std::atomic<std::uint64_t> index_adoptions_{0};
  std::atomic<std::uint64_t> next_query_id_{0};
};

}  // namespace cre

#endif  // CRE_ENGINE_ENGINE_H_
