#include "engine/engine.h"

#include <cstdio>
#include <sstream>
#include <thread>
#include <utility>

#include "core/logging.h"
#include "core/timer.h"
#include "embed/embedding_cache.h"
#include "engine/parallel_driver.h"
#include "exec/filter.h"
#include "exec/pipeline.h"
#include "exec/project.h"
#include "semantic/semantic_group_by.h"
#include "semantic/semantic_join.h"
#include "semantic/semantic_select.h"

namespace cre {

Engine::Engine() : Engine(EngineOptions{}) {}

Engine::Engine(EngineOptions options) : options_(options) {
  std::size_t threads = options_.num_threads;
  if (threads == 0) {
    threads = std::max(1u, std::thread::hardware_concurrency());
  }
  scheduler_ = std::make_unique<QueryScheduler>(threads, options_.admission);
  background_group_ = scheduler_->Admit(QueryPriority::kBackground);
  governor_ = std::make_unique<ResourceGovernor>(options_.governor);
  reaper_ = std::make_unique<DeadlineReaper>();
  // Index builds charge their transient embed matrices against the
  // engine-wide accountant (resident index bytes are already bounded by
  // the manager's own LRU budget).
  options_.index.governor = governor_.get();
  // Cold managed HNSW builds requested synchronously (GetOrBuild from a
  // driver thread) fan their canonical batched construction out through
  // the background group: group-scoped Wait keeps concurrent queries'
  // barriers independent, and background priority keeps build tasks
  // behind query morsels. Asynchronous background builds override this
  // to a serial build inside their single task (see
  // IndexManager::BuildIndex).
  if (options_.index.hnsw.build_pool == nullptr && threads > 1) {
    options_.index.hnsw.build_pool = background_group_.get();
  }
  index_manager_ =
      std::make_unique<IndexManager>(&catalog_, &models_, options_.index);
  index_manager_->EnableAsyncBuilds(background_group_.get());
  metrics_ = std::make_unique<MetricsRegistry>(options_.obs.metrics_enabled);
  traces_ = std::make_unique<TraceRing>(
      std::max<std::size_t>(1, options_.obs.trace_ring_capacity));
  plan_cache_ = std::make_unique<PlanCache>(options_.plan_cache);
  RegisterCollectors();
}

void Engine::RegisterCollectors() {
  // Pull-style migration of the scattered subsystem ledgers into the one
  // cre_* namespace: the subsystems keep their internal structs; the
  // registry reads them at snapshot time.
  metrics_->AddCollector([this](MetricsRegistry::Emitter* e) {
    // Serving layer.
    const AdmissionStats adm = scheduler_->admission_stats();
    e->Gauge("cre_scheduler_active_queries", {},
             static_cast<double>(adm.active_admitted));
    e->Gauge("cre_scheduler_pending_tasks", {},
             static_cast<double>(scheduler_->pending_tasks()));

    // Index manager.
    const IndexManager::Stats s = index_manager_->stats();
    e->Counter("cre_index_lookups_total", {{"outcome", "hit"}}, s.hits);
    e->Counter("cre_index_lookups_total", {{"outcome", "miss"}}, s.misses);
    e->Counter("cre_index_builds_total", {}, s.builds);
    e->Counter("cre_index_build_failures_total", {}, s.build_failures);
    e->Counter("cre_index_refreshes_total", {}, s.refreshes);
    e->Counter("cre_index_evictions_total", {}, s.evictions);
    e->Counter("cre_index_invalidations_total", {}, s.invalidations);
    e->Counter("cre_index_background_builds_total", {}, s.background_builds);
    e->Counter("cre_index_async_fallbacks_total", {}, s.async_fallbacks);
    e->Counter("cre_index_disk_loads_total", {}, s.disk_loads);
    e->Counter("cre_index_disk_writes_total", {}, s.disk_writes);
    e->Counter("cre_index_disk_rejects_total", {}, s.disk_rejects);
    e->Counter("cre_index_disk_gc_total", {}, s.disk_gc);
    e->Counter("cre_index_disk_retry_total", {}, s.disk_retries);
    e->Gauge("cre_index_resident_count", {},
             static_cast<double>(s.resident_count));
    e->Gauge("cre_index_resident_bytes", {},
             static_cast<double>(s.resident_bytes));
    e->Counter("cre_index_adoptions_total", {}, index_adoptions());

    // Admission control.
    for (int c = 0; c < 3; ++c) {
      const char* cls = QueryPriorityName(static_cast<QueryPriority>(c));
      e->Counter("cre_admission_admitted_total", {{"class", cls}},
                 adm.admitted[static_cast<std::size_t>(c)]);
      e->Counter("cre_admission_shed_total", {{"class", cls}},
                 adm.shed[static_cast<std::size_t>(c)]);
    }
    e->Gauge("cre_admission_active_queries", {},
             static_cast<double>(adm.active_admitted));

    // Deadlines.
    e->Counter("cre_deadline_expired_total", {}, reaper_->expired_total());
    e->Gauge("cre_deadline_watched", {},
             static_cast<double>(reaper_->watched()));

    // Resource governor.
    e->Gauge("cre_governor_charged_bytes", {},
             static_cast<double>(governor_->charged_bytes()));
    e->Gauge("cre_governor_peak_bytes", {},
             static_cast<double>(governor_->peak_bytes()));
    e->Counter("cre_governor_breaches_total", {}, governor_->breaches());

    // Plan cache.
    const PlanCache::Stats pc = plan_cache_->stats();
    e->Counter("cre_plan_cache_hits_total", {}, pc.hits);
    e->Counter("cre_plan_cache_misses_total", {}, pc.misses);
    e->Counter("cre_plan_cache_invalidations_total", {}, pc.invalidations);
    e->Counter("cre_plan_cache_evictions_total", {}, pc.evictions);
    e->Counter("cre_plan_cache_uncacheable_total", {}, pc.uncacheable);
    e->Counter("cre_plan_cache_single_flight_waits_total", {},
               pc.single_flight_waits);
    e->Gauge("cre_plan_cache_entries", {}, static_cast<double>(pc.entries));

    // The configured execution knobs.
    e->Gauge("cre_scheduler_morsel_rows", {},
             static_cast<double>(options_.morsel_rows));
    e->Gauge("cre_knob_radix_agg_min_groups", {},
             static_cast<double>(options_.optimizer.radix_agg_min_groups));
    e->Gauge("cre_knob_index_reuse_horizon", {},
             options_.optimizer.index_reuse_horizon);

    // Embedding caches (every registered model wrapped in the LRU
    // decorator).
    for (const std::string& name : models_.ListModels()) {
      auto model = models_.Get(name);
      if (!model.ok()) continue;
      const auto* cache =
          dynamic_cast<const CachingEmbeddingModel*>(model.ValueUnsafe().get());
      if (cache == nullptr) continue;
      e->Counter("cre_embed_cache_hits_total", {{"model", name}},
                 cache->hits());
      e->Counter("cre_embed_cache_misses_total", {{"model", name}},
                 cache->misses());
      e->Gauge("cre_embed_cache_entries", {{"model", name}},
               static_cast<double>(cache->size()));
    }

  });
}

Engine::~Engine() {
  // Finish background index builds and refreshes before any member they
  // touch (index_manager_, governor_, catalog_, models_) is destroyed;
  // the members are then destroyed with nothing queued.
  background_group_->Wait();
}

Result<QueryContext> Engine::MakeContext(const QueryOptions& query,
                                         StatsCollector* stats) {
  // Bounded admission first: a shed query never pins a snapshot, arms a
  // deadline, or reserves budget. With max_active_queries == 0 TryAdmit
  // never sheds (pre-admission behavior).
  auto admitted = scheduler_->TryAdmit(query.priority);
  if (!admitted.ok()) {
    if (metrics_->enabled()) {
      metrics_->counter("cre_queries_total", {{"status", "shed"}})
          ->Increment();
    }
    return admitted.status();
  }

  // Deadline: the caller's timeout, else the engine default. The token is
  // the caller's handle when one was passed (so external Cancel() and the
  // deadline share one flag); otherwise the engine creates one so the
  // reaper has something to trip.
  const double timeout = query.timeout_seconds > 0
                             ? query.timeout_seconds
                             : options_.default_query_timeout_seconds;
  CancelFlagPtr cancel = query.cancel;
  if (timeout > 0) {
    if (cancel == nullptr) cancel = std::make_shared<CancelFlag>();
    cancel->SetTimeout(timeout);
    reaper_->Watch(cancel);
  }

  QueryContext ctx(catalog_.Snapshot(), std::move(admitted).ValueUnsafe(),
                   std::move(cancel), stats);

  // Memory budget: attached only when some ceiling exists, so the
  // unlimited default keeps every charge site a null check.
  const std::size_t per_query = query.memory_budget_bytes != 0
                                    ? query.memory_budget_bytes
                                    : options_.governor.per_query_memory_bytes;
  if (per_query != 0 || options_.governor.engine_memory_bytes != 0) {
    ctx.set_budget(std::make_shared<QueryBudget>(governor_.get(), per_query));
  }
  return ctx;
}

OptimizerOptions Engine::EffectiveOptimizerOptions() const {
  OptimizerOptions options = options_.optimizer;
  if (options.degree_of_parallelism == 0) {
    options.degree_of_parallelism = scheduler_->num_threads();
  }
  if (options_.index.async_builds &&
      options.background_build_discount >= 1.0) {
    // Backgrounded builds cost the query stream pool cycles, not
    // latency; charge a quarter of the synchronous build so the
    // optimizer starts investing in indexes earlier. Applied in both
    // MakeOptimizer and MakeOptimizerFor so EXPLAIN renders the plan
    // Execute actually runs.
    options.background_build_discount = 0.25;
  }
  return options;
}

Optimizer Engine::MakeOptimizer() const {
  auto* self = const_cast<Engine*>(this);
  SubplanExecutor executor = [self](const PlanPtr& subplan) {
    return self->ExecuteUnoptimized(subplan);
  };
  return Optimizer(&catalog_, &models_, &detectors_,
                   EffectiveOptimizerOptions(), std::move(executor),
                   ResidencyProbe(), options_.index.ivfpq.pq_m);
}

Optimizer Engine::MakeOptimizerFor(QueryContext* ctx) const {
  auto* self = const_cast<Engine*>(this);
  // DIP subplans execute inside the requesting query: same snapshot,
  // same scheduler group, same cancellation flag.
  SubplanExecutor executor = [self, ctx](const PlanPtr& subplan) {
    return self->RunPhysical(ctx, subplan);
  };
  // Cardinality estimation and schema-dependent rules resolve names
  // against the query's pinned snapshot, so planning and execution see
  // the same tables even under concurrent catalog writes.
  return Optimizer(&ctx->snapshot(), &models_, &detectors_,
                   EffectiveOptimizerOptions(), std::move(executor),
                   ResidencyProbe(), options_.index.ivfpq.pq_m);
}

IndexResidencyProbe Engine::ResidencyProbe() const {
  if (!options_.index.enabled) return nullptr;
  IndexManager* manager = index_manager_.get();
  return [manager](const std::string& table, const std::string& column,
                   const std::string& model, SemanticJoinStrategy kind) {
    return manager->Residency({table, column, model, kind});
  };
}

std::string Engine::KnobSignature() const {
  const OptimizerOptions o = EffectiveOptimizerOptions();
  char buf[192];
  std::snprintf(buf, sizeof(buf),
                "%d%d%d%d%d%d%d|%zu|%zu|%zu|%.9g|%.9g",
                o.enable_filter_pushdown, o.enable_join_reorder,
                o.enable_data_induced_predicates, o.enable_index_selection,
                o.enable_column_pruning, o.allow_approximate_similarity,
                options_.index.enabled, o.dip_max_inducing_rows,
                o.degree_of_parallelism, o.radix_agg_min_groups,
                o.index_reuse_horizon, o.background_build_discount);
  return buf;
}

PlanCache::VersionProbe Engine::PlanCacheVersionProbe(
    QueryContext* ctx) const {
  if (ctx != nullptr) {
    const Catalog* snapshot = &ctx->snapshot();
    return [snapshot](const std::string& table) {
      return snapshot->Version(table);
    };
  }
  const Catalog* live = &catalog_;
  return [live](const std::string& table) { return live->Version(table); };
}

PlanCache::AbsentProbe Engine::PlanCacheAbsentProbe() const {
  if (!options_.index.enabled) {
    // Manager off: every candidate is permanently "absent"; the class
    // can never flip, so residency never invalidates.
    return [](const PlanCache::IndexCandidate&) { return true; };
  }
  return [residency = ResidencyProbe()](const PlanCache::IndexCandidate& c) {
    return residency(c.table, c.column, c.model, c.strategy) ==
           IndexResidency::kAbsent;
  };
}

Result<PlanPtr> Engine::OptimizePlan(QueryContext* ctx, const PlanPtr& plan,
                                     QueryTrace* trace, std::string* origin) {
  ScopedSpan span(trace, nullptr, "optimize");
  auto annotate = [&](const std::string& o) {
    span.Annotate("plan", o);
    if (origin != nullptr) *origin = o;
  };
  if (!options_.plan_cache.enabled) {
    Optimizer optimizer = MakeOptimizerFor(ctx);
    CRE_ASSIGN_OR_RETURN(PlanPtr physical, optimizer.Optimize(plan));
    annotate("optimized");
    return physical;
  }
  const PlanCache::Shape shape =
      PlanCache::Normalize(*plan, KnobSignature());
  const PlanCache::VersionProbe version = PlanCacheVersionProbe(ctx);
  const PlanCache::AbsentProbe absent = PlanCacheAbsentProbe();
  PlanCache::Lookup lookup =
      plan_cache_->AcquireOrPlan(shape, version, absent);
  if (lookup.plan != nullptr) {
    annotate("cached(stamp=" + std::to_string(lookup.stamp) + ")");
    return std::move(lookup.plan);
  }
  // A miss holds the planning ticket: optimize the parameterized copy so
  // later hits can bind their own values into it.
  PlanPtr parameterized;
  PlanCache::Normalize(*plan, KnobSignature(), &parameterized);
  Timer timer;
  Optimizer optimizer = MakeOptimizerFor(ctx);
  Result<PlanPtr> optimized = optimizer.Optimize(parameterized);
  if (!optimized.ok()) {
    plan_cache_->Abort(shape);
    return optimized.status();
  }
  plan_cache_->Install(shape, optimized.ValueUnsafe(), timer.Seconds(),
                       version, absent);
  annotate("optimized");
  return optimized;
}

Result<OperatorPtr> Engine::TryLowerIndexSelect(QueryContext* ctx,
                                                const PlanNode& node,
                                                bool* build_in_flight,
                                                std::size_t min_row_id,
                                                bool exact_verify) {
  if (build_in_flight != nullptr) *build_in_flight = false;
  if (!node.IndexBackedSelect() || !options_.index.enabled) {
    return OperatorPtr();
  }
  CRE_ASSIGN_OR_RETURN(EmbeddingModelPtr model, models_.Get(node.model_name));
  const std::string& table_name = node.children[0]->table_name;
  // The operator must pair the index with the exact table snapshot this
  // query pinned at plan time; version stamps (not row counts) rule out
  // a same-cardinality replacement racing the query.
  CRE_ASSIGN_OR_RETURN(Catalog::VersionedTable vt,
                       ctx->snapshot().GetVersioned(table_name));
  const IndexKey key{table_name, node.column, node.model_name, node.strategy};
  // Span covers any wait inside the manager: single-flight build joins,
  // synchronous warm-start disk loads. Driver-thread call site only.
  ScopedSpan span(ctx->trace(), ctx->trace_parent(),
                  "index:lookup " + key.ToString());
  auto lookup = index_manager_->GetOrBuildAsync(key);
  if (!lookup.ok()) {
    // Correctness never depends on the cache: a failed lookup/build
    // (e.g. the live table was dropped after this query's snapshot)
    // just means the scanning fallback serves the pinned rows.
    span.Annotate("outcome", "error-fallback");
    return OperatorPtr();
  }
  IndexManager::AsyncIndex ready = std::move(lookup).ValueUnsafe();
  if (ready.index != nullptr && ready.built_version == vt.version) {
    span.Annotate("outcome", "index");
    return OperatorPtr(std::make_unique<SemanticIndexSelectOperator>(
        std::move(vt.table), node.column, node.query, std::move(model),
        node.threshold, std::move(ready.index), min_row_id, exact_verify,
        ctx->budget_handle()));
  }
  // Build in flight (the background task will serve future queries), or
  // the ready index was built against a different version than this
  // query's snapshot: serve this query via the scanning fallback. The
  // in-flight signal lets the parallel driver keep polling and adopt the
  // index for its remaining morsels the moment the build lands.
  if (build_in_flight != nullptr) *build_in_flight = ready.build_in_flight;
  span.Annotate("outcome", ready.build_in_flight ? "build-in-flight"
                                                 : "version-mismatch");
  return OperatorPtr();
}

Result<OperatorPtr> Engine::LowerNodeOver(QueryContext* ctx,
                                          const PlanNode& node,
                                          std::vector<OperatorPtr> children) {
  switch (node.kind) {
    case PlanKind::kDetectScan: {
      CRE_ASSIGN_OR_RETURN(DetectorBinding binding,
                           detectors_.Get(node.table_name));
      return OperatorPtr(std::make_unique<DetectionScanOperator>(
          binding.store, binding.detector, node.predicate,
          /*images_per_batch=*/256, ctx->runner(), ctx->cancel_flag()));
    }
    case PlanKind::kFilter:
      return OperatorPtr(std::make_unique<FilterOperator>(
          std::move(children[0]), node.predicate));
    case PlanKind::kProject:
      return OperatorPtr(std::make_unique<ProjectOperator>(
          std::move(children[0]), node.projections));
    case PlanKind::kSemanticJoin: {
      CRE_ASSIGN_OR_RETURN(EmbeddingModelPtr model,
                           models_.Get(node.model_name));
      SemanticJoinOptions options;
      options.threshold = node.threshold;
      options.strategy = node.strategy;
      options.top_k = node.top_k;
      options.pool = ctx->runner();
      // Local builds use the engine's family options, as managed builds
      // and the optimizer's strategy rules do.
      options.ivf = options_.index.ivf;
      options.hnsw = options_.index.hnsw;
      options.hnsw.build_pool = nullptr;
      options.ivfpq = options_.index.ivfpq;
      // Cancellation reaches the operator's probe loops and local index
      // builds, not just the driver's morsel/segment polls.
      options.cancel = ctx->cancel_flag();
      options.budget = ctx->budget_handle();
      if (options_.index.enabled &&
          node.strategy != SemanticJoinStrategy::kBruteForce) {
        if (const PlanNode* scan = node.IndexableBuildScan()) {
          auto lookup = index_manager_->GetOrBuildAsync(
              {scan->table_name, node.right_key, node.model_name,
               node.strategy});
          // Adopt only when the index stamp matches this query's pinned
          // snapshot stamp for the build-side table — the build side's
          // rows are materialized from the same snapshot, so index and
          // rows can never mix versions (a same-cardinality racing
          // replacement would slip past the operator's own row-count
          // check). Any failure or mismatch falls back to a
          // per-execution local build; an in-flight background build
          // falls back to brute force so the query never blocks and
          // never duplicates the build.
          if (lookup.ok()) {
            IndexManager::AsyncIndex ready = std::move(lookup).ValueUnsafe();
            if (ready.index != nullptr &&
                ctx->snapshot().Version(scan->table_name) ==
                    ready.built_version) {
              options.shared_index = std::move(ready.index);
            } else if (ready.build_in_flight) {
              options.strategy = SemanticJoinStrategy::kBruteForce;
            }
          } else if (lookup.status().IsResourceExhausted()) {
            // Governor breach inside the managed build: a per-execution
            // local index build would chase the same memory that just ran
            // out, so degrade this query to brute force instead — slower,
            // same answer.
            options.strategy = SemanticJoinStrategy::kBruteForce;
          }
        }
      }
      return OperatorPtr(std::make_unique<SemanticJoinOperator>(
          std::move(children[0]), std::move(children[1]), node.left_key,
          node.right_key, std::move(model), std::move(options)));
    }
    case PlanKind::kSemanticGroupBy: {
      CRE_ASSIGN_OR_RETURN(EmbeddingModelPtr model,
                           models_.Get(node.model_name));
      return OperatorPtr(std::make_unique<SemanticGroupByOperator>(
          std::move(children[0]), node.column, std::move(model),
          node.threshold, ctx->budget_handle()));
    }
    default:
      // Scan, Join, SemanticSelect, Aggregate, Sort and Limit are run by
      // ParallelPlanDriver itself.
      return Status::Internal("plan kind '" +
                              std::string(PlanKindName(node.kind)) +
                              "' is not lowered through LowerNodeOver");
  }
}

Result<OperatorPtr> Engine::LowerSemanticSelectOver(
    QueryContext* ctx, const PlanNode& node, OperatorPtr child,
    SharedQueryMatrix queries) {
  CRE_ASSIGN_OR_RETURN(EmbeddingModelPtr model, models_.Get(node.model_name));
  return OperatorPtr(std::make_unique<SemanticSelectOperator>(
      std::move(child), node.column, std::move(model), node.threshold,
      std::move(queries), ctx->budget_handle()));
}

Result<TablePtr> Engine::RunPhysical(QueryContext* ctx, const PlanPtr& plan) {
  // Every thread count runs the same driver; at dop 1 it runs each
  // pipeline on the caller's thread.
  ParallelPlanDriver driver(this, ctx);
  return driver.Run(*plan);
}

std::shared_ptr<QueryTrace> Engine::AdmitForObs(QueryContext* ctx,
                                                const char* kind) {
  const std::uint64_t id =
      next_query_id_.fetch_add(1, std::memory_order_relaxed) + 1;
  ctx->set_query_id(id);
  const std::uint64_t every = options_.obs.trace_sample_every;
  std::shared_ptr<QueryTrace> trace;
  if (ctx->stats() != nullptr || (every > 0 && (id - 1) % every == 0)) {
    trace = std::make_shared<QueryTrace>(id, kind);
    ctx->set_trace(trace.get());
    if (metrics_->enabled()) {
      metrics_->counter("cre_traces_sampled_total")->Increment();
    }
  }
  return trace;
}

void Engine::FinishQuery(QueryContext* ctx, const char* kind, double seconds,
                         const Status& status, std::size_t rows,
                         std::shared_ptr<QueryTrace> trace) {
  const SchedulingCounters sched = ctx->scheduling();
  if (metrics_->enabled()) {
    metrics_->histogram("cre_query_seconds", {{"kind", kind}})
        ->Observe(seconds);
    if (sched.tasks_dispatched > 0) {
      metrics_->histogram("cre_query_queue_wait_seconds")
          ->Observe(sched.queue_wait_seconds);
      metrics_->histogram("cre_query_admission_seconds")
          ->Observe(sched.admission_seconds);
      metrics_->counter("cre_tasks_dispatched_total")
          ->Increment(sched.tasks_dispatched);
    }
    const char* outcome = "error";
    if (status.ok()) {
      outcome = "ok";
    } else if (status.IsDeadlineExceeded()) {
      outcome = "deadline";
    } else if (status.IsCancelled()) {
      outcome = "cancelled";
    } else if (status.IsResourceExhausted()) {
      outcome = "resource_exhausted";
    }
    metrics_->counter("cre_queries_total", {{"status", outcome}})->Increment();
    if (status.ok()) {
      metrics_->counter("cre_query_rows_total")->Increment(rows);
    }
  }
  if (trace != nullptr) {
    trace->Finish();
    traces_->Push(trace);
  }
  const double slow = options_.obs.slow_query_seconds;
  if (slow > 0 && seconds >= slow) {
    if (metrics_->enabled()) {
      metrics_->counter("cre_slow_queries_total")->Increment();
    }
    std::vector<LogField> fields;
    fields.emplace_back("query_id", ctx->query_id());
    fields.emplace_back("kind", kind);
    fields.emplace_back("seconds", seconds);
    fields.emplace_back("rows", static_cast<std::uint64_t>(rows));
    fields.emplace_back("queue_wait_seconds", sched.queue_wait_seconds);
    fields.emplace_back("status", status.ok() ? "ok" : status.message());
    if (trace != nullptr) {
      fields.emplace_back("trace", trace->ToCompactString());
    }
    LogStructured(LogLevel::kWarning, "slow_query", fields);
  }
}

Result<TablePtr> Engine::RunTracked(QueryContext* ctx, const PlanPtr& plan,
                                    bool optimize, const char* kind,
                                    AnalyzedRun* analyzed) {
  std::shared_ptr<QueryTrace> trace = AdmitForObs(ctx, kind);
  Timer timer;
  std::size_t rows = 0;
  Result<TablePtr> result = [&]() -> Result<TablePtr> {
    PlanPtr physical = plan;
    if (optimize) {
      CRE_ASSIGN_OR_RETURN(
          physical,
          OptimizePlan(ctx, plan, trace.get(),
                       analyzed != nullptr ? &analyzed->plan_origin : nullptr));
    }
    if (analyzed != nullptr) {
      analyzed->physical = physical;
      analyzed->before_execute(*physical);
    }
    ScopedSpan span(trace.get(), nullptr, "execute");
    ctx->set_trace_parent(span.span());
    auto r = RunPhysical(ctx, physical);
    ctx->set_trace_parent(nullptr);
    if (r.ok()) rows = r.ValueUnsafe()->num_rows();
    return r;
  }();
  // Deep poll sites only watch the token's boolean and report kCancelled;
  // when the token actually tripped on its deadline, surface the precise
  // code at the engine boundary.
  if (!result.ok() && result.status().IsCancelled() &&
      ctx->cancel_flag() != nullptr &&
      ctx->cancel_flag()->deadline_exceeded()) {
    result = Status::DeadlineExceeded("query deadline exceeded");
  }
  const double seconds = timer.Seconds();
  if (analyzed != nullptr) {
    analyzed->seconds = seconds;
    analyzed->trace = trace;
  }
  FinishQuery(ctx, kind, seconds, result.status(), rows, std::move(trace));
  return result;
}

Result<TablePtr> Engine::ExecuteUnoptimized(const PlanPtr& plan,
                                            const QueryOptions& query) {
  CRE_ASSIGN_OR_RETURN(QueryContext ctx, MakeContext(query, /*stats=*/nullptr));
  return RunTracked(&ctx, plan, /*optimize=*/false, "unoptimized");
}

Result<TablePtr> Engine::Execute(const PlanPtr& plan,
                                 const QueryOptions& query) {
  CRE_ASSIGN_OR_RETURN(QueryContext ctx, MakeContext(query, /*stats=*/nullptr));
  return RunTracked(&ctx, plan, /*optimize=*/true, "execute");
}

Result<std::string> Engine::Explain(const PlanPtr& plan) {
  Optimizer optimizer = MakeOptimizer();
  CRE_ASSIGN_OR_RETURN(PlanPtr optimized, optimizer.Optimize(plan));
  // Whether an Execute of this plan right now would skip the optimizer:
  // a read-only probe (EXPLAIN itself never populates the cache — it
  // plans against the live catalog, not an admitted snapshot).
  std::string plan_origin = "optimized";
  if (options_.plan_cache.enabled) {
    const PlanCache::Shape shape =
        PlanCache::Normalize(*plan, KnobSignature());
    std::uint64_t stamp = 0;
    if (plan_cache_->Peek(shape, PlanCacheVersionProbe(nullptr),
                          PlanCacheAbsentProbe(), &stamp)) {
      plan_origin = "cached(stamp=" + std::to_string(stamp) + ")";
    }
  }
  // Append the parallel driver's routing (per-pipeline degree of
  // parallelism and scheduling mode) plus the serving-layer state the
  // query would be admitted into.
  const std::size_t dop = scheduler_->num_threads();
  const IndexManager::Stats index_stats = index_manager_->stats();
  std::string out =
      optimized->ToString() + "plan: " + plan_origin + "\n\n" +
      DescribePipelines(*optimized, dop,
                        options_.optimizer.radix_agg_min_groups);
  const std::size_t active = scheduler_->admission_stats().active_admitted;
  out += "serving: scheduler dop=" + std::to_string(dop) +
         ", active queries=" + std::to_string(active) +
         ", pending tasks=" + std::to_string(scheduler_->pending_tasks()) +
         ", background index builds=" +
         std::to_string(index_stats.background_builds) +
         (options_.index.async_builds ? " (async on)" : " (async off)");
  if (!options_.index.persist_dir.empty()) {
    out += ", index persistence: dir=" + options_.index.persist_dir +
           ", disk loads=" + std::to_string(index_stats.disk_loads) +
           ", disk writes=" + std::to_string(index_stats.disk_writes) +
           ", refreshes=" + std::to_string(index_stats.refreshes);
  }
  out += "\n";
  return out;
}

namespace {

/// Managed-index keys a plan consults: index-backed semantic selects and
/// semantic joins whose build side is an indexable scan.
void CollectIndexKeys(const PlanNode& node, std::vector<IndexKey>* out) {
  if (node.IndexBackedSelect()) {
    out->push_back({node.children[0]->table_name, node.column, node.model_name,
                    node.strategy});
  }
  if (node.kind == PlanKind::kSemanticJoin &&
      node.strategy != SemanticJoinStrategy::kBruteForce) {
    if (const PlanNode* scan = node.IndexableBuildScan()) {
      out->push_back(
          {scan->table_name, node.right_key, node.model_name, node.strategy});
    }
  }
  for (const PlanPtr& child : node.children) CollectIndexKeys(*child, out);
}

/// Recursive measured-plan rendering: each node's Describe() line plus the
/// executed counters looked up by plan-node identity.
void RenderAnalyzedNode(const PlanNode& node, int depth,
                        const StatsCollector& stats, std::size_t engine_dop,
                        std::string* out) {
  out->append(static_cast<std::size_t>(depth) * 2, ' ');
  *out += node.Describe();
  const std::size_t dop =
      node.kind == PlanKind::kSemanticGroupBy ? 1 : engine_dop;
  if (OperatorStats* slot = stats.FindSlot(&node)) {
    const double wall =
        slot->open_seconds.load(std::memory_order_relaxed) +
        slot->next_seconds.load(std::memory_order_relaxed);
    char buf[128];
    std::snprintf(buf, sizeof(buf),
                  "  [rows=%zu batches=%zu wall=%.3fms dop=%zu]",
                  slot->rows.load(std::memory_order_relaxed),
                  slot->batches.load(std::memory_order_relaxed), wall * 1e3,
                  dop);
    *out += buf;
  } else {
    // Nodes folded into a parent's execution (e.g. the Scan beneath an
    // index-backed semantic select) carry no slot of their own.
    *out += "  [folded]";
  }
  *out += "\n";
  for (const PlanPtr& child : node.children) {
    RenderAnalyzedNode(*child, depth + 1, stats, engine_dop, out);
  }
}

}  // namespace

Result<std::string> Engine::ExplainAnalyze(const PlanPtr& plan,
                                           const QueryOptions& query) {
  StatsCollector stats;
  CRE_ASSIGN_OR_RETURN(QueryContext ctx, MakeContext(query, &stats));
  // Residency of every managed index the plan consults, probed before and
  // after execution — the rendering shows the transition the execution
  // itself caused (on-disk -> resident for a warm start, absent ->
  // building for a kicked-off background build, ...).
  std::vector<IndexKey> index_keys;
  std::vector<IndexResidency> residency_before;
  AnalyzedRun run;
  run.before_execute = [&](const PlanNode& physical) {
    if (options_.index.enabled) CollectIndexKeys(physical, &index_keys);
    residency_before.reserve(index_keys.size());
    for (const IndexKey& key : index_keys) {
      residency_before.push_back(index_manager_->Residency(key));
    }
  };
  CRE_ASSIGN_OR_RETURN(
      TablePtr table,
      RunTracked(&ctx, plan, /*optimize=*/true, "explain_analyze", &run));
  const std::size_t rows = table->num_rows();

  const std::size_t dop = scheduler_->num_threads();
  std::string out;
  char head[96];
  std::snprintf(head, sizeof(head),
                "EXPLAIN ANALYZE  wall=%.3fms rows=%zu dop=%zu\n",
                run.seconds * 1e3, rows, dop);
  out += head;
  out += "plan: " + run.plan_origin + "\n";
  RenderAnalyzedNode(*run.physical, 0, stats, dop, &out);

  const SchedulingCounters sched = ctx.scheduling();
  char sched_line[160];
  std::snprintf(sched_line, sizeof(sched_line),
                "scheduling: tasks submitted=%llu dispatched=%llu "
                "queue wait=%.3fms admission=%.3fms\n",
                static_cast<unsigned long long>(sched.tasks_submitted),
                static_cast<unsigned long long>(sched.tasks_dispatched),
                sched.queue_wait_seconds * 1e3, sched.admission_seconds * 1e3);
  out += sched_line;

  if (ctx.cancel_flag() != nullptr && ctx.cancel_flag()->deadline_ns() != 0) {
    char deadline_line[96];
    std::snprintf(deadline_line, sizeof(deadline_line),
                  "deadline: slack at finish=%.3fms\n",
                  ctx.cancel_flag()->SlackSeconds() * 1e3);
    out += deadline_line;
  }
  if (ctx.budget() != nullptr) {
    char governor_line[160];
    std::snprintf(governor_line, sizeof(governor_line),
                  "governor: query peak=%zu bytes (limit=%zu), "
                  "engine charged=%zu bytes\n",
                  ctx.budget()->peak_bytes(), ctx.budget()->limit_bytes(),
                  governor_->charged_bytes());
    out += governor_line;
  }

  if (!index_keys.empty()) {
    out += "index residency:\n";
    for (std::size_t i = 0; i < index_keys.size(); ++i) {
      const IndexResidency after = index_manager_->Residency(index_keys[i]);
      out += "  " + index_keys[i].ToString() + ": " +
             IndexResidencyName(residency_before[i]);
      if (after != residency_before[i]) {
        out += std::string(" -> ") + IndexResidencyName(after);
      } else {
        out += " (unchanged)";
      }
      out += "\n";
    }
  }

  out += DescribePipelines(*run.physical, dop,
                           options_.optimizer.radix_agg_min_groups);
  out += "trace:\n" + run.trace->ToString();
  return out;
}

}  // namespace cre
