#ifndef CRE_ENGINE_PARALLEL_DRIVER_H_
#define CRE_ENGINE_PARALLEL_DRIVER_H_

#include <functional>
#include <map>
#include <memory>

#include "core/thread_pool.h"
#include "engine/engine.h"
#include "engine/query_context.h"
#include "exec/hash_join.h"
#include "exec/pipeline.h"

namespace cre {

/// Morsel-driven, pipeline-aware physical plan driver. A plan is cut into
/// pipeline segments (exec/pipeline.h); each segment's base table is split
/// into morsels and the segment's operator chain is instantiated once per
/// morsel on the worker pool, with results concatenated in morsel order —
/// so parallel output row order equals serial output row order.
///
/// One driver instance drives one query, entirely against that query's
/// QueryContext: tables resolve from the pinned catalog snapshot, tasks
/// submit through the query's scheduler group (so concurrent queries
/// interleave fairly and barriers never couple across queries), the
/// cancellation flag is polled at every morsel boundary, and stats go to
/// the per-query collector.
///
/// Breakers around the segments:
///  - hash Join: the build side is executed (recursively, in parallel),
///    hashed once into a shared read-only HashJoinTable, and probed from
///    every morsel pipeline concurrently;
///  - Aggregate: each worker chunk accumulates private state over its
///    morsels. At low group cardinality that is one
///    GroupedAggregationState per chunk whose partials merge at the
///    barrier in chunk-index order; above
///    OptimizerOptions::radix_agg_min_groups estimated groups the chunks
///    instead partition by group-key hash radix
///    (RadixAggregationState) and the merge fans out over the pool, one
///    task per partition — removing the serial merge tail. Either way
///    results are exact (all five aggregate kinds merge associatively)
///    and the output row order is deterministic for a fixed thread count;
///  - Sort: the input materializes in parallel, then SortTable runs
///    per-run local sorts feeding a range-partitioned k-way loser-tree
///    merge on the pool (exec/parallel_sort.h) — the output permutation
///    is the serial stable-sort order;
///  - Limit: the subtree's streamable segment runs through the morsel
///    scheduler under a shared atomic row budget with an exact
///    prefix-complete cutoff (MorselParallelMapLimited), so limit plans
///    get both parallelism and early termination; Limit directly over
///    Sort additionally turns into a parallel top-k sort;
///  - SemanticGroupBy / SemanticJoin / DetectScan: inputs are
///    materialized in parallel, the operator itself runs on the driver
///    thread (SemanticJoin and DetectScan parallelize internally over the
///    pool);
///  - an index-backed SemanticSelect whose managed index cannot serve
///    this query (background build in flight, or built against a
///    different version than the query's snapshot) is re-routed through
///    the morsel scheduler as a scanning segment, so the brute-force
///    fallback still runs parallel.
///
/// All scheduling happens on the driver (caller) thread; worker tasks
/// never block on the pool themselves, which keeps the fixed-size pool
/// deadlock-free.
class ParallelPlanDriver {
 public:
  ParallelPlanDriver(Engine* engine, QueryContext* ctx);

  /// Executes the plan tree and returns the materialized result.
  Result<TablePtr> Run(const PlanNode& root);

  /// Test hook: called on the driver thread at the start of every
  /// brute-force wave of an adoptive semantic select, with the index of
  /// the first morsel in the wave. Tests use it to complete a background
  /// index build at a chosen point so adoption triggers deterministically.
  /// Pass nullptr to clear. Global across drivers; not for production.
  static void SetAdoptionWaveHookForTesting(
      std::function<void(std::size_t first_morsel)> hook);

 private:
  /// Shared build-side hash tables, one per kJoin node in a segment.
  using JoinStates =
      std::map<const PlanNode*, std::shared_ptr<HashJoinTable>>;
  /// Pre-embedded query matrices, one per scanning kSemanticSelect node in
  /// a segment: the query constant(s) embed once per query instead of
  /// once per morsel-chain Open.
  using SelectStates = std::map<const PlanNode*, SharedQueryMatrix>;

  Result<TablePtr> RunSegment(const PipelineSegment& segment);
  Result<TablePtr> MaterializeSource(const PlanNode& source);
  /// Brute-force fallback for an index-backed semantic select whose
  /// background build is in flight: runs morsel waves, polling between
  /// waves whether the build completed; on completion the remaining rows
  /// swap onto the index operator (restricted to row ids past the
  /// brute-forced prefix, with exact re-verification so the output stays
  /// byte-identical to an all-fallback run).
  Result<TablePtr> RunFallbackWithAdoption(const PlanNode& source,
                                           bool build_in_flight);
  Result<TablePtr> RunAggregate(const PlanNode& agg);
  /// Materializes the sort input (in parallel) and sorts it on the pool;
  /// `limit_hint` > 0 = top-k for a Limit parent.
  Result<TablePtr> RunSort(const PlanNode& sort, std::size_t limit_hint);
  /// Runs the limit's child segment through the morsel scheduler under a
  /// shared row budget (or as a parallel top-k sort for Limit over Sort).
  Result<TablePtr> RunLimit(const PlanNode& limit);
  Result<JoinStates> BuildJoinStates(const PipelineSegment& segment);
  Result<SelectStates> BuildSelectStates(const PipelineSegment& segment);

  /// Instantiates the segment's operator chain over one morsel slice.
  /// Called concurrently from worker threads; everything it touches is
  /// read-only or freshly constructed.
  Result<OperatorPtr> BuildChain(const PipelineSegment& segment,
                                 const TablePtr& slice,
                                 const JoinStates& joins,
                                 const SelectStates& selects);

  /// Wraps `op` with a stats slot shared by all per-morsel instances of
  /// plan node `node` when instrumenting.
  OperatorPtr Instrument(const PlanNode* node, OperatorPtr op);

  /// Scoped trace span opened under the driver's current parent span,
  /// nesting recursive segments (sub-pipelines show as children). All
  /// span sites run on the driver thread; worker tasks never touch the
  /// trace. No-ops when the query is not sampled.
  class SpanScope {
   public:
    SpanScope(ParallelPlanDriver* driver, const std::string& name)
        : driver_(driver),
          scoped_(driver->trace_, driver->span_parent_, name),
          saved_parent_(driver->span_parent_) {
      if (scoped_.span() != nullptr) driver_->span_parent_ = scoped_.span();
    }
    ~SpanScope() { driver_->span_parent_ = saved_parent_; }
    void Annotate(const std::string& key, const std::string& value) {
      scoped_.Annotate(key, value);
    }

   private:
    ParallelPlanDriver* driver_;
    ScopedSpan scoped_;
    TraceSpan* saved_parent_;
  };

  Engine* engine_;
  QueryContext* ctx_;
  TaskRunner* runner_;
  std::size_t morsel_rows_;
  StatsCollector* stats_;
  QueryTrace* trace_;
  TraceSpan* span_parent_;
};

}  // namespace cre

#endif  // CRE_ENGINE_PARALLEL_DRIVER_H_
