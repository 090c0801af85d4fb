#include "engine/parallel_driver.h"

#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "core/fault_injection.h"
#include "core/timer.h"
#include "exec/aggregate.h"
#include "exec/filter.h"
#include "exec/morsel.h"
#include "exec/parallel_sort.h"
#include "exec/scan.h"

namespace cre {

namespace {

std::mutex g_adoption_hook_mu;
std::function<void(std::size_t)> g_adoption_hook;

void CallAdoptionHook(std::size_t first_morsel) {
  std::function<void(std::size_t)> hook;
  {
    std::lock_guard<std::mutex> lock(g_adoption_hook_mu);
    hook = g_adoption_hook;
  }
  if (hook) hook(first_morsel);
}

}  // namespace

void ParallelPlanDriver::SetAdoptionWaveHookForTesting(
    std::function<void(std::size_t)> hook) {
  std::lock_guard<std::mutex> lock(g_adoption_hook_mu);
  g_adoption_hook = std::move(hook);
}

ParallelPlanDriver::ParallelPlanDriver(Engine* engine, QueryContext* ctx)
    : engine_(engine),
      ctx_(ctx),
      runner_(ctx->runner()),
      morsel_rows_(std::max<std::size_t>(1, engine->options().morsel_rows)),
      stats_(ctx->stats()),
      trace_(ctx->trace()),
      span_parent_(ctx->trace_parent()) {}

Result<TablePtr> ParallelPlanDriver::Run(const PlanNode& root) {
  CRE_RETURN_NOT_OK(ctx_->CheckCancelled());
  return RunSegment(DecomposePipeline(root));
}

OperatorPtr ParallelPlanDriver::Instrument(const PlanNode* node,
                                           OperatorPtr op) {
  if (stats_ == nullptr) return op;
  return std::make_unique<InstrumentedOperator>(std::move(op),
                                                stats_->SlotFor(node));
}

Result<TablePtr> ParallelPlanDriver::MaterializeSource(
    const PlanNode& source) {
  switch (source.kind) {
    case PlanKind::kScan:
      // The snapshot table is the morsel base; a pushed-down predicate is
      // applied inside each morsel pipeline (see BuildChain).
      return ctx_->snapshot().Get(source.table_name);
    case PlanKind::kAggregate:
      return RunAggregate(source);
    case PlanKind::kLimit:
      return RunLimit(source);
    case PlanKind::kSort:
      return RunSort(source, /*limit_hint=*/0);
    case PlanKind::kDetectScan: {
      // The operator parallelizes detection over images internally.
      CRE_ASSIGN_OR_RETURN(OperatorPtr op,
                           engine_->LowerNodeOver(ctx_, source, {}));
      op = Instrument(&source, std::move(op));
      return ExecuteToTable(op.get());
    }
    case PlanKind::kSemanticSelect: {
      // Only the index-backed form reaches here (the scanning form is
      // morsel-streamable). When a ready managed index pairs with this
      // query's snapshot: one range search, gathered on the driver
      // thread. Otherwise (background build in flight, or a version
      // mismatch against the snapshot) the brute-force fallback runs as
      // a scanning segment through the morsel scheduler — a cold query
      // is served parallel and never blocks on the build. When the miss
      // was specifically an in-flight background build, the fallback
      // polls between morsel waves and adopts the index mid-query once
      // the build lands.
      bool build_in_flight = false;
      CRE_ASSIGN_OR_RETURN(
          OperatorPtr op,
          engine_->TryLowerIndexSelect(ctx_, source, &build_in_flight));
      if (op != nullptr) {
        op = Instrument(&source, std::move(op));
        return ExecuteToTable(op.get());
      }
      return RunFallbackWithAdoption(source, build_in_flight);
    }
    case PlanKind::kSemanticGroupBy: {
      // Materialize the input in parallel, then run the (order-sensitive)
      // operator serially over it. Feeding morsels in order keeps the
      // output identical at every thread count.
      CRE_ASSIGN_OR_RETURN(TablePtr input, Run(*source.children[0]));
      std::vector<OperatorPtr> children;
      children.push_back(
          std::make_unique<TableScanOperator>(std::move(input), morsel_rows_));
      CRE_ASSIGN_OR_RETURN(
          OperatorPtr op,
          engine_->LowerNodeOver(ctx_, source, std::move(children)));
      op = Instrument(&source, std::move(op));
      return ExecuteToTable(op.get());
    }
    case PlanKind::kSemanticJoin: {
      // Both inputs materialize in parallel; the join's probe loop then
      // spreads over the pool internally (vecsim splits the probe side).
      CRE_ASSIGN_OR_RETURN(TablePtr left, Run(*source.children[0]));
      CRE_ASSIGN_OR_RETURN(TablePtr right, Run(*source.children[1]));
      std::vector<OperatorPtr> children;
      children.push_back(
          std::make_unique<TableScanOperator>(std::move(left), morsel_rows_));
      children.push_back(
          std::make_unique<TableScanOperator>(std::move(right), morsel_rows_));
      CRE_ASSIGN_OR_RETURN(
          OperatorPtr op,
          engine_->LowerNodeOver(ctx_, source, std::move(children)));
      op = Instrument(&source, std::move(op));
      return ExecuteToTable(op.get());
    }
    default:
      return Status::Internal("unexpected pipeline source kind '" +
                              std::string(PlanKindName(source.kind)) + "'");
  }
}

Result<ParallelPlanDriver::JoinStates> ParallelPlanDriver::BuildJoinStates(
    const PipelineSegment& segment) {
  JoinStates joins;
  for (const PlanNode* op : segment.ops) {
    if (op->kind != PlanKind::kJoin) continue;
    CRE_ASSIGN_OR_RETURN(TablePtr build, Run(*op->children[1]));
    CRE_ASSIGN_OR_RETURN(
        std::shared_ptr<HashJoinTable> table,
        HashJoinTable::Build(std::move(build), op->right_key,
                             ctx_->budget_handle(),
                             engine_->footprints()));
    joins.emplace(op, std::move(table));
  }
  return joins;
}

Result<ParallelPlanDriver::SelectStates> ParallelPlanDriver::BuildSelectStates(
    const PipelineSegment& segment) {
  SelectStates selects;
  for (const PlanNode* op : segment.ops) {
    if (op->kind != PlanKind::kSemanticSelect) continue;
    CRE_ASSIGN_OR_RETURN(EmbeddingModelPtr model,
                         engine_->models().Get(op->model_name));
    const std::vector<std::string> queries =
        op->queries.empty() ? std::vector<std::string>{op->query}
                            : op->queries;
    SpanScope span(this, "embed:queries");
    span.Annotate("model", op->model_name);
    span.Annotate("queries", std::to_string(queries.size()));
    CRE_RETURN_NOT_OK(CRE_INJECT_FAULT("embed.query"));
    // The shared matrix outlives this scope (every per-morsel operator
    // instance holds it), so charge without a scoped release; the query
    // budget returns the remainder when the query finishes.
    if (ctx_->budget() != nullptr) {
      CRE_RETURN_NOT_OK(ctx_->budget()->Charge(
          queries.size() * model->dim() * sizeof(float), "query embed matrix"));
    }
    selects.emplace(op, EmbedQueries(*model, queries));
  }
  return selects;
}

Result<OperatorPtr> ParallelPlanDriver::BuildChain(
    const PipelineSegment& segment, const TablePtr& slice,
    const JoinStates& joins, const SelectStates& selects) {
  const PlanNode& source = *segment.source;
  // A chain with no operators only hands its slice on, so it reads the
  // slice as one batch instead of cutting it into batches first (at dop 1
  // the slice is the whole input).
  const bool filtered =
      source.kind == PlanKind::kScan && source.predicate != nullptr;
  const std::size_t batch_rows =
      segment.ops.empty() && !filtered ? slice->num_rows() : morsel_rows_;
  OperatorPtr cur = std::make_unique<TableScanOperator>(slice, batch_rows);
  if (source.kind == PlanKind::kScan) {
    // A pushed-down scan predicate shares the Scan's stats slot.
    if (source.predicate != nullptr) {
      cur = std::make_unique<FilterOperator>(std::move(cur),
                                             source.predicate);
    }
    cur = Instrument(&source, std::move(cur));
  }
  for (const PlanNode* op : segment.ops) {
    if (op->kind == PlanKind::kJoin) {
      cur = std::make_unique<HashJoinOperator>(
          std::move(cur), joins.at(op), op->left_key, op->right_key);
    } else if (op->kind == PlanKind::kSemanticSelect) {
      CRE_ASSIGN_OR_RETURN(cur, engine_->LowerSemanticSelectOver(
                                    *op, std::move(cur), selects.at(op)));
    } else {
      std::vector<OperatorPtr> children;
      children.push_back(std::move(cur));
      CRE_ASSIGN_OR_RETURN(
          cur, engine_->LowerNodeOver(ctx_, *op, std::move(children)));
    }
    cur = Instrument(op, std::move(cur));
  }
  return cur;
}

Result<TablePtr> ParallelPlanDriver::RunSegment(
    const PipelineSegment& segment) {
  CRE_RETURN_NOT_OK(ctx_->CheckCancelled());
  SpanScope span(this,
                 std::string("pipeline:") + PlanKindName(segment.source->kind));
  CRE_ASSIGN_OR_RETURN(TablePtr base, MaterializeSource(*segment.source));
  // Breaker outputs are freshly materialized tables the caller may own
  // outright. A bare Scan must still flow through the morsel map: its
  // morsels are O(1) slices of the snapshot table, and the map's
  // concatenation copies them into a fresh result (the snapshot table
  // must not alias into query results); it also records Scan stats.
  if (segment.ops.empty() && segment.source->kind != PlanKind::kScan) {
    return base;
  }

  CRE_ASSIGN_OR_RETURN(JoinStates joins, BuildJoinStates(segment));
  CRE_ASSIGN_OR_RETURN(SelectStates selects, BuildSelectStates(segment));
  MorselOptions options;
  options.morsel_rows = morsel_rows_;
  options.pool = runner_;
  options.cancel = ctx_->cancel_flag();
  return MorselParallelMap(
      base,
      [&](std::size_t, const TablePtr& slice) {
        return BuildChain(segment, slice, joins, selects);
      },
      options);
}

Result<TablePtr> ParallelPlanDriver::RunFallbackWithAdoption(
    const PlanNode& source, bool build_in_flight) {
  PipelineSegment fallback;
  fallback.source = source.children[0].get();
  fallback.ops.push_back(&source);
  if (!build_in_flight) return RunSegment(fallback);

  CRE_RETURN_NOT_OK(ctx_->CheckCancelled());
  SpanScope span(this, "pipeline:adaptive-select");
  CRE_ASSIGN_OR_RETURN(TablePtr base, MaterializeSource(*fallback.source));
  const std::size_t n = base->num_rows();
  const std::size_t num_morsels = (n + morsel_rows_ - 1) / morsel_rows_;
  if (num_morsels <= 1) return RunSegment(fallback);

  CRE_ASSIGN_OR_RETURN(SelectStates selects, BuildSelectStates(fallback));
  MorselOptions options;
  options.morsel_rows = morsel_rows_;
  options.pool = runner_;
  options.cancel = ctx_->cancel_flag();

  // Brute-force the input in waves of ~2 morsels per worker. Between
  // waves (pipeline-segment boundaries — no per-morsel pipeline is in
  // flight), re-probe the index: once the background build has landed,
  // the remaining rows are served by one index range search restricted to
  // row ids past the already-scanned prefix. Exact re-verification inside
  // the index operator keeps the adopted tail byte-identical to the
  // brute-force result, and prefix-then-tail concatenation preserves the
  // global row order.
  const std::size_t workers =
      runner_ != nullptr ? std::max<std::size_t>(1, runner_->num_threads())
                         : 1;
  const std::size_t wave_morsels = std::max<std::size_t>(1, workers * 2);
  const JoinStates no_joins;
  TablePtr out;
  std::size_t adopted_at_row = 0;
  bool adopted = false;
  std::size_t m = 0;
  while (m < num_morsels) {
    CRE_RETURN_NOT_OK(ctx_->CheckCancelled());
    CallAdoptionHook(m);
    if (m > 0) {
      // The first wave never polls: the probe above just reported the
      // build in flight.
      bool still_building = false;
      CRE_ASSIGN_OR_RETURN(
          OperatorPtr op,
          engine_->TryLowerIndexSelect(ctx_, source, &still_building,
                                       /*min_row_id=*/m * morsel_rows_,
                                       /*exact_verify=*/true));
      if (op != nullptr) {
        op = Instrument(&source, std::move(op));
        CRE_ASSIGN_OR_RETURN(TablePtr tail, ExecuteToTable(op.get()));
        if (out == nullptr) out = Table::Make(tail->schema());
        CRE_RETURN_NOT_OK(out->AppendTable(*tail));
        adopted = true;
        adopted_at_row = m * morsel_rows_;
        engine_->RecordIndexAdoption();
        break;
      }
      if (!still_building) {
        // The build failed or was evicted; no point polling again. Run
        // the rest as one plain brute-force map.
        TablePtr rest = base->Slice(m * morsel_rows_, n - m * morsel_rows_);
        CRE_ASSIGN_OR_RETURN(
            TablePtr part,
            MorselParallelMap(
                rest,
                [&](std::size_t, const TablePtr& slice) {
                  return BuildChain(fallback, slice, no_joins, selects);
                },
                options));
        if (out == nullptr) out = Table::Make(part->schema());
        CRE_RETURN_NOT_OK(out->AppendTable(*part));
        break;
      }
    }
    const std::size_t wave_end = std::min(num_morsels, m + wave_morsels);
    TablePtr wave_base =
        base->Slice(m * morsel_rows_, (wave_end - m) * morsel_rows_);
    CRE_ASSIGN_OR_RETURN(
        TablePtr part,
        MorselParallelMap(
            wave_base,
            [&](std::size_t, const TablePtr& slice) {
              return BuildChain(fallback, slice, no_joins, selects);
            },
            options));
    if (out == nullptr) out = Table::Make(part->schema());
    CRE_RETURN_NOT_OK(out->AppendTable(*part));
    m = wave_end;
  }
  span.Annotate("adopted", adopted ? "true" : "false");
  if (adopted) {
    span.Annotate("adopted_at_row", std::to_string(adopted_at_row));
    if (trace_ != nullptr && span_parent_ != nullptr) {
      trace_->Annotate(span_parent_, "index_adoption",
                       "row " + std::to_string(adopted_at_row) + "/" +
                           std::to_string(n));
    }
  }
  return out;
}

Result<TablePtr> ParallelPlanDriver::RunSort(const PlanNode& sort,
                                             std::size_t limit_hint) {
  Timer timer;
  CRE_ASSIGN_OR_RETURN(TablePtr input, Run(*sort.children[0]));
  CRE_RETURN_NOT_OK(ctx_->CheckCancelled());
  SpanScope span(this, "sort:" + sort.sort_key);
  SortPhaseTimings timings;
  CRE_ASSIGN_OR_RETURN(
      TablePtr out,
      SortTable(input, sort.sort_key, sort.sort_ascending, runner_,
                limit_hint, &timings, ctx_->budget(),
                engine_->footprints()));
  span.Annotate("rows", std::to_string(out->num_rows()));
  span.Annotate("runs", std::to_string(timings.runs));
  span.Annotate("merge_partitions", std::to_string(timings.merge_partitions));
  span.Annotate("local_sort_ms",
                std::to_string(timings.local_sort_seconds * 1e3));
  span.Annotate("merge_ms", std::to_string(timings.merge_seconds * 1e3));
  if (stats_ != nullptr) {
    stats_->SlotFor(&sort)->AddBatch(out->num_rows(), timer.Seconds());
  }
  return out;
}

Result<TablePtr> ParallelPlanDriver::RunLimit(const PlanNode& limit) {
  const PlanNode& child = *limit.children[0];
  Timer timer;
  if (child.kind == PlanKind::kSort && limit.limit == 0) {
    // LIMIT 0 needs only the schema; skip the sort (order of zero rows
    // is moot), not just its gather.
    CRE_ASSIGN_OR_RETURN(TablePtr input, Run(*child.children[0]));
    return input->Slice(0, 0);
  }
  if (child.kind == PlanKind::kSort) {
    // Sort feeding a LIMIT = top-k: per-run partial sorts + a merge that
    // stops at the shared budget, instead of a full sort then a cut.
    CRE_ASSIGN_OR_RETURN(TablePtr sorted, RunSort(child, limit.limit));
    if (sorted->num_rows() > limit.limit) {
      sorted = sorted->Slice(0, limit.limit);
    }
    if (trace_ != nullptr && span_parent_ != nullptr) {
      trace_->Annotate(span_parent_, "top_k", std::to_string(limit.limit));
    }
    if (stats_ != nullptr) {
      stats_->SlotFor(&limit)->AddBatch(sorted->num_rows(), timer.Seconds());
    }
    return sorted;
  }

  // The child's streamable segment runs through the morsel scheduler
  // under a shared row budget; breakers beneath it materialize as usual.
  PipelineSegment segment = DecomposePipeline(child);
  CRE_ASSIGN_OR_RETURN(TablePtr base, MaterializeSource(*segment.source));
  CRE_ASSIGN_OR_RETURN(JoinStates joins, BuildJoinStates(segment));
  CRE_ASSIGN_OR_RETURN(SelectStates selects, BuildSelectStates(segment));
  MorselOptions options;
  options.morsel_rows = morsel_rows_;
  options.pool = runner_;
  options.cancel = ctx_->cancel_flag();
  MorselBudgetStats budget;
  CRE_ASSIGN_OR_RETURN(
      TablePtr out,
      MorselParallelMapLimited(
          base,
          [&](std::size_t, const TablePtr& slice) {
            return BuildChain(segment, slice, joins, selects);
          },
          limit.limit, options, &budget));
  if (trace_ != nullptr && span_parent_ != nullptr) {
    trace_->Annotate(span_parent_, "morsels_run",
                     std::to_string(budget.morsels_run));
    trace_->Annotate(span_parent_, "morsels_total",
                     std::to_string(budget.morsels_total));
  }
  if (stats_ != nullptr) {
    stats_->SlotFor(&limit)->AddBatch(out->num_rows(), timer.Seconds());
  }
  return out;
}

Result<TablePtr> ParallelPlanDriver::RunAggregate(const PlanNode& agg) {
  Timer timer;
  PipelineSegment segment = DecomposePipeline(*agg.children[0]);
  CRE_ASSIGN_OR_RETURN(TablePtr base, MaterializeSource(*segment.source));
  CRE_ASSIGN_OR_RETURN(JoinStates joins, BuildJoinStates(segment));
  CRE_ASSIGN_OR_RETURN(SelectStates selects, BuildSelectStates(segment));

  // Learn the input schema of the aggregate from a zero-row prototype of
  // the child chain (also surfaces lowering errors before fan-out).
  CRE_ASSIGN_OR_RETURN(OperatorPtr prototype,
                       BuildChain(segment, base->Slice(0, 0), joins, selects));
  CRE_RETURN_NOT_OK(prototype->Open());
  const Schema input_schema = prototype->output_schema();

  const std::size_t n = base->num_rows();
  const std::size_t num_morsels = (n + morsel_rows_ - 1) / morsel_rows_;
  const bool parallel =
      num_morsels > 1 && runner_ != nullptr && runner_->num_threads() > 1;
  // High estimated group cardinality flips accumulation to the two-phase
  // radix scheme: the serial chunk-order merge of every partial's groups
  // would otherwise dominate.
  // Unoptimized plans carry no estimate (est_rows < 0); then a threshold
  // of 0 explicitly forces the radix form for keyed aggregates.
  const std::size_t radix_threshold =
      engine_->options().optimizer.radix_agg_min_groups;
  const bool use_radix =
      parallel && !agg.group_keys.empty() &&
      (agg.est_rows >= 0
           ? agg.est_rows >= static_cast<double>(radix_threshold)
           : radix_threshold == 0);

  // Fixed chunk layout with per-chunk slots: workers race only on their
  // own slot, and the deterministic merge orders below (chunk index, or
  // partition-then-chunk index for radix) make the final group map — and
  // thus the output row order — deterministic run-to-run for a given
  // thread count. The radix form uses exactly one chunk per worker:
  // phase 2 merges every chunk's copy of every partition, so its work
  // grows with chunks x groups, and per-row hash work is uniform enough
  // that finer chunks buy no balance. The single-state form is one chunk.
  std::size_t per_chunk = num_morsels;
  std::size_t num_chunks = 1;
  if (parallel) {
    const std::size_t chunks = std::min<std::size_t>(
        num_morsels,
        std::max<std::size_t>(1, use_radix ? runner_->num_threads()
                                           : runner_->num_threads() * 4));
    per_chunk = (num_morsels + chunks - 1) / chunks;
    num_chunks = (num_morsels + per_chunk - 1) / per_chunk;
  }

  // Charge the accumulation's private state: every chunk keeps its own
  // hash (or radix-partitioned) aggregation state, sized by the group
  // cardinality estimate; plans without an estimate fall back to the
  // input row count (a keyed aggregate can never exceed it). The
  // calibrator replaces the static 64 bytes/group prior with the
  // observed bytes/group of past aggregations.
  ScopedCharge agg_charge;
  if (ctx_->budget() != nullptr) {
    const std::size_t est_groups =
        agg.est_rows >= 0 ? static_cast<std::size_t>(agg.est_rows) : n;
    const std::size_t per_chunk_bytes = engine_->footprints()->EstimateBytes(
        FootprintSite::kAggState, est_groups, est_groups * 64);
    const std::size_t state_bytes = per_chunk_bytes * num_chunks;
    CRE_RETURN_NOT_OK(
        ctx_->budget()->Charge(state_bytes, "aggregation state"));
    agg_charge = ScopedCharge(ctx_->budget_handle(), state_bytes);
  }

  if (!parallel) {
    GroupedAggregationState total;
    CRE_RETURN_NOT_OK(total.Init(input_schema, agg.group_keys, agg.aggs));
    CRE_ASSIGN_OR_RETURN(OperatorPtr chain,
                         BuildChain(segment, base, joins, selects));
    CRE_RETURN_NOT_OK(chain->Open());
    for (;;) {
      CRE_RETURN_NOT_OK(ctx_->CheckCancelled());
      CRE_ASSIGN_OR_RETURN(TablePtr batch, chain->Next());
      if (batch == nullptr) break;
      CRE_RETURN_NOT_OK(total.Consume(*batch));
    }
    if (total.num_groups() > 0) {
      engine_->footprints()->Observe(FootprintSite::kAggState,
                                     total.num_groups(), total.MemoryBytes());
    }
    CRE_ASSIGN_OR_RETURN(TablePtr out, total.Finalize());
    if (stats_ != nullptr) {
      stats_->SlotFor(&agg)->AddBatch(out->num_rows(), timer.Seconds());
    }
    return out;
  }

  // Drives chunk `c`'s morsel chains into `consume`, polling the
  // cancellation flag between morsels; within the chunk, rows stream in
  // order, one morsel at a time.
  auto run_chunk = [&](std::size_t c,
                       const std::function<Status(const Table&)>& consume)
      -> Status {
    const std::size_t begin_row = c * per_chunk * morsel_rows_;
    const std::size_t end_row =
        std::min(n, begin_row + per_chunk * morsel_rows_);
    for (std::size_t r = begin_row; r < end_row; r += morsel_rows_) {
      CRE_RETURN_NOT_OK(ctx_->CheckCancelled());
      TablePtr slice = base->Slice(r, std::min(morsel_rows_, end_row - r));
      CRE_ASSIGN_OR_RETURN(OperatorPtr chain,
                           BuildChain(segment, slice, joins, selects));
      CRE_RETURN_NOT_OK(chain->Open());
      for (;;) {
        CRE_ASSIGN_OR_RETURN(TablePtr batch, chain->Next());
        if (batch == nullptr) break;
        CRE_RETURN_NOT_OK(consume(*batch));
      }
    }
    return Status::OK();
  };

  TablePtr out;
  double accumulate_seconds = 0;
  double merge_seconds = 0;
  std::size_t partitions_used = 0;
  if (!use_radix) {
    // Phase 1: one private hash state per chunk. Phase 2: serial
    // chunk-order merge (the tail the radix form removes). Groups keep
    // first-seen order, so the output rows come in the serial order.
    Timer accumulate_timer;
    std::vector<GroupedAggregationState> partials(num_chunks);
    std::vector<Status> statuses(num_chunks);
    for (std::size_t c = 0; c < num_chunks; ++c) {
      runner_->Submit([&, c] {
        GroupedAggregationState& local = partials[c];
        statuses[c] = [&]() -> Status {
          CRE_RETURN_NOT_OK(
              local.Init(input_schema, agg.group_keys, agg.aggs));
          return run_chunk(
              c, [&](const Table& batch) { return local.Consume(batch); });
        }();
      });
    }
    runner_->Wait();
    for (const Status& status : statuses) CRE_RETURN_NOT_OK(status);
    accumulate_seconds = accumulate_timer.Seconds();

    // Measure the accumulated state before the merge consumes it: the
    // observed bytes/group calibrates future aggregation-state charges.
    std::size_t state_groups = 0;
    std::size_t state_bytes = 0;
    for (const auto& partial : partials) {
      state_groups += partial.num_groups();
      state_bytes += partial.MemoryBytes();
    }
    if (state_groups > 0) {
      engine_->footprints()->Observe(FootprintSite::kAggState, state_groups,
                                     state_bytes);
    }

    Timer merge_timer;
    GroupedAggregationState total;
    CRE_RETURN_NOT_OK(total.Init(input_schema, agg.group_keys, agg.aggs));
    for (auto& partial : partials) total.Merge(std::move(partial));
    CRE_ASSIGN_OR_RETURN(out, total.Finalize());
    merge_seconds = merge_timer.Seconds();
  } else {
    // Phase 1: every chunk partitions its rows by group-key hash radix
    // into a private set of partition states.
    const std::size_t num_partitions = std::min<std::size_t>(
        64, std::max<std::size_t>(2, runner_->num_threads() * 4));
    Timer accumulate_timer;
    std::vector<RadixAggregationState> partials(num_chunks);
    std::vector<Status> statuses(num_chunks);
    for (std::size_t c = 0; c < num_chunks; ++c) {
      runner_->Submit([&, c] {
        RadixAggregationState& local = partials[c];
        statuses[c] = [&]() -> Status {
          CRE_RETURN_NOT_OK(local.Init(input_schema, agg.group_keys,
                                       agg.aggs, num_partitions));
          return run_chunk(
              c, [&](const Table& batch) { return local.Consume(batch); });
        }();
      });
    }
    runner_->Wait();
    for (const Status& status : statuses) CRE_RETURN_NOT_OK(status);
    accumulate_seconds = accumulate_timer.Seconds();
    partitions_used = partials.front().num_partitions();

    std::size_t state_groups = 0;
    std::size_t state_bytes = 0;
    for (auto& partial : partials) {
      for (std::size_t p = 0; p < partial.num_partitions(); ++p) {
        state_groups += partial.partition(p).num_groups();
        state_bytes += partial.partition(p).MemoryBytes();
      }
    }
    if (state_groups > 0) {
      engine_->footprints()->Observe(FootprintSite::kAggState, state_groups,
                                     state_bytes);
    }

    // Phase 2: all occurrences of a group share a partition index, so
    // partitions merge and finalize independently — one task each, no
    // serial tail. Chunk-order merges within a partition plus
    // partition-order concatenation keep the output deterministic.
    Timer merge_timer;
    std::vector<Result<TablePtr>> merged(
        partitions_used,
        Result<TablePtr>(Status::Internal("partition not merged")));
    runner_->ParallelFor(
        partitions_used,
        [&](std::size_t begin, std::size_t end) {
          for (std::size_t p = begin; p < end; ++p) {
            GroupedAggregationState& acc = partials[0].partition(p);
            for (std::size_t c = 1; c < num_chunks; ++c) {
              acc.Merge(std::move(partials[c].partition(p)));
            }
            merged[p] = acc.Finalize();
          }
        },
        /*min_chunk=*/1);
    for (auto& part : merged) {
      if (!part.ok()) return part.status();
      TablePtr table = std::move(part).ValueUnsafe();
      if (out == nullptr) {
        out = Table::Make(table->schema());
      }
      CRE_RETURN_NOT_OK(out->AppendTable(*table));
    }
    merge_seconds = merge_timer.Seconds();
  }

  if (trace_ != nullptr && span_parent_ != nullptr) {
    trace_->Annotate(span_parent_, "agg_mode", use_radix ? "radix" : "hash");
    if (use_radix) {
      trace_->Annotate(span_parent_, "agg_partitions",
                       std::to_string(partitions_used));
    }
    trace_->Annotate(span_parent_, "agg_accumulate_ms",
                     std::to_string(accumulate_seconds * 1e3));
    trace_->Annotate(span_parent_, "agg_merge_ms",
                     std::to_string(merge_seconds * 1e3));
  }
  if (stats_ != nullptr) {
    stats_->SlotFor(&agg)->AddBatch(out->num_rows(), timer.Seconds());
  }
  return out;
}

}  // namespace cre
