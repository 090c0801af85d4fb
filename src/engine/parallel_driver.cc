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

Result<ParallelPlanDriver::SegmentInputs> ParallelPlanDriver::PrepareSegment(
    const PipelineSegment& segment) {
  SegmentInputs inputs;
  CRE_ASSIGN_OR_RETURN(inputs.base, MaterializeSource(*segment.source));
  for (const PlanNode* op : segment.ops) {
    if (op->kind == PlanKind::kJoin) {
      CRE_ASSIGN_OR_RETURN(TablePtr build, Run(*op->children[1]));
      CRE_ASSIGN_OR_RETURN(
          std::shared_ptr<HashJoinTable> table,
          HashJoinTable::Build(std::move(build), op->right_key,
                               ctx_->budget_handle()));
      inputs.joins.emplace(op, std::move(table));
      continue;
    }
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
    // The charge lives beside the matrix: the segment's per-morsel
    // operators share the matrix only while the segment runs.
    SelectState state;
    CRE_RETURN_NOT_OK(state.charge.Acquire(
        ctx_->budget_handle(), queries.size() * model->dim() * sizeof(float),
        "query embed matrix"));
    state.queries = EmbedQueries(*model, queries);
    inputs.selects.emplace(op, std::move(state));
  }
  return inputs;
}

Result<TablePtr> ParallelPlanDriver::MapSegment(
    const PipelineSegment& segment, const SegmentInputs& inputs,
    const TablePtr& base, std::size_t limit, MorselBudgetStats* stats) {
  MorselOptions options;
  options.morsel_rows = morsel_rows_;
  options.pool = runner_;
  options.cancel = ctx_->cancel_flag();
  return MorselParallelMap(
      base,
      [&](std::size_t, const TablePtr& slice) {
        return BuildChain(segment, inputs, slice);
      },
      options, limit, stats);
}

Result<OperatorPtr> ParallelPlanDriver::BuildChain(
    const PipelineSegment& segment, const SegmentInputs& inputs,
    const TablePtr& slice) {
  const PlanNode& source = *segment.source;
  OperatorPtr cur = std::make_unique<TableScanOperator>(slice, morsel_rows_);
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
          std::move(cur), inputs.joins.at(op), op->left_key, op->right_key);
    } else if (op->kind == PlanKind::kSemanticSelect) {
      CRE_ASSIGN_OR_RETURN(cur, engine_->LowerSemanticSelectOver(
                                    ctx_, *op, std::move(cur),
                                    inputs.selects.at(op).queries));
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
  CRE_ASSIGN_OR_RETURN(SegmentInputs inputs, PrepareSegment(segment));
  // Breaker outputs are freshly materialized tables the caller may own
  // outright. A bare Scan must still flow through the morsel map: its
  // morsels are O(1) slices of the snapshot table, and the map's
  // concatenation copies them into a fresh result (the snapshot table
  // must not alias into query results); it also records Scan stats.
  if (segment.ops.empty() && segment.source->kind != PlanKind::kScan) {
    return inputs.base;
  }
  return MapSegment(segment, inputs, inputs.base);
}

Result<TablePtr> ParallelPlanDriver::RunFallbackWithAdoption(
    const PlanNode& source, bool build_in_flight) {
  PipelineSegment fallback;
  fallback.source = source.children[0].get();
  fallback.ops.push_back(&source);
  if (!build_in_flight) return RunSegment(fallback);

  CRE_RETURN_NOT_OK(ctx_->CheckCancelled());
  SpanScope span(this, "pipeline:adaptive-select");
  CRE_ASSIGN_OR_RETURN(SegmentInputs inputs, PrepareSegment(fallback));
  const std::size_t n = inputs.base->num_rows();

  // Brute-force the input in waves of ~2 morsels per worker. Between
  // waves (pipeline-segment boundaries — no per-morsel pipeline is in
  // flight), re-probe the index: once the background build has landed,
  // the remaining rows are served by one index range search restricted to
  // row ids past the already-scanned prefix. Exact re-verification inside
  // the index operator keeps the adopted tail byte-identical to the
  // brute-force result, and prefix-then-tail concatenation preserves the
  // global row order. Once the build is gone (failed or evicted) there is
  // nothing to poll for, and one last wave spans the rest.
  const std::size_t wave_rows = runner_->num_threads() * 2 * morsel_rows_;
  std::vector<TablePtr> parts;
  bool polling = true;
  std::size_t row = 0;
  do {
    CRE_RETURN_NOT_OK(ctx_->CheckCancelled());
    CallAdoptionHook(row / morsel_rows_);
    if (row > 0) {
      // The first wave never polls: the probe above just reported the
      // build in flight.
      CRE_ASSIGN_OR_RETURN(
          OperatorPtr op,
          engine_->TryLowerIndexSelect(ctx_, source, &polling,
                                       /*min_row_id=*/row,
                                       /*exact_verify=*/true));
      if (op != nullptr) {
        op = Instrument(&source, std::move(op));
        CRE_ASSIGN_OR_RETURN(TablePtr tail, ExecuteToTable(op.get()));
        parts.push_back(std::move(tail));
        engine_->RecordIndexAdoption();
        break;
      }
    }
    const std::size_t rows = polling ? wave_rows : n - row;
    CRE_ASSIGN_OR_RETURN(
        TablePtr part,
        MapSegment(fallback, inputs, inputs.base->Slice(row, rows)));
    parts.push_back(std::move(part));
    row += rows;
  } while (row < n);
  // Only an adoption leaves the loop before the last row.
  const bool adopted = row < n;
  span.Annotate("adopted", adopted ? "true" : "false");
  if (adopted) {
    span.Annotate("adopted_at_row", std::to_string(row));
    if (trace_ != nullptr && span_parent_ != nullptr) {
      trace_->Annotate(span_parent_, "index_adoption",
                       "row " + std::to_string(row) + "/" +
                           std::to_string(n));
    }
  }
  return Concatenate(parts.front()->schema(), parts);
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
                limit_hint, &timings, ctx_->budget_handle()));
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

  // The child's streamable segment runs through the morsel map under a
  // shared row budget; breakers beneath it materialize as usual.
  const PipelineSegment segment = DecomposePipeline(child);
  CRE_ASSIGN_OR_RETURN(SegmentInputs inputs, PrepareSegment(segment));
  MorselBudgetStats budget;
  CRE_ASSIGN_OR_RETURN(
      TablePtr out,
      MapSegment(segment, inputs, inputs.base, limit.limit, &budget));
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
  const PipelineSegment segment = DecomposePipeline(*agg.children[0]);
  CRE_ASSIGN_OR_RETURN(SegmentInputs inputs, PrepareSegment(segment));

  // Learn the input schema of the aggregate from a zero-row prototype of
  // the child chain (also surfaces lowering errors before fan-out).
  CRE_ASSIGN_OR_RETURN(OperatorPtr prototype,
                       BuildChain(segment, inputs, inputs.base->Slice(0, 0)));
  CRE_RETURN_NOT_OK(prototype->Open());
  const Schema input_schema = prototype->output_schema();

  const std::size_t n = inputs.base->num_rows();
  const std::size_t num_morsels = (n + morsel_rows_ - 1) / morsel_rows_;
  const std::size_t dop = runner_->num_threads();
  const bool use_radix =
      num_morsels > 1 &&
      UseRadixAggregation(agg, dop,
                          engine_->options().optimizer.radix_agg_min_groups);

  // Fixed chunk layout of whole morsels with per-chunk states: workers
  // race only on their own state, and the deterministic merge orders
  // below (chunk index, or partition-then-chunk index for radix) make the
  // final group map — and thus the output row order — deterministic
  // run-to-run for a given thread count. The radix form uses exactly one
  // chunk per worker: phase 2 merges every chunk's copy of every
  // partition, so its work grows with chunks x groups, and per-row hash
  // work is uniform enough that finer chunks buy no balance. At dop 1, or
  // on one morsel, one chunk spans the input.
  std::size_t num_chunks = 1;
  std::size_t chunk_rows = n;
  if (num_morsels > 1 && dop > 1) {
    const std::size_t chunks =
        std::min(num_morsels, use_radix ? dop : dop * 4);
    const std::size_t per_chunk = (num_morsels + chunks - 1) / chunks;
    num_chunks = (num_morsels + per_chunk - 1) / per_chunk;
    chunk_rows = per_chunk * morsel_rows_;
  }

  // Charge the accumulation's states before any is built, each at its
  // layout's size for the estimated group count; plans without an
  // estimate fall back to the input row count, and a global aggregate
  // holds one group. Either form keeps one state per chunk (the hash
  // form's first chunk accumulates into the merged total).
  GroupedAggregationState total;
  CRE_RETURN_NOT_OK(total.Init(input_schema, agg.group_keys, agg.aggs));
  ScopedCharge agg_charge;
  if (ctx_->budget() != nullptr) {
    const std::size_t groups =
        agg.group_keys.empty()
            ? 1
            : agg.est_rows >= 0 ? static_cast<std::size_t>(agg.est_rows) : n;
    CRE_RETURN_NOT_OK(agg_charge.Acquire(ctx_->budget_handle(),
                                         num_chunks * total.BytesFor(groups),
                                         "aggregation state"));
  }

  // Phase 1: chunk `c` streams its rows, in order, through one chain into
  // `state(c)`; the cancellation flag is polled between batches.
  auto accumulate = [&](const auto& state) -> Status {
    std::vector<Status> statuses(num_chunks);
    runner_->ParallelFor(
        num_chunks,
        [&](std::size_t c, std::size_t) {
          statuses[c] = [&]() -> Status {
            CRE_ASSIGN_OR_RETURN(
                OperatorPtr chain,
                BuildChain(segment, inputs,
                           inputs.base->Slice(c * chunk_rows, chunk_rows)));
            CRE_RETURN_NOT_OK(chain->Open());
            for (;;) {
              CRE_RETURN_NOT_OK(ctx_->CheckCancelled());
              CRE_ASSIGN_OR_RETURN(TablePtr batch, chain->Next());
              if (batch == nullptr) return Status::OK();
              CRE_RETURN_NOT_OK(state(c)->Consume(*batch));
            }
          }();
        },
        /*grain=*/1);
    for (const Status& status : statuses) CRE_RETURN_NOT_OK(status);
    return Status::OK();
  };

  TablePtr out;
  Timer accumulate_timer;
  double accumulate_seconds = 0;
  double merge_seconds = 0;
  std::size_t partitions_used = 0;
  if (!use_radix) {
    // One private hash state per chunk after the first, merged into the
    // total in chunk order (the serial tail the radix form removes).
    // Groups keep first-seen order, so the output rows come in the
    // serial order.
    std::vector<GroupedAggregationState> partials(num_chunks - 1);
    for (auto& partial : partials) {
      CRE_RETURN_NOT_OK(partial.Init(input_schema, agg.group_keys, agg.aggs));
    }
    CRE_RETURN_NOT_OK(accumulate([&](std::size_t c) {
      return c == 0 ? &total : &partials[c - 1];
    }));
    accumulate_seconds = accumulate_timer.Seconds();
    Timer merge_timer;
    for (auto& partial : partials) total.Merge(std::move(partial));
    CRE_ASSIGN_OR_RETURN(out, total.Finalize());
    merge_seconds = merge_timer.Seconds();
  } else {
    // Every chunk partitions its rows by group-key hash radix into a
    // private set of partition states.
    const std::size_t num_partitions =
        std::min<std::size_t>(64, std::max<std::size_t>(2, dop * 4));
    std::vector<RadixAggregationState> partials(num_chunks);
    for (auto& partial : partials) {
      CRE_RETURN_NOT_OK(partial.Init(input_schema, agg.group_keys, agg.aggs,
                                     num_partitions));
    }
    CRE_RETURN_NOT_OK(
        accumulate([&](std::size_t c) { return &partials[c]; }));
    accumulate_seconds = accumulate_timer.Seconds();
    partitions_used = partials.front().num_partitions();

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
        [&](std::size_t p, std::size_t) {
          GroupedAggregationState& acc = partials[0].partition(p);
          for (std::size_t c = 1; c < num_chunks; ++c) {
            acc.Merge(std::move(partials[c].partition(p)));
          }
          merged[p] = acc.Finalize();
        },
        /*grain=*/1);
    std::vector<TablePtr> parts;
    for (auto& part : merged) {
      if (!part.ok()) return part.status();
      parts.push_back(std::move(part).ValueUnsafe());
    }
    CRE_ASSIGN_OR_RETURN(out, Concatenate(parts.front()->schema(), parts));
    merge_seconds = merge_timer.Seconds();
  }

  if (num_chunks > 1 && trace_ != nullptr && span_parent_ != nullptr) {
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
