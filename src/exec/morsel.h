#ifndef CRE_EXEC_MORSEL_H_
#define CRE_EXEC_MORSEL_H_

#include <functional>

#include "core/cancel.h"
#include "core/result.h"
#include "core/thread_pool.h"
#include "exec/operator.h"

namespace cre {

/// Morsel scheduling for the pipeline-aware parallel driver: a base table
/// is split into contiguous morsels, each morsel is run through a
/// self-contained operator pipeline instantiated by the caller, and the
/// per-morsel outputs are concatenated in morsel order (deterministic
/// output regardless of scheduling). This is the engine's scale-up
/// mechanism for the streamable portions of a query; breakers (joins'
/// build sides, aggregates, sorts, semantic group-by) are handled by the
/// driver around calls to this primitive.
struct MorselOptions {
  std::size_t morsel_rows = 8 * 1024;
  TaskRunner* pool = nullptr;  ///< nullptr = run serially
  /// Cooperative cancellation: polled before each morsel pipeline runs;
  /// once set, remaining morsels resolve to Status::Cancelled and the
  /// map returns it. nullptr = not cancellable.
  const CancelFlag* cancel = nullptr;
};

/// Instantiates the per-morsel pipeline for morsel `index` over `slice`.
/// Must return a self-contained operator tree (called concurrently from
/// worker threads; shared state it captures must be read-only).
using MorselPipelineBuilder =
    std::function<Result<OperatorPtr>(std::size_t index, const TablePtr& slice)>;

/// Runs `build(i, slice_i)` to completion for every morsel of `table` on
/// `options.pool` and concatenates the results in morsel order. Falls back
/// to a single serial pipeline over the whole table when the input fits in
/// one morsel or no pool is available (also how a zero-row input learns
/// its output schema). The first per-morsel error wins.
Result<TablePtr> MorselParallelMap(const TablePtr& table,
                                   const MorselPipelineBuilder& build,
                                   const MorselOptions& options = {});

/// Outcome counters of one budgeted (LIMIT) morsel map, for EXPLAIN
/// ANALYZE and the scale-up benches: how much of the input the shared row
/// budget let the scheduler skip.
struct MorselBudgetStats {
  std::size_t morsels_total = 0;
  std::size_t morsels_run = 0;      ///< pipelines actually executed
  std::size_t morsels_skipped = 0;  ///< cut off by the exhausted budget
};

/// LIMIT-aware variant: runs morsel pipelines through the pool under a
/// shared atomic row budget and returns the first `limit` rows of the
/// morsel-order concatenation — byte-identical to running the full map
/// and slicing, but with early termination. Workers claim morsel indices
/// in increasing order; every completed morsel advances a contiguous
/// "prefix done" row count, and once that prefix alone covers the limit
/// all unclaimed morsels are skipped (rows from morsels beyond a
/// completed prefix can never displace prefix rows, so the cutoff is
/// exact, not heuristic). Each pipeline also stops pulling batches once
/// its own output reaches the budget remaining at claim time, bounding
/// work inside a morsel. With no pool (or one thread) one pipeline runs
/// over the whole table and stops at `limit` rows.
Result<TablePtr> MorselParallelMapLimited(const TablePtr& table,
                                          const MorselPipelineBuilder& build,
                                          std::size_t limit,
                                          const MorselOptions& options = {},
                                          MorselBudgetStats* stats = nullptr);

}  // namespace cre

#endif  // CRE_EXEC_MORSEL_H_
