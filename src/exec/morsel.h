#ifndef CRE_EXEC_MORSEL_H_
#define CRE_EXEC_MORSEL_H_

#include <functional>

#include "core/cancel.h"
#include "core/result.h"
#include "core/task_runner.h"
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

/// Morsel counts of one map, for EXPLAIN ANALYZE and the scale-up
/// benches: how much of the input a LIMIT's row budget let it skip.
struct MorselBudgetStats {
  std::size_t morsels_total = 0;
  std::size_t morsels_run = 0;  ///< pipelines actually executed
};

/// The one morsel map. Runs `build(i, slice_i)` for the morsels of `table`
/// on `options.pool` and returns the first `limit` rows (all rows by
/// default) of the morsel-order concatenation of their outputs, so the
/// result is the same at every thread count. Without a pool (or with one
/// thread) one pipeline runs over the whole table; a zero-row input, or
/// a zero limit, still learns the output schema from a zero-row pipeline.
///
/// Workers claim morsel indices in increasing order; every completed
/// morsel advances a contiguous "prefix done" row count, and once that
/// prefix alone covers `limit` all unclaimed morsels are skipped (rows of
/// later morsels can never displace prefix rows, so the cutoff is exact).
/// Each pipeline also stops pulling batches once its output reaches the
/// budget left at claim time. Without a limit the cutoff never fires.
/// Cancellation is polled before each morsel; the first per-morsel error
/// (in morsel order) wins.
Result<TablePtr> MorselParallelMap(const TablePtr& table,
                                   const MorselPipelineBuilder& build,
                                   const MorselOptions& options = {},
                                   std::size_t limit = kNoRowCap,
                                   MorselBudgetStats* stats = nullptr);

}  // namespace cre

#endif  // CRE_EXEC_MORSEL_H_
