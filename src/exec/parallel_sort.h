#ifndef CRE_EXEC_PARALLEL_SORT_H_
#define CRE_EXEC_PARALLEL_SORT_H_

#include <string>

#include "core/resource_governor.h"
#include "core/result.h"
#include "core/task_runner.h"
#include "storage/table.h"

namespace cre {

/// Wall-clock breakdown of one SortTable call, split at the phase boundary
/// the parallel algorithm introduces: sorting the per-run row-index arrays
/// (embarrassingly parallel) vs merging the sorted runs (parallelized by
/// range-partitioning on sampled splitters, but with a serial residue of
/// sampling, boundary search, and the final gather).
struct SortPhaseTimings {
  double local_sort_seconds = 0;
  double merge_seconds = 0;
  std::size_t runs = 0;              ///< sorted runs produced (1 = serial)
  std::size_t merge_partitions = 0;  ///< range partitions merged in parallel
};

/// Sorts `input` by the single key column `key`. The produced row order is
/// the stable sort order: equal keys keep their input order, for every
/// thread count — the comparator totalizes (key, input row index), so the
/// serial and parallel algorithms compute the same unique permutation.
///
/// With a multi-thread `pool` the input splits into per-worker runs that
/// sort locally in parallel; the sorted runs then feed a k-way loser-tree
/// merge that is itself parallelized by range-partitioning on splitters
/// sampled from the runs (each partition merges independently into its
/// pre-computed output slice). With a null/single-thread pool the whole
/// table is one run (classic serial sort).
///
/// `limit_hint` > 0 means only the first `limit_hint` output rows are
/// needed (Sort feeding a LIMIT): each run partial-sorts to the hint and
/// the merge stops after emitting that many rows, turning O(n log n) into
/// O(n log k) top-k work. The returned table then holds at most
/// `limit_hint` rows.
///
/// With a non-null `budget` the transient sort state — the gathered
/// output, one input-shaped row per output row, plus two row-index arrays
/// (runs and merged permutation) — is charged for the duration of the
/// call; a breach returns kResourceExhausted before any run is sorted.
Result<TablePtr> SortTable(const TablePtr& input, const std::string& key,
                           bool ascending, TaskRunner* pool,
                           std::size_t limit_hint = 0,
                           SortPhaseTimings* timings = nullptr,
                           QueryBudgetPtr budget = nullptr);

}  // namespace cre

#endif  // CRE_EXEC_PARALLEL_SORT_H_
