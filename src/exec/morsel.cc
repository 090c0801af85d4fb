#include "exec/morsel.h"

#include <algorithm>
#include <atomic>
#include <mutex>
#include <vector>

namespace cre {

Result<TablePtr> MorselParallelMap(const TablePtr& table,
                                   const MorselPipelineBuilder& build,
                                   const MorselOptions& options,
                                   std::size_t limit,
                                   MorselBudgetStats* stats) {
  const std::size_t n = table->num_rows();
  const bool parallel =
      options.pool != nullptr && options.pool->num_threads() > 1;
  // Serially, one morsel spans the whole table.
  const std::size_t morsel =
      std::max<std::size_t>(1, parallel ? options.morsel_rows : n);
  const std::size_t num_morsels =
      limit == 0 ? 0 : (n + morsel - 1) / morsel;
  if (stats != nullptr) *stats = MorselBudgetStats{num_morsels, 0};
  if (num_morsels == 0) {
    CRE_ASSIGN_OR_RETURN(OperatorPtr pipeline, build(0, table->Slice(0, 0)));
    return ExecuteToTable(pipeline.get(), limit);
  }

  // Each morsel writes only its own result slot. `prefix`/`prefix_rows`
  // track the contiguous run of completed morsels from index 0 and their
  // output rows (guarded by mu); `floor` publishes min(limit, prefix_rows)
  // to claiming workers. `cutoff` is the first morsel index proven
  // unnecessary: set once, when the completed prefix alone covers the
  // limit (never, without one).
  std::vector<Result<TablePtr>> results(
      num_morsels, Result<TablePtr>(Status::Internal("morsel not run")));
  std::vector<char> completed(num_morsels, 0);
  std::atomic<std::size_t> cutoff{num_morsels};
  std::atomic<std::size_t> floor{0};
  std::mutex mu;
  std::size_t prefix = 0;
  std::size_t prefix_rows = 0;

  auto run_morsel = [&](std::size_t m, std::size_t) {
    if (m >= cutoff.load(std::memory_order_acquire)) return;
    // Rows of the completed prefix at claim time precede everything this
    // morsel emits, so its useful output is capped by the budget left
    // (the floor is monotone, so the cap is race-safe). A zero cap means
    // a completed prefix already covers the limit.
    const std::size_t cap =
        limit - std::min(limit, floor.load(std::memory_order_relaxed));
    if (cap == 0) return;
    if (options.cancel != nullptr && options.cancel->cancelled()) {
      results[m] = Status::Cancelled("query cancelled mid-morsel-map");
    } else {
      results[m] = [&]() -> Result<TablePtr> {
        CRE_ASSIGN_OR_RETURN(OperatorPtr pipeline,
                             build(m, table->Slice(m * morsel, morsel)));
        return ExecuteToTable(pipeline.get(), cap);
      }();
    }
    std::lock_guard<std::mutex> lock(mu);
    completed[m] = 1;
    while (prefix < num_morsels && completed[prefix]) {
      // Errors count as 0 rows; they surface below.
      if (results[prefix].ok()) {
        prefix_rows += results[prefix].ValueUnsafe()->num_rows();
      }
      ++prefix;
    }
    floor.store(std::min(limit, prefix_rows), std::memory_order_relaxed);
    if (prefix_rows >= limit && cutoff.load() == num_morsels) {
      cutoff.store(prefix, std::memory_order_release);
    }
  };
  // ParallelFor claims one-morsel pieces in ascending order, which the
  // prefix-complete cutoff relies on.
  if (num_morsels == 1) {
    run_morsel(0, 1);
  } else {
    options.pool->ParallelFor(num_morsels, run_morsel, /*grain=*/1);
  }

  // Morsels below the cutoff are all complete; later ones are unneeded.
  if (stats != nullptr) {
    stats->morsels_run = static_cast<std::size_t>(
        std::count(completed.begin(), completed.end(), 1));
  }
  std::vector<TablePtr> parts;
  for (std::size_t m = 0; m < cutoff.load(); ++m) {
    if (!results[m].ok()) return results[m].status();
    parts.push_back(std::move(results[m]).ValueUnsafe());
  }
  // One morsel's output is already a fresh table within the limit.
  if (parts.size() == 1) return parts.front();
  return Concatenate(parts.front()->schema(), parts, limit);
}

}  // namespace cre
