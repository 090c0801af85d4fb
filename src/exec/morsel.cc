#include "exec/morsel.h"

#include <atomic>
#include <mutex>
#include <vector>

namespace cre {

Result<TablePtr> MorselParallelMap(const TablePtr& table,
                                   const MorselPipelineBuilder& build,
                                   const MorselOptions& options) {
  const std::size_t n = table->num_rows();
  const std::size_t morsel = std::max<std::size_t>(1, options.morsel_rows);
  const std::size_t num_morsels = n == 0 ? 0 : (n + morsel - 1) / morsel;

  if (num_morsels <= 1 || options.pool == nullptr ||
      options.pool->num_threads() <= 1) {
    if (options.cancel != nullptr && options.cancel->cancelled()) {
      return Status::Cancelled("query cancelled before morsel execution");
    }
    CRE_ASSIGN_OR_RETURN(OperatorPtr pipeline, build(0, table));
    return ExecuteToTable(pipeline.get());
  }

  // Each task writes only its own slot, so no lock is needed.
  std::vector<Result<TablePtr>> results(
      num_morsels, Result<TablePtr>(Status::Internal("morsel not run")));

  options.pool->ParallelFor(
      num_morsels,
      [&](std::size_t begin, std::size_t end) {
        for (std::size_t m = begin; m < end; ++m) {
          if (options.cancel != nullptr && options.cancel->cancelled()) {
            results[m] = Status::Cancelled("query cancelled mid-morsel-map");
            continue;
          }
          results[m] = [&]() -> Result<TablePtr> {
            CRE_ASSIGN_OR_RETURN(OperatorPtr pipeline,
                                 build(m, table->Slice(m * morsel, morsel)));
            return ExecuteToTable(pipeline.get());
          }();
        }
      },
      /*min_chunk=*/1);

  // Concatenate in morsel order; propagate the first error.
  TablePtr out;
  for (auto& r : results) {
    if (!r.ok()) return r.status();
    TablePtr part = std::move(r).ValueUnsafe();
    if (out == nullptr) {
      out = Table::Make(part->schema());
    }
    CRE_RETURN_NOT_OK(out->AppendTable(*part));
  }
  return out;
}

namespace {

/// Drives `pipeline` until end-of-stream or `cap` output rows, slicing the
/// final batch so the result never exceeds the budget.
Result<TablePtr> RunPipelineCapped(PhysicalOperator* pipeline,
                                   std::size_t cap) {
  CRE_RETURN_NOT_OK(pipeline->Open());
  auto out = Table::Make(pipeline->output_schema());
  while (out->num_rows() < cap) {
    CRE_ASSIGN_OR_RETURN(TablePtr batch, pipeline->Next());
    if (batch == nullptr) break;
    const std::size_t remaining = cap - out->num_rows();
    if (batch->num_rows() > remaining) {
      CRE_RETURN_NOT_OK(out->AppendTable(*batch->Slice(0, remaining)));
      break;
    }
    CRE_RETURN_NOT_OK(out->AppendTable(*batch));
  }
  return out;
}

}  // namespace

Result<TablePtr> MorselParallelMapLimited(const TablePtr& table,
                                          const MorselPipelineBuilder& build,
                                          std::size_t limit,
                                          const MorselOptions& options,
                                          MorselBudgetStats* stats) {
  const std::size_t n = table->num_rows();
  const std::size_t morsel = std::max<std::size_t>(1, options.morsel_rows);
  const std::size_t num_morsels = n == 0 ? 0 : (n + morsel - 1) / morsel;
  if (stats != nullptr) {
    *stats = MorselBudgetStats{};
    stats->morsels_total = num_morsels;
  }

  if (limit == 0) {
    // Zero budget: still learn the output schema from a zero-row pipeline.
    CRE_ASSIGN_OR_RETURN(OperatorPtr pipeline, build(0, table->Slice(0, 0)));
    CRE_RETURN_NOT_OK(pipeline->Open());
    return Table::Make(pipeline->output_schema());
  }

  if (num_morsels <= 1 || options.pool == nullptr ||
      options.pool->num_threads() <= 1) {
    if (options.cancel != nullptr && options.cancel->cancelled()) {
      return Status::Cancelled("query cancelled before morsel execution");
    }
    // One pipeline over the whole table, stopping at the limit.
    CRE_ASSIGN_OR_RETURN(OperatorPtr pipeline, build(0, table));
    if (stats != nullptr) stats->morsels_run = num_morsels;
    return RunPipelineCapped(pipeline.get(), limit);
  }

  std::vector<Result<TablePtr>> results(
      num_morsels, Result<TablePtr>(Status::Internal("morsel not run")));
  std::vector<std::size_t> rows_of(num_morsels, 0);
  std::vector<char> completed(num_morsels, 0);

  // Shared row budget. `prefix`/`prefix_rows` track the contiguous run of
  // completed morsels from index 0 and their total output rows (guarded
  // by mu). `cutoff` is the first morsel index proven unnecessary: it is
  // set exactly once, when the completed prefix alone covers the limit.
  std::atomic<std::size_t> next_morsel{0};
  std::atomic<std::size_t> cutoff{num_morsels};
  std::atomic<std::size_t> budget_claimed_floor{0};
  std::mutex mu;
  std::size_t prefix = 0;
  std::size_t prefix_rows = 0;
  bool cut = false;
  std::size_t skipped = 0;

  const std::size_t workers =
      std::min(options.pool->num_threads(), num_morsels);
  for (std::size_t w = 0; w < workers; ++w) {
    options.pool->Submit([&] {
      for (;;) {
        const std::size_t m =
            next_morsel.fetch_add(1, std::memory_order_relaxed);
        if (m >= num_morsels) return;
        if (m >= cutoff.load(std::memory_order_acquire)) {
          std::lock_guard<std::mutex> lock(mu);
          ++skipped;
          continue;
        }
        // Rows of the completed prefix at claim time precede everything
        // this morsel emits, so its useful output is capped by the
        // remaining budget (a monotone floor keeps it race-safe).
        const std::size_t floor =
            budget_claimed_floor.load(std::memory_order_relaxed);
        const std::size_t cap = limit - std::min(limit, floor);
        if (cap == 0) {
          // A completed prefix already covers the limit (the cutoff store
          // may simply not be visible yet); this morsel cannot contribute.
          std::lock_guard<std::mutex> lock(mu);
          ++skipped;
          continue;
        }
        if (options.cancel != nullptr && options.cancel->cancelled()) {
          results[m] = Status::Cancelled("query cancelled mid-morsel-map");
        } else {
          results[m] = [&]() -> Result<TablePtr> {
            CRE_ASSIGN_OR_RETURN(OperatorPtr pipeline,
                                 build(m, table->Slice(m * morsel, morsel)));
            return RunPipelineCapped(pipeline.get(), cap);
          }();
        }
        const std::size_t produced =
            results[m].ok() ? results[m].ValueUnsafe()->num_rows() : 0;

        std::lock_guard<std::mutex> lock(mu);
        completed[m] = 1;
        rows_of[m] = produced;  // errors count as 0; surfaced at the end
        while (prefix < num_morsels && completed[prefix]) {
          prefix_rows += rows_of[prefix];
          ++prefix;
        }
        budget_claimed_floor.store(std::min(limit, prefix_rows),
                                   std::memory_order_relaxed);
        if (!cut && prefix_rows >= limit) {
          cut = true;
          cutoff.store(prefix, std::memory_order_release);
        }
      }
    });
  }
  options.pool->Wait();

  // Morsels below the cutoff are all complete; later ones are unneeded.
  const std::size_t end = std::min(cutoff.load(), num_morsels);
  if (stats != nullptr) {
    stats->morsels_run = num_morsels - skipped;
    stats->morsels_skipped = skipped;
  }
  TablePtr out;
  for (std::size_t m = 0; m < end; ++m) {
    if (!results[m].ok()) return results[m].status();
    TablePtr part = std::move(results[m]).ValueUnsafe();
    if (out == nullptr) out = Table::Make(part->schema());
    CRE_RETURN_NOT_OK(out->AppendTable(*part));
    if (out->num_rows() >= limit) break;
  }
  if (out == nullptr) {
    CRE_ASSIGN_OR_RETURN(OperatorPtr pipeline, build(0, table->Slice(0, 0)));
    CRE_RETURN_NOT_OK(pipeline->Open());
    return Table::Make(pipeline->output_schema());
  }
  if (out->num_rows() > limit) return out->Slice(0, limit);
  return out;
}

}  // namespace cre
