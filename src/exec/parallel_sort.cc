#include "exec/parallel_sort.h"

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <vector>

#include "core/timer.h"

namespace cre {

namespace {

/// Strict total order over row indices: (key, input index). Totalizing on
/// the index makes the sorted permutation unique, so every decomposition
/// of the work (one run or many, any merge partitioning) produces exactly
/// the serial stable-sort output.
template <typename T>
struct KeyLess {
  Span<T> data;
  bool ascending;

  bool operator()(std::uint32_t a, std::uint32_t b) const {
    const T& x = data[a];
    const T& y = data[b];
    if (ascending) {
      if (x < y) return true;
      if (y < x) return false;
    } else {
      if (y < x) return true;
      if (x < y) return false;
    }
    return a < b;
  }
};

/// One sorted run during the merge: a cursor over its remaining indices.
struct RunCursor {
  const std::uint32_t* cur = nullptr;
  const std::uint32_t* end = nullptr;
};

/// Classic k-way loser tree (Knuth 5.4.1) over sorted runs of row indices:
/// internal nodes hold match losers, slot 0 the champion, so each Pop
/// replays one leaf-to-root path (log k comparisons) instead of scanning
/// all k heads. Exhausted runs lose every match.
template <typename Less>
class LoserTree {
 public:
  LoserTree(std::vector<RunCursor> runs, const Less& less)
      : runs_(std::move(runs)), less_(less) {
    k_ = runs_.size();
    tree_.assign(std::max<std::size_t>(1, k_), kNone);
    for (std::size_t i = 0; i < k_; ++i) Seed(i);
  }

  bool Done() const {
    return k_ == 0 || Exhausted(tree_[0]);
  }

  /// Removes and returns the globally smallest remaining row index.
  std::uint32_t Pop() {
    const std::size_t w = tree_[0];
    const std::uint32_t v = *runs_[w].cur++;
    Replay(w);
    return v;
  }

 private:
  static constexpr std::size_t kNone = static_cast<std::size_t>(-1);

  bool Exhausted(std::size_t r) const {
    return r == kNone || runs_[r].cur == runs_[r].end;
  }

  /// True when run `a`'s head must be emitted before run `b`'s head.
  bool Beats(std::size_t a, std::size_t b) const {
    if (Exhausted(a)) return false;
    if (Exhausted(b)) return true;
    return less_(*runs_[a].cur, *runs_[b].cur);
  }

  /// Build-time insertion: climb until an empty match slot takes the
  /// climber, losing (and staying) at any occupied node that beats it.
  void Seed(std::size_t s) {
    for (std::size_t t = (s + k_) / 2; t > 0; t /= 2) {
      if (tree_[t] == kNone) {
        tree_[t] = s;
        return;
      }
      if (Beats(tree_[t], s)) std::swap(s, tree_[t]);
    }
    tree_[0] = s;
  }

  /// Steady-state adjust after the champion's run advanced: replay the
  /// matches on its path, leaving losers behind, new champion at slot 0.
  void Replay(std::size_t s) {
    for (std::size_t t = (s + k_) / 2; t > 0; t /= 2) {
      if (Beats(tree_[t], s)) std::swap(s, tree_[t]);
    }
    tree_[0] = s;
  }

  std::vector<RunCursor> runs_;
  Less less_;
  std::size_t k_ = 0;
  std::vector<std::size_t> tree_;
};

/// Gather `order` into a fresh table, fanning the per-column copies over
/// the pool (columns are independent). The gather is the tail of the sort;
/// leaving it serial would cap the measured scale-up on wide tables.
TablePtr TakeParallel(const TablePtr& input,
                      const std::vector<std::uint32_t>& order,
                      TaskRunner* pool) {
  if (pool == nullptr || pool->num_threads() <= 1 ||
      input->num_columns() <= 1) {
    return input->Take(order);
  }
  TablePtr out = Table::Make(input->schema());
  pool->ParallelFor(
      input->num_columns(),
      [&](std::size_t begin, std::size_t end) {
        for (std::size_t c = begin; c < end; ++c) {
          out->column(c) = input->column(c).Take(order);
        }
      },
      /*grain=*/1);
  return out;
}

/// Runs below this size are not worth a scheduling round trip.
constexpr std::size_t kMinRunRows = 4096;
/// Splitter sample points taken per run (oversampling smooths skew).
constexpr std::size_t kSplitterOversample = 8;

template <typename T>
Result<TablePtr> SortTyped(const TablePtr& input, Span<T> keys,
                           bool ascending, TaskRunner* pool,
                           std::size_t limit_hint,
                           SortPhaseTimings* timings) {
  const std::size_t n = input->num_rows();
  const KeyLess<T> less{keys, ascending};
  const std::size_t threads = pool == nullptr ? 1 : pool->num_threads();
  // Rows the caller actually needs (Sort under LIMIT = top-k).
  const std::size_t wanted = limit_hint == 0 ? n : std::min(limit_hint, n);

  std::size_t num_runs = 1;
  if (threads > 1 && n >= 2 * kMinRunRows) {
    num_runs = std::min(threads * 2, n / kMinRunRows);
  }

  if (num_runs <= 1) {
    Timer timer;
    std::vector<std::uint32_t> order(n);
    std::iota(order.begin(), order.end(), 0);
    if (wanted < n) {
      std::partial_sort(order.begin(), order.begin() + wanted, order.end(),
                        less);
      order.resize(wanted);
    } else {
      // `less` is total, so std::sort yields the stable-sort permutation.
      std::sort(order.begin(), order.end(), less);
    }
    if (timings != nullptr) {
      timings->local_sort_seconds = timer.Seconds();
      timings->runs = 1;
      timings->merge_partitions = 0;
    }
    return input->Take(order);
  }

  // ---- phase 1: sort per-run row-index arrays in parallel ----
  Timer local_timer;
  const std::size_t run_len = (n + num_runs - 1) / num_runs;
  std::vector<std::vector<std::uint32_t>> runs(num_runs);
  pool->ParallelFor(
      num_runs,
      [&](std::size_t begin, std::size_t end) {
        for (std::size_t r = begin; r < end; ++r) {
          const std::size_t lo = r * run_len;
          const std::size_t hi = std::min(n, lo + run_len);
          auto& run = runs[r];
          run.resize(hi - lo);
          std::iota(run.begin(), run.end(),
                    static_cast<std::uint32_t>(lo));
          if (wanted < run.size()) {
            // Only a run's first `wanted` rows can reach the global top-k.
            std::partial_sort(run.begin(), run.begin() + wanted, run.end(),
                              less);
            run.resize(wanted);
          } else {
            std::sort(run.begin(), run.end(), less);
          }
        }
      },
      /*grain=*/1);
  const double local_seconds = local_timer.Seconds();

  // ---- phase 2: k-way merge of the sorted runs ----
  Timer merge_timer;
  std::vector<std::uint32_t> order;
  std::size_t merge_partitions = 1;
  std::size_t total = 0;
  for (const auto& run : runs) total += run.size();

  if (wanted < n || total < 2 * kMinRunRows) {
    // Top-k (or tiny) output: one loser-tree pass emitting `wanted` rows
    // is cheaper than range partitioning.
    std::vector<RunCursor> cursors;
    cursors.reserve(num_runs);
    for (const auto& run : runs) {
      cursors.push_back({run.data(), run.data() + run.size()});
    }
    LoserTree<KeyLess<T>> tree(std::move(cursors), less);
    const std::size_t out_n = std::min(wanted, total);
    order.reserve(out_n);
    while (order.size() < out_n && !tree.Done()) order.push_back(tree.Pop());
  } else {
    // Full output: range-partition the merge on splitters sampled from
    // the sorted runs, then merge each key range independently into its
    // precomputed output slice. The total order makes every boundary
    // exact, so concatenating partitions reproduces the global order.
    const std::size_t parts =
        std::max<std::size_t>(2, std::min(threads * 2, num_runs * 2));
    std::vector<std::uint32_t> sample;
    sample.reserve(num_runs * kSplitterOversample);
    for (const auto& run : runs) {
      for (std::size_t j = 0; j < kSplitterOversample; ++j) {
        if (run.empty()) break;
        sample.push_back(run[j * run.size() / kSplitterOversample]);
      }
    }
    std::sort(sample.begin(), sample.end(), less);
    std::vector<std::uint32_t> splitters;
    splitters.reserve(parts - 1);
    for (std::size_t p = 1; p < parts; ++p) {
      splitters.push_back(sample[p * sample.size() / parts]);
    }

    // bounds[r][p] = first element of run r belonging to partition >= p.
    std::vector<std::vector<std::size_t>> bounds(
        num_runs, std::vector<std::size_t>(parts + 1));
    for (std::size_t r = 0; r < num_runs; ++r) {
      bounds[r][0] = 0;
      bounds[r][parts] = runs[r].size();
      for (std::size_t p = 1; p < parts; ++p) {
        bounds[r][p] = static_cast<std::size_t>(
            std::lower_bound(runs[r].begin(), runs[r].end(),
                             splitters[p - 1], less) -
            runs[r].begin());
      }
    }
    std::vector<std::size_t> offsets(parts + 1, 0);
    for (std::size_t p = 0; p < parts; ++p) {
      std::size_t size = 0;
      for (std::size_t r = 0; r < num_runs; ++r) {
        size += bounds[r][p + 1] - bounds[r][p];
      }
      offsets[p + 1] = offsets[p] + size;
    }

    // Each partition merges its key range and immediately scatters its
    // slice of every column into the pre-sized output table — the rows
    // are cache-hot from the merge, and the separate gather pass (one
    // more full sweep over `order` plus a second scheduling round) that
    // used to follow the merge disappears. Partitions own disjoint
    // [offsets[p], offsets[p+1]) output ranges, so the writes never
    // alias (bools are distinct bytes, strings distinct objects).
    TablePtr scattered = Table::Make(input->schema());
    for (std::size_t c = 0; c < input->num_columns(); ++c) {
      scattered->column(c).ResizeDefault(total);
    }
    order.resize(total);
    pool->ParallelFor(
        parts,
        [&](std::size_t begin, std::size_t end) {
          for (std::size_t p = begin; p < end; ++p) {
            std::vector<RunCursor> cursors;
            cursors.reserve(num_runs);
            for (std::size_t r = 0; r < num_runs; ++r) {
              const auto* base = runs[r].data();
              if (bounds[r][p] < bounds[r][p + 1]) {
                cursors.push_back(
                    {base + bounds[r][p], base + bounds[r][p + 1]});
              }
            }
            LoserTree<KeyLess<T>> tree(std::move(cursors), less);
            std::uint32_t* out = order.data() + offsets[p];
            while (!tree.Done()) *out++ = tree.Pop();
            const std::size_t part_rows = offsets[p + 1] - offsets[p];
            for (std::size_t c = 0; c < input->num_columns(); ++c) {
              scattered->column(c).ScatterFrom(input->column(c),
                                               order.data() + offsets[p],
                                               part_rows, offsets[p]);
            }
          }
        },
        /*grain=*/1);
    if (timings != nullptr) {
      timings->local_sort_seconds = local_seconds;
      timings->merge_seconds = merge_timer.Seconds();
      timings->runs = num_runs;
      timings->merge_partitions = parts;
    }
    return scattered;
  }

  TablePtr result = TakeParallel(input, order, pool);
  if (timings != nullptr) {
    timings->local_sort_seconds = local_seconds;
    timings->merge_seconds = merge_timer.Seconds();
    timings->runs = num_runs;
    timings->merge_partitions = merge_partitions;
  }
  return result;
}

}  // namespace

Result<TablePtr> SortTable(const TablePtr& input, const std::string& key,
                           bool ascending, TaskRunner* pool,
                           std::size_t limit_hint, SortPhaseTimings* timings,
                           QueryBudgetPtr budget) {
  CRE_ASSIGN_OR_RETURN(std::size_t key_idx, input->schema().RequireField(key));
  ScopedCharge charge;
  if (budget != nullptr) {
    // The gathered output, laid out like the input (a top-k keeps
    // limit_hint rows), plus two row-index arrays.
    const std::size_t rows = input->num_rows();
    const std::size_t out_rows =
        limit_hint > 0 ? std::min(rows, limit_hint) : rows;
    std::size_t bytes = rows * 2 * sizeof(std::uint32_t);
    for (std::size_t c = 0; c < input->num_columns(); ++c) {
      const Column& col = input->column(c);
      bytes += out_rows * col.RowBytes() + col.HeapStringBytes();
    }
    CRE_RETURN_NOT_OK(charge.Acquire(std::move(budget), bytes, "sort runs"));
  }
  const Column& col = input->column(key_idx);
  Result<TablePtr> result = Status::TypeError("cannot sort on vector column");
  switch (col.type()) {
    case DataType::kInt64:
    case DataType::kDate:
      result = SortTyped(input, col.i64(), ascending, pool, limit_hint,
                         timings);
      break;
    case DataType::kFloat64:
      result = SortTyped(input, col.f64(), ascending, pool, limit_hint,
                         timings);
      break;
    case DataType::kString:
      result = SortTyped(input, col.strings(), ascending, pool, limit_hint,
                         timings);
      break;
    case DataType::kBool:
      result = SortTyped(input, col.bools(), ascending, pool, limit_hint,
                         timings);
      break;
    default:
      return result.status();
  }
  return result;
}

}  // namespace cre
