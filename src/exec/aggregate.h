#ifndef CRE_EXEC_AGGREGATE_H_
#define CRE_EXEC_AGGREGATE_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "core/result.h"
#include "storage/key_table.h"
#include "storage/table.h"

namespace cre {

enum class AggKind { kCount, kSum, kMin, kMax, kAvg };

/// One aggregate to compute: e.g. {kSum, "price", "total_price"}.
/// `column` is ignored for kCount.
struct AggSpec {
  AggKind kind = AggKind::kCount;
  std::string column;
  std::string output_name;
};

/// Hash group-by accumulation state. The parallel driver keeps one
/// partial state per worker chunk and merges them at the pipeline
/// barrier (at dop 1, or for inputs of one morsel, a single state
/// consumes everything). All five aggregate kinds merge associatively
/// (count/sum/avg add, min/max fold), so partial states over disjoint
/// morsel ranges combine into exactly the serial result.
///
/// Group keys stay typed: a KeyTable maps each row's key cells to a
/// dense group id (its key hash and equality are the group-by key
/// semantics), and the state keeps flat groups x aggs accumulators
/// beside it. A batch is hashed a key column at a time, then each row
/// finds its group and the aggregates accumulate a column at a time. A
/// group's output key is the first value seen for it. FLOAT_VECTOR key
/// columns are rejected by Init.
///
/// Finalize emits groups in first-seen order. Merging partials in chunk
/// order therefore reproduces the serial output order.
class GroupedAggregationState {
 public:
  /// Resolves key/aggregate columns against the input schema and derives
  /// the output schema. Must be called before Consume/Merge/Finalize.
  Status Init(const Schema& input, std::vector<std::string> group_keys,
              std::vector<AggSpec> aggs);

  /// Accumulates one input batch (single-threaded per state).
  Status Consume(const Table& batch);

  /// Folds `other`'s groups into this state, in `other`'s group order.
  void Merge(GroupedAggregationState&& other);

  /// Emits the group results, one row per group in first-seen order, and
  /// leaves the state empty. A global aggregate (no grouping keys) over
  /// empty input yields one row of identity values (COUNT = 0, sums = 0).
  Result<TablePtr> Finalize();

  const Schema& output_schema() const { return schema_; }
  std::size_t num_groups() const { return counts_.size(); }

  /// Heap footprint of the accumulation state (hash slots, key columns,
  /// accumulators), without the per-batch scratch. Call at barriers, not
  /// per row.
  std::size_t MemoryBytes() const;

  /// The MemoryBytes() this state reaches once it holds `groups` groups,
  /// less the heap bytes of long string keys: every array grows one
  /// group at a time, so each holds the next power of two. Valid after
  /// Init; the governor charges it before accumulating.
  std::size_t BytesFor(std::size_t groups) const;

 private:
  friend class RadixAggregationState;

  /// The key columns of `batch`, in key order.
  std::vector<const Column*> KeyColumns(const Table& batch) const;

  /// Accumulates rows[0..n) of `batch`, in order; hashes[r] is row r's
  /// key hash.
  void ConsumeRows(const Table& batch, const std::uint64_t* hashes,
                   const std::uint32_t* rows, std::size_t n);

  /// Drops every group, keeping the key and aggregate layout.
  void ResetGroups();

  std::vector<std::string> group_keys_;
  std::vector<AggSpec> aggs_;
  std::vector<std::size_t> key_cols_;
  std::vector<int> agg_cols_;
  Schema schema_;

  KeyTable keys_;                    ///< group id per key, first-seen order
  std::vector<std::int64_t> counts_;  ///< per group: rows accumulated
  std::vector<double> acc_;  ///< groups x aggs sum/min/max accumulators

  /// Per-batch scratch, kept to reuse its allocation.
  std::vector<std::uint64_t> hashes_;
  std::vector<std::uint32_t> rows_;
  std::vector<std::uint32_t> group_of_;
};

/// Radix-partitioned accumulation state for high group cardinalities: one
/// GroupedAggregationState per hash-radix partition, rows routed by the
/// high bits of the same key hash the partitions' tables use. Every worker
/// partitions the same way, so after phase 1 all occurrences of a group
/// live in the same partition slot of every worker — phase 2 merges each
/// partition across workers independently (one task per partition), so
/// no serial merge of whole partial states remains. Routing is a pure
/// function of the key values, so results are independent of row
/// distribution across workers.
class RadixAggregationState {
 public:
  /// `num_partitions` is rounded up to a power of two (at least 2). Must
  /// be called before Consume.
  Status Init(const Schema& input, const std::vector<std::string>& group_keys,
              const std::vector<AggSpec>& aggs, std::size_t num_partitions);

  /// Routes each row of `batch` to its hash-radix partition; a partition
  /// consumes its rows in batch order.
  Status Consume(const Table& batch);

  std::size_t num_partitions() const { return partitions_.size(); }
  GroupedAggregationState& partition(std::size_t p) { return partitions_[p]; }

  const Schema& output_schema() const {
    return partitions_.front().output_schema();
  }

 private:
  std::vector<GroupedAggregationState> partitions_;
  unsigned shift_ = 63;  ///< partition = hash >> shift_
  /// Per-batch scratch: row hashes and each partition's rows.
  std::vector<std::uint64_t> hashes_;
  std::vector<std::vector<std::uint32_t>> rows_;
};

}  // namespace cre

#endif  // CRE_EXEC_AGGREGATE_H_
