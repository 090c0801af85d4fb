#ifndef CRE_EXEC_AGGREGATE_H_
#define CRE_EXEC_AGGREGATE_H_

#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/result.h"
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
class GroupedAggregationState {
 public:
  /// Resolves key/aggregate columns against the input schema and derives
  /// the output schema. Must be called before Consume/Merge/Finalize.
  Status Init(const Schema& input, std::vector<std::string> group_keys,
              std::vector<AggSpec> aggs);

  /// Accumulates one input batch (single-threaded per state).
  Status Consume(const Table& batch);

  /// Serialized group-key of one row (collision-free across columns). The
  /// radix router computes keys once to pick a partition, then hands them
  /// to ConsumeRow unchanged.
  std::string GroupKey(const Table& batch, std::size_t row) const;

  /// Accumulates one row under a precomputed group key.
  Status ConsumeRow(const Table& batch, std::size_t row, std::string&& key);

  /// Folds `other`'s groups into this state.
  void Merge(GroupedAggregationState&& other);

  /// Emits the group results. A global aggregate (no grouping keys) over
  /// empty input yields one row of identity values (COUNT = 0, sums = 0).
  Result<TablePtr> Finalize();

  const Schema& output_schema() const { return schema_; }
  std::size_t num_groups() const { return groups_.size(); }

  /// Measured heap footprint of the accumulation state (hash buckets, key
  /// strings, per-group accumulator vectors). O(groups) walk — call at
  /// barriers (finalize, governor re-charge), not per row.
  std::size_t MemoryBytes() const;

 private:
  struct GroupState {
    std::vector<Value> key_values;
    std::vector<double> acc;           ///< sum/min/max accumulator per agg
    std::vector<std::int64_t> counts;  ///< per-agg row counts
  };

  void InitAccumulators(GroupState* state) const;

  std::vector<std::string> group_keys_;
  std::vector<AggSpec> aggs_;
  std::vector<std::size_t> key_cols_;
  std::vector<int> agg_cols_;
  Schema schema_;
  std::unordered_map<std::string, GroupState> groups_;
};

/// Radix-partitioned accumulation state for high group cardinalities: one
/// GroupedAggregationState per hash-radix partition, rows routed by a
/// fixed bit-slice of the group-key hash. Every worker partitions the same
/// way, so after phase 1 all occurrences of a group live in the same
/// partition slot of every worker — phase 2 merges each partition across
/// workers independently (one task per partition), replacing the serial
/// whole-map merge tail of the per-worker-hash scheme with parallel
/// per-partition merges. Partition routing is a pure function of the key
/// bytes, so results are independent of row distribution across workers.
class RadixAggregationState {
 public:
  /// `num_partitions` is rounded up to a power of two (the router uses a
  /// bit mask). Must be called before Consume.
  Status Init(const Schema& input, const std::vector<std::string>& group_keys,
              const std::vector<AggSpec>& aggs, std::size_t num_partitions);

  /// Routes each row of `batch` to its hash-radix partition.
  Status Consume(const Table& batch);

  std::size_t num_partitions() const { return partitions_.size(); }
  GroupedAggregationState& partition(std::size_t p) { return partitions_[p]; }

  /// Partition of a serialized group key — exposed so callers (and tests)
  /// can verify routing stability.
  static std::size_t PartitionOf(const std::string& key, std::size_t mask);

  const Schema& output_schema() const {
    return partitions_.front().output_schema();
  }

 private:
  std::vector<GroupedAggregationState> partitions_;
  std::size_t mask_ = 0;
};

}  // namespace cre

#endif  // CRE_EXEC_AGGREGATE_H_
