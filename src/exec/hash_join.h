#ifndef CRE_EXEC_HASH_JOIN_H_
#define CRE_EXEC_HASH_JOIN_H_

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/resource_governor.h"
#include "exec/operator.h"
#include "storage/key_table.h"

namespace cre {

/// The shared build side of a hash join: a materialized table, a
/// KeyTable over its key column (the group-by key semantics; an int64 or
/// date key over a narrow range is direct-addressed, and its probes hash
/// nothing) and, per distinct key, the contiguous run of build rows
/// holding it in ascending row order. When every build row holds its own
/// key there are no runs: key id k is build row k. Built once by the
/// parallel driver before fan-out and then probed concurrently from any
/// number of worker threads: Probe is const and nothing changes after
/// Build.
class HashJoinTable {
 public:
  /// Materializes the index over `build`'s `key` column (int64, date or
  /// string; int64 and date keys join each other). With a non-null
  /// `budget`, the materialized side is charged before the index is
  /// built, at the size of the index's own layout when every build row
  /// holds a distinct key (the index reserves that much), in the form the
  /// key column's value range gives it: the most MemoryBytes() can
  /// reach. A breach returns kResourceExhausted; the
  /// charge is released when the table is destroyed.
  static Result<std::shared_ptr<HashJoinTable>> Build(
      TablePtr build, const std::string& key, QueryBudgetPtr budget = nullptr);

  const TablePtr& table() const { return build_; }

  /// Appends one (probe_row, build_row) pair per key match: probe rows in
  /// ascending order, and each probe row's matches in ascending build-row
  /// order. A probe key type the build key cannot join is a TypeError.
  /// Thread-safe.
  Status Probe(const Column& key, std::vector<std::uint32_t>* probe_rows,
               std::vector<std::uint32_t>* build_rows) const;

  /// Heap bytes of the materialized side: the table, the key table and
  /// the row runs.
  std::size_t MemoryBytes() const;

 private:
  TablePtr build_;
  KeyTable keys_;  ///< the build key's distinct values
  /// Key id k's build rows, ascending: rows_[offsets_[k], offsets_[k+1]).
  /// Both empty when the build keys are unique (key id k is build row k).
  std::vector<std::uint32_t> offsets_;
  std::vector<std::uint32_t> rows_;
  ScopedCharge charge_;  ///< governor charge for the materialized side
};

/// Inner equi-join probe: streams left batches against a shared,
/// already-built HashJoinTable on the right input (assumed the smaller
/// side; the optimizer is responsible for choosing sides). Duplicate
/// output names from the right side get an "_r" suffix. Sharing one
/// table is how the parallel driver runs one build and many concurrent
/// per-morsel probe pipelines.
class HashJoinOperator : public PhysicalOperator {
 public:
  HashJoinOperator(OperatorPtr left, std::shared_ptr<HashJoinTable> build,
                   std::string left_key, std::string right_key);

  const Schema& output_schema() const override { return schema_; }
  Status Open() override;
  Result<TablePtr> Next() override;
  std::string name() const override {
    return "HashJoin(" + left_key_ + " = " + right_key_ + ")";
  }

 private:
  OperatorPtr left_;
  std::string left_key_;
  std::string right_key_;

  Schema schema_;
  std::shared_ptr<HashJoinTable> join_table_;
  bool opened_ = false;
};

}  // namespace cre

#endif  // CRE_EXEC_HASH_JOIN_H_
