#ifndef CRE_EXEC_HASH_JOIN_H_
#define CRE_EXEC_HASH_JOIN_H_

#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/resource_governor.h"
#include "exec/footprint.h"
#include "exec/operator.h"

namespace cre {

/// The shared build side of a hash join: a materialized table plus a hash
/// index on its key column. Built once by the parallel driver before
/// fan-out and then probed concurrently from any number of worker
/// threads — Probe is const and the index is immutable after Build.
class HashJoinTable {
 public:
  /// Materializes the index over `build`'s `key` column
  /// (int64/date/string). With a non-null `budget`, the estimated bytes
  /// of the materialized side (table + hash index) are charged before
  /// building; a breach returns kResourceExhausted and the charge is
  /// released when the table is destroyed. With a non-null `calibrator`,
  /// the charge uses the observed bytes/row of past builds instead of the
  /// static ~32 bytes/entry prior, and this build's actual footprint is
  /// folded back in afterwards.
  static Result<std::shared_ptr<HashJoinTable>> Build(
      TablePtr build, const std::string& key, QueryBudgetPtr budget = nullptr,
      FootprintCalibrator* calibrator = nullptr);

  const TablePtr& table() const { return build_; }
  std::size_t num_rows() const { return build_->num_rows(); }

  /// Appends one (probe_row, build_row) pair per key match. Thread-safe.
  Status Probe(const Column& key, std::vector<std::uint32_t>* probe_rows,
               std::vector<std::uint32_t>* build_rows) const;

 private:
  TablePtr build_;
  // Key maps: exactly one is used, depending on the key column type.
  std::unordered_multimap<std::int64_t, std::uint32_t> int_index_;
  std::unordered_multimap<std::string, std::uint32_t> str_index_;
  bool key_is_string_ = false;
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
