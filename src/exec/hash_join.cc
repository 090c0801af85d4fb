#include "exec/hash_join.h"

#include <set>

#include "core/fault_injection.h"

namespace cre {

Result<std::shared_ptr<HashJoinTable>> HashJoinTable::Build(
    TablePtr build, const std::string& key, QueryBudgetPtr budget,
    FootprintCalibrator* calibrator) {
  CRE_RETURN_IF_FAULT("hashjoin.build");
  auto out = std::make_shared<HashJoinTable>();
  out->build_ = std::move(build);
  CRE_ASSIGN_OR_RETURN(std::size_t key_idx,
                       out->build_->schema().RequireField(key));
  const Column& col = out->build_->column(key_idx);
  const std::size_t rows = out->build_->num_rows();
  if (budget != nullptr) {
    // Materialized side = the pinned table plus the hash index (bucket
    // array + one node per row; ~32 bytes/entry is a fair estimate for
    // libstdc++'s unordered_multimap before string keys). A calibrator
    // replaces the whole estimate with the observed bytes/row of past
    // builds once enough of them have been seen.
    std::size_t bytes = out->build_->MemoryBytes() + rows * 32;
    if (calibrator != nullptr) {
      bytes = calibrator->EstimateBytes(FootprintSite::kHashJoinBuild, rows,
                                        bytes);
    }
    Status st = budget->Charge(bytes, "hash-join build side");
    if (!st.ok()) return st;
    out->charge_ = ScopedCharge(budget, bytes);
  }
  switch (col.type()) {
    case DataType::kInt64:
    case DataType::kDate: {
      const auto& data = col.i64();
      out->int_index_.reserve(data.size());
      for (std::size_t i = 0; i < data.size(); ++i) {
        out->int_index_.emplace(data[i], static_cast<std::uint32_t>(i));
      }
      out->key_is_string_ = false;
      break;
    }
    case DataType::kString: {
      const auto& data = col.strings();
      out->str_index_.reserve(data.size());
      for (std::size_t i = 0; i < data.size(); ++i) {
        out->str_index_.emplace(data[i], static_cast<std::uint32_t>(i));
      }
      out->key_is_string_ = true;
      break;
    }
    default:
      return Status::TypeError("hash join key must be int64/date/string, got " +
                               std::string(DataTypeName(col.type())));
  }
  if (calibrator != nullptr && rows > 0) {
    // Actual footprint: the pinned table plus the built index's node and
    // bucket storage (libstdc++ node = key + row id + next pointer +
    // cached hash; string keys add the SSO footprint and any heap
    // spill).
    std::size_t index_bytes = 0;
    if (out->key_is_string_) {
      for (const auto& kv : out->str_index_) {
        const std::string& k = kv.first;
        index_bytes += 56 + (k.capacity() > 15 ? k.capacity() : 0);
      }
      index_bytes += out->str_index_.bucket_count() * sizeof(void*);
    } else {
      index_bytes = out->int_index_.size() * 40 +
                    out->int_index_.bucket_count() * sizeof(void*);
    }
    calibrator->Observe(FootprintSite::kHashJoinBuild, rows,
                        out->build_->MemoryBytes() + index_bytes);
  }
  return out;
}

Status HashJoinTable::Probe(const Column& key,
                            std::vector<std::uint32_t>* probe_rows,
                            std::vector<std::uint32_t>* build_rows) const {
  if (key_is_string_) {
    if (key.type() != DataType::kString) {
      return Status::TypeError("join key type mismatch: left " +
                               std::string(DataTypeName(key.type())) +
                               " vs right string");
    }
    const auto& data = key.strings();
    for (std::size_t i = 0; i < data.size(); ++i) {
      auto [lo, hi] = str_index_.equal_range(data[i]);
      for (auto it = lo; it != hi; ++it) {
        probe_rows->push_back(static_cast<std::uint32_t>(i));
        build_rows->push_back(it->second);
      }
    }
    return Status::OK();
  }
  if (key.type() != DataType::kInt64 && key.type() != DataType::kDate) {
    return Status::TypeError("join key type mismatch: left " +
                             std::string(DataTypeName(key.type())) +
                             " vs right int64");
  }
  const auto& data = key.i64();
  for (std::size_t i = 0; i < data.size(); ++i) {
    auto [lo, hi] = int_index_.equal_range(data[i]);
    for (auto it = lo; it != hi; ++it) {
      probe_rows->push_back(static_cast<std::uint32_t>(i));
      build_rows->push_back(it->second);
    }
  }
  return Status::OK();
}

HashJoinOperator::HashJoinOperator(OperatorPtr left,
                                   std::shared_ptr<HashJoinTable> build,
                                   std::string left_key, std::string right_key)
    : left_(std::move(left)),
      left_key_(std::move(left_key)),
      right_key_(std::move(right_key)),
      join_table_(std::move(build)) {}

Status HashJoinOperator::Open() {
  if (opened_) return Status::OK();
  opened_ = true;
  CRE_RETURN_NOT_OK(left_->Open());

  // Output schema: all left fields, then all right fields with duplicate
  // names suffixed.
  const Schema& ls = left_->output_schema();
  const Schema& rs = join_table_->table()->schema();
  std::set<std::string> names;
  for (const auto& f : ls.fields()) {
    schema_.AddField(f);
    names.insert(f.name);
  }
  for (const auto& f : rs.fields()) {
    Field nf = f;
    while (names.count(nf.name)) nf.name += "_r";
    names.insert(nf.name);
    schema_.AddField(std::move(nf));
  }
  return Status::OK();
}

Result<TablePtr> HashJoinOperator::Next() {
  for (;;) {
    CRE_ASSIGN_OR_RETURN(TablePtr batch, left_->Next());
    if (batch == nullptr) return TablePtr(nullptr);
    CRE_ASSIGN_OR_RETURN(std::size_t key_idx,
                         batch->schema().RequireField(left_key_));
    const Column& key = batch->column(key_idx);

    std::vector<std::uint32_t> left_rows;
    std::vector<std::uint32_t> right_rows;
    CRE_RETURN_NOT_OK(join_table_->Probe(key, &left_rows, &right_rows));
    if (left_rows.empty()) continue;

    TablePtr left_part = batch->Take(left_rows);
    TablePtr right_part = join_table_->table()->Take(right_rows);
    auto out = Table::Make(schema_);
    const std::size_t ln = left_part->num_columns();
    for (std::size_t c = 0; c < ln; ++c) {
      out->column(c) = left_part->column(c);
    }
    for (std::size_t c = 0; c < right_part->num_columns(); ++c) {
      out->column(ln + c) = right_part->column(c);
    }
    return out;
  }
}

}  // namespace cre
