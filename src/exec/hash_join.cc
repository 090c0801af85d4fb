#include "exec/hash_join.h"

#include <numeric>
#include <set>

#include "core/fault_injection.h"

namespace cre {

namespace {

bool IsIntKey(DataType type) {
  return type == DataType::kInt64 || type == DataType::kDate;
}

}  // namespace

Result<std::shared_ptr<HashJoinTable>> HashJoinTable::Build(
    TablePtr build, const std::string& key, QueryBudgetPtr budget) {
  CRE_RETURN_IF_FAULT("hashjoin.build");
  auto out = std::make_shared<HashJoinTable>();
  out->build_ = std::move(build);
  CRE_ASSIGN_OR_RETURN(std::size_t key_idx,
                       out->build_->schema().RequireField(key));
  const Column& col = out->build_->column(key_idx);
  if (!IsIntKey(col.type()) && col.type() != DataType::kString) {
    return Status::TypeError("hash join key must be int64/date/string, got " +
                             std::string(DataTypeName(col.type())));
  }
  const std::size_t rows = col.size();
  out->keys_ = KeyTable({col.type()});
  if (budget != nullptr) {
    // The table, the key table reserved for `rows` keys (unique string
    // keys copy at most the column's heap bytes), one row id per row and
    // one run offset per key; and, while building, FindOrAddRows's row
    // hashes, one key id per row and one run cursor per key.
    const std::size_t bytes =
        out->build_->MemoryBytes() + out->keys_.BytesFor(rows, /*grown=*/false) +
        col.HeapStringBytes() + (2 * rows + 1) * sizeof(std::uint32_t) +
        rows * (sizeof(std::uint64_t) + 2 * sizeof(std::uint32_t));
    CRE_RETURN_NOT_OK(
        out->charge_.Acquire(budget, bytes, "hash-join build side"));
  }
  out->keys_.Reserve(rows);
  std::vector<std::uint32_t> ids;
  out->keys_.FindOrAddRows(col, &ids);
  // Counting sort of the rows by key id: each key's rows form one run,
  // in ascending row order.
  std::vector<std::uint32_t>& offsets = out->offsets_;
  offsets.assign(out->keys_.size() + 1, 0);
  for (const std::uint32_t id : ids) ++offsets[id + 1];
  std::partial_sum(offsets.begin(), offsets.end(), offsets.begin());
  std::vector<std::uint32_t> next(offsets.begin(), offsets.end() - 1);
  out->rows_.resize(rows);
  for (std::size_t r = 0; r < rows; ++r) {
    out->rows_[next[ids[r]]++] = static_cast<std::uint32_t>(r);
  }
  return out;
}

Status HashJoinTable::Probe(const Column& key,
                            std::vector<std::uint32_t>* probe_rows,
                            std::vector<std::uint32_t>* build_rows) const {
  const DataType build_type = keys_.keys()[0].type();
  const bool joinable = build_type == DataType::kString
                            ? key.type() == DataType::kString
                            : IsIntKey(key.type());
  if (!joinable) {
    return Status::TypeError("join key type mismatch: left " +
                             std::string(DataTypeName(key.type())) +
                             " vs right " +
                             std::string(DataTypeName(build_type)));
  }
  const Column* src[] = {&key};
  const Span<const Column*> cols(src, 1);
  std::vector<std::uint64_t> hashes;
  KeyTable::HashRows(cols, key.size(), &hashes);
  for (std::size_t i = 0; i < hashes.size(); ++i) {
    const std::uint32_t id = keys_.Find(hashes[i], cols, i);
    if (id == KeyTable::kNoKey) continue;
    for (std::uint32_t j = offsets_[id]; j < offsets_[id + 1]; ++j) {
      probe_rows->push_back(static_cast<std::uint32_t>(i));
      build_rows->push_back(rows_[j]);
    }
  }
  return Status::OK();
}

std::size_t HashJoinTable::MemoryBytes() const {
  return build_->MemoryBytes() + keys_.MemoryBytes() +
         (offsets_.capacity() + rows_.capacity()) * sizeof(std::uint32_t);
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
