#include "storage/table.h"

#include <algorithm>
#include <sstream>

namespace cre {

Table::Table(Schema schema) : schema_(std::move(schema)) {
  columns_.reserve(schema_.num_fields());
  for (const auto& f : schema_.fields()) {
    columns_.emplace_back(f.type, f.vector_dim);
  }
}

Result<const Column*> Table::ColumnByName(const std::string& name) const {
  CRE_ASSIGN_OR_RETURN(std::size_t idx, schema_.RequireField(name));
  return &columns_[idx];
}

Status Table::AppendRow(const std::vector<Value>& values) {
  if (values.size() != columns_.size()) {
    return Status::InvalidArgument("row arity mismatch: expected " +
                                   std::to_string(columns_.size()) + " got " +
                                   std::to_string(values.size()));
  }
  for (std::size_t i = 0; i < values.size(); ++i) {
    CRE_RETURN_NOT_OK(columns_[i].AppendValue(values[i]));
  }
  return Status::OK();
}

TablePtr Table::Take(const std::vector<std::uint32_t>& indices) const {
  auto out = Table::Make(schema_);
  for (std::size_t c = 0; c < columns_.size(); ++c) {
    out->columns_[c] = columns_[c].Take(indices);
  }
  return out;
}

TablePtr Table::Slice(std::size_t offset, std::size_t length) const {
  const std::size_t n = num_rows();
  const std::size_t begin = std::min(n, offset);
  const std::size_t rows = std::min(n - begin, length);
  auto out = Table::Make(schema_);
  for (std::size_t c = 0; c < columns_.size(); ++c) {
    out->columns_[c] = columns_[c].Slice(begin, rows);
  }
  return out;
}

Status Table::AppendTable(const Table& other) {
  if (!(other.schema_ == schema_)) {
    return Status::InvalidArgument("schema mismatch in AppendTable");
  }
  for (std::size_t c = 0; c < columns_.size(); ++c) {
    CRE_RETURN_NOT_OK(columns_[c].AppendColumn(other.columns_[c]));
  }
  return Status::OK();
}

Status Table::AddColumn(Field field, Column column) {
  if (num_columns() > 0 && column.size() != num_rows()) {
    return Status::InvalidArgument("AddColumn row count mismatch");
  }
  schema_.AddField(std::move(field));
  columns_.push_back(std::move(column));
  return Status::OK();
}

void Table::Reserve(std::size_t n) {
  for (auto& c : columns_) c.Reserve(n);
}

std::size_t Table::MemoryBytes() const {
  std::size_t bytes = 0;
  for (const auto& c : columns_) bytes += c.MemoryBytes();
  return bytes;
}

std::string Table::ToString(std::size_t max_rows) const {
  std::ostringstream os;
  os << "[" << schema_.ToString() << "] " << num_rows() << " rows\n";
  const std::size_t n = std::min(num_rows(), max_rows);
  for (std::size_t r = 0; r < n; ++r) {
    os << "  ";
    for (std::size_t c = 0; c < num_columns(); ++c) {
      if (c > 0) os << " | ";
      os << GetValue(r, c).ToString();
    }
    os << "\n";
  }
  if (n < num_rows()) os << "  ... (" << num_rows() - n << " more)\n";
  return os.str();
}

}  // namespace cre
