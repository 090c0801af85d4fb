#ifndef CRE_STORAGE_TABLE_H_
#define CRE_STORAGE_TABLE_H_

#include <memory>
#include <string>
#include <vector>

#include "core/result.h"
#include "core/status.h"
#include "storage/column.h"
#include "types/schema.h"
#include "types/value.h"

namespace cre {

class Table;
using TablePtr = std::shared_ptr<Table>;

/// Columnar, in-memory table: a Schema plus one Column per field.
/// Tables are the unit of exchange between physical operators (each batch
/// is itself a small Table sharing the schema).
class Table {
 public:
  explicit Table(Schema schema);

  static TablePtr Make(Schema schema) {
    return std::make_shared<Table>(std::move(schema));
  }

  const Schema& schema() const { return schema_; }
  std::size_t num_columns() const { return columns_.size(); }
  std::size_t num_rows() const {
    return columns_.empty() ? 0 : columns_[0].size();
  }

  Column& column(std::size_t i) { return columns_[i]; }
  const Column& column(std::size_t i) const { return columns_[i]; }

  /// Column lookup by field name.
  Result<const Column*> ColumnByName(const std::string& name) const;

  /// Appends one row of boxed values (one per field, in schema order).
  Status AppendRow(const std::vector<Value>& values);

  /// Boxed cell read.
  Value GetValue(std::size_t row, std::size_t col) const {
    return columns_[col].GetValue(row);
  }

  /// New table with rows at `indices` in order (gather).
  TablePtr Take(const std::vector<std::uint32_t>& indices) const;

  /// New table with rows [offset, offset+length), clamped to the table,
  /// in O(columns): its columns share this table's buffers (see
  /// Column::Slice).
  TablePtr Slice(std::size_t offset, std::size_t length) const;

  /// Appends all rows of `other` (schemas must match).
  Status AppendTable(const Table& other);

  /// Adds a new column (must match current row count when non-empty).
  Status AddColumn(Field field, Column column);

  void Reserve(std::size_t n);

  /// Estimated heap bytes across all columns (see Column::MemoryBytes).
  std::size_t MemoryBytes() const;

  /// Pretty-prints up to `max_rows` rows (for examples and debugging).
  std::string ToString(std::size_t max_rows = 20) const;

 private:
  Schema schema_;
  std::vector<Column> columns_;
};

}  // namespace cre

#endif  // CRE_STORAGE_TABLE_H_
