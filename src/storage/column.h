#ifndef CRE_STORAGE_COLUMN_H_
#define CRE_STORAGE_COLUMN_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/logging.h"
#include "core/result.h"
#include "core/span.h"
#include "storage/column_buffer.h"
#include "types/data_type.h"
#include "types/value.h"

namespace cre {

/// Read-only view of a fixed-dimension embedding column: row i occupies
/// flat[i*dim .. (i+1)*dim).
struct VectorColumnView {
  std::size_t dim = 0;
  Span<float> flat;

  std::size_t size() const { return dim == 0 ? 0 : flat.size() / dim; }
  const float* Row(std::size_t i) const { return flat.data() + i * dim; }
};

/// A typed, dense, in-memory column. Exactly one of the typed stores is
/// active, selected by type(). Hot paths read the typed data through a
/// flat read-only view; Value-based access exists for boundaries and
/// tests.
///
/// The payload is a (shared buffer, offset, row count) triple (see
/// ColumnStore): copying or slicing a column is O(1) and the result shares
/// the original's rows. Rows are append-only — no operation rewrites a row
/// another column can see — so table versions that share a buffer each
/// keep reading exactly their own rows while a newer version appends.
class Column {
 public:
  explicit Column(DataType type, std::size_t vector_dim = 0);

  DataType type() const { return type_; }
  std::size_t size() const;
  std::size_t vector_dim() const { return vec_dim_; }

  // ---- typed appends ----
  void AppendInt64(std::int64_t v) { i64_.Push(v); }
  void AppendFloat64(double v) { f64_.Push(v); }
  void AppendBool(bool v) { bools_.Push(static_cast<std::uint8_t>(v ? 1 : 0)); }
  void AppendString(std::string v) { strings_.Push(std::move(v)); }
  void AppendVector(const float* v, std::size_t dim) {
    CRE_CHECK(dim == vec_dim_);
    vec_.Append(v, dim, /*claim_all=*/true);
  }

  /// Appends `n` rows and returns them, uninitialized, for the caller to
  /// fill: a kernel's bulk write, one growth check per batch instead of
  /// one per row.
  std::uint8_t* ExtendBools(std::size_t n) { return bools_.Extend(n); }
  double* ExtendFloat64(std::size_t n) { return f64_.Extend(n); }

  /// Appends a boxed value; checks the type tag matches.
  Status AppendValue(const Value& v);

  // ---- typed read-only views (abort on wrong type: internal invariant) ----
  Span<std::int64_t> i64() const {
    CRE_CHECK(type_ == DataType::kInt64 || type_ == DataType::kDate);
    return i64_.view();
  }
  Span<double> f64() const {
    CRE_CHECK(type_ == DataType::kFloat64);
    return f64_.view();
  }
  Span<std::uint8_t> bools() const {
    CRE_CHECK(type_ == DataType::kBool);
    return bools_.view();
  }
  Span<std::string> strings() const {
    CRE_CHECK(type_ == DataType::kString);
    return strings_.view();
  }
  VectorColumnView vectors() const {
    CRE_CHECK(type_ == DataType::kFloatVector);
    return VectorColumnView{vec_dim_, vec_.view()};
  }

  /// Boxed read of row i.
  Value GetValue(std::size_t i) const;

  /// New column containing rows at `indices`, in order.
  Column Take(const std::vector<std::uint32_t>& indices) const;

  /// Rows [offset, offset + length) in O(1): the slice shares this
  /// column's buffer and, like a copy, reads only its own rows. Appending
  /// to it writes past the parent's rows only when no other column has
  /// claimed them (see ColumnStore), so the parent never changes.
  Column Slice(std::size_t offset, std::size_t length) const;

  /// Resizes to `n` default-initialized rows — the scatter target shape.
  void ResizeDefault(std::size_t n);

  /// Scattered gather: writes src rows indices[0..count) into this
  /// column's rows [dst, dst+count). The column must already span row
  /// dst+count (ResizeDefault) and share its buffer with no other column.
  /// Writers filling disjoint [dst, dst+count) ranges may run
  /// concurrently: every element (bools are distinct bytes, strings
  /// distinct objects) belongs to exactly one range.
  void ScatterFrom(const Column& src, const std::uint32_t* indices,
                   std::size_t count, std::size_t dst);

  /// Appends all rows of `other` (same type) onto this column. Claims
  /// exactly the slots it fills, so a copy of the result can extend the
  /// same buffer in turn (Catalog::Append's chain of versions).
  Status AppendColumn(const Column& other);

  void Reserve(std::size_t n);

  /// Estimated heap bytes held by this column's payload (string bytes
  /// included). Used by the resource governor to charge materialized
  /// state; an estimate, not an allocator measurement. A column that
  /// shares its buffer counts only its own rows, not the spare capacity
  /// (which belongs to whichever version appends next).
  std::size_t MemoryBytes() const;

  /// The part of MemoryBytes() held outside the row slots: the heap
  /// bytes of strings too long for the inline buffer (0 for other types).
  std::size_t HeapStringBytes() const;

  /// Bytes of one row's slot (a string's inline slot, a vector's floats).
  std::size_t RowBytes() const;

 private:
  DataType type_;
  std::size_t vec_dim_ = 0;                // kFloatVector
  ColumnStore<std::int64_t> i64_;          // kInt64, kDate
  ColumnStore<double> f64_;                // kFloat64
  ColumnStore<std::uint8_t> bools_;        // kBool
  ColumnStore<std::string> strings_;       // kString
  ColumnStore<float> vec_;                 // kFloatVector, row-major
};

/// Calls f(reader), where reader(i) is row i of `col` as a double: int64,
/// date and bool widen, strings and vectors read as 0. A kernel written
/// against the reader is compiled once per column type, with no type
/// switch per row.
template <typename F>
void VisitAsDouble(const Column& col, F&& f) {
  switch (col.type()) {
    case DataType::kInt64:
    case DataType::kDate: {
      const std::int64_t* d = col.i64().data();
      f([d](std::size_t i) { return static_cast<double>(d[i]); });
      return;
    }
    case DataType::kFloat64: {
      const double* d = col.f64().data();
      f([d](std::size_t i) { return d[i]; });
      return;
    }
    case DataType::kBool: {
      const std::uint8_t* d = col.bools().data();
      f([d](std::size_t i) { return d[i] ? 1.0 : 0.0; });
      return;
    }
    default:
      f([](std::size_t) { return 0.0; });
      return;
  }
}

}  // namespace cre

#endif  // CRE_STORAGE_COLUMN_H_
