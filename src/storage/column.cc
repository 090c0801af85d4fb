#include "storage/column.h"

#include <algorithm>

namespace cre {

Column::Column(DataType type, std::size_t vector_dim) : type_(type) {
  if (type == DataType::kFloatVector) {
    vec_dim_ = vector_dim;
  }
}

std::size_t Column::size() const {
  switch (type_) {
    case DataType::kInt64:
    case DataType::kDate:
      return i64_.size();
    case DataType::kFloat64:
      return f64_.size();
    case DataType::kBool:
      return bools_.size();
    case DataType::kString:
      return strings_.size();
    case DataType::kFloatVector:
      return vec_dim_ == 0 ? 0 : vec_.size() / vec_dim_;
  }
  return 0;
}

Status Column::AppendValue(const Value& v) {
  switch (type_) {
    case DataType::kInt64:
    case DataType::kDate:
      if (!v.is_int64() && !v.is_date()) {
        return Status::TypeError("expected int64/date, got " + v.ToString());
      }
      i64_.Push(v.AsInt64());
      return Status::OK();
    case DataType::kFloat64:
      if (v.is_float64()) {
        f64_.Push(v.AsFloat64());
      } else if (v.is_int64()) {
        f64_.Push(static_cast<double>(v.AsInt64()));
      } else {
        return Status::TypeError("expected float64, got " + v.ToString());
      }
      return Status::OK();
    case DataType::kBool:
      if (!v.is_bool()) {
        return Status::TypeError("expected bool, got " + v.ToString());
      }
      bools_.Push(static_cast<std::uint8_t>(v.AsBool() ? 1 : 0));
      return Status::OK();
    case DataType::kString:
      if (!v.is_string()) {
        return Status::TypeError("expected string, got " + v.ToString());
      }
      strings_.Push(v.AsString());
      return Status::OK();
    case DataType::kFloatVector: {
      if (!v.is_vector()) {
        return Status::TypeError("expected vector, got " + v.ToString());
      }
      const auto& vec = v.AsVector();
      if (vec_dim_ == 0) vec_dim_ = vec.size();
      if (vec.size() != vec_dim_) {
        return Status::InvalidArgument("vector dimension mismatch");
      }
      vec_.Append(vec.data(), vec.size(), /*claim_all=*/true);
      return Status::OK();
    }
  }
  return Status::Internal("unreachable column type");
}

Value Column::GetValue(std::size_t i) const {
  switch (type_) {
    case DataType::kInt64:
      return Value(i64_.data()[i]);
    case DataType::kDate:
      return Value::Date(i64_.data()[i]);
    case DataType::kFloat64:
      return Value(f64_.data()[i]);
    case DataType::kBool:
      return Value(bools_.data()[i] != 0);
    case DataType::kString:
      return Value(strings_.data()[i]);
    case DataType::kFloatVector: {
      const float* row = vec_.data() + i * vec_dim_;
      return Value(std::vector<float>(row, row + vec_dim_));
    }
  }
  return Value();
}

Column Column::Take(const std::vector<std::uint32_t>& indices) const {
  Column out(type_, vec_dim_);
  out.Reserve(indices.size());
  const std::uint32_t* idx = indices.data();
  const std::size_t n = indices.size();
  switch (type_) {
    case DataType::kInt64:
    case DataType::kDate:
      out.i64_.Gather(i64_.data(), idx, n);
      break;
    case DataType::kFloat64:
      out.f64_.Gather(f64_.data(), idx, n);
      break;
    case DataType::kBool:
      out.bools_.Gather(bools_.data(), idx, n);
      break;
    case DataType::kString:
      out.strings_.Gather(strings_.data(), idx, n);
      break;
    case DataType::kFloatVector:
      for (auto i : indices) {
        out.vec_.Append(vec_.data() + i * vec_dim_, vec_dim_,
                        /*claim_all=*/true);
      }
      break;
  }
  return out;
}

Column Column::Slice(std::size_t offset, std::size_t length) const {
  Column out(type_, vec_dim_);
  switch (type_) {
    case DataType::kInt64:
    case DataType::kDate:
      out.i64_ = i64_.Slice(offset, length);
      break;
    case DataType::kFloat64:
      out.f64_ = f64_.Slice(offset, length);
      break;
    case DataType::kBool:
      out.bools_ = bools_.Slice(offset, length);
      break;
    case DataType::kString:
      out.strings_ = strings_.Slice(offset, length);
      break;
    case DataType::kFloatVector:
      out.vec_ = vec_.Slice(offset * vec_dim_, length * vec_dim_);
      break;
  }
  return out;
}

void Column::ResizeDefault(std::size_t n) {
  switch (type_) {
    case DataType::kInt64:
    case DataType::kDate:
      i64_.ResizeDefault(n);
      break;
    case DataType::kFloat64:
      f64_.ResizeDefault(n);
      break;
    case DataType::kBool:
      bools_.ResizeDefault(n);
      break;
    case DataType::kString:
      strings_.ResizeDefault(n);
      break;
    case DataType::kFloatVector:
      vec_.ResizeDefault(n * vec_dim_);
      break;
  }
}

namespace {

template <typename T>
void Scatter(ColumnStore<T>* dst_store, const ColumnStore<T>& src,
             const std::uint32_t* indices, std::size_t count,
             std::size_t dst) {
  T* out = dst_store->MutableData() + dst;
  const T* in = src.data();
  for (std::size_t i = 0; i < count; ++i) out[i] = in[indices[i]];
}

}  // namespace

void Column::ScatterFrom(const Column& src, const std::uint32_t* indices,
                         std::size_t count, std::size_t dst) {
  CRE_CHECK(src.type_ == type_);
  CRE_CHECK(dst + count <= size());
  switch (type_) {
    case DataType::kInt64:
    case DataType::kDate:
      Scatter(&i64_, src.i64_, indices, count, dst);
      break;
    case DataType::kFloat64:
      Scatter(&f64_, src.f64_, indices, count, dst);
      break;
    case DataType::kBool:
      Scatter(&bools_, src.bools_, indices, count, dst);
      break;
    case DataType::kString:
      Scatter(&strings_, src.strings_, indices, count, dst);
      break;
    case DataType::kFloatVector: {
      float* out = vec_.MutableData();
      for (std::size_t i = 0; i < count; ++i) {
        const float* row = src.vec_.data() + indices[i] * vec_dim_;
        std::copy(row, row + vec_dim_, out + (dst + i) * vec_dim_);
      }
      break;
    }
  }
}

Status Column::AppendColumn(const Column& other) {
  if (other.type_ != type_) {
    return Status::TypeError("column type mismatch in AppendColumn");
  }
  switch (type_) {
    case DataType::kInt64:
    case DataType::kDate:
      i64_.Append(other.i64_.data(), other.i64_.size());
      break;
    case DataType::kFloat64:
      f64_.Append(other.f64_.data(), other.f64_.size());
      break;
    case DataType::kBool:
      bools_.Append(other.bools_.data(), other.bools_.size());
      break;
    case DataType::kString:
      strings_.Append(other.strings_.data(), other.strings_.size());
      break;
    case DataType::kFloatVector:
      if (vec_dim_ == 0) vec_dim_ = other.vec_dim_;
      if (vec_dim_ != other.vec_dim_) {
        return Status::InvalidArgument("vector dim mismatch in AppendColumn");
      }
      vec_.Append(other.vec_.data(), other.vec_.size());
      break;
  }
  return Status::OK();
}

namespace {

/// Heap bytes of a store's element slots: the whole allocation when this
/// column alone holds it, only its own rows when the buffer is shared.
template <typename T>
std::size_t SlotBytes(const ColumnStore<T>& store) {
  return (store.shared() ? store.size() : store.capacity()) * sizeof(T);
}

}  // namespace

std::size_t Column::MemoryBytes() const {
  switch (type_) {
    case DataType::kInt64:
    case DataType::kDate:
      return SlotBytes(i64_);
    case DataType::kFloat64:
      return SlotBytes(f64_);
    case DataType::kBool:
      return SlotBytes(bools_);
    case DataType::kString:
      return SlotBytes(strings_) + HeapStringBytes();
    case DataType::kFloatVector:
      return SlotBytes(vec_);
  }
  return 0;
}

std::size_t Column::HeapStringBytes() const {
  if (type_ != DataType::kString) return 0;
  std::size_t bytes = 0;
  for (const auto& s : strings_.view()) {
    // SSO strings hold their payload inline in sizeof(std::string).
    if (s.size() >= sizeof(std::string)) bytes += s.capacity();
  }
  return bytes;
}

std::size_t Column::RowBytes() const {
  switch (type_) {
    case DataType::kInt64:
    case DataType::kDate:
      return sizeof(std::int64_t);
    case DataType::kFloat64:
      return sizeof(double);
    case DataType::kBool:
      return sizeof(std::uint8_t);
    case DataType::kString:
      return sizeof(std::string);
    case DataType::kFloatVector:
      return vec_dim_ * sizeof(float);
  }
  return 0;
}

void Column::Reserve(std::size_t n) {
  switch (type_) {
    case DataType::kInt64:
    case DataType::kDate:
      i64_.Reserve(n);
      break;
    case DataType::kFloat64:
      f64_.Reserve(n);
      break;
    case DataType::kBool:
      bools_.Reserve(n);
      break;
    case DataType::kString:
      strings_.Reserve(n);
      break;
    case DataType::kFloatVector:
      vec_.Reserve(n * vec_dim_);
      break;
  }
}

}  // namespace cre
