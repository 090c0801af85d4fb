#ifndef CRE_CORE_SPAN_H_
#define CRE_CORE_SPAN_H_

#include <algorithm>
#include <cstddef>
#include <vector>

namespace cre {

/// Read-only view of `size` contiguous elements owned elsewhere (a column
/// buffer, a std::vector). Copying a Span copies two words, never the
/// elements; the owner must outlive it. A std::vector converts to a Span
/// implicitly so one parameter type accepts both. The implicit conversion
/// back into a std::vector copies every element and exists for callers
/// that want an owned copy (`std::vector<T> v = column.i64();`); functions
/// that only read take a Span so no conversion happens on the way in.
template <typename T>
class Span {
 public:
  using value_type = T;
  using iterator = const T*;
  using const_iterator = const T*;

  Span() = default;
  Span(const T* data, std::size_t size) : data_(data), size_(size) {}
  Span(const std::vector<T>& v)  // NOLINT(runtime/explicit)
      : data_(v.data()), size_(v.size()) {}

  const T* data() const { return data_; }
  std::size_t size() const { return size_; }
  const T& operator[](std::size_t i) const { return data_[i]; }
  const T* begin() const { return data_; }
  const T* end() const { return data_ + size_; }

  operator std::vector<T>() const {  // NOLINT(runtime/explicit)
    return std::vector<T>(begin(), end());
  }

  friend bool operator==(Span a, Span b) {
    return a.size_ == b.size_ && std::equal(a.begin(), a.end(), b.begin());
  }

 private:
  const T* data_ = nullptr;
  std::size_t size_ = 0;
};

}  // namespace cre

#endif  // CRE_CORE_SPAN_H_
