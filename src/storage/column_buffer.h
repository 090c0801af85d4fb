#ifndef CRE_STORAGE_COLUMN_BUFFER_H_
#define CRE_STORAGE_COLUMN_BUFFER_H_

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <type_traits>
#include <utility>

#include "core/logging.h"
#include "core/span.h"

namespace cre {

/// Append-only element storage that the columns of several table versions
/// share. Elements [0, claimed) each belong to the one column that claimed
/// them; an element below any column's row count is never written again,
/// so a version that reads rows [0, n) never races with a newer version
/// appending rows n and up into the same allocation.
///
/// A column may extend the buffer only from the claimed end: the atomic
/// claim (TryClaim) lets exactly one of several copies of a column with n
/// rows take slots n and up, and every other copy reallocates. Spare
/// capacity is raw memory, never value-initialized.
template <typename T>
class SharedColumnBuffer {
 public:
  /// A buffer of `capacity` raw slots, [0, claimed) already claimed by
  /// the column that allocates it.
  SharedColumnBuffer(std::size_t capacity, std::size_t claimed)
      : data_(Alloc().allocate(capacity)),
        capacity_(capacity),
        claimed_(claimed) {}
  ~SharedColumnBuffer() {
    if constexpr (!std::is_trivially_destructible_v<T>) {
      std::destroy(data_, data_ + constructed_);
    }
    Alloc().deallocate(data_, capacity_);
  }
  SharedColumnBuffer(const SharedColumnBuffer&) = delete;
  SharedColumnBuffer& operator=(const SharedColumnBuffer&) = delete;

  T* data() const { return data_; }
  std::size_t capacity() const { return capacity_; }

  /// Moves the claimed end from `from` to `to`; false when another column
  /// already claimed past `from`.
  bool TryClaim(std::size_t from, std::size_t to) {
    return claimed_.compare_exchange_strong(from, to,
                                            std::memory_order_acq_rel);
  }

  /// Constructs element i (a claimed slot) from `args`. Slots are filled
  /// in order, by the one column that claimed them.
  template <typename... Args>
  void Construct(std::size_t i, Args&&... args) {
    ConstructAt(data_ + i, std::forward<Args>(args)...);
    if constexpr (!std::is_trivially_destructible_v<T>) constructed_ = i + 1;
  }

  /// Constructs *p; a trivially destructible T needs no bookkeeping, so
  /// its writers fill claimed slots through this directly.
  template <typename... Args>
  static void ConstructAt(T* p, Args&&... args) {
    Alloc alloc;
    std::allocator_traits<Alloc>::construct(alloc, p,
                                            std::forward<Args>(args)...);
  }

 private:
  using Alloc = std::allocator<T>;

  T* const data_;
  const std::size_t capacity_;
  std::atomic<std::size_t> claimed_;
  /// Elements to destroy (non-trivial T only); claimed_ may run ahead of
  /// it while a claim is being filled.
  std::size_t constructed_ = 0;
};

/// One column's payload: a shared buffer, the buffer slot of this
/// column's row 0 (its offset) and the row count it sees. Copies and
/// slices are O(1) and share the buffer; each handle reads only its own
/// rows [offset, offset + size). [size, owned_end) is spare room this
/// handle has claimed and may fill without further atomics. Claims are
/// made in buffer slots, so a handle extends the buffer in place only
/// from offset + size, and only while that is still the claimed end: a
/// slice that ends before its parent's last row, or a suffix slice whose
/// parent (or another copy) has claimed further, reallocates instead.
///
/// Two growth modes keep both build styles cheap:
///  - Push, Gather and Reserve (building a column: per-row appends, Take)
///    claim all of the buffer's spare capacity at once, so a column under
///    construction pays one claim per reallocation, not one per element;
///  - Append (a batch: AppendColumn, hence Catalog::Append) claims exactly
///    the slots it fills, leaving the next slot claimable by the next
///    version's copy, so a chain of appends shares one buffer.
/// Reallocation grows like std::vector (size + max(size, n)), so an
/// unshared column's MemoryBytes() matches std::vector capacity
/// accounting, which the governor's footprint estimates are fitted to.
template <typename T>
class ColumnStore {
 public:
  ColumnStore() = default;
  ColumnStore(const ColumnStore& other)
      : buf_(other.buf_), data_(other.data_), offset_(other.offset_),
        size_(other.size_), owned_end_(other.size_) {}
  ColumnStore& operator=(const ColumnStore& other) {
    if (this != &other) {
      buf_ = other.buf_;
      data_ = other.data_;
      offset_ = other.offset_;
      size_ = other.size_;
      owned_end_ = other.size_;
    }
    return *this;
  }
  ColumnStore(ColumnStore&& other) noexcept
      : buf_(std::move(other.buf_)), data_(other.data_),
        offset_(other.offset_), size_(other.size_),
        owned_end_(other.owned_end_) {
    other.Reset();
  }
  ColumnStore& operator=(ColumnStore&& other) noexcept {
    if (this != &other) {
      buf_ = std::move(other.buf_);
      data_ = other.data_;
      offset_ = other.offset_;
      size_ = other.size_;
      owned_end_ = other.owned_end_;
      other.Reset();
    }
    return *this;
  }

  /// O(1) view of elements [begin, begin + n) that shares this store's
  /// buffer and claims none of it (see the class comment).
  ColumnStore Slice(std::size_t begin, std::size_t n) const {
    CRE_CHECK(begin + n <= size_);
    ColumnStore out;
    if (n == 0) return out;
    out.buf_ = buf_;
    out.data_ = data_ + begin;
    out.offset_ = offset_ + begin;
    out.size_ = n;
    out.owned_end_ = n;
    return out;
  }

  std::size_t size() const { return size_; }
  const T* data() const { return data_; }
  Span<T> view() const { return Span<T>(data_, size_); }

  /// Appends one element (see the class comment for the growth mode).
  template <typename U>
  void Push(U&& v) {
    if (size_ == owned_end_) Grow(1, /*claim_all=*/true);
    if constexpr (std::is_trivially_destructible_v<T>) {
      Buffer::ConstructAt(data_ + size_, std::forward<U>(v));
    } else {
      buf_->Construct(offset_ + size_, std::forward<U>(v));
    }
    ++size_;
  }

  /// Appends `n` uninitialized elements and returns them for the caller
  /// to fill before any other use of the store (a kernel's bulk write);
  /// grows like Push.
  T* Extend(std::size_t n) {
    static_assert(std::is_trivially_copyable_v<T>);
    if (size_ + n > owned_end_) Grow(n, /*claim_all=*/true);
    T* out = data_ + size_;
    size_ += n;
    return out;
  }

  /// Appends src[indices[k]] for k in [0, n), growing like Push.
  void Gather(const T* src, const std::uint32_t* indices, std::size_t n) {
    if (n == 0) return;
    if (size_ + n > owned_end_) Grow(n, /*claim_all=*/true);
    if constexpr (std::is_trivially_destructible_v<T>) {
      T* out = data_ + size_;
      for (std::size_t k = 0; k < n; ++k) {
        Buffer::ConstructAt(out + k, src[indices[k]]);
      }
    } else {
      for (std::size_t k = 0; k < n; ++k) {
        buf_->Construct(offset_ + size_ + k, src[indices[k]]);
      }
    }
    size_ += n;
  }

  /// Appends `n` elements copied from `src` (which may point into this
  /// store's own rows).
  void Append(const T* src, std::size_t n, bool claim_all = false) {
    if (n == 0) return;
    std::shared_ptr<Buffer> old;  // keeps `src` alive
    if (size_ + n > owned_end_) old = Grow(n, claim_all);
    if constexpr (std::is_trivially_copyable_v<T>) {
      std::memcpy(data_ + size_, src, n * sizeof(T));
    } else {
      for (std::size_t i = 0; i < n; ++i) {
        buf_->Construct(offset_ + size_ + i, src[i]);
      }
    }
    size_ += n;
  }

  /// Makes room for `n` elements in total (std::vector::reserve).
  void Reserve(std::size_t n) {
    if (n > owned_end_) {
      Grow(n - size_, /*claim_all=*/true, /*exact=*/true);
    }
  }

  /// Grows to `n` value-initialized elements (the scatter target shape).
  void ResizeDefault(std::size_t n) {
    CRE_CHECK(n >= size_);
    if (n > owned_end_) Grow(n - size_, /*claim_all=*/false);
    for (; size_ < n; ++size_) buf_->Construct(offset_ + size_);
  }

  /// Writable rows for an in-place scatter; only a column that shares its
  /// buffer with no other column may overwrite rows.
  T* MutableData() {
    CRE_CHECK(!shared());
    return data_;
  }

  std::size_t capacity() const { return buf_ ? buf_->capacity() : 0; }
  bool shared() const { return buf_.use_count() > 1; }

 private:
  using Buffer = SharedColumnBuffer<T>;

  void Reset() {
    data_ = nullptr;
    offset_ = 0;
    size_ = 0;
    owned_end_ = 0;
  }

  /// Makes [size_, size_ + n) writable: claims more of the current buffer
  /// when this handle holds its claimed end, else reallocates. Returns the
  /// buffer it replaced (null when none), for callers still reading it.
  std::shared_ptr<Buffer> Grow(std::size_t n, bool claim_all,
                               bool exact = false) {
    const std::size_t need = size_ + n;
    if (buf_ != nullptr && offset_ + need <= buf_->capacity()) {
      const std::size_t to = claim_all ? buf_->capacity() - offset_ : need;
      if (buf_->TryClaim(offset_ + owned_end_, offset_ + to)) {
        owned_end_ = to;
        return nullptr;
      }
    }
    const std::size_t capacity = exact ? need : size_ + std::max(size_, n);
    const std::size_t to = claim_all ? capacity : need;
    auto fresh = std::make_shared<Buffer>(capacity, to);
    // Rows stay in the old buffer for every other column sharing it, so
    // they are copied, never moved.
    if constexpr (std::is_trivially_copyable_v<T>) {
      if (size_ > 0) std::memcpy(fresh->data(), data_, size_ * sizeof(T));
    } else {
      for (std::size_t i = 0; i < size_; ++i) fresh->Construct(i, data_[i]);
    }
    std::swap(buf_, fresh);
    data_ = buf_->data();
    offset_ = 0;
    owned_end_ = to;
    return fresh;
  }

  std::shared_ptr<Buffer> buf_;
  T* data_ = nullptr;       ///< buf_->data() + offset_
  std::size_t offset_ = 0;  ///< buffer slot of row 0
  std::size_t size_ = 0;
  std::size_t owned_end_ = 0;
};

}  // namespace cre

#endif  // CRE_STORAGE_COLUMN_BUFFER_H_
