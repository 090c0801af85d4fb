#ifndef CRE_STORAGE_KEY_TABLE_H_
#define CRE_STORAGE_KEY_TABLE_H_

#include <cstdint>
#include <limits>
#include <vector>

#include "core/span.h"
#include "storage/column.h"

namespace cre {

/// The capacity a std::vector or a Column reaches after `n` appends of
/// one element each: the next power of two (0 for none).
std::size_t VectorCapacity(std::size_t n);

/// Dense ids for the distinct keys of a set of rows: the one hash table
/// behind GROUP BY, the hash join's build side and every distinct-value
/// pass (semantic select, managed index builds and refreshes). A key is
/// one cell from each of the table's key columns; ids count 0, 1, 2, ...
/// in first-seen order, and the table keeps each key's values, in id
/// order, in one Column per key column.
///
/// Key hash: a row's hash folds its key cells in key order with
/// HashCombine. An int64 or date cell hashes its raw value, a bool 0 or
/// 1, a float64 its bit pattern after -0.0 maps to 0.0 and every NaN to
/// one NaN, a string the FNV-1a hash of its bytes. The table uses the low
/// hash bits; RadixAggregationState routes by the high bits.
///
/// Key equality: int64, date and bool by value (int64 and date cells
/// compare with each other); float64 by value, except that -0.0 equals
/// 0.0 and NaN equals NaN, so each key value is exactly one key; strings
/// by bytes. A key's stored value is the first one seen for it.
/// FLOAT_VECTOR key columns are not supported: callers reject them.
///
/// Lookups take a key's cells from source columns `src` (one per key
/// column, in key order, each of a type equal to or, for int64/date,
/// interchangeable with the key column's) together with the row's hash
/// from HashRows. Not thread-safe for writers; Find is const and may run
/// concurrently once the table is no longer modified.
class KeyTable {
 public:
  static constexpr std::uint32_t kNoKey =
      std::numeric_limits<std::uint32_t>::max();

  /// An empty table over key columns of `types`.
  explicit KeyTable(const std::vector<DataType>& types = {});

  /// hashes[r] = the key hash of row r of `cols`, for r in [0, n). With
  /// no key columns every row hashes alike (one global key).
  static void HashRows(Span<const Column*> cols, std::size_t n,
                       std::vector<std::uint64_t>* hashes);

  /// The id of row `row`'s key (hash `h`), adding the key when absent.
  std::uint32_t FindOrAdd(std::uint64_t h, Span<const Column*> src,
                          std::size_t row);

  /// The id of row `row`'s key (hash `h`), or kNoKey when absent.
  std::uint32_t Find(std::uint64_t h, Span<const Column*> src,
                     std::size_t row) const;

  /// For a table with one key column: ids[r] = FindOrAdd of row r, for
  /// every row of `col`, in row order.
  void FindOrAddRows(const Column& col, std::vector<std::uint32_t>* ids);

  /// Sizes the slots, hashes and key columns for `keys` keys, so adding
  /// that many reallocates nothing.
  void Reserve(std::size_t keys);

  /// The MemoryBytes() of this table once it holds `keys` keys, less the
  /// heap bytes of string keys (their inline slots count): after
  /// Reserve(keys), or, when `grown`, after adding them one at a time,
  /// which leaves the hashes and key columns at the next power of two.
  std::size_t BytesFor(std::size_t keys, bool grown) const;

  /// Number of distinct keys.
  std::size_t size() const { return hashes_.size(); }
  std::uint64_t hash(std::uint32_t id) const { return hashes_[id]; }
  /// One column per key column; row `id` holds key `id`'s value.
  const std::vector<Column>& keys() const { return keys_; }

  /// Drops every key, keeping the key column types.
  void Clear();

  /// Heap bytes of the slots, hashes and key columns.
  std::size_t MemoryBytes() const;

 private:
  bool KeyEquals(std::uint32_t id, Span<const Column*> src,
                 std::size_t row) const;
  /// The slot holding row `row`'s key (hash `h`), or the free slot where
  /// it belongs.
  std::size_t SlotOf(std::uint64_t h, Span<const Column*> src,
                     std::size_t row) const;
  /// Adds row `row`'s key (hash `h`) as a new id at free slot `slot`.
  std::uint32_t Add(std::size_t slot, std::uint64_t h,
                    Span<const Column*> src, std::size_t row);
  /// Re-inserts every key into `slots` (a power of two) empty slots.
  void Rehash(std::size_t slots);

  /// A slot holds its key's high 32 hash bits over its id, so a probe
  /// rejects most other keys without loading their hash or value.
  static std::uint64_t Tagged(std::uint64_t h, std::uint32_t id) {
    return (h & kTagMask) | id;
  }
  static constexpr std::uint64_t kTagMask = 0xffffffff00000000ULL;
  static constexpr std::uint64_t kEmptySlot = ~0ULL;  ///< its id is kNoKey

  std::vector<Column> keys_;
  std::vector<std::uint64_t> hashes_;  ///< per id: its key hash
  /// Open-addressing table of Tagged ids (kEmptySlot when free),
  /// indexed by the low hash bits with linear probing; at most half full.
  std::vector<std::uint64_t> slots_;
};

inline bool KeyTable::KeyEquals(std::uint32_t id, Span<const Column*> src,
                                std::size_t row) const {
  for (std::size_t k = 0; k < keys_.size(); ++k) {
    const Column& key = keys_[k];
    const Column& in = *src[k];
    switch (key.type()) {
      case DataType::kInt64:
      case DataType::kDate:
        if (key.i64()[id] != in.i64()[row]) return false;
        break;
      case DataType::kFloat64: {
        const double a = key.f64()[id];
        const double b = in.f64()[row];
        if (!(a == b || (a != a && b != b))) return false;
        break;
      }
      case DataType::kBool:
        if (key.bools()[id] != in.bools()[row]) return false;
        break;
      case DataType::kString:
        if (key.strings()[id] != in.strings()[row]) return false;
        break;
      case DataType::kFloatVector:
        return false;
    }
  }
  return true;
}

inline std::size_t KeyTable::SlotOf(std::uint64_t h, Span<const Column*> src,
                                    std::size_t row) const {
  const std::size_t mask = slots_.size() - 1;
  for (std::size_t s = static_cast<std::size_t>(h) & mask;;
       s = (s + 1) & mask) {
    const std::uint64_t slot = slots_[s];
    if (slot == kEmptySlot ||
        (((slot ^ h) & kTagMask) == 0 &&
         KeyEquals(static_cast<std::uint32_t>(slot), src, row))) {
      return s;
    }
  }
}

inline std::uint32_t KeyTable::FindOrAdd(std::uint64_t h,
                                         Span<const Column*> src,
                                         std::size_t row) {
  const std::size_t s = SlotOf(h, src, row);
  return slots_[s] == kEmptySlot ? Add(s, h, src, row)
                                 : static_cast<std::uint32_t>(slots_[s]);
}

inline std::uint32_t KeyTable::Find(std::uint64_t h, Span<const Column*> src,
                                    std::size_t row) const {
  return static_cast<std::uint32_t>(slots_[SlotOf(h, src, row)]);
}

}  // namespace cre

#endif  // CRE_STORAGE_KEY_TABLE_H_
