#ifndef CRE_STORAGE_KEY_TABLE_H_
#define CRE_STORAGE_KEY_TABLE_H_

#include <cstdint>
#include <limits>
#include <optional>
#include <vector>

#include "core/hash.h"
#include "core/span.h"
#include "storage/column.h"

namespace cre {

/// The capacity a std::vector or a Column reaches after `n` appends of
/// one element each: the next power of two (0 for none).
std::size_t VectorCapacity(std::size_t n);

/// Values every key of a single int64/date key column lies within,
/// min <= max.
struct KeyRange {
  std::int64_t min = 0;
  std::int64_t max = 0;
};

/// Dense ids for the distinct keys of a set of rows: the one key table
/// behind GROUP BY, the hash join's build side and every distinct-value
/// pass (semantic select, managed index builds and refreshes). A key is
/// one cell from each of the table's key columns; ids count 0, 1, 2, ...
/// in first-seen order, and the table keeps each key's values, in id
/// order, in one Column per key column, and each key's hash.
///
/// Two forms, one behaviour. A *hashed* table finds an id through
/// open-addressing slots. A *direct* table has one int64 or date key
/// column and finds the id of value v at ids_[v - base] for v in a window
/// [base, base + width): one load, no hash, no key compare. A table over
/// one int64/date key column starts direct (unless built with
/// `allow_direct` false); the first key centres a small window on itself
/// and a key outside it widens the window geometrically towards it. The
/// table stays direct while the window costs no more bytes than the
/// hashed form's slots would for its keys (4 B per window value against
/// 8 B per slot, at least 16 B per key), counting the keys given to
/// Reserve. A key that would push the window past that turns the table
/// hashed: it rehashes its keys into slots once and never goes back, not
/// even after Clear. Ids, key values and hashes are the same in both
/// forms, so outputs do not depend on the form.
///
/// Key hash: a row's hash folds its key cells in key order with
/// HashCombine. An int64 or date cell hashes its raw value, a bool 0 or
/// 1, a float64 its bit pattern after -0.0 maps to 0.0 and every NaN to
/// one NaN, a string the FNV-1a hash of its bytes. The hashed form uses
/// the low hash bits; RadixAggregationState routes by the high bits.
///
/// Key equality: int64, date and bool by value (int64 and date cells
/// compare with each other); float64 by value, except that -0.0 equals
/// 0.0 and NaN equals NaN, so each key value is exactly one key; strings
/// by bytes. A key's stored value is the first one seen for it.
/// FLOAT_VECTOR key columns are not supported: callers reject them.
///
/// Lookups take a key's cells from source columns `src` (one per key
/// column, in key order, each of a type equal to or, for int64/date,
/// interchangeable with the key column's) together with the row hashes
/// from HashRows, which a direct table does not read (needs_hashes()).
/// Not thread-safe for writers; FindRows is const and may run
/// concurrently once the table is no longer modified.
class KeyTable {
 public:
  static constexpr std::uint32_t kNoKey =
      std::numeric_limits<std::uint32_t>::max();

  /// An empty table over key columns of `types`; with `allow_direct`
  /// false it is hashed from the start.
  explicit KeyTable(const std::vector<DataType>& types = {},
                    bool allow_direct = true);

  /// hashes[r] = the key hash of row r of `cols`, for r in [0, n). With
  /// no key columns every row hashes alike (one global key).
  static void HashRows(Span<const Column*> cols, std::size_t n,
                       std::vector<std::uint64_t>* hashes);

  /// Whether lookups read row hashes: false while the table is direct.
  /// A table that needs none now takes a null `hashes` below (and hashes
  /// the rows it adds itself, also if an add turns it hashed).
  bool needs_hashes() const { return !direct_; }

  /// The id of row `row`'s key (hash `h`), adding the key when absent.
  std::uint32_t FindOrAdd(std::uint64_t h, Span<const Column*> src,
                          std::size_t row);

  /// ids[k] = FindOrAdd of row rows[k] (row k when `rows` is null), for
  /// k in [0, n) in order; hashes[row] is that row's hash.
  void FindOrAddRows(Span<const Column*> src, const std::uint64_t* hashes,
                     const std::uint32_t* rows, std::size_t n,
                     std::uint32_t* ids);

  /// ids[r] = the id of row r's key (hash hashes[r]), or kNoKey when
  /// absent, for r in [0, n).
  void FindRows(Span<const Column*> src, const std::uint64_t* hashes,
                std::size_t n, std::uint32_t* ids) const;

  /// For a table with one key column: ids[r] = FindOrAdd of row r, for
  /// every row of `col`, in row order.
  void FindOrAddRows(const Column& col, std::vector<std::uint32_t>* ids);

  /// Sizes the table for `keys` keys, so adding that many reallocates
  /// nothing. With `range` (one int64/date key column), a direct table
  /// covers the whole range at once, or turns hashed now if the range is
  /// too wide for `keys` keys.
  void Reserve(std::size_t keys, std::optional<KeyRange> range = {});

  /// The MemoryBytes() of this table once it holds `keys` keys, less the
  /// heap bytes of string keys (their inline slots count): after
  /// Reserve(keys, range), or, when `grown`, after adding them one at a
  /// time, which leaves the hashes and key columns at the next power of
  /// two. Without a range it charges the hashed form's slots, the most a
  /// direct window for `keys` keys can take.
  std::size_t BytesFor(std::size_t keys, bool grown,
                       std::optional<KeyRange> range = {}) const;

  /// Number of distinct keys.
  std::size_t size() const { return hashes_.size(); }
  std::uint64_t hash(std::uint32_t id) const { return hashes_[id]; }
  /// One column per key column; row `id` holds key `id`'s value.
  const std::vector<Column>& keys() const { return keys_; }

  /// Drops every key, keeping the key column types and the form.
  void Clear();

  /// Heap bytes of the window or slots, hashes and key columns.
  std::size_t MemoryBytes() const;

 private:
  static constexpr std::uint64_t kHashSeed = 0x9e3779b97f4a7c15ULL;

  /// The key hash of a one-column int64/date key `v` (HashRows' fold).
  static std::uint64_t IntKeyHash(std::int64_t v) {
    return HashCombine(kHashSeed, static_cast<std::uint64_t>(v));
  }
  /// Slots of a hashed table that has held `keys` keys: kInitialSlots,
  /// doubled while they would be more than half full.
  static std::size_t SlotsFor(std::size_t keys);
  /// The widest window a direct table holding `keys` keys may keep: as
  /// many bytes as SlotsFor(keys) slots.
  static std::size_t MaxWidth(std::size_t keys) {
    return SlotsFor(keys) * sizeof(std::uint64_t) / sizeof(std::uint32_t);
  }

  bool KeyEquals(std::uint32_t id, Span<const Column*> src,
                 std::size_t row) const;
  /// The slot holding row `row`'s key (hash `h`), or the free slot where
  /// it belongs.
  std::size_t SlotOf(std::uint64_t h, Span<const Column*> src,
                     std::size_t row) const;
  /// FindOrAdd of a hashed table.
  std::uint32_t FindOrAddHashed(std::uint64_t h, Span<const Column*> src,
                                std::size_t row);
  /// Adds row `row`'s key (hash `h`) as a new id at free slot `slot`.
  std::uint32_t Add(std::size_t slot, std::uint64_t h,
                    Span<const Column*> src, std::size_t row);
  /// Re-inserts every key into `slots` (a power of two) empty slots.
  void Rehash(std::size_t slots);

  /// Adds row `row`'s key, absent from a direct table, widening the
  /// window or turning the table hashed as needed.
  std::uint32_t AddDirect(Span<const Column*> src, std::size_t row);
  /// Widens the window of a direct table to hold value `v` (as unsigned),
  /// geometrically; false when that would pass MaxWidth.
  bool Cover(std::uint64_t v);
  /// Turns a direct table hashed: slots for its keys (and the reserved
  /// ones), no window.
  void LeaveDirect();

  std::vector<Column> keys_;
  std::vector<std::uint64_t> hashes_;  ///< per id: its key hash
  /// Hashed form: open-addressing table of Tagged ids (kEmptySlot when
  /// free), indexed by the low hash bits with linear probing; at most
  /// half full. Empty in the direct form.
  std::vector<std::uint64_t> slots_;
  /// Direct form: ids_[v - base_] is value v's id (kNoKey when absent),
  /// for v in the window [base_, base_ + ids_.size()); the arithmetic is
  /// unsigned, so it wraps instead of overflowing at the int64 extremes.
  /// Empty in the hashed form and before the first key.
  std::vector<std::uint32_t> ids_;
  std::uint64_t base_ = 0;
  bool direct_ = false;
  std::size_t reserved_ = 0;  ///< the most keys Reserve was given

  /// A slot holds its key's high 32 hash bits over its id, so a probe
  /// rejects most other keys without loading their hash or value.
  static std::uint64_t Tagged(std::uint64_t h, std::uint32_t id) {
    return (h & kTagMask) | id;
  }
  static constexpr std::uint64_t kTagMask = 0xffffffff00000000ULL;
  static constexpr std::uint64_t kEmptySlot = ~0ULL;  ///< its id is kNoKey
  static constexpr std::size_t kInitialSlots = 16;
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

inline std::uint32_t KeyTable::FindOrAddHashed(std::uint64_t h,
                                               Span<const Column*> src,
                                               std::size_t row) {
  const std::size_t s = SlotOf(h, src, row);
  return slots_[s] == kEmptySlot ? Add(s, h, src, row)
                                 : static_cast<std::uint32_t>(slots_[s]);
}

inline std::uint32_t KeyTable::FindOrAdd(std::uint64_t h,
                                         Span<const Column*> src,
                                         std::size_t row) {
  if (!direct_) return FindOrAddHashed(h, src, row);
  const std::uint64_t offset =
      static_cast<std::uint64_t>(src[0]->i64()[row]) - base_;
  if (offset < ids_.size() && ids_[offset] != kNoKey) return ids_[offset];
  return AddDirect(src, row);
}

}  // namespace cre

#endif  // CRE_STORAGE_KEY_TABLE_H_
