#include "storage/key_table.h"

#include <cstring>

#include "core/hash.h"

namespace cre {

namespace {

constexpr std::uint64_t kHashSeed = 0x9e3779b97f4a7c15ULL;
constexpr std::size_t kInitialSlots = 16;

/// Hash input of a float64 key: one bit pattern per key value (-0.0 is
/// 0.0, every NaN is one NaN), matching KeyEquals.
std::uint64_t FloatKeyBits(double x) {
  if (x == 0.0) x = 0.0;
  if (x != x) x = std::numeric_limits<double>::quiet_NaN();
  std::uint64_t bits;
  std::memcpy(&bits, &x, sizeof(bits));
  return bits;
}

}  // namespace

std::size_t VectorCapacity(std::size_t n) {
  std::size_t capacity = n == 0 ? 0 : 1;
  while (capacity < n) capacity *= 2;
  return capacity;
}

KeyTable::KeyTable(const std::vector<DataType>& types)
    : slots_(kInitialSlots, kEmptySlot) {
  keys_.reserve(types.size());
  for (const DataType type : types) keys_.emplace_back(type);
}

void KeyTable::HashRows(Span<const Column*> cols, std::size_t n,
                        std::vector<std::uint64_t>* hashes) {
  hashes->assign(n, kHashSeed);
  std::uint64_t* h = hashes->data();
  // Folds cell(r) into every row's hash; one loop per key column type.
  auto fold = [h, n](auto cell) {
    for (std::size_t r = 0; r < n; ++r) h[r] = HashCombine(h[r], cell(r));
  };
  for (const Column* col : cols) {
    switch (col->type()) {
      case DataType::kInt64:
      case DataType::kDate: {
        const std::int64_t* d = col->i64().data();
        fold([d](std::size_t r) { return static_cast<std::uint64_t>(d[r]); });
        break;
      }
      case DataType::kFloat64: {
        const double* d = col->f64().data();
        fold([d](std::size_t r) { return FloatKeyBits(d[r]); });
        break;
      }
      case DataType::kBool: {
        const std::uint8_t* d = col->bools().data();
        fold([d](std::size_t r) { return std::uint64_t{d[r]}; });
        break;
      }
      case DataType::kString: {
        const std::string* d = col->strings().data();
        fold([d](std::size_t r) { return HashString(d[r]); });
        break;
      }
      case DataType::kFloatVector:
        break;
    }
  }
}

void KeyTable::FindOrAddRows(const Column& col,
                             std::vector<std::uint32_t>* ids) {
  const Column* src[] = {&col};
  const Span<const Column*> cols(src, 1);
  const std::size_t n = col.size();
  std::vector<std::uint64_t> hashes;
  HashRows(cols, n, &hashes);
  ids->resize(n);
  for (std::size_t r = 0; r < n; ++r) {
    (*ids)[r] = FindOrAdd(hashes[r], cols, r);
  }
}

void KeyTable::Reserve(std::size_t keys) {
  std::size_t slots = slots_.size();
  while (slots < 2 * keys) slots *= 2;
  if (slots > slots_.size()) Rehash(slots);
  hashes_.reserve(keys);
  for (Column& key : keys_) key.Reserve(keys);
}

std::size_t KeyTable::BytesFor(std::size_t keys, bool grown) const {
  // Slots double once they pass half full, from kInitialSlots.
  std::size_t slots = kInitialSlots;
  while (slots < 2 * keys) slots *= 2;
  const std::size_t held = grown ? VectorCapacity(keys) : keys;
  std::size_t bytes = (slots + held) * sizeof(std::uint64_t);
  for (const Column& key : keys_) bytes += held * key.RowBytes();
  return bytes;
}

std::uint32_t KeyTable::Add(std::size_t slot, std::uint64_t h,
                            Span<const Column*> src, std::size_t row) {
  const auto id = static_cast<std::uint32_t>(hashes_.size());
  slots_[slot] = Tagged(h, id);
  hashes_.push_back(h);
  for (std::size_t k = 0; k < keys_.size(); ++k) {
    Column& dst = keys_[k];
    const Column& in = *src[k];
    switch (dst.type()) {
      case DataType::kInt64:
      case DataType::kDate:
        dst.AppendInt64(in.i64()[row]);
        break;
      case DataType::kFloat64:
        dst.AppendFloat64(in.f64()[row]);
        break;
      case DataType::kBool:
        dst.AppendBool(in.bools()[row] != 0);
        break;
      case DataType::kString:
        dst.AppendString(in.strings()[row]);
        break;
      case DataType::kFloatVector:
        break;
    }
  }
  if (hashes_.size() * 2 > slots_.size()) Rehash(slots_.size() * 2);
  return id;
}

void KeyTable::Rehash(std::size_t slots) {
  slots_.assign(slots, kEmptySlot);
  const std::size_t mask = slots_.size() - 1;
  for (std::uint32_t id = 0; id < hashes_.size(); ++id) {
    std::size_t s = static_cast<std::size_t>(hashes_[id]) & mask;
    while (slots_[s] != kEmptySlot) s = (s + 1) & mask;
    slots_[s] = Tagged(hashes_[id], id);
  }
}

void KeyTable::Clear() {
  for (Column& key : keys_) key = Column(key.type());
  hashes_.clear();
  slots_.assign(kInitialSlots, kEmptySlot);
}

std::size_t KeyTable::MemoryBytes() const {
  std::size_t bytes = slots_.capacity() * sizeof(std::uint64_t) +
                      hashes_.capacity() * sizeof(std::uint64_t);
  for (const Column& key : keys_) bytes += key.MemoryBytes();
  return bytes;
}

}  // namespace cre
