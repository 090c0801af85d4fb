#include "storage/key_table.h"

#include <algorithm>
#include <cstring>

#include "core/hash.h"

namespace cre {

namespace {

/// The first key's window: the values within 16 of it.
constexpr std::size_t kFirstWidth = 32;

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

KeyTable::KeyTable(const std::vector<DataType>& types, bool allow_direct)
    : direct_(allow_direct && types.size() == 1 &&
              (types[0] == DataType::kInt64 || types[0] == DataType::kDate)) {
  keys_.reserve(types.size());
  for (const DataType type : types) keys_.emplace_back(type);
  if (!direct_) slots_.assign(kInitialSlots, kEmptySlot);
}

std::size_t KeyTable::SlotsFor(std::size_t keys) {
  std::size_t slots = kInitialSlots;
  while (slots < 2 * keys) slots *= 2;
  return slots;
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

void KeyTable::FindOrAddRows(Span<const Column*> src,
                             const std::uint64_t* hashes,
                             const std::uint32_t* rows, std::size_t n,
                             std::uint32_t* ids) {
  std::size_t k = 0;
  if (direct_) {
    // The window, reloaded after each add (which may move it).
    const std::int64_t* values = src[0]->i64().data();
    std::uint64_t base = base_;
    const std::uint32_t* window = ids_.data();
    std::size_t width = ids_.size();
    for (; k < n; ++k) {
      const std::size_t row = rows == nullptr ? k : rows[k];
      const std::uint64_t offset =
          static_cast<std::uint64_t>(values[row]) - base;
      if (offset < width && window[offset] != kNoKey) {
        ids[k] = window[offset];
        continue;
      }
      ids[k] = AddDirect(src, row);
      if (!direct_) {
        ++k;
        break;
      }
      base = base_;
      window = ids_.data();
      width = ids_.size();
    }
  }
  for (; k < n; ++k) {
    const std::size_t row = rows == nullptr ? k : rows[k];
    // Null hashes: the table was direct when called, so one int key.
    const std::uint64_t h =
        hashes != nullptr ? hashes[row] : IntKeyHash(src[0]->i64()[row]);
    ids[k] = FindOrAddHashed(h, src, row);
  }
}

void KeyTable::FindRows(Span<const Column*> src, const std::uint64_t* hashes,
                        std::size_t n, std::uint32_t* ids) const {
  if (direct_) {
    const std::int64_t* values = src[0]->i64().data();
    const std::uint64_t base = base_;
    const std::uint32_t* window = ids_.data();
    const std::size_t width = ids_.size();
    for (std::size_t r = 0; r < n; ++r) {
      const std::uint64_t offset =
          static_cast<std::uint64_t>(values[r]) - base;
      ids[r] = offset < width ? window[offset] : kNoKey;
    }
    return;
  }
  for (std::size_t r = 0; r < n; ++r) {
    ids[r] = static_cast<std::uint32_t>(slots_[SlotOf(hashes[r], src, r)]);
  }
}

void KeyTable::FindOrAddRows(const Column& col,
                             std::vector<std::uint32_t>* ids) {
  const Column* src[] = {&col};
  const Span<const Column*> cols(src, 1);
  const std::size_t n = col.size();
  std::vector<std::uint64_t> hashes;
  if (needs_hashes()) HashRows(cols, n, &hashes);
  ids->resize(n);
  FindOrAddRows(cols, needs_hashes() ? hashes.data() : nullptr, nullptr, n,
                ids->data());
}

void KeyTable::Reserve(std::size_t keys, std::optional<KeyRange> range) {
  reserved_ = std::max(reserved_, keys);
  if (direct_ && range.has_value()) {
    const auto min = static_cast<std::uint64_t>(range->min);
    const auto max = static_cast<std::uint64_t>(range->max);
    const std::uint64_t span = max - min;
    const std::size_t max_width = MaxWidth(std::max(size() + 1, reserved_));
    if (ids_.empty() && span < max_width) {
      base_ = min;
      ids_.assign(span + 1, kNoKey);
    } else if (span >= max_width || !Cover(min) || !Cover(max)) {
      LeaveDirect();
    }
  }
  if (!direct_) {
    const std::size_t slots = SlotsFor(keys);
    if (slots > slots_.size()) Rehash(slots);
  }
  hashes_.reserve(keys);
  for (Column& key : keys_) key.Reserve(keys);
}

std::size_t KeyTable::BytesFor(std::size_t keys, bool grown,
                               std::optional<KeyRange> range) const {
  std::size_t bytes = SlotsFor(keys) * sizeof(std::uint64_t);
  if (direct_ && range.has_value()) {
    const std::uint64_t span = static_cast<std::uint64_t>(range->max) -
                               static_cast<std::uint64_t>(range->min);
    if (span < MaxWidth(std::max<std::size_t>(keys, 1))) {
      bytes = (span + 1) * sizeof(std::uint32_t);
    }
  }
  const std::size_t held = grown ? VectorCapacity(keys) : keys;
  bytes += held * sizeof(std::uint64_t);
  for (const Column& key : keys_) bytes += held * key.RowBytes();
  return bytes;
}

std::uint32_t KeyTable::AddDirect(Span<const Column*> src, std::size_t row) {
  const std::int64_t value = src[0]->i64()[row];
  const auto v = static_cast<std::uint64_t>(value);
  if (!Cover(v)) {
    LeaveDirect();
    return FindOrAddHashed(IntKeyHash(value), src, row);
  }
  const auto id = static_cast<std::uint32_t>(hashes_.size());
  ids_[v - base_] = id;
  hashes_.push_back(IntKeyHash(value));
  keys_[0].AppendInt64(value);
  return id;
}

bool KeyTable::Cover(std::uint64_t v) {
  const std::size_t width = ids_.size();
  if (width == 0) {
    base_ = v - kFirstWidth / 2;
    ids_.assign(kFirstWidth, kNoKey);
    return true;
  }
  const std::uint64_t offset = v - base_;
  if (offset < width) return true;
  // v lies `up` values past the window's top or `down` below its base
  // (mod 2^64); the window grows on the nearer side.
  const std::uint64_t up = offset - width + 1;
  const std::uint64_t down = base_ - v;
  const std::uint64_t gap = std::min(up, down);
  const std::size_t max_width = MaxWidth(std::max(size() + 1, reserved_));
  if (gap > max_width - width) return false;
  const std::size_t grown =
      std::min(max_width, std::max<std::size_t>(width + gap, 2 * width));
  std::vector<std::uint32_t> ids(grown, kNoKey);
  const std::size_t shift = down < up ? grown - width : 0;
  std::copy(ids_.begin(), ids_.end(), ids.begin() + shift);
  base_ -= shift;
  ids_ = std::move(ids);
  return true;
}

void KeyTable::LeaveDirect() {
  direct_ = false;
  ids_ = {};
  Rehash(SlotsFor(std::max(size() + 1, reserved_)));
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
  reserved_ = 0;
  if (direct_) {
    ids_ = {};
  } else {
    slots_.assign(kInitialSlots, kEmptySlot);
  }
}

std::size_t KeyTable::MemoryBytes() const {
  std::size_t bytes = slots_.capacity() * sizeof(std::uint64_t) +
                      ids_.capacity() * sizeof(std::uint32_t) +
                      hashes_.capacity() * sizeof(std::uint64_t);
  for (const Column& key : keys_) bytes += key.MemoryBytes();
  return bytes;
}

}  // namespace cre
