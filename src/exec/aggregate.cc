#include "exec/aggregate.h"

#include <algorithm>
#include <cstring>
#include <limits>

#include "core/hash.h"

namespace cre {

namespace {

constexpr std::uint32_t kEmptySlot = std::numeric_limits<std::uint32_t>::max();
constexpr std::uint64_t kHashSeed = 0x9e3779b97f4a7c15ULL;
constexpr std::size_t kInitialSlots = 16;

/// Hash input of a float64 key: one bit pattern per key value (-0.0 is
/// 0.0, every NaN is one NaN), matching SameFloatKey.
std::uint64_t FloatKeyBits(double x) {
  if (x == 0.0) x = 0.0;
  if (x != x) x = std::numeric_limits<double>::quiet_NaN();
  std::uint64_t bits;
  std::memcpy(&bits, &x, sizeof(bits));
  return bits;
}

bool SameFloatKey(double a, double b) { return a == b || (a != a && b != b); }

void AppendKeyCell(Column* dst, const Column& src, std::size_t row) {
  switch (src.type()) {
    case DataType::kInt64:
    case DataType::kDate:
      dst->AppendInt64(src.i64()[row]);
      break;
    case DataType::kFloat64:
      dst->AppendFloat64(src.f64()[row]);
      break;
    case DataType::kBool:
      dst->AppendBool(src.bools()[row] != 0);
      break;
    case DataType::kString:
      dst->AppendString(src.strings()[row]);
      break;
    case DataType::kFloatVector:
      break;  // rejected by Init
  }
}

double InitialAccumulator(AggKind kind) {
  if (kind == AggKind::kMin) return std::numeric_limits<double>::max();
  if (kind == AggKind::kMax) return std::numeric_limits<double>::lowest();
  return 0.0;
}

/// Folds `v` into `acc` the way a row folds into a group.
void Fold(AggKind kind, double v, double* acc) {
  switch (kind) {
    case AggKind::kSum:
    case AggKind::kAvg:
      *acc += v;
      break;
    case AggKind::kMin:
      *acc = std::min(*acc, v);
      break;
    case AggKind::kMax:
      *acc = std::max(*acc, v);
      break;
    case AggKind::kCount:
      break;
  }
}

/// acc[groups[k] * stride] folds reader(rows[k]) for k in [0, n), in k
/// order, so each group accumulates its rows in input order.
template <typename Reader>
void Accumulate(AggKind kind, const Reader& reader,
                const std::uint32_t* rows, const std::uint32_t* groups,
                std::size_t n, double* acc, std::size_t stride) {
  for (std::size_t k = 0; k < n; ++k) {
    Fold(kind, reader(rows[k]), &acc[groups[k] * stride]);
  }
}

}  // namespace

Status GroupedAggregationState::Init(const Schema& input,
                                     std::vector<std::string> group_keys,
                                     std::vector<AggSpec> aggs) {
  group_keys_ = std::move(group_keys);
  aggs_ = std::move(aggs);
  key_cols_.clear();
  agg_cols_.assign(aggs_.size(), -1);
  schema_ = Schema();
  keys_.clear();
  ResetGroups();

  for (const auto& k : group_keys_) {
    CRE_ASSIGN_OR_RETURN(std::size_t idx, input.RequireField(k));
    const Field& field = input.field(idx);
    if (field.type == DataType::kFloatVector) {
      return Status::TypeError("cannot group by vector column: " + k);
    }
    key_cols_.push_back(idx);
    keys_.emplace_back(field.type, field.vector_dim);
    schema_.AddField(field);
  }
  for (std::size_t a = 0; a < aggs_.size(); ++a) {
    if (aggs_[a].kind != AggKind::kCount) {
      CRE_ASSIGN_OR_RETURN(std::size_t idx,
                           input.RequireField(aggs_[a].column));
      agg_cols_[a] = static_cast<int>(idx);
    }
    const DataType out_type = aggs_[a].kind == AggKind::kCount
                                  ? DataType::kInt64
                                  : DataType::kFloat64;
    schema_.AddField({aggs_[a].output_name, out_type, 0});
  }
  return Status::OK();
}

void GroupedAggregationState::HashRows(
    const Table& batch, std::vector<std::uint64_t>* hashes) const {
  const std::size_t n = batch.num_rows();
  hashes->assign(n, kHashSeed);
  std::uint64_t* h = hashes->data();
  for (const std::size_t c : key_cols_) {
    const Column& col = batch.column(c);
    switch (col.type()) {
      case DataType::kInt64:
      case DataType::kDate: {
        const std::int64_t* d = col.i64().data();
        for (std::size_t r = 0; r < n; ++r) {
          h[r] = HashCombine(h[r], static_cast<std::uint64_t>(d[r]));
        }
        break;
      }
      case DataType::kFloat64: {
        const double* d = col.f64().data();
        for (std::size_t r = 0; r < n; ++r) {
          h[r] = HashCombine(h[r], FloatKeyBits(d[r]));
        }
        break;
      }
      case DataType::kBool: {
        const std::uint8_t* d = col.bools().data();
        for (std::size_t r = 0; r < n; ++r) {
          h[r] = HashCombine(h[r], d[r]);
        }
        break;
      }
      case DataType::kString: {
        const std::string* d = col.strings().data();
        for (std::size_t r = 0; r < n; ++r) {
          h[r] = HashCombine(h[r], HashString(d[r]));
        }
        break;
      }
      case DataType::kFloatVector:
        break;  // rejected by Init
    }
  }
}

bool GroupedAggregationState::KeyEquals(std::uint32_t group,
                                        const Column* const* src,
                                        std::size_t row) const {
  for (std::size_t k = 0; k < keys_.size(); ++k) {
    const Column& key = keys_[k];
    const Column& in = *src[k];
    switch (key.type()) {
      case DataType::kInt64:
      case DataType::kDate:
        if (key.i64()[group] != in.i64()[row]) return false;
        break;
      case DataType::kFloat64:
        if (!SameFloatKey(key.f64()[group], in.f64()[row])) return false;
        break;
      case DataType::kBool:
        if (key.bools()[group] != in.bools()[row]) return false;
        break;
      case DataType::kString:
        if (key.strings()[group] != in.strings()[row]) return false;
        break;
      case DataType::kFloatVector:
        return false;  // rejected by Init
    }
  }
  return true;
}

std::uint32_t GroupedAggregationState::FindOrAdd(std::uint64_t h,
                                                 const Column* const* src,
                                                 std::size_t row) {
  const std::size_t mask = slots_.size() - 1;
  std::size_t s = static_cast<std::size_t>(h) & mask;
  for (;;) {
    const std::uint32_t g = slots_[s];
    if (g == kEmptySlot) break;
    if (group_hashes_[g] == h && KeyEquals(g, src, row)) return g;
    s = (s + 1) & mask;
  }
  const auto g = static_cast<std::uint32_t>(group_hashes_.size());
  slots_[s] = g;
  group_hashes_.push_back(h);
  for (std::size_t k = 0; k < keys_.size(); ++k) {
    AppendKeyCell(&keys_[k], *src[k], row);
  }
  counts_.push_back(0);
  for (const AggSpec& agg : aggs_) {
    acc_.push_back(InitialAccumulator(agg.kind));
  }
  if (group_hashes_.size() * 2 > slots_.size()) GrowSlots();
  return g;
}

void GroupedAggregationState::GrowSlots() {
  slots_.assign(slots_.size() * 2, kEmptySlot);
  const std::size_t mask = slots_.size() - 1;
  for (std::uint32_t g = 0; g < group_hashes_.size(); ++g) {
    std::size_t s = static_cast<std::size_t>(group_hashes_[g]) & mask;
    while (slots_[s] != kEmptySlot) s = (s + 1) & mask;
    slots_[s] = g;
  }
}

void GroupedAggregationState::ConsumeRows(const Table& batch,
                                          const std::uint64_t* hashes,
                                          const std::uint32_t* rows,
                                          std::size_t n) {
  std::vector<const Column*> src;
  src.reserve(key_cols_.size());
  for (const std::size_t c : key_cols_) src.push_back(&batch.column(c));
  group_of_.resize(n);
  for (std::size_t k = 0; k < n; ++k) {
    group_of_[k] = FindOrAdd(hashes[rows[k]], src.data(), rows[k]);
  }
  for (std::size_t k = 0; k < n; ++k) ++counts_[group_of_[k]];
  const std::size_t stride = aggs_.size();
  for (std::size_t a = 0; a < aggs_.size(); ++a) {
    if (aggs_[a].kind == AggKind::kCount) continue;
    VisitAsDouble(batch.column(agg_cols_[a]), [&](const auto& reader) {
      Accumulate(aggs_[a].kind, reader, rows, group_of_.data(), n,
                 acc_.data() + a, stride);
    });
  }
}

Status GroupedAggregationState::Consume(const Table& batch) {
  const std::size_t n = batch.num_rows();
  HashRows(batch, &hashes_);
  // rows_ only ever holds 0, 1, 2, ...: the identity selection.
  for (std::size_t r = rows_.size(); r < n; ++r) {
    rows_.push_back(static_cast<std::uint32_t>(r));
  }
  ConsumeRows(batch, hashes_.data(), rows_.data(), n);
  return Status::OK();
}

void GroupedAggregationState::Merge(GroupedAggregationState&& other) {
  std::vector<const Column*> src;
  src.reserve(other.keys_.size());
  for (const Column& key : other.keys_) src.push_back(&key);
  const std::size_t num_aggs = aggs_.size();
  for (std::uint32_t og = 0; og < other.num_groups(); ++og) {
    const std::size_t before = num_groups();
    const std::uint32_t g = FindOrAdd(other.group_hashes_[og], src.data(), og);
    const double* from = other.acc_.data() + og * num_aggs;
    double* into = acc_.data() + g * num_aggs;
    counts_[g] += other.counts_[og];
    if (num_groups() > before) {
      // A new group takes the partial's accumulators as they are.
      std::copy(from, from + num_aggs, into);
      continue;
    }
    for (std::size_t a = 0; a < num_aggs; ++a) {
      Fold(aggs_[a].kind, from[a], into + a);
    }
  }
  other.ResetGroups();
}

Result<TablePtr> GroupedAggregationState::Finalize() {
  const std::size_t num_aggs = aggs_.size();
  // SQL semantics: a global aggregate (no grouping keys) over empty input
  // yields exactly one row of identity values (COUNT = 0, sums = 0); the
  // min/max identities would be +/-inf, so they report 0 too.
  if (group_hashes_.empty() && group_keys_.empty()) {
    group_hashes_.push_back(kHashSeed);
    counts_.push_back(0);
    acc_.assign(num_aggs, 0.0);
  }

  const std::size_t groups = num_groups();
  auto out = Table::Make(schema_);
  for (std::size_t k = 0; k < keys_.size(); ++k) {
    out->column(k) = std::move(keys_[k]);
  }
  for (std::size_t a = 0; a < num_aggs; ++a) {
    Column& col = out->column(keys_.size() + a);
    if (aggs_[a].kind == AggKind::kCount) {
      col.Reserve(groups);
      for (std::size_t g = 0; g < groups; ++g) col.AppendInt64(counts_[g]);
      continue;
    }
    double* values = col.ExtendFloat64(groups);
    const bool avg = aggs_[a].kind == AggKind::kAvg;
    for (std::size_t g = 0; g < groups; ++g) {
      const double acc = acc_[g * num_aggs + a];
      values[g] = avg ? (counts_[g] ? acc / counts_[g] : 0.0) : acc;
    }
  }
  ResetGroups();
  return out;
}

void GroupedAggregationState::ResetGroups() {
  for (std::size_t k = 0; k < keys_.size(); ++k) {
    const Field& field = schema_.field(k);
    keys_[k] = Column(field.type, field.vector_dim);
  }
  group_hashes_.clear();
  counts_.clear();
  acc_.clear();
  slots_.assign(kInitialSlots, kEmptySlot);
}

std::size_t GroupedAggregationState::MemoryBytes() const {
  std::size_t bytes = slots_.capacity() * sizeof(std::uint32_t) +
                      group_hashes_.capacity() * sizeof(std::uint64_t) +
                      counts_.capacity() * sizeof(std::int64_t) +
                      acc_.capacity() * sizeof(double);
  for (const Column& key : keys_) bytes += key.MemoryBytes();
  return bytes;
}

Status RadixAggregationState::Init(const Schema& input,
                                   const std::vector<std::string>& group_keys,
                                   const std::vector<AggSpec>& aggs,
                                   std::size_t num_partitions) {
  std::size_t p = 2;
  unsigned bits = 1;
  while (p < num_partitions) {
    p <<= 1;
    ++bits;
  }
  partitions_.clear();
  partitions_.resize(p);
  shift_ = 64 - bits;
  rows_.assign(p, {});
  for (auto& partition : partitions_) {
    CRE_RETURN_NOT_OK(partition.Init(input, group_keys, aggs));
  }
  return Status::OK();
}

Status RadixAggregationState::Consume(const Table& batch) {
  const std::size_t n = batch.num_rows();
  partitions_.front().HashRows(batch, &hashes_);
  for (auto& rows : rows_) rows.clear();
  for (std::size_t r = 0; r < n; ++r) {
    rows_[hashes_[r] >> shift_].push_back(static_cast<std::uint32_t>(r));
  }
  for (std::size_t p = 0; p < partitions_.size(); ++p) {
    if (rows_[p].empty()) continue;
    partitions_[p].ConsumeRows(batch, hashes_.data(), rows_[p].data(),
                               rows_[p].size());
  }
  return Status::OK();
}

}  // namespace cre
