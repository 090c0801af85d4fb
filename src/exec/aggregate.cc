#include "exec/aggregate.h"

#include <algorithm>
#include <limits>

namespace cre {

namespace {

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

/// acc[groups[k] * stride] folds reader(rows[k]) (reader(k) when `rows`
/// is null) for k in [0, n), in k order, so each group accumulates its
/// rows in input order.
template <typename Reader>
void Accumulate(AggKind kind, const Reader& reader,
                const std::uint32_t* rows, const std::uint32_t* groups,
                std::size_t n, double* acc, std::size_t stride) {
  if (rows == nullptr) {
    for (std::size_t k = 0; k < n; ++k) {
      Fold(kind, reader(k), &acc[groups[k] * stride]);
    }
    return;
  }
  for (std::size_t k = 0; k < n; ++k) {
    Fold(kind, reader(rows[k]), &acc[groups[k] * stride]);
  }
}

/// consume(slice) over `batch` in order, in slices of at most
/// GroupedAggregationState::kMaxConsumeRows rows.
template <typename ConsumeSlice>
Status ConsumeInSlices(const Table& batch, const ConsumeSlice& consume) {
  constexpr std::size_t kSlice = GroupedAggregationState::kMaxConsumeRows;
  const std::size_t n = batch.num_rows();
  if (n <= kSlice) return consume(batch);
  for (std::size_t r = 0; r < n; r += kSlice) {
    CRE_RETURN_NOT_OK(consume(*batch.Slice(r, std::min(kSlice, n - r))));
  }
  return Status::OK();
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
  counts_.clear();
  acc_.clear();

  std::vector<DataType> key_types;
  for (const auto& k : group_keys_) {
    CRE_ASSIGN_OR_RETURN(std::size_t idx, input.RequireField(k));
    const Field& field = input.field(idx);
    if (field.type == DataType::kFloatVector) {
      return Status::TypeError("cannot group by vector column: " + k);
    }
    key_cols_.push_back(idx);
    key_types.push_back(field.type);
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
  keys_ = KeyTable(key_types, /*allow_direct=*/!hashed_keys_);
  return Status::OK();
}

std::vector<const Column*> GroupedAggregationState::KeyColumns(
    const Table& batch) const {
  std::vector<const Column*> src;
  src.reserve(key_cols_.size());
  for (const std::size_t c : key_cols_) src.push_back(&batch.column(c));
  return src;
}

void GroupedAggregationState::ConsumeRows(const Table& batch,
                                          const std::uint64_t* hashes,
                                          const std::uint32_t* rows,
                                          std::size_t n) {
  const std::vector<const Column*> src = KeyColumns(batch);
  group_of_.reserve(n);  // exactly n when it grows, as BytesFor charges
  group_of_.resize(n);
  keys_.FindOrAddRows(src, hashes, rows, n, group_of_.data());
  // Groups first seen in this batch start at zero and the identities.
  for (std::size_t g = counts_.size(); g < keys_.size(); ++g) {
    counts_.push_back(0);
    for (const AggSpec& agg : aggs_) {
      acc_.push_back(InitialAccumulator(agg.kind));
    }
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
  return ConsumeInSlices(batch, [this](const Table& slice) {
    const std::size_t n = slice.num_rows();
    const std::uint64_t* hashes = nullptr;
    if (keys_.needs_hashes()) {
      KeyTable::HashRows(KeyColumns(slice), n, &hashes_);
      hashes = hashes_.data();
    }
    ConsumeRows(slice, hashes, /*rows=*/nullptr, n);
    return Status::OK();
  });
}

void GroupedAggregationState::Merge(GroupedAggregationState&& other) {
  std::vector<const Column*> src;
  src.reserve(other.keys_.keys().size());
  for (const Column& key : other.keys_.keys()) src.push_back(&key);
  const std::size_t num_aggs = aggs_.size();
  for (std::uint32_t og = 0; og < other.num_groups(); ++og) {
    const std::uint32_t g = keys_.FindOrAdd(other.keys_.hash(og), src, og);
    const double* from = other.acc_.data() + og * num_aggs;
    if (g == counts_.size()) {
      // A new group takes the partial's count and accumulators as they
      // are.
      counts_.push_back(other.counts_[og]);
      for (std::size_t a = 0; a < num_aggs; ++a) acc_.push_back(from[a]);
      continue;
    }
    counts_[g] += other.counts_[og];
    double* into = acc_.data() + g * num_aggs;
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
  if (counts_.empty() && group_keys_.empty()) {
    counts_.push_back(0);
    acc_.assign(num_aggs, 0.0);
  }

  const std::size_t groups = num_groups();
  auto out = Table::Make(schema_);
  const std::size_t num_keys = keys_.keys().size();
  for (std::size_t k = 0; k < num_keys; ++k) {
    out->column(k) = keys_.keys()[k];  // O(1): shares the key rows
  }
  for (std::size_t a = 0; a < num_aggs; ++a) {
    Column& col = out->column(num_keys + a);
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
  keys_.Clear();
  counts_.clear();
  acc_.clear();
}

std::size_t GroupedAggregationState::MemoryBytes() const {
  return keys_.MemoryBytes() + counts_.capacity() * sizeof(std::int64_t) +
         acc_.capacity() * sizeof(double) +
         hashes_.capacity() * sizeof(std::uint64_t) +
         group_of_.capacity() * sizeof(std::uint32_t);
}

std::size_t GroupedAggregationState::BytesFor(std::size_t groups,
                                              std::size_t batch_rows) const {
  return keys_.BytesFor(groups, /*grown=*/true) +
         VectorCapacity(groups) * sizeof(std::int64_t) +
         VectorCapacity(groups * aggs_.size()) * sizeof(double) +
         std::min(batch_rows, kMaxConsumeRows) * kScratchBytesPerRow;
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
    partition.hashed_keys_ = true;
    CRE_RETURN_NOT_OK(partition.Init(input, group_keys, aggs));
  }
  return Status::OK();
}

Status RadixAggregationState::Consume(const Table& batch) {
  return ConsumeInSlices(batch, [this](const Table& slice) {
    const std::size_t n = slice.num_rows();
    KeyTable::HashRows(partitions_.front().KeyColumns(slice), n, &hashes_);
    for (auto& rows : rows_) rows.clear();
    for (std::size_t r = 0; r < n; ++r) {
      rows_[hashes_[r] >> shift_].push_back(static_cast<std::uint32_t>(r));
    }
    for (std::size_t p = 0; p < partitions_.size(); ++p) {
      if (rows_[p].empty()) continue;
      partitions_[p].ConsumeRows(slice, hashes_.data(), rows_[p].data(),
                                 rows_[p].size());
    }
    return Status::OK();
  });
}

}  // namespace cre
