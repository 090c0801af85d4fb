#include "exec/aggregate.h"

#include <cmath>
#include <limits>

#include "core/hash.h"

namespace cre {

namespace {

/// Serializes one row's group-key cells into a collision-free map key.
std::string MakeGroupKey(const Table& batch,
                         const std::vector<std::size_t>& key_cols,
                         std::size_t row) {
  std::string key;
  for (const std::size_t c : key_cols) {
    const Value v = batch.GetValue(row, c);
    key += v.ToString();
    key.push_back('\x1f');  // unit separator avoids value-concat collisions
  }
  return key;
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
  groups_.clear();

  for (const auto& k : group_keys_) {
    CRE_ASSIGN_OR_RETURN(std::size_t idx, input.RequireField(k));
    key_cols_.push_back(idx);
    schema_.AddField(input.field(idx));
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

void GroupedAggregationState::InitAccumulators(GroupState* state) const {
  state->acc.resize(aggs_.size(), 0.0);
  state->counts.resize(aggs_.size(), 0);
  for (std::size_t a = 0; a < aggs_.size(); ++a) {
    if (aggs_[a].kind == AggKind::kMin) {
      state->acc[a] = std::numeric_limits<double>::max();
    } else if (aggs_[a].kind == AggKind::kMax) {
      state->acc[a] = std::numeric_limits<double>::lowest();
    }
  }
}

std::string GroupedAggregationState::GroupKey(const Table& batch,
                                              std::size_t row) const {
  return MakeGroupKey(batch, key_cols_, row);
}

Status GroupedAggregationState::ConsumeRow(const Table& batch,
                                           std::size_t row,
                                           std::string&& key) {
  auto it = groups_.find(key);
  if (it == groups_.end()) {
    GroupState state;
    state.key_values.reserve(key_cols_.size());
    for (const std::size_t c : key_cols_) {
      state.key_values.push_back(batch.GetValue(row, c));
    }
    InitAccumulators(&state);
    it = groups_.emplace(std::move(key), std::move(state)).first;
  }
  GroupState& g = it->second;
  for (std::size_t a = 0; a < aggs_.size(); ++a) {
    ++g.counts[a];
    if (aggs_[a].kind == AggKind::kCount) continue;
    const double v = batch.GetValue(row, agg_cols_[a]).AsNumeric();
    switch (aggs_[a].kind) {
      case AggKind::kSum:
      case AggKind::kAvg:
        g.acc[a] += v;
        break;
      case AggKind::kMin:
        g.acc[a] = std::min(g.acc[a], v);
        break;
      case AggKind::kMax:
        g.acc[a] = std::max(g.acc[a], v);
        break;
      case AggKind::kCount:
        break;
    }
  }
  return Status::OK();
}

Status GroupedAggregationState::Consume(const Table& batch) {
  const std::size_t n = batch.num_rows();
  for (std::size_t r = 0; r < n; ++r) {
    CRE_RETURN_NOT_OK(ConsumeRow(batch, r, MakeGroupKey(batch, key_cols_, r)));
  }
  return Status::OK();
}

void GroupedAggregationState::Merge(GroupedAggregationState&& other) {
  for (auto& [key, og] : other.groups_) {
    auto it = groups_.find(key);
    if (it == groups_.end()) {
      groups_.emplace(key, std::move(og));
      continue;
    }
    GroupState& g = it->second;
    for (std::size_t a = 0; a < aggs_.size(); ++a) {
      g.counts[a] += og.counts[a];
      switch (aggs_[a].kind) {
        case AggKind::kSum:
        case AggKind::kAvg:
          g.acc[a] += og.acc[a];
          break;
        case AggKind::kMin:
          g.acc[a] = std::min(g.acc[a], og.acc[a]);
          break;
        case AggKind::kMax:
          g.acc[a] = std::max(g.acc[a], og.acc[a]);
          break;
        case AggKind::kCount:
          break;
      }
    }
  }
  other.groups_.clear();
}

Result<TablePtr> GroupedAggregationState::Finalize() {
  // SQL semantics: a global aggregate (no grouping keys) over empty input
  // yields exactly one row of identity values (COUNT = 0, sums = 0).
  if (groups_.empty() && group_keys_.empty()) {
    GroupState zero;
    InitAccumulators(&zero);
    // Min/max identities would be +/-inf; report 0 like the seed engine.
    for (std::size_t a = 0; a < aggs_.size(); ++a) {
      if (aggs_[a].kind == AggKind::kMin || aggs_[a].kind == AggKind::kMax) {
        zero.acc[a] = 0.0;
      }
    }
    groups_.emplace("", std::move(zero));
  }

  auto out = Table::Make(schema_);
  for (const auto& [key, g] : groups_) {
    std::vector<Value> row = g.key_values;
    for (std::size_t a = 0; a < aggs_.size(); ++a) {
      switch (aggs_[a].kind) {
        case AggKind::kCount:
          row.push_back(Value(g.counts[a]));
          break;
        case AggKind::kAvg:
          row.push_back(Value(g.counts[a] ? g.acc[a] / g.counts[a] : 0.0));
          break;
        default:
          row.push_back(Value(g.acc[a]));
          break;
      }
    }
    CRE_RETURN_NOT_OK(out->AppendRow(row));
  }
  return out;
}

Status RadixAggregationState::Init(const Schema& input,
                                   const std::vector<std::string>& group_keys,
                                   const std::vector<AggSpec>& aggs,
                                   std::size_t num_partitions) {
  std::size_t p = 2;
  while (p < num_partitions) p <<= 1;
  partitions_.clear();
  partitions_.resize(p);
  mask_ = p - 1;
  for (auto& partition : partitions_) {
    CRE_RETURN_NOT_OK(partition.Init(input, group_keys, aggs));
  }
  return Status::OK();
}

std::size_t RadixAggregationState::PartitionOf(const std::string& key,
                                               std::size_t mask) {
  // Mix the full FNV hash so the masked bits are well distributed even
  // for short integer-ish keys; the unordered_map inside each partition
  // hashes independently, so radix bits and bucket bits don't collide.
  return static_cast<std::size_t>(MixHash(HashString(key))) & mask;
}

Status RadixAggregationState::Consume(const Table& batch) {
  const std::size_t n = batch.num_rows();
  for (std::size_t r = 0; r < n; ++r) {
    std::string key = partitions_.front().GroupKey(batch, r);
    const std::size_t p = PartitionOf(key, mask_);
    CRE_RETURN_NOT_OK(partitions_[p].ConsumeRow(batch, r, std::move(key)));
  }
  return Status::OK();
}

std::size_t GroupedAggregationState::MemoryBytes() const {
  // libstdc++ node = key string header + hash + next pointer (~56 bytes
  // with the GroupState inline); heap spills for the key and the three
  // per-group vectors come on top.
  std::size_t bytes = groups_.bucket_count() * sizeof(void*);
  for (const auto& kv : groups_) {
    const GroupState& g = kv.second;
    bytes += 56 + sizeof(GroupState);
    if (kv.first.capacity() > 15) bytes += kv.first.capacity();
    bytes += g.key_values.capacity() * sizeof(Value);
    bytes += g.acc.capacity() * sizeof(double);
    bytes += g.counts.capacity() * sizeof(std::int64_t);
  }
  return bytes;
}

}  // namespace cre
