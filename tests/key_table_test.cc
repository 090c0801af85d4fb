// KeyTable against a first-seen std::map oracle, in both of its forms
// (direct-addressed int keys and hashed slots), and the aggregation merge
// across forms.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <map>
#include <vector>

#include "exec/aggregate.h"
#include "storage/key_table.h"

namespace cre {
namespace {

constexpr std::int64_t kMin = std::numeric_limits<std::int64_t>::min();
constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();

Column IntColumn(const std::vector<std::int64_t>& values,
                 DataType type = DataType::kInt64) {
  Column col(type);
  for (const std::int64_t v : values) col.AppendInt64(v);
  return col;
}

std::uint64_t HashOf(std::int64_t v) {
  const Column col = IntColumn({v});
  const Column* src[] = {&col};
  std::vector<std::uint64_t> hashes;
  KeyTable::HashRows(Span<const Column*>(src, 1), 1, &hashes);
  return hashes[0];
}

/// Ids in first-seen order, as a KeyTable hands them out.
class Oracle {
 public:
  std::uint32_t FindOrAdd(std::int64_t v) {
    const auto it = ids_.emplace(v, static_cast<std::uint32_t>(keys_.size()));
    if (it.second) keys_.push_back(v);
    return it.first->second;
  }
  std::uint32_t Find(std::int64_t v) const {
    const auto it = ids_.find(v);
    return it == ids_.end() ? KeyTable::kNoKey : it->second;
  }
  const std::vector<std::int64_t>& keys() const { return keys_; }

 private:
  std::map<std::int64_t, std::uint32_t> ids_;
  std::vector<std::int64_t> keys_;
};

/// Adds `values` to `table` and `oracle` in one batch lookup (hashing the
/// rows only when the table asks for it) and checks the ids.
void AddAndCheck(KeyTable* table, Oracle* oracle,
                 const std::vector<std::int64_t>& values,
                 DataType type = DataType::kInt64) {
  const Column col = IntColumn(values, type);
  const Column* src[] = {&col};
  const Span<const Column*> cols(src, 1);
  std::vector<std::uint64_t> hashes;
  if (table->needs_hashes()) KeyTable::HashRows(cols, values.size(), &hashes);
  std::vector<std::uint32_t> ids(values.size());
  table->FindOrAddRows(cols, table->needs_hashes() ? hashes.data() : nullptr,
                       nullptr, values.size(), ids.data());
  for (std::size_t r = 0; r < values.size(); ++r) {
    ASSERT_EQ(ids[r], oracle->FindOrAdd(values[r])) << "row " << r;
  }
}

/// Checks the table's keys, hashes and lookups of `probes` (an int64
/// column, whatever the key type) against the oracle.
void ExpectMatches(const KeyTable& table, const Oracle& oracle,
                   const std::vector<std::int64_t>& probes) {
  ASSERT_EQ(table.size(), oracle.keys().size());
  const Column& keys = table.keys()[0];
  for (std::uint32_t id = 0; id < table.size(); ++id) {
    EXPECT_EQ(keys.i64()[id], oracle.keys()[id]) << "id " << id;
    EXPECT_EQ(table.hash(id), HashOf(oracle.keys()[id])) << "id " << id;
  }
  const Column col = IntColumn(probes);
  const Column* src[] = {&col};
  const Span<const Column*> cols(src, 1);
  std::vector<std::uint64_t> hashes;
  KeyTable::HashRows(cols, probes.size(), &hashes);
  std::vector<std::uint32_t> ids(probes.size());
  table.FindRows(cols, hashes.data(), probes.size(), ids.data());
  for (std::size_t r = 0; r < probes.size(); ++r) {
    EXPECT_EQ(ids[r], oracle.Find(probes[r])) << "probe " << probes[r];
  }
}

TEST(KeyTableTest, DenseKeysStayDirect) {
  KeyTable table({DataType::kInt64});
  Oracle oracle;
  std::vector<std::int64_t> values;
  for (std::int64_t i = 0; i < 5000; ++i) values.push_back(i % 1000);
  AddAndCheck(&table, &oracle, values);
  EXPECT_FALSE(table.needs_hashes());
  ExpectMatches(table, oracle, {-1, 0, 1, 500, 999, 1000, kMin, kMax});
}

TEST(KeyTableTest, SparseKeysGoHashed) {
  KeyTable table({DataType::kInt64});
  Oracle oracle;
  std::vector<std::int64_t> values;
  for (std::int64_t i = 0; i < 3000; ++i) values.push_back((i % 700) * 1000003);
  AddAndCheck(&table, &oracle, values);
  EXPECT_TRUE(table.needs_hashes());
  ExpectMatches(table, oracle, {0, 1000003, 1000004, -1000003, kMin, kMax});
}

TEST(KeyTableTest, NegativeKeysWidenDown) {
  KeyTable table({DataType::kInt64});
  Oracle oracle;
  std::vector<std::int64_t> values;
  for (std::int64_t v = -1; v >= -2000; --v) values.push_back(v);
  for (std::int64_t v = -2000; v <= -1; ++v) values.push_back(v);
  AddAndCheck(&table, &oracle, values);
  EXPECT_FALSE(table.needs_hashes());
  ExpectMatches(table, oracle, {-2001, -2000, -1, 0, 1});
}

TEST(KeyTableTest, WidensDownAndUp) {
  KeyTable table({DataType::kInt64});
  Oracle oracle;
  // Starts at 1000, then alternates further below and above it.
  std::vector<std::int64_t> values = {1000};
  for (std::int64_t d = 1; d <= 900; ++d) {
    values.push_back(1000 - d);
    values.push_back(1000 + d);
  }
  for (std::size_t i = 0; i < values.size(); i += 500) {
    const std::size_t end = std::min(values.size(), i + 500);
    AddAndCheck(&table, &oracle, {values.begin() + i, values.begin() + end});
  }
  EXPECT_FALSE(table.needs_hashes());
  ExpectMatches(table, oracle, {99, 100, 1000, 1900, 1901});
}

TEST(KeyTableTest, Int64Extremes) {
  KeyTable table({DataType::kInt64});
  Oracle oracle;
  // INT64_MIN and INT64_MAX are neighbours modulo 2^64: one window.
  AddAndCheck(&table, &oracle, {kMin, kMax, kMin + 1, kMax - 1, kMin, kMax});
  EXPECT_FALSE(table.needs_hashes());
  ExpectMatches(table, oracle, {kMin, kMax, kMin + 2, kMax - 2, 0, -1});
  // Zero is half the int64 range away from both.
  AddAndCheck(&table, &oracle, {0, kMax, -1, kMin, 1});
  EXPECT_TRUE(table.needs_hashes());
  ExpectMatches(table, oracle, {kMin, kMax, kMin + 1, kMax - 1, 0, 1, -1, 2});
}

TEST(KeyTableTest, LeavesDirectMidBatch) {
  KeyTable table({DataType::kInt64});
  Oracle oracle;
  std::vector<std::int64_t> values;
  for (std::int64_t v = 0; v < 100; ++v) values.push_back(v);
  values.push_back(std::int64_t{1} << 40);
  for (std::int64_t v = 150; v >= 50; --v) values.push_back(v);
  AddAndCheck(&table, &oracle, values);
  EXPECT_TRUE(table.needs_hashes());
  ExpectMatches(table, oracle, {0, 99, 150, 151, std::int64_t{1} << 40, -1});
  // The next batch runs hashed from the start.
  AddAndCheck(&table, &oracle, {3, 400, 2, 401});
  ExpectMatches(table, oracle, {3, 400, 401, 402});
}

TEST(KeyTableTest, SelectedRowsInOrder) {
  KeyTable table({DataType::kInt64});
  Oracle oracle;
  const Column col = IntColumn({5, 6, 7, 8, 5, 6, std::int64_t{1} << 50, 9});
  const Column* src[] = {&col};
  const Span<const Column*> cols(src, 1);
  const std::vector<std::uint32_t> rows = {7, 3, 0, 6, 1, 3, 2};
  std::vector<std::uint32_t> ids(rows.size());
  table.FindOrAddRows(cols, nullptr, rows.data(), rows.size(), ids.data());
  for (std::size_t k = 0; k < rows.size(); ++k) {
    EXPECT_EQ(ids[k], oracle.FindOrAdd(col.i64()[rows[k]])) << "k " << k;
  }
  EXPECT_TRUE(table.needs_hashes());
  ExpectMatches(table, oracle, {5, 6, 7, 8, 9, 4});
}

TEST(KeyTableTest, FindOutsideTheWindow) {
  KeyTable table({DataType::kInt64});
  Oracle oracle;
  AddAndCheck(&table, &oracle, {10, 20, 15, 12});
  ASSERT_FALSE(table.needs_hashes());
  // The first key, 10, opened the window [-6, 26). Absent values at its
  // ends (-6, 25), just past them (-7, 26), next to keys (9, 11, 21) and
  // at the extremes.
  ExpectMatches(table, oracle,
                {9, 10, 11, 20, 21, -6, 25, -7, 26, kMin, kMax});
}

TEST(KeyTableTest, Int64ProbeAgainstDateKeys) {
  KeyTable table({DataType::kDate});
  Oracle oracle;
  AddAndCheck(&table, &oracle, {19000, 19003, 19001, 19000}, DataType::kDate);
  EXPECT_FALSE(table.needs_hashes());
  ExpectMatches(table, oracle, {18999, 19000, 19001, 19002, 19003});
}

TEST(KeyTableTest, ReserveWithRange) {
  Column col(DataType::kInt64);
  for (std::int64_t i = 0; i < 1000; ++i) col.AppendInt64(-500 + i);
  KeyTable table({DataType::kInt64});
  const KeyRange range{-500, 499};
  const std::size_t bytes = table.BytesFor(1000, /*grown=*/false, range);
  table.Reserve(1000, range);
  std::vector<std::uint32_t> ids;
  table.FindOrAddRows(col, &ids);
  EXPECT_FALSE(table.needs_hashes());
  EXPECT_EQ(table.MemoryBytes(), bytes);
  EXPECT_LT(bytes, table.BytesFor(1000, /*grown=*/false));

  // A range too wide for the reserved keys turns the table hashed at once.
  KeyTable wide({DataType::kInt64});
  const KeyRange too_wide{kMin, kMax};
  const std::size_t hashed = wide.BytesFor(1000, /*grown=*/false, too_wide);
  EXPECT_EQ(hashed, wide.BytesFor(1000, /*grown=*/false));
  wide.Reserve(1000, too_wide);
  EXPECT_TRUE(wide.needs_hashes());
  wide.FindOrAddRows(col, &ids);
  EXPECT_EQ(wide.MemoryBytes(), hashed);
}

TEST(KeyTableTest, ClearKeepsTheForm) {
  KeyTable direct({DataType::kInt64});
  Oracle oracle;
  AddAndCheck(&direct, &oracle, {3, 1, 2});
  direct.Clear();
  EXPECT_EQ(direct.size(), 0u);
  EXPECT_FALSE(direct.needs_hashes());
  Oracle fresh;
  AddAndCheck(&direct, &fresh, {-7, 2, -7, 9});
  ExpectMatches(direct, fresh, {-7, 2, 9, 3, 1});

  KeyTable hashed({DataType::kInt64});
  Oracle before;
  AddAndCheck(&hashed, &before, {0, std::int64_t{1} << 40});
  ASSERT_TRUE(hashed.needs_hashes());
  hashed.Clear();
  EXPECT_EQ(hashed.size(), 0u);
  EXPECT_TRUE(hashed.needs_hashes());
  Oracle after;
  AddAndCheck(&hashed, &after, {4, 5, 4});
  ExpectMatches(hashed, after, {4, 5, 0, std::int64_t{1} << 40});
}

TEST(KeyTableTest, StringKeysAreHashed) {
  KeyTable table({DataType::kString});
  EXPECT_TRUE(table.needs_hashes());
  Column col(DataType::kString);
  for (const char* s : {"b", "a", "b", "c", "a"}) col.AppendString(s);
  std::vector<std::uint32_t> ids;
  table.FindOrAddRows(col, &ids);
  EXPECT_EQ(ids, (std::vector<std::uint32_t>{0, 1, 0, 2, 1}));
}

/// (k, v) rows; `k` from `keys`, v = row index.
TablePtr KeyedRows(const std::vector<std::int64_t>& keys) {
  auto t = Table::Make(
      Schema({{"k", DataType::kInt64, 0}, {"v", DataType::kFloat64, 0}}));
  for (std::size_t i = 0; i < keys.size(); ++i) {
    t->column(0).AppendInt64(keys[i]);
    t->column(1).AppendFloat64(static_cast<double>(i));
  }
  return t;
}

const std::vector<AggSpec> kAggs = {{AggKind::kCount, "", "n"},
                                    {AggKind::kSum, "v", "total"}};

/// GROUP BY k of `batches`, consumed in order by one state.
TablePtr Aggregate(const std::vector<TablePtr>& batches) {
  GroupedAggregationState state;
  EXPECT_TRUE(state.Init(batches[0]->schema(), {"k"}, kAggs).ok());
  for (const TablePtr& batch : batches) {
    EXPECT_TRUE(state.Consume(*batch).ok());
  }
  return state.Finalize().ValueOrDie();
}

void ExpectSameRows(const TablePtr& got, const TablePtr& want) {
  ASSERT_EQ(got->num_rows(), want->num_rows());
  for (std::size_t c = 0; c < want->num_columns(); ++c) {
    for (std::size_t r = 0; r < want->num_rows(); ++r) {
      EXPECT_EQ(got->column(c).GetValue(r).ToString(),
                want->column(c).GetValue(r).ToString())
          << "column " << c << " row " << r;
    }
  }
}

/// `second`'s partial state merged into `first`'s gives what one state
/// consuming both gives.
void ExpectMergeMatchesSerial(const TablePtr& first, const TablePtr& second) {
  GroupedAggregationState into;
  GroupedAggregationState partial;
  ASSERT_TRUE(into.Init(first->schema(), {"k"}, kAggs).ok());
  ASSERT_TRUE(partial.Init(first->schema(), {"k"}, kAggs).ok());
  ASSERT_TRUE(into.Consume(*first).ok());
  ASSERT_TRUE(partial.Consume(*second).ok());
  into.Merge(std::move(partial));
  ExpectSameRows(into.Finalize().ValueOrDie(), Aggregate({first, second}));
}

TEST(KeyTableTest, MergeAcrossForms) {
  std::vector<std::int64_t> dense;  // stays direct
  std::vector<std::int64_t> sparse;  // goes hashed
  for (std::int64_t i = 0; i < 300; ++i) {
    dense.push_back(i % 40);
    sparse.push_back((i % 60) * 1000003 - 20 * 1000003);
  }
  // Overlapping keys: 0 and multiples of 1000003 inside [0, 40) only at 0.
  const TablePtr direct = KeyedRows(dense);
  const TablePtr hashed = KeyedRows(sparse);
  ExpectMergeMatchesSerial(direct, hashed);  // hashed partial into direct
  ExpectMergeMatchesSerial(hashed, direct);  // direct partial into hashed
  ExpectMergeMatchesSerial(direct, direct);
}

TEST(KeyTableTest, ConsumeSlicesLongBatches) {
  // A batch longer than kMaxConsumeRows accumulates as the same rows in
  // short batches do.
  std::vector<std::int64_t> keys;
  const std::size_t n = 2 * GroupedAggregationState::kMaxConsumeRows + 5;
  for (std::size_t i = 0; i < n; ++i) {
    keys.push_back(static_cast<std::int64_t>((i * 7919) % 3001));
  }
  const TablePtr table = KeyedRows(keys);
  std::vector<TablePtr> pieces;
  for (std::size_t r = 0; r < n; r += 1000) {
    pieces.push_back(table->Slice(r, std::min<std::size_t>(1000, n - r)));
  }
  ExpectSameRows(Aggregate({table}), Aggregate(pieces));
}

}  // namespace
}  // namespace cre
