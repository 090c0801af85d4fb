#include <atomic>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "storage/catalog.h"
#include "storage/column.h"
#include "storage/table.h"

namespace cre {
namespace {

Schema TestSchema() {
  return Schema({{"id", DataType::kInt64, 0},
                 {"name", DataType::kString, 0},
                 {"price", DataType::kFloat64, 0}});
}

TEST(ColumnTest, TypedAppendAndRead) {
  Column c(DataType::kInt64);
  c.AppendInt64(1);
  c.AppendInt64(2);
  EXPECT_EQ(c.size(), 2u);
  EXPECT_EQ(c.i64()[1], 2);
  EXPECT_EQ(c.GetValue(0).AsInt64(), 1);
}

TEST(ColumnTest, AppendValueTypeChecked) {
  Column c(DataType::kString);
  EXPECT_TRUE(c.AppendValue(Value("x")).ok());
  EXPECT_TRUE(c.AppendValue(Value(3)).IsTypeError());
}

TEST(ColumnTest, FloatAcceptsIntValue) {
  Column c(DataType::kFloat64);
  EXPECT_TRUE(c.AppendValue(Value(3)).ok());
  EXPECT_DOUBLE_EQ(c.f64()[0], 3.0);
}

TEST(ColumnTest, VectorColumn) {
  Column c(DataType::kFloatVector, 3);
  const float v1[3] = {1.f, 2.f, 3.f};
  const float v2[3] = {4.f, 5.f, 6.f};
  c.AppendVector(v1, 3);
  c.AppendVector(v2, 3);
  EXPECT_EQ(c.size(), 2u);
  EXPECT_EQ(c.vectors().Row(1)[0], 4.f);
  EXPECT_EQ(c.GetValue(0).AsVector()[2], 3.f);
}

TEST(ColumnTest, Take) {
  Column c(DataType::kString);
  c.AppendString("a");
  c.AppendString("b");
  c.AppendString("c");
  Column t = c.Take({2, 0});
  EXPECT_EQ(t.size(), 2u);
  EXPECT_EQ(t.strings()[0], "c");
  EXPECT_EQ(t.strings()[1], "a");
}

TEST(ColumnTest, CopiesAppendIndependently) {
  // A batch-built column claims exactly its rows, so the first copy to
  // append can extend the same buffer in place and every other copy must
  // reallocate; either way each copy sees only its own rows.
  Column orig(DataType::kInt64);
  Column seed(DataType::kInt64);
  for (int i = 0; i < 4; ++i) seed.AppendInt64(i);
  ASSERT_TRUE(orig.AppendColumn(seed).ok());
  Column one(DataType::kInt64);
  one.AppendInt64(4);
  // Grows the buffer like a vector (to 8 slots), claiming only 5 of them.
  ASSERT_TRUE(orig.AppendColumn(one).ok());
  Column names(DataType::kString);
  for (int i = 0; i < 4; ++i) names.AppendString("name_" + std::to_string(i));
  Column name_orig(DataType::kString);
  ASSERT_TRUE(name_orig.AppendColumn(names).ok());

  Column a = orig;
  Column b = orig;
  Column name_a = name_orig;
  Column name_b = name_orig;
  Column extra_a(DataType::kInt64);
  extra_a.AppendInt64(100);
  extra_a.AppendInt64(101);
  ASSERT_TRUE(a.AppendColumn(extra_a).ok());
  b.AppendInt64(200);
  name_a.AppendString("only in a, long enough to leave the SSO buffer");
  ASSERT_TRUE(name_b.AppendColumn(names).ok());

  EXPECT_EQ(orig.i64(), (std::vector<std::int64_t>{0, 1, 2, 3, 4}));
  EXPECT_EQ(a.i64(), (std::vector<std::int64_t>{0, 1, 2, 3, 4, 100, 101}));
  EXPECT_EQ(b.i64(), (std::vector<std::int64_t>{0, 1, 2, 3, 4, 200}));
  EXPECT_EQ(a.i64().data(), orig.i64().data());  // extended in place
  EXPECT_NE(b.i64().data(), orig.i64().data());  // lost the claim
  ASSERT_EQ(name_orig.size(), 4u);
  EXPECT_EQ(name_orig.strings()[3], "name_3");
  ASSERT_EQ(name_a.size(), 5u);
  EXPECT_EQ(name_a.strings()[4],
            "only in a, long enough to leave the SSO buffer");
  ASSERT_EQ(name_b.size(), 8u);
  EXPECT_EQ(name_b.strings()[4], "name_0");
  EXPECT_EQ(name_b.strings()[7], "name_3");

  // Overwriting rows in place is reserved for unshared columns.
  Column scratch(DataType::kInt64);
  scratch.ResizeDefault(2);
  const std::uint32_t idx[2] = {1, 0};
  scratch.ScatterFrom(a, idx, 2, 0);
  EXPECT_EQ(scratch.i64(), (std::vector<std::int64_t>{1, 0}));
}

TEST(ColumnTest, AppendColumnChecksType) {
  Column a(DataType::kInt64);
  Column b(DataType::kFloat64);
  EXPECT_TRUE(a.AppendColumn(b).IsTypeError());
  Column c(DataType::kInt64);
  c.AppendInt64(9);
  EXPECT_TRUE(a.AppendColumn(c).ok());
  EXPECT_EQ(a.size(), 1u);
}

TEST(TableTest, AppendRowAndRead) {
  auto t = Table::Make(TestSchema());
  ASSERT_TRUE(t->AppendRow({Value(1), Value("ab"), Value(9.5)}).ok());
  ASSERT_TRUE(t->AppendRow({Value(2), Value("cd"), Value(1.5)}).ok());
  EXPECT_EQ(t->num_rows(), 2u);
  EXPECT_EQ(t->num_columns(), 3u);
  EXPECT_EQ(t->GetValue(1, 1).AsString(), "cd");
}

TEST(TableTest, AppendRowArityMismatch) {
  auto t = Table::Make(TestSchema());
  EXPECT_TRUE(t->AppendRow({Value(1)}).IsInvalidArgument());
}

TEST(TableTest, ColumnByName) {
  auto t = Table::Make(TestSchema());
  t->AppendRow({Value(1), Value("x"), Value(2.0)}).Check();
  EXPECT_TRUE(t->ColumnByName("price").ok());
  EXPECT_TRUE(t->ColumnByName("nope").status().IsNotFound());
}

TEST(TableTest, TakeAndSlice) {
  auto t = Table::Make(TestSchema());
  for (int i = 0; i < 10; ++i) {
    t->AppendRow({Value(i), Value("r" + std::to_string(i)), Value(i * 1.0)})
        .Check();
  }
  auto taken = t->Take({9, 0, 5});
  EXPECT_EQ(taken->num_rows(), 3u);
  EXPECT_EQ(taken->GetValue(0, 0).AsInt64(), 9);
  auto sliced = t->Slice(8, 100);
  EXPECT_EQ(sliced->num_rows(), 2u);
  EXPECT_EQ(sliced->GetValue(0, 0).AsInt64(), 8);
}

TEST(TableTest, AppendTable) {
  auto a = Table::Make(TestSchema());
  auto b = Table::Make(TestSchema());
  a->AppendRow({Value(1), Value("x"), Value(1.0)}).Check();
  b->AppendRow({Value(2), Value("y"), Value(2.0)}).Check();
  ASSERT_TRUE(a->AppendTable(*b).ok());
  EXPECT_EQ(a->num_rows(), 2u);
  EXPECT_EQ(a->GetValue(1, 1).AsString(), "y");
}

TEST(TableTest, AppendTableSchemaMismatch) {
  auto a = Table::Make(TestSchema());
  auto b = Table::Make(Schema({{"z", DataType::kInt64, 0}}));
  EXPECT_TRUE(a->AppendTable(*b).IsInvalidArgument());
}

TEST(TableTest, AddColumn) {
  auto t = Table::Make(Schema({{"a", DataType::kInt64, 0}}));
  t->AppendRow({Value(1)}).Check();
  Column extra(DataType::kString);
  extra.AppendString("s");
  ASSERT_TRUE(t->AddColumn({"b", DataType::kString, 0}, std::move(extra)).ok());
  EXPECT_EQ(t->num_columns(), 2u);
  EXPECT_EQ(t->GetValue(0, 1).AsString(), "s");
}

TEST(TableTest, ToStringTruncates) {
  auto t = Table::Make(Schema({{"a", DataType::kInt64, 0}}));
  for (int i = 0; i < 30; ++i) t->AppendRow({Value(i)}).Check();
  const std::string s = t->ToString(5);
  EXPECT_NE(s.find("(25 more)"), std::string::npos);
}

TEST(CatalogTest, RegisterGetDrop) {
  Catalog cat;
  auto t = Table::Make(TestSchema());
  ASSERT_TRUE(cat.Register("t1", t).ok());
  EXPECT_TRUE(cat.Register("t1", t).code() == StatusCode::kAlreadyExists);
  EXPECT_TRUE(cat.Contains("t1"));
  EXPECT_EQ(cat.Get("t1").ValueOrDie().get(), t.get());
  EXPECT_TRUE(cat.Get("t2").status().IsNotFound());
  EXPECT_EQ(cat.ListTables().size(), 1u);
  EXPECT_TRUE(cat.Drop("t1").ok());
  EXPECT_FALSE(cat.Contains("t1"));
  EXPECT_TRUE(cat.Drop("t1").IsNotFound());
}

TEST(CatalogTest, PutReplaces) {
  Catalog cat;
  cat.Put("t", Table::Make(TestSchema()));
  auto t2 = Table::Make(TestSchema());
  cat.Put("t", t2);
  EXPECT_EQ(cat.Get("t").ValueOrDie().get(), t2.get());
}

/// A table whose row i holds (i, "row_<i>", i / 4.0): every version's
/// contents follow from its row count alone.
TablePtr NumberedRows(std::size_t begin, std::size_t end) {
  auto t = Table::Make(TestSchema());
  for (std::size_t i = begin; i < end; ++i) {
    t->AppendRow({Value(static_cast<std::int64_t>(i)),
                  Value("row_" + std::to_string(i)),
                  Value(static_cast<double>(i) / 4.0)})
        .Check();
  }
  return t;
}

/// True when `t` holds exactly rows [0, num_rows) of NumberedRows.
bool HoldsNumberedRows(const Table& t) {
  const auto ids = t.column(0).i64();
  const auto names = t.column(1).strings();
  const auto prices = t.column(2).f64();
  for (std::size_t i = 0; i < t.num_rows(); ++i) {
    if (ids[i] != static_cast<std::int64_t>(i) ||
        names[i] != "row_" + std::to_string(i) ||
        prices[i] != static_cast<double>(i) / 4.0) {
      return false;
    }
  }
  return true;
}

TEST(CatalogTest, AppendSharesPrefixStorage) {
  constexpr std::size_t kBase = 100;
  constexpr std::size_t kBatch = 10;
  Catalog cat;
  cat.Put("t", NumberedRows(0, kBase));
  std::vector<TablePtr> versions = {cat.Get("t").ValueOrDie()};

  // The first append copies the base into a buffer grown like a vector
  // (capacity >= 2 * kBase); appends up to that size then write in place.
  versions.push_back(
      cat.Append("t", *NumberedRows(kBase, kBase + kBatch)).ValueOrDie());
  const TablePtr& first = versions.back();
  const void* id_data = first->column(0).i64().data();
  const void* name_data = first->column(1).strings().data();
  const void* price_data = first->column(2).f64().data();
  for (std::size_t rows = kBase + kBatch; rows + kBatch <= 2 * kBase;
       rows += kBatch) {
    versions.push_back(
        cat.Append("t", *NumberedRows(rows, rows + kBatch)).ValueOrDie());
    const Table& latest = *versions.back();
    EXPECT_EQ(latest.column(0).i64().data(), id_data) << rows;
    EXPECT_EQ(latest.column(1).strings().data(), name_data) << rows;
    EXPECT_EQ(latest.column(2).f64().data(), price_data) << rows;
  }
  ASSERT_EQ(versions.back()->num_rows(), 2 * kBase);

  // Every older version still reads exactly its own rows.
  for (std::size_t v = 0; v < versions.size(); ++v) {
    EXPECT_EQ(versions[v]->num_rows(), kBase + v * kBatch);
    EXPECT_TRUE(HoldsNumberedRows(*versions[v])) << "version " << v;
  }
}

TEST(CatalogTest, AppendingToSlicesLeavesTheParentUnchanged) {
  constexpr std::size_t kBase = 100;
  constexpr std::size_t kBatch = 10;
  const TablePtr extra = NumberedRows(1000, 1000 + kBatch);
  enum class Kind { kSuffix, kSliceOfSlice, kPrefix };
  for (const Kind kind : {Kind::kSuffix, Kind::kSliceOfSlice, Kind::kPrefix}) {
    SCOPED_TRACE(static_cast<int>(kind));
    Catalog cat;
    cat.Put("t", NumberedRows(0, kBase));
    // After one append the version's buffers have spare capacity and the
    // version holds their claimed end, so a slice ending at the parent's
    // last row can extend the buffer in place.
    const TablePtr parent =
        cat.Append("t", *NumberedRows(kBase, kBase + kBatch)).ValueOrDie();
    const std::size_t rows = parent->num_rows();
    const std::int64_t* parent_ids = parent->column(0).i64().data();

    std::size_t first = 0;
    TablePtr slice;
    switch (kind) {
      case Kind::kSuffix:
        first = 40;
        slice = parent->Slice(first, rows - first);
        break;
      case Kind::kSliceOfSlice:
        first = 50;
        slice = parent->Slice(20, rows - 20)->Slice(30, rows - 50);
        break;
      case Kind::kPrefix:
        first = 0;
        slice = parent->Slice(0, 30);
        break;
    }
    const std::size_t len = slice->num_rows();
    EXPECT_EQ(slice->column(0).i64().data(), parent_ids + first);  // no copy
    ASSERT_TRUE(slice->AppendTable(*extra).ok());
    // A slice ending at the claimed end extends in place; a prefix cannot.
    EXPECT_EQ(slice->column(0).i64().data() == parent_ids + first,
              kind != Kind::kPrefix);
    ASSERT_EQ(slice->num_rows(), len + kBatch);
    for (std::size_t i = 0; i < slice->num_rows(); ++i) {
      const std::size_t want = i < len ? first + i : 1000 + (i - len);
      EXPECT_EQ(slice->column(0).i64()[i], static_cast<std::int64_t>(want));
      EXPECT_EQ(slice->column(1).strings()[i], "row_" + std::to_string(want));
    }

    EXPECT_EQ(parent->num_rows(), rows);
    EXPECT_TRUE(HoldsNumberedRows(*parent));
    const TablePtr next =
        cat.Append("t", *NumberedRows(rows, rows + kBatch)).ValueOrDie();
    EXPECT_EQ(next->num_rows(), rows + kBatch);
    EXPECT_TRUE(HoldsNumberedRows(*next));
    EXPECT_TRUE(HoldsNumberedRows(*parent));
    EXPECT_EQ(slice->column(0).i64()[len], 1000);
  }
}

TEST(CatalogTest, ConcurrentReadersSeeStablePrefixesWhileAppending) {
  constexpr std::size_t kBase = 500;
  constexpr std::size_t kBatch = 7;
  constexpr int kAppends = 200;
  Catalog cat;
  cat.Put("t", NumberedRows(0, kBase));
  std::vector<TablePtr> batches;
  for (int a = 0; a < kAppends; ++a) {
    const std::size_t begin = kBase + a * kBatch;
    batches.push_back(NumberedRows(begin, begin + kBatch));
  }

  std::atomic<bool> done{false};
  std::atomic<int> bad_versions{0};
  std::atomic<int> checked_versions{0};
  auto reader = [&](bool use_snapshot) {
    do {
      TablePtr t = use_snapshot ? cat.Snapshot()->Get("t").ValueOrDie()
                                : cat.Get("t").ValueOrDie();
      const std::size_t rows = t->num_rows();
      const bool shape_ok = rows >= kBase && (rows - kBase) % kBatch == 0;
      if (!shape_ok || !HoldsNumberedRows(*t) || t->num_rows() != rows) {
        bad_versions.fetch_add(1);
      }
      checked_versions.fetch_add(1);
    } while (!done.load());
  };
  std::thread snapshot_reader(reader, true);
  std::thread get_reader(reader, false);
  for (const TablePtr& batch : batches) {
    // Let the readers check a few versions between appends, so every
    // append overlaps reads of the versions it shares a buffer with.
    const int seen = checked_versions.load();
    ASSERT_TRUE(cat.Append("t", *batch).ok());
    while (checked_versions.load() < seen + 2) std::this_thread::yield();
  }
  done.store(true);
  snapshot_reader.join();
  get_reader.join();

  EXPECT_EQ(bad_versions.load(), 0);
  EXPECT_GE(checked_versions.load(), 2 * kAppends);
  const TablePtr last = cat.Get("t").ValueOrDie();
  EXPECT_EQ(last->num_rows(), kBase + kAppends * kBatch);
  EXPECT_TRUE(HoldsNumberedRows(*last));
}

}  // namespace
}  // namespace cre
