// Tests for execution extensions: per-operator statistics and
// morsel-driven parallel execution.

#include <mutex>
#include <set>

#include <gtest/gtest.h>

#include "datagen/shop.h"
#include "engine/scheduler.h"
#include "exec/filter.h"
#include "exec/morsel.h"
#include "exec/project.h"
#include "exec/scan.h"
#include "exec/stats.h"

namespace cre {
namespace {

TablePtr Numbers(std::size_t n) {
  auto t = Table::Make(Schema({{"x", DataType::kInt64, 0},
                               {"y", DataType::kFloat64, 0}}));
  t->Reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    t->column(0).AppendInt64(static_cast<std::int64_t>(i));
    t->column(1).AppendFloat64(static_cast<double>(i) * 0.5);
  }
  return t;
}

TEST(StatsTest, InstrumentedOperatorCounts) {
  StatsCollector collector;
  auto table = Numbers(1000);
  const int key = 0;
  EXPECT_EQ(collector.FindSlot(&key), nullptr);
  auto* slot = collector.SlotFor(&key);
  EXPECT_EQ(collector.SlotFor(&key), slot) << "one slot per key";
  EXPECT_EQ(collector.FindSlot(&key), slot);
  InstrumentedOperator op(std::make_unique<TableScanOperator>(table, 128),
                          slot);
  auto out = ExecuteToTable(&op).ValueOrDie();
  EXPECT_EQ(out->num_rows(), 1000u);
  EXPECT_EQ(slot->rows, 1000u);
  EXPECT_EQ(slot->batches, 8u);
  EXPECT_GE(slot->next_seconds, 0.0);
  EXPECT_NE(op.name().find("Scan"), std::string::npos) << op.name();
}

TEST(MorselTest, SerialAndParallelAgree) {
  auto table = Numbers(50000);
  auto builder = [](std::size_t, const TablePtr& morsel) -> Result<OperatorPtr> {
    return OperatorPtr(std::make_unique<FilterOperator>(
        std::make_unique<TableScanOperator>(morsel),
        Eq(Expr::Arith(ArithOp::kMul, Col("x"), Lit(1)), Col("x"))));
  };
  MorselOptions serial;
  auto a = MorselParallelMap(table, builder, serial).ValueOrDie();

  QueryScheduler scheduler(4);

  auto pool = scheduler.Admit();
  MorselOptions parallel;
  parallel.pool = pool.get();
  parallel.morsel_rows = 4096;
  auto b = MorselParallelMap(table, builder, parallel).ValueOrDie();

  ASSERT_EQ(a->num_rows(), b->num_rows());
  // Morsel order preserved: outputs are identical, row by row.
  for (std::size_t i = 0; i < a->num_rows(); i += 997) {
    EXPECT_EQ(a->GetValue(i, 0).AsInt64(), b->GetValue(i, 0).AsInt64());
  }
}

TEST(MorselTest, ParallelFilterKeepsOnlyMatches) {
  auto table = Numbers(10000);
  QueryScheduler scheduler(4);
  auto pool = scheduler.Admit();
  MorselOptions options;
  options.pool = pool.get();
  options.morsel_rows = 1000;
  auto result =
      MorselParallelMap(
          table,
          [](std::size_t, const TablePtr& morsel) -> Result<OperatorPtr> {
            return OperatorPtr(std::make_unique<FilterOperator>(
                std::make_unique<TableScanOperator>(morsel),
                Lt(Col("x"), Lit(100))));
          },
          options)
          .ValueOrDie();
  EXPECT_EQ(result->num_rows(), 100u);
}

TEST(MorselTest, BuilderSeesMorselIndexInOrder) {
  auto table = Numbers(10000);
  QueryScheduler scheduler(4);
  auto pool = scheduler.Admit();
  MorselOptions options;
  options.pool = pool.get();
  options.morsel_rows = 1000;
  std::mutex mu;
  std::set<std::size_t> seen;
  auto result =
      MorselParallelMap(
          table,
          [&](std::size_t index,
              const TablePtr& morsel) -> Result<OperatorPtr> {
            {
              std::lock_guard<std::mutex> lock(mu);
              seen.insert(index);
            }
            return OperatorPtr(std::make_unique<TableScanOperator>(morsel));
          },
          options)
          .ValueOrDie();
  EXPECT_EQ(result->num_rows(), 10000u);
  EXPECT_EQ(seen.size(), 10u);  // one builder call per morsel
}

TEST(MorselTest, EmptyInput) {
  auto table = Numbers(0);
  QueryScheduler scheduler(2);
  auto pool = scheduler.Admit();
  MorselOptions options;
  options.pool = pool.get();
  auto result =
      MorselParallelMap(
          table,
          [](std::size_t, const TablePtr& morsel) -> Result<OperatorPtr> {
            return OperatorPtr(std::make_unique<TableScanOperator>(morsel));
          },
          options)
          .ValueOrDie();
  EXPECT_EQ(result->num_rows(), 0u);
}

TEST(MorselTest, ErrorPropagates) {
  auto table = Numbers(10000);
  QueryScheduler scheduler(2);
  auto pool = scheduler.Admit();
  MorselOptions options;
  options.pool = pool.get();
  options.morsel_rows = 1000;
  auto result = MorselParallelMap(
      table,
      [](std::size_t, const TablePtr& morsel) -> Result<OperatorPtr> {
        return OperatorPtr(std::make_unique<FilterOperator>(
            std::make_unique<TableScanOperator>(morsel),
            Gt(Col("missing_column"), Lit(1))));
      },
      options);
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsNotFound());
}

}  // namespace
}  // namespace cre
