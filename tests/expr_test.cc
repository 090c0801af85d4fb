#include <gtest/gtest.h>

#include "expr/evaluator.h"
#include "expr/expr.h"
#include "storage/table.h"

namespace cre {
namespace {

TablePtr MakeTable() {
  auto t = Table::Make(Schema({{"id", DataType::kInt64, 0},
                               {"price", DataType::kFloat64, 0},
                               {"label", DataType::kString, 0},
                               {"when", DataType::kDate, 0}}));
  t->AppendRow({Value(1), Value(10.0), Value("shoe"), Value::Date(100)})
      .Check();
  t->AppendRow({Value(2), Value(25.0), Value("coat"), Value::Date(200)})
      .Check();
  t->AppendRow({Value(3), Value(40.0), Value("coat"), Value::Date(300)})
      .Check();
  t->AppendRow({Value(4), Value(5.0), Value("lamp"), Value::Date(400)})
      .Check();
  return t;
}

TEST(ExprTest, ToString) {
  auto e = And(Gt(Col("price"), Lit(20.0)), Eq(Col("label"), Lit("coat")));
  EXPECT_EQ(e->ToString(), "((price > 20) AND (label = coat))");
}

TEST(ExprTest, CollectColumns) {
  auto e = Or(Gt(Col("a"), Lit(1)), Lt(Col("b"), Col("c")));
  std::set<std::string> cols;
  e->CollectColumns(&cols);
  EXPECT_EQ(cols, (std::set<std::string>{"a", "b", "c"}));
  EXPECT_TRUE(e->OnlyReferences({"a", "b", "c", "d"}));
  EXPECT_FALSE(e->OnlyReferences({"a", "b"}));
}

TEST(ExprTest, SplitAndCombineConjunction) {
  auto e = And(And(Gt(Col("a"), Lit(1)), Lt(Col("b"), Lit(2))),
               Eq(Col("c"), Lit(3)));
  auto terms = SplitConjunction(e);
  EXPECT_EQ(terms.size(), 3u);
  auto combined = CombineConjunction(terms);
  ASSERT_NE(combined, nullptr);
  EXPECT_EQ(SplitConjunction(combined).size(), 3u);
  EXPECT_EQ(CombineConjunction({}), nullptr);
}

TEST(EvaluatorTest, NumericComparison) {
  auto t = MakeTable();
  auto mask = EvaluateExpr(*Gt(Col("price"), Lit(20.0)), *t).ValueOrDie();
  ASSERT_EQ(mask.type(), DataType::kBool);
  EXPECT_EQ(mask.bools()[0], 0);
  EXPECT_EQ(mask.bools()[1], 1);
  EXPECT_EQ(mask.bools()[2], 1);
  EXPECT_EQ(mask.bools()[3], 0);
}

TEST(EvaluatorTest, IntColumnVsIntLiteralFastPath) {
  auto t = MakeTable();
  auto idx = FilterIndices(*t, *Ge(Col("id"), Lit(3))).ValueOrDie();
  EXPECT_EQ(idx, (std::vector<std::uint32_t>{2, 3}));
}

TEST(EvaluatorTest, Int64EqualityIsExactPastTwoToThe53) {
  // 2^53 + 1 and 2^53 are the same double; as int64 they differ.
  auto t = Table::Make(Schema({{"id", DataType::kInt64, 0}}));
  t->column(0).AppendInt64(9007199254740992);
  t->column(0).AppendInt64(9007199254740993);
  const Value big(std::int64_t{9007199254740993});
  auto eq = FilterIndices(*t, *Eq(Col("id"), Lit(big))).ValueOrDie();
  EXPECT_EQ(eq, (std::vector<std::uint32_t>{1}));
  auto lt = FilterIndices(*t, *Lt(Col("id"), Lit(big))).ValueOrDie();
  EXPECT_EQ(lt, (std::vector<std::uint32_t>{0}));
}

TEST(EvaluatorTest, DateComparison) {
  auto t = MakeTable();
  auto idx =
      FilterIndices(*t, *Gt(Col("when"), Lit(Value::Date(250)))).ValueOrDie();
  EXPECT_EQ(idx, (std::vector<std::uint32_t>{2, 3}));
}

TEST(EvaluatorTest, StringEquality) {
  auto t = MakeTable();
  auto idx =
      FilterIndices(*t, *Eq(Col("label"), Lit("coat"))).ValueOrDie();
  EXPECT_EQ(idx, (std::vector<std::uint32_t>{1, 2}));
}

TEST(EvaluatorTest, StringVsNumberIsTypeError) {
  auto t = MakeTable();
  auto r = FilterIndices(*t, *Eq(Col("label"), Lit(3)));
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsTypeError());
}

TEST(EvaluatorTest, AndOrNot) {
  auto t = MakeTable();
  auto idx = FilterIndices(
                 *t, *And(Gt(Col("price"), Lit(8.0)),
                          Not(Eq(Col("label"), Lit("shoe")))))
                 .ValueOrDie();
  EXPECT_EQ(idx, (std::vector<std::uint32_t>{1, 2}));
  auto idx2 = FilterIndices(*t, *Or(Eq(Col("id"), Lit(1)),
                                    Eq(Col("id"), Lit(4))))
                  .ValueOrDie();
  EXPECT_EQ(idx2, (std::vector<std::uint32_t>{0, 3}));
}

TEST(EvaluatorTest, Arithmetic) {
  auto t = MakeTable();
  auto col = EvaluateExpr(
                 *Expr::Arith(ArithOp::kMul, Col("price"), Lit(2.0)), *t)
                 .ValueOrDie();
  ASSERT_EQ(col.type(), DataType::kFloat64);
  EXPECT_DOUBLE_EQ(col.f64()[1], 50.0);
  auto div =
      EvaluateExpr(*Expr::Arith(ArithOp::kDiv, Col("price"), Lit(0.0)), *t)
          .ValueOrDie();
  EXPECT_DOUBLE_EQ(div.f64()[0], 0.0);  // guarded division
}

TEST(EvaluatorTest, StrContains) {
  auto t = MakeTable();
  auto idx =
      FilterIndices(*t, *Expr::StrContains(Col("label"), "oa")).ValueOrDie();
  EXPECT_EQ(idx, (std::vector<std::uint32_t>{1, 2}));
}

TEST(EvaluatorTest, LiteralBroadcast) {
  auto t = MakeTable();
  auto col = EvaluateExpr(*Lit(7), *t).ValueOrDie();
  EXPECT_EQ(col.size(), t->num_rows());
  EXPECT_EQ(col.i64()[3], 7);
}

TEST(EvaluatorTest, MissingColumnIsNotFound) {
  auto t = MakeTable();
  auto r = FilterIndices(*t, *Gt(Col("nope"), Lit(1)));
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsNotFound());
}

TEST(EvaluatorTest, FilterTableMaterializes) {
  auto t = MakeTable();
  auto filtered =
      FilterTable(t, *Gt(Col("price"), Lit(20.0))).ValueOrDie();
  EXPECT_EQ(filtered->num_rows(), 2u);
  EXPECT_EQ(filtered->GetValue(0, 2).AsString(), "coat");
}

TEST(EvaluatorTest, SelectivityExactOnSmallTable) {
  auto t = MakeTable();
  const double sel =
      EstimateSelectivity(*t, *Gt(Col("price"), Lit(20.0))).ValueOrDie();
  EXPECT_DOUBLE_EQ(sel, 0.5);
}

TEST(EvaluatorTest, SelectivitySampledOnLargeTable) {
  auto t = Table::Make(Schema({{"x", DataType::kInt64, 0}}));
  for (int i = 0; i < 10000; ++i) t->AppendRow({Value(i % 100)}).Check();
  const double sel =
      EstimateSelectivity(*t, *Lt(Col("x"), Lit(10)), 512).ValueOrDie();
  EXPECT_NEAR(sel, 0.1, 0.05);
}

class CompareOpSweep : public ::testing::TestWithParam<CompareOp> {};

TEST_P(CompareOpSweep, AgreesWithScalarSemantics) {
  auto t = MakeTable();
  const CompareOp op = GetParam();
  auto mask =
      EvaluateExpr(*Expr::Compare(op, Col("price"), Lit(25.0)), *t)
          .ValueOrDie();
  const std::vector<double> prices = {10.0, 25.0, 40.0, 5.0};
  for (std::size_t i = 0; i < prices.size(); ++i) {
    bool expect = false;
    switch (op) {
      case CompareOp::kEq: expect = prices[i] == 25.0; break;
      case CompareOp::kNe: expect = prices[i] != 25.0; break;
      case CompareOp::kLt: expect = prices[i] < 25.0; break;
      case CompareOp::kLe: expect = prices[i] <= 25.0; break;
      case CompareOp::kGt: expect = prices[i] > 25.0; break;
      case CompareOp::kGe: expect = prices[i] >= 25.0; break;
    }
    EXPECT_EQ(mask.bools()[i] != 0, expect) << "op index " << static_cast<int>(op)
                                            << " row " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(AllOps, CompareOpSweep,
                         ::testing::Values(CompareOp::kEq, CompareOp::kNe,
                                           CompareOp::kLt, CompareOp::kLe,
                                           CompareOp::kGt, CompareOp::kGe));

}  // namespace
}  // namespace cre
