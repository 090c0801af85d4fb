#include "expr/evaluator.h"

#include <algorithm>
#include <cstring>
#include <string>

namespace cre {

namespace {

/// Evaluation result: either a full column or a broadcast scalar.
struct EvalResult {
  Column column{DataType::kInt64};
  bool is_scalar = false;
  Value scalar;

  DataType type() const { return is_scalar ? scalar.type() : column.type(); }
};

Result<EvalResult> Eval(const Expr& expr, const Table& table);

bool CompareNumeric(CompareOp op, double a, double b) {
  switch (op) {
    case CompareOp::kEq:
      return a == b;
    case CompareOp::kNe:
      return a != b;
    case CompareOp::kLt:
      return a < b;
    case CompareOp::kLe:
      return a <= b;
    case CompareOp::kGt:
      return a > b;
    case CompareOp::kGe:
      return a >= b;
  }
  return false;
}

bool CompareString(CompareOp op, const std::string& a, const std::string& b) {
  const int c = a.compare(b);
  switch (op) {
    case CompareOp::kEq:
      return c == 0;
    case CompareOp::kNe:
      return c != 0;
    case CompareOp::kLt:
      return c < 0;
    case CompareOp::kLe:
      return c <= 0;
    case CompareOp::kGt:
      return c > 0;
    case CompareOp::kGe:
      return c >= 0;
  }
  return false;
}

double ApplyArith(ArithOp op, double a, double b) {
  switch (op) {
    case ArithOp::kAdd:
      return a + b;
    case ArithOp::kSub:
      return a - b;
    case ArithOp::kMul:
      return a * b;
    case ArithOp::kDiv:
      return b == 0 ? 0 : a / b;
  }
  return 0;
}

/// Reads element i of a numeric eval result as double.
double NumericAt(const EvalResult& r, std::size_t i) {
  if (r.is_scalar) return r.scalar.AsNumeric();
  switch (r.column.type()) {
    case DataType::kInt64:
    case DataType::kDate:
      return static_cast<double>(r.column.i64()[i]);
    case DataType::kFloat64:
      return r.column.f64()[i];
    case DataType::kBool:
      return r.column.bools()[i] ? 1.0 : 0.0;
    default:
      return 0.0;
  }
}

const std::string& StringAt(const EvalResult& r, std::size_t i) {
  if (r.is_scalar) return r.scalar.AsString();
  return r.column.strings()[i];
}

bool BoolAt(const EvalResult& r, std::size_t i) {
  if (r.is_scalar) return r.scalar.AsBool();
  return r.column.bools()[i] != 0;
}

Result<EvalResult> EvalCompare(const Expr& expr, const Table& table) {
  CRE_ASSIGN_OR_RETURN(EvalResult lhs, Eval(*expr.children()[0], table));
  CRE_ASSIGN_OR_RETURN(EvalResult rhs, Eval(*expr.children()[1], table));
  const std::size_t n = table.num_rows();
  EvalResult out;
  out.column = Column(DataType::kBool);
  out.column.Reserve(n);

  const bool lhs_str = lhs.type() == DataType::kString;
  const bool rhs_str = rhs.type() == DataType::kString;
  if (lhs_str != rhs_str) {
    return Status::TypeError("cannot compare string with non-string: " +
                             expr.ToString());
  }
  const CompareOp op = expr.compare_op();
  if (lhs_str) {
    // Fast path: column vs scalar string equality.
    for (std::size_t i = 0; i < n; ++i) {
      out.column.AppendBool(CompareString(op, StringAt(lhs, i),
                                          StringAt(rhs, i)));
    }
  } else {
    // Fast path: int64 column vs int64 scalar (the common pushdown shape).
    if (!lhs.is_scalar && rhs.is_scalar &&
        (lhs.column.type() == DataType::kInt64 ||
         lhs.column.type() == DataType::kDate) &&
        (rhs.scalar.is_int64() || rhs.scalar.is_date())) {
      const auto& data = lhs.column.i64();
      const std::int64_t rv = rhs.scalar.AsInt64();
      for (std::size_t i = 0; i < n; ++i) {
        out.column.AppendBool(CompareNumeric(op,
                                             static_cast<double>(data[i]),
                                             static_cast<double>(rv)));
      }
    } else {
      for (std::size_t i = 0; i < n; ++i) {
        out.column.AppendBool(
            CompareNumeric(op, NumericAt(lhs, i), NumericAt(rhs, i)));
      }
    }
  }
  return out;
}

Result<EvalResult> Eval(const Expr& expr, const Table& table) {
  const std::size_t n = table.num_rows();
  switch (expr.kind()) {
    case ExprKind::kColumnRef: {
      CRE_ASSIGN_OR_RETURN(const Column* col,
                           table.ColumnByName(expr.column_name()));
      EvalResult r;
      r.column = *col;  // shares the column buffer: O(1)
      return r;
    }
    case ExprKind::kLiteral: {
      EvalResult r;
      r.is_scalar = true;
      r.scalar = expr.literal();
      return r;
    }
    case ExprKind::kCompare:
      return EvalCompare(expr, table);
    case ExprKind::kArith: {
      CRE_ASSIGN_OR_RETURN(EvalResult lhs, Eval(*expr.children()[0], table));
      CRE_ASSIGN_OR_RETURN(EvalResult rhs, Eval(*expr.children()[1], table));
      EvalResult out;
      out.column = Column(DataType::kFloat64);
      out.column.Reserve(n);
      for (std::size_t i = 0; i < n; ++i) {
        out.column.AppendFloat64(
            ApplyArith(expr.arith_op(), NumericAt(lhs, i), NumericAt(rhs, i)));
      }
      return out;
    }
    case ExprKind::kAnd:
    case ExprKind::kOr: {
      CRE_ASSIGN_OR_RETURN(EvalResult lhs, Eval(*expr.children()[0], table));
      CRE_ASSIGN_OR_RETURN(EvalResult rhs, Eval(*expr.children()[1], table));
      if (lhs.type() != DataType::kBool || rhs.type() != DataType::kBool) {
        return Status::TypeError("AND/OR requires boolean operands: " +
                                 expr.ToString());
      }
      EvalResult out;
      out.column = Column(DataType::kBool);
      out.column.Reserve(n);
      const bool is_and = expr.kind() == ExprKind::kAnd;
      for (std::size_t i = 0; i < n; ++i) {
        const bool a = BoolAt(lhs, i);
        const bool b = BoolAt(rhs, i);
        out.column.AppendBool(is_and ? (a && b) : (a || b));
      }
      return out;
    }
    case ExprKind::kNot: {
      CRE_ASSIGN_OR_RETURN(EvalResult in, Eval(*expr.children()[0], table));
      if (in.type() != DataType::kBool) {
        return Status::TypeError("NOT requires boolean operand");
      }
      EvalResult out;
      out.column = Column(DataType::kBool);
      out.column.Reserve(n);
      for (std::size_t i = 0; i < n; ++i) {
        out.column.AppendBool(!BoolAt(in, i));
      }
      return out;
    }
    case ExprKind::kStrContains: {
      CRE_ASSIGN_OR_RETURN(EvalResult in, Eval(*expr.children()[0], table));
      if (in.type() != DataType::kString) {
        return Status::TypeError("contains() requires a string operand");
      }
      EvalResult out;
      out.column = Column(DataType::kBool);
      out.column.Reserve(n);
      const std::string& needle = expr.str_needle();
      for (std::size_t i = 0; i < n; ++i) {
        out.column.AppendBool(StringAt(in, i).find(needle) !=
                              std::string::npos);
      }
      return out;
    }
  }
  return Status::Internal("unreachable expr kind");
}

}  // namespace

Result<Column> EvaluateExpr(const Expr& expr, const Table& table) {
  CRE_ASSIGN_OR_RETURN(EvalResult r, Eval(expr, table));
  if (r.is_scalar) {
    // Broadcast the scalar to a full column.
    Column col(r.scalar.type());
    const std::size_t n = table.num_rows();
    col.Reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      CRE_RETURN_NOT_OK(col.AppendValue(r.scalar));
    }
    return col;
  }
  return std::move(r.column);
}

Result<std::vector<std::uint32_t>> FilterIndices(const Table& table,
                                                 const Expr& predicate) {
  CRE_ASSIGN_OR_RETURN(Column mask, EvaluateExpr(predicate, table));
  if (mask.type() != DataType::kBool) {
    return Status::TypeError("filter predicate must be boolean: " +
                             predicate.ToString());
  }
  const auto& bits = mask.bools();
  std::vector<std::uint32_t> out;
  out.reserve(bits.size() / 4);
  for (std::size_t i = 0; i < bits.size(); ++i) {
    if (bits[i]) out.push_back(static_cast<std::uint32_t>(i));
  }
  return out;
}

Result<TablePtr> FilterTable(const TablePtr& table, const Expr& predicate) {
  CRE_ASSIGN_OR_RETURN(std::vector<std::uint32_t> idx,
                       FilterIndices(*table, predicate));
  return table->Take(idx);
}

Result<double> EstimateSelectivity(const Table& table, const Expr& predicate,
                                   std::size_t sample_size) {
  const std::size_t n = table.num_rows();
  if (n == 0) return 1.0;
  if (n <= sample_size) {
    CRE_ASSIGN_OR_RETURN(auto idx, FilterIndices(table, predicate));
    return static_cast<double>(idx.size()) / static_cast<double>(n);
  }
  // Evenly spaced sample rows.
  std::vector<std::uint32_t> sample_rows;
  sample_rows.reserve(sample_size);
  const double step = static_cast<double>(n) / sample_size;
  for (std::size_t i = 0; i < sample_size; ++i) {
    sample_rows.push_back(static_cast<std::uint32_t>(i * step));
  }
  TablePtr sample = table.Take(sample_rows);
  CRE_ASSIGN_OR_RETURN(auto idx, FilterIndices(*sample, predicate));
  return static_cast<double>(idx.size()) / static_cast<double>(sample_size);
}

}  // namespace cre
