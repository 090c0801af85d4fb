#include "expr/evaluator.h"

#include <string>
#include <utility>

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

/// Writes out[i] = lhs(i) <op> rhs(i) for i in [0, n). The op switch sits
/// outside the loops, so each loop is a branch-free kernel over the two
/// operand readers.
template <typename L, typename R>
void CompareInto(CompareOp op, const L& lhs, const R& rhs, std::size_t n,
                 std::uint8_t* out) {
  switch (op) {
    case CompareOp::kEq:
      for (std::size_t i = 0; i < n; ++i) out[i] = lhs(i) == rhs(i);
      break;
    case CompareOp::kNe:
      for (std::size_t i = 0; i < n; ++i) out[i] = lhs(i) != rhs(i);
      break;
    case CompareOp::kLt:
      for (std::size_t i = 0; i < n; ++i) out[i] = lhs(i) < rhs(i);
      break;
    case CompareOp::kLe:
      for (std::size_t i = 0; i < n; ++i) out[i] = lhs(i) <= rhs(i);
      break;
    case CompareOp::kGt:
      for (std::size_t i = 0; i < n; ++i) out[i] = lhs(i) > rhs(i);
      break;
    case CompareOp::kGe:
      for (std::size_t i = 0; i < n; ++i) out[i] = lhs(i) >= rhs(i);
      break;
  }
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

/// The Visit* helpers call f(reader), where reader(i) is element i of `r`
/// in the named domain: the column's typed data, or the broadcast scalar.
/// Each kernel loop is thereby instantiated per operand shape instead of
/// switching on the type once per element.

/// Int64 domain: `r` must be an int64 or date column or scalar.
template <typename F>
void VisitInt64(const EvalResult& r, F&& f) {
  if (r.is_scalar) {
    const std::int64_t v = r.scalar.AsInt64();
    f([v](std::size_t) { return v; });
  } else {
    const std::int64_t* d = r.column.i64().data();
    f([d](std::size_t i) { return d[i]; });
  }
}

/// Double domain: int64/date and bool widen, other types read as 0.
template <typename F>
void VisitDouble(const EvalResult& r, F&& f) {
  if (r.is_scalar) {
    const double v = r.scalar.AsNumeric();
    f([v](std::size_t) { return v; });
  } else {
    VisitAsDouble(r.column, std::forward<F>(f));
  }
}

/// String domain: `r` must be a string column or scalar.
template <typename F>
void VisitString(const EvalResult& r, F&& f) {
  if (r.is_scalar) {
    const std::string& v = r.scalar.AsString();
    f([&v](std::size_t) -> const std::string& { return v; });
  } else {
    const std::string* d = r.column.strings().data();
    f([d](std::size_t i) -> const std::string& { return d[i]; });
  }
}

/// Bool domain: `r` must be a bool column or scalar.
template <typename F>
void VisitBool(const EvalResult& r, F&& f) {
  if (r.is_scalar) {
    const bool v = r.scalar.AsBool();
    f([v](std::size_t) { return v; });
  } else {
    const std::uint8_t* d = r.column.bools().data();
    f([d](std::size_t i) { return d[i] != 0; });
  }
}

bool IsIntDomain(DataType t) {
  return t == DataType::kInt64 || t == DataType::kDate;
}

/// A kBool result whose `n` rows the caller fills through the pointer.
EvalResult BoolResult(std::size_t n, std::uint8_t** out) {
  EvalResult r;
  r.column = Column(DataType::kBool);
  *out = r.column.ExtendBools(n);
  return r;
}

Result<EvalResult> EvalCompare(const Expr& expr, const Table& table) {
  CRE_ASSIGN_OR_RETURN(EvalResult lhs, Eval(*expr.children()[0], table));
  CRE_ASSIGN_OR_RETURN(EvalResult rhs, Eval(*expr.children()[1], table));
  const bool lhs_str = lhs.type() == DataType::kString;
  const bool rhs_str = rhs.type() == DataType::kString;
  if (lhs_str != rhs_str) {
    return Status::TypeError("cannot compare string with non-string: " +
                             expr.ToString());
  }
  const std::size_t n = table.num_rows();
  const CompareOp op = expr.compare_op();
  std::uint8_t* mask = nullptr;
  EvalResult out = BoolResult(n, &mask);
  auto compare = [&](const auto& a, const auto& b) {
    CompareInto(op, a, b, n, mask);
  };
  if (lhs_str) {
    VisitString(lhs, [&](const auto& a) {
      VisitString(rhs, [&](const auto& b) { compare(a, b); });
    });
  } else if (IsIntDomain(lhs.type()) && IsIntDomain(rhs.type())) {
    // Exact: int64 values past 2^53 stay distinct, which a widening to
    // double would merge.
    VisitInt64(lhs, [&](const auto& a) {
      VisitInt64(rhs, [&](const auto& b) { compare(a, b); });
    });
  } else {
    VisitDouble(lhs, [&](const auto& a) {
      VisitDouble(rhs, [&](const auto& b) { compare(a, b); });
    });
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
      double* values = out.column.ExtendFloat64(n);
      const ArithOp op = expr.arith_op();
      VisitDouble(lhs, [&](const auto& a) {
        VisitDouble(rhs, [&](const auto& b) {
          for (std::size_t i = 0; i < n; ++i) {
            values[i] = ApplyArith(op, a(i), b(i));
          }
        });
      });
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
      std::uint8_t* mask = nullptr;
      EvalResult out = BoolResult(n, &mask);
      const bool is_and = expr.kind() == ExprKind::kAnd;
      VisitBool(lhs, [&](const auto& a) {
        VisitBool(rhs, [&](const auto& b) {
          if (is_and) {
            for (std::size_t i = 0; i < n; ++i) mask[i] = a(i) & b(i);
          } else {
            for (std::size_t i = 0; i < n; ++i) mask[i] = a(i) | b(i);
          }
        });
      });
      return out;
    }
    case ExprKind::kNot: {
      CRE_ASSIGN_OR_RETURN(EvalResult in, Eval(*expr.children()[0], table));
      if (in.type() != DataType::kBool) {
        return Status::TypeError("NOT requires boolean operand");
      }
      std::uint8_t* mask = nullptr;
      EvalResult out = BoolResult(n, &mask);
      VisitBool(in, [&](const auto& a) {
        for (std::size_t i = 0; i < n; ++i) mask[i] = !a(i);
      });
      return out;
    }
    case ExprKind::kStrContains: {
      CRE_ASSIGN_OR_RETURN(EvalResult in, Eval(*expr.children()[0], table));
      if (in.type() != DataType::kString) {
        return Status::TypeError("contains() requires a string operand");
      }
      std::uint8_t* mask = nullptr;
      EvalResult out = BoolResult(n, &mask);
      const std::string& needle = expr.str_needle();
      VisitString(in, [&](const auto& a) {
        for (std::size_t i = 0; i < n; ++i) {
          mask[i] = a(i).find(needle) != std::string::npos;
        }
      });
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
