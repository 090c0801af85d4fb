#ifndef CRE_EXPR_EXPR_H_
#define CRE_EXPR_EXPR_H_

#include <memory>
#include <set>
#include <string>
#include <vector>

#include "types/value.h"

namespace cre {

enum class ExprKind {
  kColumnRef,
  kLiteral,
  kCompare,
  kArith,
  kAnd,
  kOr,
  kNot,
  kStrContains,
};

enum class CompareOp { kEq, kNe, kLt, kLe, kGt, kGe };
enum class ArithOp { kAdd, kSub, kMul, kDiv };

class Expr;
using ExprPtr = std::shared_ptr<const Expr>;

/// Immutable scalar expression tree. Built via the factory helpers below
/// (Col/Lit/Gt/...), evaluated vectorized by EvaluateExpr.
class Expr {
 public:
  static ExprPtr Column(std::string name);
  /// `param_id` >= 0 tags the literal as plan-cache parameter slot
  /// `param_id` (see PlanCache::Normalize); -1 is an untagged literal.
  static ExprPtr Literal(Value v, int param_id = -1);
  static ExprPtr Compare(CompareOp op, ExprPtr lhs, ExprPtr rhs);
  static ExprPtr Arith(ArithOp op, ExprPtr lhs, ExprPtr rhs);
  static ExprPtr MakeAnd(ExprPtr lhs, ExprPtr rhs);
  static ExprPtr MakeOr(ExprPtr lhs, ExprPtr rhs);
  static ExprPtr MakeNot(ExprPtr child);
  static ExprPtr StrContains(ExprPtr haystack, std::string needle);

  ExprKind kind() const { return kind_; }
  const std::string& column_name() const { return column_name_; }
  const Value& literal() const { return literal_; }
  int param_id() const { return param_id_; }
  CompareOp compare_op() const { return compare_op_; }
  ArithOp arith_op() const { return arith_op_; }
  const std::string& str_needle() const { return column_name_; }
  const std::vector<ExprPtr>& children() const { return children_; }

  /// Copy of this node over `children` in place of its own.
  ExprPtr WithChildren(std::vector<ExprPtr> children) const;

  /// Adds every referenced column name to `out`.
  void CollectColumns(std::set<std::string>* out) const;

  /// True when every referenced column is present in `available`.
  bool OnlyReferences(const std::set<std::string>& available) const;

  std::string ToString() const;

 private:
  Expr() = default;

  ExprKind kind_ = ExprKind::kLiteral;
  std::string column_name_;  // kColumnRef; also needle for kStrContains
  Value literal_;
  int param_id_ = -1;  // kLiteral
  CompareOp compare_op_ = CompareOp::kEq;
  ArithOp arith_op_ = ArithOp::kAdd;
  std::vector<ExprPtr> children_;
};

// ---- terse builders used throughout examples, tests, and benches ----

inline ExprPtr Col(std::string name) { return Expr::Column(std::move(name)); }
inline ExprPtr Lit(Value v) { return Expr::Literal(std::move(v)); }

inline ExprPtr Eq(ExprPtr a, ExprPtr b) {
  return Expr::Compare(CompareOp::kEq, std::move(a), std::move(b));
}
inline ExprPtr Ne(ExprPtr a, ExprPtr b) {
  return Expr::Compare(CompareOp::kNe, std::move(a), std::move(b));
}
inline ExprPtr Lt(ExprPtr a, ExprPtr b) {
  return Expr::Compare(CompareOp::kLt, std::move(a), std::move(b));
}
inline ExprPtr Le(ExprPtr a, ExprPtr b) {
  return Expr::Compare(CompareOp::kLe, std::move(a), std::move(b));
}
inline ExprPtr Gt(ExprPtr a, ExprPtr b) {
  return Expr::Compare(CompareOp::kGt, std::move(a), std::move(b));
}
inline ExprPtr Ge(ExprPtr a, ExprPtr b) {
  return Expr::Compare(CompareOp::kGe, std::move(a), std::move(b));
}
inline ExprPtr And(ExprPtr a, ExprPtr b) {
  return Expr::MakeAnd(std::move(a), std::move(b));
}
inline ExprPtr Or(ExprPtr a, ExprPtr b) {
  return Expr::MakeOr(std::move(a), std::move(b));
}
inline ExprPtr Not(ExprPtr a) { return Expr::MakeNot(std::move(a)); }

/// Splits a conjunction into its AND-ed terms (flattens nested ANDs).
std::vector<ExprPtr> SplitConjunction(const ExprPtr& expr);

/// AND-combines terms (returns nullptr for an empty list).
ExprPtr CombineConjunction(const std::vector<ExprPtr>& terms);

}  // namespace cre

#endif  // CRE_EXPR_EXPR_H_
