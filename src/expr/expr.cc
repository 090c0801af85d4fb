#include "expr/expr.h"

#include <sstream>

namespace cre {

ExprPtr Expr::Column(std::string name) {
  std::shared_ptr<Expr> e(new Expr());
  e->kind_ = ExprKind::kColumnRef;
  e->column_name_ = std::move(name);
  return e;
}

ExprPtr Expr::Literal(Value v, int param_id) {
  std::shared_ptr<Expr> e(new Expr());
  e->kind_ = ExprKind::kLiteral;
  e->literal_ = std::move(v);
  e->param_id_ = param_id;
  return e;
}

ExprPtr Expr::Compare(CompareOp op, ExprPtr lhs, ExprPtr rhs) {
  std::shared_ptr<Expr> e(new Expr());
  e->kind_ = ExprKind::kCompare;
  e->compare_op_ = op;
  e->children_ = {std::move(lhs), std::move(rhs)};
  return e;
}

ExprPtr Expr::Arith(ArithOp op, ExprPtr lhs, ExprPtr rhs) {
  std::shared_ptr<Expr> e(new Expr());
  e->kind_ = ExprKind::kArith;
  e->arith_op_ = op;
  e->children_ = {std::move(lhs), std::move(rhs)};
  return e;
}

ExprPtr Expr::MakeAnd(ExprPtr lhs, ExprPtr rhs) {
  std::shared_ptr<Expr> e(new Expr());
  e->kind_ = ExprKind::kAnd;
  e->children_ = {std::move(lhs), std::move(rhs)};
  return e;
}

ExprPtr Expr::MakeOr(ExprPtr lhs, ExprPtr rhs) {
  std::shared_ptr<Expr> e(new Expr());
  e->kind_ = ExprKind::kOr;
  e->children_ = {std::move(lhs), std::move(rhs)};
  return e;
}

ExprPtr Expr::MakeNot(ExprPtr child) {
  std::shared_ptr<Expr> e(new Expr());
  e->kind_ = ExprKind::kNot;
  e->children_ = {std::move(child)};
  return e;
}

ExprPtr Expr::StrContains(ExprPtr haystack, std::string needle) {
  std::shared_ptr<Expr> e(new Expr());
  e->kind_ = ExprKind::kStrContains;
  e->column_name_ = std::move(needle);
  e->children_ = {std::move(haystack)};
  return e;
}

ExprPtr Expr::WithChildren(std::vector<ExprPtr> children) const {
  std::shared_ptr<Expr> e(new Expr(*this));
  e->children_ = std::move(children);
  return e;
}

void Expr::CollectColumns(std::set<std::string>* out) const {
  if (kind_ == ExprKind::kColumnRef) {
    out->insert(column_name_);
    return;
  }
  for (const auto& c : children_) c->CollectColumns(out);
}

bool Expr::OnlyReferences(const std::set<std::string>& available) const {
  std::set<std::string> used;
  CollectColumns(&used);
  for (const auto& name : used) {
    if (!available.count(name)) return false;
  }
  return true;
}

namespace {
const char* CompareOpName(CompareOp op) {
  switch (op) {
    case CompareOp::kEq:
      return "=";
    case CompareOp::kNe:
      return "!=";
    case CompareOp::kLt:
      return "<";
    case CompareOp::kLe:
      return "<=";
    case CompareOp::kGt:
      return ">";
    case CompareOp::kGe:
      return ">=";
  }
  return "?";
}
const char* ArithOpName(ArithOp op) {
  switch (op) {
    case ArithOp::kAdd:
      return "+";
    case ArithOp::kSub:
      return "-";
    case ArithOp::kMul:
      return "*";
    case ArithOp::kDiv:
      return "/";
  }
  return "?";
}
}  // namespace

std::string Expr::ToString() const {
  std::ostringstream os;
  switch (kind_) {
    case ExprKind::kColumnRef:
      os << column_name_;
      break;
    case ExprKind::kLiteral:
      os << literal_.ToString();
      break;
    case ExprKind::kCompare:
      os << "(" << children_[0]->ToString() << " "
         << CompareOpName(compare_op_) << " " << children_[1]->ToString()
         << ")";
      break;
    case ExprKind::kArith:
      os << "(" << children_[0]->ToString() << " " << ArithOpName(arith_op_)
         << " " << children_[1]->ToString() << ")";
      break;
    case ExprKind::kAnd:
      os << "(" << children_[0]->ToString() << " AND "
         << children_[1]->ToString() << ")";
      break;
    case ExprKind::kOr:
      os << "(" << children_[0]->ToString() << " OR "
         << children_[1]->ToString() << ")";
      break;
    case ExprKind::kNot:
      os << "NOT(" << children_[0]->ToString() << ")";
      break;
    case ExprKind::kStrContains:
      os << "contains(" << children_[0]->ToString() << ", '" << column_name_
         << "')";
      break;
  }
  return os.str();
}

std::vector<ExprPtr> SplitConjunction(const ExprPtr& expr) {
  std::vector<ExprPtr> terms;
  if (!expr) return terms;
  if (expr->kind() == ExprKind::kAnd) {
    for (const auto& child : expr->children()) {
      auto sub = SplitConjunction(child);
      terms.insert(terms.end(), sub.begin(), sub.end());
    }
  } else {
    terms.push_back(expr);
  }
  return terms;
}

ExprPtr CombineConjunction(const std::vector<ExprPtr>& terms) {
  ExprPtr result;
  for (const auto& t : terms) {
    result = result ? And(result, t) : t;
  }
  return result;
}

}  // namespace cre
