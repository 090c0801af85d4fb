#ifndef CRE_EXPR_EVALUATOR_H_
#define CRE_EXPR_EVALUATOR_H_

#include <cstdint>
#include <vector>

#include "core/result.h"
#include "expr/expr.h"
#include "storage/table.h"

namespace cre {

/// Vectorized expression evaluation: computes `expr` over every row of
/// `table`, producing one output column. Comparisons between int64/date
/// operands are exact in int64; other numeric comparisons promote to
/// double; string comparisons are lexicographic.
Result<Column> EvaluateExpr(const Expr& expr, const Table& table);

/// Evaluates a boolean predicate and returns the indices of matching rows
/// (a selection vector).
Result<std::vector<std::uint32_t>> FilterIndices(const Table& table,
                                                 const Expr& predicate);

/// Convenience: materializes the rows of `table` matching `predicate`.
Result<TablePtr> FilterTable(const TablePtr& table, const Expr& predicate);

/// Estimated fraction of rows satisfying `predicate`, computed on a sample
/// of at most `sample_size` evenly spaced rows. Used by the optimizer's
/// cardinality estimator.
Result<double> EstimateSelectivity(const Table& table, const Expr& predicate,
                                   std::size_t sample_size = 1024);

}  // namespace cre

#endif  // CRE_EXPR_EVALUATOR_H_
