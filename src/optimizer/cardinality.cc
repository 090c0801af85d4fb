#include "optimizer/cardinality.h"

#include <algorithm>
#include <cmath>

#include "expr/evaluator.h"
#include "vecsim/kernels.h"

namespace cre {

double CardinalityEstimator::HeuristicSelectivity(const Expr& predicate) {
  switch (predicate.kind()) {
    case ExprKind::kCompare:
      switch (predicate.compare_op()) {
        case CompareOp::kEq:
          return 0.05;
        case CompareOp::kNe:
          return 0.95;
        default:
          return 0.33;  // range predicates
      }
    case ExprKind::kAnd:
      return HeuristicSelectivity(*predicate.children()[0]) *
             HeuristicSelectivity(*predicate.children()[1]);
    case ExprKind::kOr: {
      const double a = HeuristicSelectivity(*predicate.children()[0]);
      const double b = HeuristicSelectivity(*predicate.children()[1]);
      return std::min(1.0, a + b - a * b);
    }
    case ExprKind::kNot:
      return 1.0 - HeuristicSelectivity(*predicate.children()[0]);
    case ExprKind::kStrContains:
      return 0.1;
    default:
      return 1.0;
  }
}

TablePtr CardinalityEstimator::BaseTableOf(const PlanNode& node) const {
  if (node.kind == PlanKind::kScan) {
    auto r = catalog_->Get(node.table_name);
    return r.ok() ? r.ValueOrDie() : nullptr;
  }
  if ((node.kind == PlanKind::kFilter ||
       node.kind == PlanKind::kSemanticSelect) &&
      !node.children.empty()) {
    return BaseTableOf(*node.children[0]);
  }
  return nullptr;
}

Result<double> CardinalityEstimator::SemanticSelectSelectivity(
    const PlanNode& node) const {
  TablePtr base = BaseTableOf(*node.children[0]);
  if (base == nullptr || !base->schema().HasField(node.column) ||
      base->num_rows() == 0) {
    return options_.default_semantic_select_sel;
  }
  auto model_result = models_->Get(node.model_name);
  if (!model_result.ok()) return options_.default_semantic_select_sel;
  const EmbeddingModel& model = *model_result.ValueOrDie();

  CRE_ASSIGN_OR_RETURN(const Column* col, base->ColumnByName(node.column));
  if (col->type() != DataType::kString) {
    return options_.default_semantic_select_sel;
  }
  const auto& words = col->strings();
  const std::size_t n = std::min(words.size(), options_.sample_size);
  const double step = static_cast<double>(words.size()) / n;

  const std::size_t dim = model.dim();
  const std::vector<std::string> queries =
      node.queries.empty() ? std::vector<std::string>{node.query}
                           : node.queries;
  // Each query embeds once, not once per sampled row.
  std::vector<float> qm(queries.size() * dim), wv(dim);
  for (std::size_t q = 0; q < queries.size(); ++q) {
    model.Embed(queries[q], qm.data() + q * dim);
  }
  std::size_t hits = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const std::string& w = words[static_cast<std::size_t>(i * step)];
    model.Embed(w, wv.data());
    for (std::size_t q = 0; q < queries.size(); ++q) {
      if (DotUnrolled(qm.data() + q * dim, wv.data(), dim) >=
          node.threshold) {
        ++hits;
        break;
      }
    }
  }
  return std::max(1.0 / static_cast<double>(n + 1),
                  static_cast<double>(hits) / static_cast<double>(n));
}

Result<double> CardinalityEstimator::SemanticJoinMatchProb(
    const PlanNode& node) const {
  TablePtr lbase = BaseTableOf(*node.children[0]);
  TablePtr rbase = BaseTableOf(*node.children[1]);
  auto model_result = models_->Get(node.model_name);
  if (lbase == nullptr || rbase == nullptr || !model_result.ok() ||
      !lbase->schema().HasField(node.left_key) ||
      !rbase->schema().HasField(node.right_key) || lbase->num_rows() == 0 ||
      rbase->num_rows() == 0) {
    return options_.default_semantic_match_prob;
  }
  const EmbeddingModel& model = *model_result.ValueOrDie();
  CRE_ASSIGN_OR_RETURN(const Column* lc, lbase->ColumnByName(node.left_key));
  CRE_ASSIGN_OR_RETURN(const Column* rc, rbase->ColumnByName(node.right_key));
  if (lc->type() != DataType::kString || rc->type() != DataType::kString) {
    return options_.default_semantic_match_prob;
  }
  // Small evenly spaced samples from both sides; count matching pairs.
  const std::size_t sn = 48;
  const auto& lw = lc->strings();
  const auto& rw = rc->strings();
  const std::size_t nl = std::min(lw.size(), sn);
  const std::size_t nr = std::min(rw.size(), sn);
  const double lstep = static_cast<double>(lw.size()) / nl;
  const double rstep = static_cast<double>(rw.size()) / nr;

  const std::size_t dim = model.dim();
  std::vector<float> lm(nl * dim), rm(nr * dim);
  for (std::size_t i = 0; i < nl; ++i) {
    model.Embed(lw[static_cast<std::size_t>(i * lstep)], lm.data() + i * dim);
  }
  for (std::size_t j = 0; j < nr; ++j) {
    model.Embed(rw[static_cast<std::size_t>(j * rstep)], rm.data() + j * dim);
  }
  std::size_t hits = 0;
  for (std::size_t i = 0; i < nl; ++i) {
    for (std::size_t j = 0; j < nr; ++j) {
      if (DotUnrolled(lm.data() + i * dim, rm.data() + j * dim, dim) >=
          node.threshold) {
        ++hits;
      }
    }
  }
  const double total = static_cast<double>(nl) * static_cast<double>(nr);
  return std::max(1.0 / (total * 10.0), static_cast<double>(hits) / total);
}

Result<double> CardinalityEstimator::Estimate(PlanNode* node) const {
  for (auto& c : node->children) {
    CRE_RETURN_NOT_OK(Annotate(c.get()));
  }
  switch (node->kind) {
    case PlanKind::kScan: {
      CRE_ASSIGN_OR_RETURN(TablePtr table, catalog_->Get(node->table_name));
      double rows = static_cast<double>(table->num_rows());
      if (node->predicate) {
        auto sel = EstimateSelectivity(*table, *node->predicate,
                                       options_.sample_size);
        rows *= sel.ok() ? sel.ValueOrDie()
                         : HeuristicSelectivity(*node->predicate);
      }
      return rows;
    }
    case PlanKind::kDetectScan: {
      double images = 1000.0;
      if (detectors_ != nullptr && detectors_->Contains(node->table_name)) {
        auto binding = detectors_->Get(node->table_name);
        images = static_cast<double>(binding.ValueOrDie().store->size());
        if (node->predicate) {
          TablePtr meta = binding.ValueOrDie().store->MetadataTable();
          auto sel = EstimateSelectivity(*meta, *node->predicate,
                                         options_.sample_size);
          images *= sel.ok() ? sel.ValueOrDie()
                             : HeuristicSelectivity(*node->predicate);
        }
      }
      return images * options_.avg_objects_per_image;
    }
    case PlanKind::kFilter:
      return node->children[0]->est_rows *
             HeuristicSelectivity(*node->predicate);
    case PlanKind::kProject:
    case PlanKind::kSort:
    case PlanKind::kSemanticGroupBy:
      return node->children[0]->est_rows;
    case PlanKind::kLimit:
      return std::min(node->children[0]->est_rows,
                      static_cast<double>(node->limit));
    case PlanKind::kSemanticSelect: {
      CRE_ASSIGN_OR_RETURN(double sel, SemanticSelectSelectivity(*node));
      return node->children[0]->est_rows * sel;
    }
    case PlanKind::kJoin:
      // Foreign-key heuristic: each probe row matches ~1 build row.
      return std::max(node->children[0]->est_rows,
                      node->children[1]->est_rows);
    case PlanKind::kSemanticJoin: {
      CRE_ASSIGN_OR_RETURN(double p, SemanticJoinMatchProb(*node));
      return node->children[0]->est_rows * node->children[1]->est_rows * p;
    }
    case PlanKind::kAggregate:
      return std::max(1.0, node->children[0]->est_rows * 0.1);
  }
  return Status::Internal("unreachable plan kind in Estimate");
}

Status CardinalityEstimator::Annotate(PlanNode* node) const {
  CRE_ASSIGN_OR_RETURN(double rows, Estimate(node));
  node->est_rows = std::max(0.0, rows);
  return Status::OK();
}

}  // namespace cre
