#include "optimizer/rules.h"

#include <algorithm>
#include <optional>
#include <set>

#include "plan/schema_inference.h"

namespace cre {

namespace {

std::set<std::string> SchemaNames(const Schema& s) {
  std::set<std::string> names;
  for (const auto& f : s.fields()) names.insert(f.name);
  return names;
}

PlanPtr WrapFilters(PlanPtr node, const std::vector<ExprPtr>& preds) {
  ExprPtr combined = CombineConjunction(preds);
  return combined ? PlanNode::Filter(std::move(node), combined) : node;
}

Result<PlanPtr> PushDown(PlanPtr node, std::vector<ExprPtr> pending,
                         const Catalog& catalog) {
  switch (node->kind) {
    case PlanKind::kFilter: {
      auto terms = SplitConjunction(node->predicate);
      pending.insert(pending.end(), terms.begin(), terms.end());
      return PushDown(node->children[0], std::move(pending), catalog);
    }
    case PlanKind::kScan:
    case PlanKind::kDetectScan: {
      CRE_ASSIGN_OR_RETURN(Schema s, InferSchema(*node, catalog));
      const auto avail = SchemaNames(s);
      std::vector<ExprPtr> attach, rest;
      for (const auto& p : pending) {
        (p->OnlyReferences(avail) ? attach : rest).push_back(p);
      }
      if (!attach.empty()) {
        ExprPtr combined = CombineConjunction(attach);
        node->predicate =
            node->predicate ? And(node->predicate, combined) : combined;
      }
      return WrapFilters(std::move(node), rest);
    }
    case PlanKind::kProject: {
      // Only push predicates whose referenced columns pass through the
      // projection unchanged (identity column refs).
      std::set<std::string> identity;
      for (const auto& item : node->projections) {
        if (item.expr->kind() == ExprKind::kColumnRef &&
            item.expr->column_name() == item.name) {
          identity.insert(item.name);
        }
      }
      std::vector<ExprPtr> push, stay;
      for (const auto& p : pending) {
        (p->OnlyReferences(identity) ? push : stay).push_back(p);
      }
      CRE_ASSIGN_OR_RETURN(node->children[0],
                           PushDown(node->children[0], std::move(push),
                                    catalog));
      return WrapFilters(std::move(node), stay);
    }
    case PlanKind::kJoin:
    case PlanKind::kSemanticJoin: {
      CRE_ASSIGN_OR_RETURN(Schema ls, InferSchema(*node->children[0], catalog));
      CRE_ASSIGN_OR_RETURN(Schema rs, InferSchema(*node->children[1], catalog));
      const auto lnames = SchemaNames(ls);
      const auto rnames = SchemaNames(rs);
      std::vector<ExprPtr> push_left, push_right, stay;
      for (const auto& p : pending) {
        std::set<std::string> refs;
        p->CollectColumns(&refs);
        const bool in_left = p->OnlyReferences(lnames);
        bool right_only = true;
        for (const auto& r : refs) {
          if (!rnames.count(r) || lnames.count(r)) {
            // Either not a right column, or ambiguous (exists on both
            // sides, in which case the output binds it to the left).
            right_only = false;
            break;
          }
        }
        if (in_left) {
          push_left.push_back(p);
        } else if (right_only) {
          push_right.push_back(p);
        } else {
          stay.push_back(p);
        }
      }
      CRE_ASSIGN_OR_RETURN(
          node->children[0],
          PushDown(node->children[0], std::move(push_left), catalog));
      CRE_ASSIGN_OR_RETURN(
          node->children[1],
          PushDown(node->children[1], std::move(push_right), catalog));
      return WrapFilters(std::move(node), stay);
    }
    case PlanKind::kSort:
    case PlanKind::kSemanticSelect: {
      // Schema-preserving and row-set-preserving (filters commute with
      // sorts; semantic select is the more expensive operator, so
      // relational predicates slide below it).
      CRE_ASSIGN_OR_RETURN(node->children[0],
                           PushDown(node->children[0], std::move(pending),
                                    catalog));
      return node;
    }
    case PlanKind::kSemanticGroupBy: {
      // Optimization barrier: the online clusterer is input-sensitive
      // (first member of each cluster becomes its representative), so
      // removing rows below it would change cluster annotations of the
      // surviving rows. Filters stay above; the subtree below is still
      // optimized independently.
      CRE_ASSIGN_OR_RETURN(node->children[0],
                           PushDown(node->children[0], {}, catalog));
      return WrapFilters(std::move(node), pending);
    }
    case PlanKind::kAggregate: {
      std::set<std::string> keys(node->group_keys.begin(),
                                 node->group_keys.end());
      std::vector<ExprPtr> push, stay;
      for (const auto& p : pending) {
        (p->OnlyReferences(keys) ? push : stay).push_back(p);
      }
      CRE_ASSIGN_OR_RETURN(node->children[0],
                           PushDown(node->children[0], std::move(push),
                                    catalog));
      return WrapFilters(std::move(node), stay);
    }
    case PlanKind::kLimit: {
      // Filters must not cross a limit (it would change which rows the
      // limit admits).
      CRE_ASSIGN_OR_RETURN(node->children[0],
                           PushDown(node->children[0], {}, catalog));
      return WrapFilters(std::move(node), pending);
    }
  }
  return Status::Internal("unreachable plan kind in PushDown");
}

}  // namespace

Result<PlanPtr> RulePushDownFilters(PlanPtr plan, const Catalog& catalog) {
  return PushDown(plan->Clone(), {}, catalog);
}

Result<PlanPtr> RuleReorderJoinInputs(PlanPtr plan, const Catalog& catalog) {
  PlanPtr node = plan;  // trees are already private clones inside Optimize
  for (auto& c : node->children) {
    CRE_ASSIGN_OR_RETURN(c, RuleReorderJoinInputs(c, catalog));
  }
  if ((node->kind == PlanKind::kJoin ||
       node->kind == PlanKind::kSemanticJoin) &&
      node->children[0]->est_rows >= 0 && node->children[1]->est_rows >= 0 &&
      node->children[1]->est_rows > node->children[0]->est_rows) {
    // Swapping is only output-preserving when no column name appears on
    // both sides: with a collision, the suffixing would re-bind the bare
    // name to the other input.
    CRE_ASSIGN_OR_RETURN(Schema ls, InferSchema(*node->children[0], catalog));
    CRE_ASSIGN_OR_RETURN(Schema rs, InferSchema(*node->children[1], catalog));
    const auto lnames = SchemaNames(ls);
    bool disjoint = true;
    for (const auto& f : rs.fields()) {
      if (lnames.count(f.name)) {
        disjoint = false;
        break;
      }
    }
    if (disjoint) {
      // Build side (right) should be the smaller input.
      std::swap(node->children[0], node->children[1]);
      std::swap(node->left_key, node->right_key);
    }
  }
  return node;
}

namespace {

Result<PlanPtr> DeriveDip(PlanPtr node, const SubplanExecutor& executor,
                          std::size_t max_inducing_rows) {
  for (auto& c : node->children) {
    CRE_ASSIGN_OR_RETURN(c, DeriveDip(c, executor, max_inducing_rows));
  }
  if (node->kind != PlanKind::kSemanticJoin || executor == nullptr) {
    return node;
  }
  // Consider inducing from the small side into the big side.
  const double l = node->children[0]->est_rows;
  const double r = node->children[1]->est_rows;
  if (l < 0 || r < 0) return node;

  const bool induce_from_right =
      r <= static_cast<double>(max_inducing_rows) && l > 4.0 * r && l > 200.0;
  const bool induce_from_left =
      l <= static_cast<double>(max_inducing_rows) && r > 4.0 * l && r > 200.0;
  if (!induce_from_right && !induce_from_left) return node;

  const std::size_t inducing = induce_from_right ? 1 : 0;
  const std::size_t target = 1 - inducing;
  const std::string& inducing_key =
      inducing == 1 ? node->right_key : node->left_key;
  const std::string& target_key =
      inducing == 1 ? node->left_key : node->right_key;

  // Guard against re-deriving on an already-reduced side.
  if (node->children[target]->kind == PlanKind::kSemanticSelect &&
      !node->children[target]->queries.empty() &&
      node->children[target]->column == target_key) {
    return node;
  }

  CRE_ASSIGN_OR_RETURN(TablePtr side,
                       executor(node->children[inducing]->Clone()));
  if (side->num_rows() == 0 ||
      side->num_rows() > 4 * max_inducing_rows) {
    return node;  // estimate was off; leave the plan unchanged
  }
  auto col = side->ColumnByName(inducing_key);
  if (!col.ok() || col.ValueOrDie()->type() != DataType::kString) {
    return node;
  }
  std::set<std::string> distinct;
  for (const auto& s : col.ValueOrDie()->strings()) distinct.insert(s);

  auto dip = std::make_shared<PlanNode>();
  dip->kind = PlanKind::kSemanticSelect;
  dip->children = {node->children[target]};
  dip->column = target_key;
  dip->queries.assign(distinct.begin(), distinct.end());
  dip->model_name = node->model_name;
  dip->threshold = node->threshold;
  node->children[target] = dip;
  return node;
}

}  // namespace

Result<PlanPtr> RuleDataInducedPredicates(PlanPtr plan,
                                          const SubplanExecutor& executor,
                                          std::size_t max_inducing_rows) {
  return DeriveDip(plan, executor, max_inducing_rows);
}

PlanPtr RulePickSemanticJoinStrategy(PlanPtr plan, const CostModel& cost,
                                     const IndexResidencyProbe& residency) {
  for (auto& c : plan->children) {
    c = RulePickSemanticJoinStrategy(c, cost, residency);
  }
  if (plan->kind == PlanKind::kSemanticJoin && !plan->strategy_pinned) {
    const double l = std::max(0.0, plan->children[0]->est_rows);
    const double r = std::max(0.0, plan->children[1]->est_rows);
    const PlanNode* scan = plan->IndexableBuildScan();
    double best = -1;
    IndexResidency best_residency = IndexResidency::kAbsent;
    for (const auto s : kSemanticJoinStrategies) {
      if (!cost.StrategyAcceptsModel(s, plan->model_name)) continue;
      const IndexResidency res =
          (scan != nullptr && residency != nullptr &&
           s != SemanticJoinStrategy::kBruteForce)
              ? residency(scan->table_name, plan->right_key,
                          plan->model_name, s)
              : IndexResidency::kAbsent;
      // An index the operator will actually adopt also spares the
      // build-side embedding pass: resident ones outright, on-disk
      // images (the image contains the build-side embeddings) and
      // refreshable ones (only the appended slice embeds, charged via
      // index_refresh_per_row) after their cheap renewal. Only an
      // in-flight build re-embeds: its fallback runs brute-force.
      const bool spares_embed = res == IndexResidency::kResident ||
                                res == IndexResidency::kOnDisk ||
                                res == IndexResidency::kRefreshable;
      double c = cost.AmortizedStrategyCost(s, l, r, res,
                                            /*reusable=*/scan != nullptr) +
                 (spares_embed ? 0.0 : r * cost.EmbedCost(plan->model_name));
      if (best < 0 || c < best) {
        best = c;
        plan->strategy = s;
        best_residency = res;
      }
    }
    plan->index_residency = best_residency;
    plan->index_resident = best_residency == IndexResidency::kResident;
  }
  return plan;
}

PlanPtr RulePickSemanticSelectStrategy(PlanPtr plan, const CostModel& cost,
                                       const IndexResidencyProbe& residency) {
  for (auto& c : plan->children) {
    c = RulePickSemanticSelectStrategy(c, cost, residency);
  }
  if (residency == nullptr) return plan;  // no IndexManager to serve it
  if (plan->kind != PlanKind::kSemanticSelect || plan->strategy_pinned ||
      !plan->queries.empty() || plan->children.size() != 1 ||
      plan->children[0]->kind != PlanKind::kScan ||
      plan->children[0]->predicate != nullptr) {
    return plan;
  }
  const double base = std::max(0.0, plan->children[0]->est_rows);
  double best = -1;
  for (const auto s : kSemanticJoinStrategies) {
    if (!cost.StrategyAcceptsModel(s, plan->model_name)) continue;
    const IndexResidency res =
        s != SemanticJoinStrategy::kBruteForce
            ? residency(plan->children[0]->table_name, plan->column,
                        plan->model_name, s)
            : IndexResidency::kAbsent;
    const double c =
        cost.SemanticSelectStrategyCost(base, plan->model_name, s, res);
    if (best < 0 || c < best) {
      best = c;
      plan->strategy = s;
      plan->index_residency = res;
      plan->index_resident = res == IndexResidency::kResident;
    }
  }
  return plan;
}

namespace {

/// Maps a required output name back to a child-side name across join
/// suffixing ("x_r" produced from right-side "x").
void AddRequiredForSide(const std::set<std::string>& required,
                        const std::set<std::string>& side_names,
                        bool strip_suffix, std::set<std::string>* out) {
  for (const auto& name : required) {
    if (side_names.count(name)) {
      out->insert(name);
      continue;
    }
    if (strip_suffix && name.size() > 2 &&
        name.compare(name.size() - 2, 2, "_r") == 0) {
      std::string base = name.substr(0, name.size() - 2);
      // Strip repeated suffixes conservatively one layer at a time.
      if (side_names.count(base)) out->insert(base);
    }
  }
}

Result<PlanPtr> Prune(PlanPtr node,
                      const std::optional<std::set<std::string>>& required,
                      const Catalog& catalog) {
  switch (node->kind) {
    case PlanKind::kScan: {
      if (!required.has_value()) return node;
      CRE_ASSIGN_OR_RETURN(Schema s, InferSchema(*node, catalog));
      const auto avail = SchemaNames(s);
      std::set<std::string> keep;
      for (const auto& n : *required) {
        if (avail.count(n)) keep.insert(n);
      }
      if (keep.empty() || keep.size() >= avail.size()) return node;
      std::vector<ProjectionItem> items;
      for (const auto& f : s.fields()) {
        if (keep.count(f.name)) items.push_back({f.name, Col(f.name)});
      }
      return PlanNode::Project(std::move(node), std::move(items));
    }
    case PlanKind::kDetectScan:
      return node;
    case PlanKind::kFilter: {
      std::optional<std::set<std::string>> child_req = required;
      if (child_req.has_value()) {
        node->predicate->CollectColumns(&*child_req);
      }
      CRE_ASSIGN_OR_RETURN(node->children[0],
                           Prune(node->children[0], child_req, catalog));
      return node;
    }
    case PlanKind::kProject: {
      std::set<std::string> child_req;
      for (const auto& item : node->projections) {
        item.expr->CollectColumns(&child_req);
      }
      CRE_ASSIGN_OR_RETURN(
          node->children[0],
          Prune(node->children[0], std::make_optional(child_req), catalog));
      return node;
    }
    case PlanKind::kJoin:
    case PlanKind::kSemanticJoin: {
      CRE_ASSIGN_OR_RETURN(Schema ls, InferSchema(*node->children[0], catalog));
      CRE_ASSIGN_OR_RETURN(Schema rs, InferSchema(*node->children[1], catalog));
      const auto lnames = SchemaNames(ls);
      const auto rnames = SchemaNames(rs);
      std::optional<std::set<std::string>> lreq, rreq;
      if (required.has_value()) {
        std::set<std::string> l, r;
        AddRequiredForSide(*required, lnames, false, &l);
        AddRequiredForSide(*required, rnames, true, &r);
        l.insert(node->left_key);
        r.insert(node->right_key);
        lreq = std::move(l);
        rreq = std::move(r);
      }
      CRE_ASSIGN_OR_RETURN(node->children[0],
                           Prune(node->children[0], lreq, catalog));
      CRE_ASSIGN_OR_RETURN(node->children[1],
                           Prune(node->children[1], rreq, catalog));
      return node;
    }
    case PlanKind::kSemanticSelect: {
      // An index-backed select resolves row ids against the whole base
      // table, so its scan must stay bare — no projection may narrow or
      // reorder it (upstream operators re-project as needed).
      if (node->IndexBackedSelect()) return node;
      std::optional<std::set<std::string>> child_req = required;
      if (child_req.has_value()) child_req->insert(node->column);
      CRE_ASSIGN_OR_RETURN(node->children[0],
                           Prune(node->children[0], child_req, catalog));
      return node;
    }
    case PlanKind::kSemanticGroupBy: {
      std::optional<std::set<std::string>> child_req = required;
      if (child_req.has_value()) {
        child_req->insert(node->column);
        child_req->erase("cluster_id");
        child_req->erase("cluster_rep");
      }
      CRE_ASSIGN_OR_RETURN(node->children[0],
                           Prune(node->children[0], child_req, catalog));
      return node;
    }
    case PlanKind::kAggregate: {
      std::set<std::string> child_req(node->group_keys.begin(),
                                      node->group_keys.end());
      for (const auto& a : node->aggs) {
        if (a.kind != AggKind::kCount) child_req.insert(a.column);
      }
      CRE_ASSIGN_OR_RETURN(
          node->children[0],
          Prune(node->children[0], std::make_optional(child_req), catalog));
      return node;
    }
    case PlanKind::kSort: {
      std::optional<std::set<std::string>> child_req = required;
      if (child_req.has_value()) child_req->insert(node->sort_key);
      CRE_ASSIGN_OR_RETURN(node->children[0],
                           Prune(node->children[0], child_req, catalog));
      return node;
    }
    case PlanKind::kLimit: {
      CRE_ASSIGN_OR_RETURN(node->children[0],
                           Prune(node->children[0], required, catalog));
      return node;
    }
  }
  return Status::Internal("unreachable plan kind in Prune");
}

}  // namespace

Result<PlanPtr> RulePruneColumns(PlanPtr plan, const Catalog& catalog) {
  return Prune(plan, std::nullopt, catalog);
}

}  // namespace cre
