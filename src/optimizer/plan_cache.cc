#include "optimizer/plan_cache.h"

#include <chrono>
#include <cmath>
#include <cstdio>
#include <unordered_set>

#include "core/logging.h"

namespace cre {

namespace {

double SecondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

/// Value equality that also distinguishes the date tag and the sign of a
/// zero (the variant operator== treats Date(5) and Int(5), and 0.0 and
/// -0.0, as equal; both pairs print differently).
bool SameValue(const Value& a, const Value& b) {
  return a == b && a.is_date() == b.is_date() &&
         (!a.is_float64() ||
          std::signbit(a.AsFloat64()) == std::signbit(b.AsFloat64()));
}

char ValueTypeTag(const Value& v) {
  if (v.is_null()) return 'n';
  if (v.is_date()) return 'd';
  if (v.is_int64()) return 'i';
  if (v.is_float64()) return 'f';
  if (v.is_bool()) return 'b';
  if (v.is_string()) return 's';
  if (v.is_vector()) return 'v';
  return '?';
}

// Length-prefixed string token: unambiguous under concatenation.
void AppendStr(const std::string& s, std::string* out) {
  out->append(std::to_string(s.size()));
  out->push_back(':');
  out->append(s);
}

void AppendInt(std::int64_t v, std::string* out) {
  out->append(std::to_string(v));
  out->push_back(';');
}

/// Serializes the expression's shape: structure, operators, column names
/// and StrContains needles verbatim; literal values replaced by a typed
/// "?" and pushed onto `params` in pre-order. With `tag`, returns a copy of
/// `e` whose literals carry their parameter ids (nullptr otherwise).
ExprPtr FingerprintExpr(const ExprPtr& e, std::string* out,
                        std::vector<Value>* params, bool tag) {
  out->push_back('(');
  switch (e->kind()) {
    case ExprKind::kColumnRef:
      out->push_back('c');
      AppendStr(e->column_name(), out);
      break;
    case ExprKind::kLiteral: {
      out->push_back('?');
      out->push_back(ValueTypeTag(e->literal()));
      out->push_back(')');
      const int id = static_cast<int>(params->size());
      params->push_back(e->literal());
      return tag ? Expr::Literal(e->literal(), id) : nullptr;
    }
    case ExprKind::kCompare:
      out->push_back('=');
      AppendInt(static_cast<int>(e->compare_op()), out);
      break;
    case ExprKind::kArith:
      out->push_back('+');
      AppendInt(static_cast<int>(e->arith_op()), out);
      break;
    case ExprKind::kAnd:
      out->push_back('&');
      break;
    case ExprKind::kOr:
      out->push_back('|');
      break;
    case ExprKind::kNot:
      out->push_back('!');
      break;
    case ExprKind::kStrContains:
      out->push_back('~');
      AppendStr(e->str_needle(), out);
      break;
  }
  std::vector<ExprPtr> tagged;
  for (const ExprPtr& child : e->children()) {
    ExprPtr t = FingerprintExpr(child, out, params, tag);
    if (tag) tagged.push_back(std::move(t));
  }
  out->push_back(')');
  if (!tag) return nullptr;
  return tagged.empty() ? e : e->WithChildren(std::move(tagged));
}

/// `copy`, when non-null, is a copy of `n` whose parameter sites get
/// tagged with their ids; its children are replaced by copies in turn.
void FingerprintNode(const PlanNode& n, std::string* out,
                     std::vector<Value>* params, PlanNode* copy) {
  out->push_back('[');
  AppendInt(static_cast<int>(n.kind), out);
  AppendStr(n.table_name, out);
  if (n.predicate) {
    ExprPtr tagged = FingerprintExpr(n.predicate, out, params, copy != nullptr);
    if (copy) copy->predicate = std::move(tagged);
  } else {
    out->push_back('_');
  }
  AppendInt(static_cast<std::int64_t>(n.projections.size()), out);
  for (std::size_t i = 0; i < n.projections.size(); ++i) {
    AppendStr(n.projections[i].name, out);
    if (n.projections[i].expr) {
      ExprPtr tagged = FingerprintExpr(n.projections[i].expr, out, params,
                                       copy != nullptr);
      if (copy) copy->projections[i].expr = std::move(tagged);
    } else {
      out->push_back('_');
    }
  }
  AppendStr(n.left_key, out);
  AppendStr(n.right_key, out);
  AppendStr(n.column, out);
  AppendStr(n.model_name, out);
  char buf[32];
  std::snprintf(buf, sizeof(buf), "t%.9g;", static_cast<double>(n.threshold));
  out->append(buf);
  AppendInt(static_cast<int>(n.strategy), out);
  AppendInt(n.strategy_pinned ? 1 : 0, out);
  AppendInt(static_cast<std::int64_t>(n.top_k), out);
  // A single-query semantic select's query text is a parameter;
  // multi-select lists stay verbatim and untagged (such plans are
  // uncacheable, the fingerprint just has to be unambiguous).
  if (n.kind == PlanKind::kSemanticSelect && n.queries.empty()) {
    out->append("q?");
    if (copy) copy->query_param = static_cast<int>(params->size());
    params->push_back(n.query);
  } else {
    AppendStr(n.query, out);
  }
  AppendInt(static_cast<std::int64_t>(n.queries.size()), out);
  for (const std::string& q : n.queries) AppendStr(q, out);
  AppendInt(static_cast<std::int64_t>(n.group_keys.size()), out);
  for (const std::string& k : n.group_keys) AppendStr(k, out);
  AppendInt(static_cast<std::int64_t>(n.aggs.size()), out);
  for (const AggSpec& a : n.aggs) {
    AppendInt(static_cast<int>(a.kind), out);
    AppendStr(a.column, out);
    AppendStr(a.output_name, out);
  }
  AppendStr(n.sort_key, out);
  AppendInt(n.sort_ascending ? 1 : 0, out);
  AppendInt(static_cast<std::int64_t>(n.limit), out);
  // est_rows / est_cost / index_resident / index_residency are optimizer
  // annotations, not identity — deliberately excluded.
  AppendInt(static_cast<std::int64_t>(n.children.size()), out);
  for (std::size_t i = 0; i < n.children.size(); ++i) {
    PlanNode* child_copy = nullptr;
    if (copy) {
      copy->children[i] = std::make_shared<PlanNode>(*n.children[i]);
      child_copy = copy->children[i].get();
    }
    FingerprintNode(*n.children[i], out, params, child_copy);
  }
  out->push_back(']');
}

/// Writes `params[id]` into every tagged literal under `e` whose value
/// differs, copying only the nodes above such a literal.
ExprPtr BindExpr(const ExprPtr& e, const std::vector<Value>& params) {
  if (e->kind() == ExprKind::kLiteral) {
    const Value& v = params[e->param_id()];
    return SameValue(v, e->literal()) ? e : Expr::Literal(v, e->param_id());
  }
  std::vector<ExprPtr> bound;  // filled from the first changed child on
  for (std::size_t i = 0; i < e->children().size(); ++i) {
    ExprPtr child = BindExpr(e->children()[i], params);
    if (bound.empty() && child != e->children()[i]) bound = e->children();
    if (!bound.empty()) bound[i] = std::move(child);
  }
  return bound.empty() ? e : e->WithChildren(std::move(bound));
}

/// BindExpr over a plan: a node is copied only when a parameter site in
/// it or below it changes; untouched subtrees stay shared with `n`.
PlanPtr BindNode(const PlanPtr& n, const std::vector<Value>& params) {
  PlanPtr copy;
  auto own = [&]() -> PlanNode& {
    if (copy == nullptr) copy = std::make_shared<PlanNode>(*n);
    return *copy;
  };
  if (n->predicate) {
    ExprPtr bound = BindExpr(n->predicate, params);
    if (bound != n->predicate) own().predicate = std::move(bound);
  }
  for (std::size_t i = 0; i < n->projections.size(); ++i) {
    const ExprPtr& expr = n->projections[i].expr;
    if (expr == nullptr) continue;
    ExprPtr bound = BindExpr(expr, params);
    if (bound != expr) own().projections[i].expr = std::move(bound);
  }
  if (n->query_param >= 0) {
    const std::string& query = params[n->query_param].AsString();
    if (query != n->query) own().query = query;
  }
  for (std::size_t i = 0; i < n->children.size(); ++i) {
    PlanPtr bound = BindNode(n->children[i], params);
    if (bound != n->children[i]) own().children[i] = std::move(bound);
  }
  return copy != nullptr ? copy : n;
}

/// The cacheability rule: every literal under `e` carries a parameter id.
bool FullyTagged(const Expr& e) {
  if (e.kind() == ExprKind::kLiteral) return e.param_id() >= 0;
  for (const ExprPtr& child : e.children()) {
    if (!FullyTagged(*child)) return false;
  }
  return true;
}

/// ... and every literal and semantic select query text in `n`'s tree
/// does. A DIP multi-select fails it: its query list carries no id.
bool FullyTagged(const PlanNode& n) {
  if (n.predicate && !FullyTagged(*n.predicate)) return false;
  for (const ProjectionItem& item : n.projections) {
    if (item.expr && !FullyTagged(*item.expr)) return false;
  }
  if (n.kind == PlanKind::kSemanticSelect && n.query_param < 0) return false;
  for (const PlanPtr& child : n.children) {
    if (!FullyTagged(*child)) return false;
  }
  return true;
}

/// Walks an optimized plan collecting (a) the catalog stamp of every
/// scanned table, (b) the absent-class of every managed-index candidate
/// the shape exposes — index-backed-select-shaped nodes and indexable
/// semantic-join build sides, across all four index families (the choice
/// among families is also residency-driven).
void CollectFreshness(
    const PlanNode& n, const PlanCache::VersionProbe& version,
    const PlanCache::AbsentProbe& absent,
    std::unordered_set<std::string>* seen_tables,
    std::unordered_set<std::string>* seen_candidates,
    std::vector<std::pair<std::string, std::uint64_t>>* stamps,
    std::vector<std::pair<PlanCache::IndexCandidate, bool>>* residency) {
  if ((n.kind == PlanKind::kScan || n.kind == PlanKind::kDetectScan) &&
      !n.table_name.empty() && seen_tables->insert(n.table_name).second) {
    stamps->emplace_back(n.table_name, version(n.table_name));
  }
  const PlanNode* scan = nullptr;
  std::string key_column;
  if (n.kind == PlanKind::kSemanticSelect && n.queries.empty() &&
      n.children.size() == 1 && n.children[0]->kind == PlanKind::kScan &&
      n.children[0]->predicate == nullptr) {
    scan = n.children[0].get();
    key_column = n.column;
  } else if (n.kind == PlanKind::kSemanticJoin) {
    scan = n.IndexableBuildScan();
    key_column = n.right_key;
  }
  if (scan != nullptr &&
      seen_candidates
          ->insert(scan->table_name + "\x1f" + key_column + "\x1f" +
                   n.model_name)
          .second) {
    for (SemanticJoinStrategy family : kSemanticJoinStrategies) {
      if (family == SemanticJoinStrategy::kBruteForce) continue;
      PlanCache::IndexCandidate cand{scan->table_name, key_column,
                                     n.model_name, family};
      const bool is_absent = absent(cand);
      residency->emplace_back(std::move(cand), is_absent);
    }
  }
  for (const PlanPtr& child : n.children) {
    CollectFreshness(*child, version, absent, seen_tables, seen_candidates,
                     stamps, residency);
  }
}

}  // namespace

PlanCache::Shape PlanCache::Normalize(const PlanNode& plan,
                                      const std::string& knob_signature,
                                      PlanPtr* parameterized) {
  Shape shape;
  shape.fingerprint.reserve(256);
  PlanNode* copy = nullptr;
  if (parameterized != nullptr) {
    *parameterized = std::make_shared<PlanNode>(plan);
    copy = parameterized->get();
  }
  FingerprintNode(plan, &shape.fingerprint, &shape.params, copy);
  shape.fingerprint.push_back('|');
  shape.fingerprint.append(knob_signature);
  return shape;
}

PlanCache::PlanCache(PlanCacheOptions options) : options_(options) {}

bool PlanCache::ValidLocked(const Entry& entry, const VersionProbe& version,
                            const AbsentProbe& absent) const {
  for (const auto& [table, stamp] : entry.stamps) {
    if (version(table) != stamp) return false;
  }
  for (const auto& [cand, was_absent] : entry.residency) {
    if (absent(cand) != was_absent) return false;
  }
  return true;
}

void PlanCache::EvictLocked(const Entry* keep) {
  for (;;) {
    std::size_t installed = 0;
    auto victim = entries_.end();
    for (auto it = entries_.begin(); it != entries_.end(); ++it) {
      if (it->second->planning) continue;
      ++installed;
      if (it->second.get() == keep) continue;
      if (victim == entries_.end() ||
          it->second->lru_tick < victim->second->lru_tick) {
        victim = it;
      }
    }
    if (installed <= options_.capacity || victim == entries_.end()) return;
    entries_.erase(victim);
    ++stats_.evictions;
  }
}

PlanCache::Lookup PlanCache::AcquireOrPlan(const Shape& shape,
                                           const VersionProbe& version,
                                           const AbsentProbe& absent) {
  auto start = std::chrono::steady_clock::now();
  Lookup out;
  EntryPtr entry;
  {
    MutexLock lock(mu_);
    bool counted_wait = false;
    for (;;) {
      auto it = entries_.find(shape.fingerprint);
      if (it == entries_.end()) {
        entries_.emplace(shape.fingerprint, std::make_shared<Entry>());
        ++stats_.misses;
        return out;
      }
      if (it->second->planning) {
        if (!counted_wait) {
          counted_wait = true;
          ++stats_.single_flight_waits;
        }
        cv_.Wait(lock);
        // The wait was the other caller's planning, not this lookup's.
        start = std::chrono::steady_clock::now();
        continue;
      }
      if (!ValidLocked(*it->second, version, absent)) {
        entries_.erase(it);
        ++stats_.invalidations;
        continue;  // next pass takes the planning ticket
      }
      it->second->lru_tick = ++tick_;
      entry = it->second;
      break;
    }
  }
  // Bind outside the lock: writing parameters into the cached tree must
  // not serialize concurrent hits.
  out.plan = BindNode(entry->plan, shape.params);
  out.stamp = entry->stamp;
  const double elapsed = SecondsSince(start);
  MutexLock lock(mu_);
  stats_.lookup_seconds += elapsed;
  ++stats_.hits;
  return out;
}

void PlanCache::Install(const Shape& shape, const PlanPtr& optimized,
                        double planning_seconds, const VersionProbe& version,
                        const AbsentProbe& absent) {
  // Probe stamps/residency outside mu_ (probes take catalog/index locks).
  std::unordered_set<std::string> seen_tables;
  std::unordered_set<std::string> seen_candidates;
  std::vector<std::pair<std::string, std::uint64_t>> stamps;
  std::vector<std::pair<IndexCandidate, bool>> residency;
  // An untagged site holds a value no parameter binds — a DIP rewrite's
  // query list, derived at plan time from the concrete literals — so the
  // plan must not serve other parameter bindings.
  const bool cacheable = optimized != nullptr && FullyTagged(*optimized);
  if (cacheable) {
    CollectFreshness(*optimized, version, absent, &seen_tables,
                     &seen_candidates, &stamps, &residency);
  }

  MutexLock lock(mu_);
  stats_.planning_seconds += planning_seconds;
  auto it = entries_.find(shape.fingerprint);
  CRE_CHECK(it != entries_.end() && it->second->planning);  // ticket held
  if (!cacheable) {
    ++stats_.uncacheable;
    entries_.erase(it);
    cv_.NotifyAll();
    return;
  }
  Entry* entry = it->second.get();
  entry->plan = optimized;
  entry->stamp = 0;
  for (const auto& [table, stamp] : stamps) {
    if (stamp > entry->stamp) entry->stamp = stamp;
  }
  entry->stamps = std::move(stamps);
  entry->residency = std::move(residency);
  entry->lru_tick = ++tick_;
  entry->planning = false;
  EvictLocked(entry);
  cv_.NotifyAll();
}

void PlanCache::Abort(const Shape& shape) {
  MutexLock lock(mu_);
  auto it = entries_.find(shape.fingerprint);
  if (it != entries_.end() && it->second->planning) entries_.erase(it);
  cv_.NotifyAll();
}

bool PlanCache::Peek(const Shape& shape, const VersionProbe& version,
                     const AbsentProbe& absent, std::uint64_t* stamp) const {
  MutexLock lock(mu_);
  auto it = entries_.find(shape.fingerprint);
  if (it == entries_.end() || it->second->planning) return false;
  if (!ValidLocked(*it->second, version, absent)) return false;
  if (stamp != nullptr) *stamp = it->second->stamp;
  return true;
}

PlanCache::Stats PlanCache::stats() const {
  MutexLock lock(mu_);
  Stats out = stats_;
  out.entries = 0;
  for (const auto& [fp, entry] : entries_) {
    if (!entry->planning) ++out.entries;
  }
  return out;
}

}  // namespace cre
