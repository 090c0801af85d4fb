#include "optimizer/plan_cache.h"

#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <unordered_set>

namespace cre {

namespace {

double SecondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

/// Value equality that also distinguishes the date tag (the variant
/// operator== treats Date(5) and Int(5) as equal).
bool SameValue(const Value& a, const Value& b) {
  return a == b && a.is_date() == b.is_date();
}

/// Exact-representation map key for a literal: type-tagged (so Date(5),
/// Int(5) and "5" never unify) and never rounded. A double keys on its
/// raw bits (short enough to stay inline in the string, and no printf on
/// a cache hit); NaNs collapse to one key per sign.
std::string ValueKey(const Value& v) {
  char buf[64];
  if (v.is_null()) return "n";
  if (v.is_date()) return "d" + std::to_string(v.AsInt64());
  if (v.is_int64()) return "i" + std::to_string(v.AsInt64());
  if (v.is_float64()) {
    const double d = v.AsFloat64();
    if (std::isnan(d)) return std::signbit(d) ? "f-nan" : "fnan";
    std::string key(1 + sizeof(d), 'f');
    std::memcpy(&key[1], &d, sizeof(d));
    return key;
  }
  if (v.is_bool()) return v.AsBool() ? "b1" : "b0";
  if (v.is_string()) return "s" + v.AsString();
  if (v.is_vector()) {
    std::string out = "v";
    for (float f : v.AsVector()) {
      std::snprintf(buf, sizeof(buf), "%.9g,", static_cast<double>(f));
      out += buf;
    }
    return out;
  }
  return "?";
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
/// "?" and pushed onto `params` in pre-order.
void FingerprintExpr(const Expr& e, std::string* out,
                     std::vector<Value>* params) {
  out->push_back('(');
  switch (e.kind()) {
    case ExprKind::kColumnRef:
      out->push_back('c');
      AppendStr(e.column_name(), out);
      break;
    case ExprKind::kLiteral:
      out->push_back('?');
      out->push_back(ValueTypeTag(e.literal()));
      params->push_back(e.literal());
      break;
    case ExprKind::kCompare:
      out->push_back('=');
      AppendInt(static_cast<int>(e.compare_op()), out);
      break;
    case ExprKind::kArith:
      out->push_back('+');
      AppendInt(static_cast<int>(e.arith_op()), out);
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
      AppendStr(e.str_needle(), out);
      break;
  }
  if (e.kind() != ExprKind::kColumnRef && e.kind() != ExprKind::kLiteral) {
    for (const ExprPtr& child : e.children()) {
      FingerprintExpr(*child, out, params);
    }
  }
  out->push_back(')');
}

void FingerprintNode(const PlanNode& n, std::string* out,
                     PlanCache::Shape* shape) {
  out->push_back('[');
  AppendInt(static_cast<int>(n.kind), out);
  AppendStr(n.table_name, out);
  if (n.predicate) {
    FingerprintExpr(*n.predicate, out, &shape->value_params);
  } else {
    out->push_back('_');
  }
  AppendInt(static_cast<std::int64_t>(n.projections.size()), out);
  for (const ProjectionItem& item : n.projections) {
    AppendStr(item.name, out);
    if (item.expr) {
      FingerprintExpr(*item.expr, out, &shape->value_params);
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
  // A single-query semantic select's query text is a rebindable
  // parameter; DIP multi-select lists are literal-derived and stay
  // verbatim (such plans are uncacheable anyway, the fingerprint just has
  // to be unambiguous).
  if (n.kind == PlanKind::kSemanticSelect && n.queries.empty()) {
    out->append("q?");
    shape->query_params.push_back(n.query);
  } else {
    AppendStr(n.query, out);
  }
  AppendInt(static_cast<std::int64_t>(n.queries.size()), out);
  for (const std::string& q : n.queries) AppendStr(q, out);
  if (!n.queries.empty()) ++shape->multi_selects;
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
  for (const PlanPtr& child : n.children) {
    FingerprintNode(*child, out, shape);
  }
  out->push_back(']');
}

using ValueMap = std::unordered_map<std::string, Value>;
using QueryMap = std::unordered_map<std::string, std::string>;

ExprPtr RebindExpr(const ExprPtr& e, const ValueMap& values, bool* changed) {
  switch (e->kind()) {
    case ExprKind::kColumnRef:
      return e;
    case ExprKind::kLiteral: {
      auto it = values.find(ValueKey(e->literal()));
      // A literal absent from the parameter map was synthesized by an
      // optimizer rule (not user-supplied); it is shape-stable and stays.
      if (it == values.end() || SameValue(it->second, e->literal())) return e;
      *changed = true;
      return Expr::Literal(it->second);
    }
    case ExprKind::kCompare: {
      bool c = false;
      ExprPtr l = RebindExpr(e->children()[0], values, &c);
      ExprPtr r = RebindExpr(e->children()[1], values, &c);
      if (!c) return e;
      *changed = true;
      return Expr::Compare(e->compare_op(), std::move(l), std::move(r));
    }
    case ExprKind::kArith: {
      bool c = false;
      ExprPtr l = RebindExpr(e->children()[0], values, &c);
      ExprPtr r = RebindExpr(e->children()[1], values, &c);
      if (!c) return e;
      *changed = true;
      return Expr::Arith(e->arith_op(), std::move(l), std::move(r));
    }
    case ExprKind::kAnd:
    case ExprKind::kOr: {
      bool c = false;
      std::vector<ExprPtr> kids;
      kids.reserve(e->children().size());
      for (const ExprPtr& child : e->children()) {
        kids.push_back(RebindExpr(child, values, &c));
      }
      if (!c) return e;
      *changed = true;
      ExprPtr folded = kids[0];
      for (std::size_t i = 1; i < kids.size(); ++i) {
        folded = e->kind() == ExprKind::kAnd
                     ? Expr::MakeAnd(std::move(folded), std::move(kids[i]))
                     : Expr::MakeOr(std::move(folded), std::move(kids[i]));
      }
      return folded;
    }
    case ExprKind::kNot: {
      bool c = false;
      ExprPtr child = RebindExpr(e->children()[0], values, &c);
      if (!c) return e;
      *changed = true;
      return Expr::MakeNot(std::move(child));
    }
    case ExprKind::kStrContains: {
      bool c = false;
      ExprPtr child = RebindExpr(e->children()[0], values, &c);
      if (!c) return e;
      *changed = true;
      return Expr::StrContains(std::move(child), e->str_needle());
    }
  }
  return e;
}

void RebindNode(PlanNode* n, const ValueMap& values, const QueryMap& queries) {
  bool changed = false;
  if (n->predicate) n->predicate = RebindExpr(n->predicate, values, &changed);
  for (ProjectionItem& item : n->projections) {
    if (item.expr) item.expr = RebindExpr(item.expr, values, &changed);
  }
  if (n->kind == PlanKind::kSemanticSelect && n->queries.empty()) {
    auto it = queries.find(n->query);
    if (it != queries.end()) n->query = it->second;
  }
  for (PlanPtr& child : n->children) {
    RebindNode(child.get(), values, queries);
  }
}

/// Walks an optimized plan collecting (a) the catalog stamp of every
/// scanned table, (b) the absent-class of every managed-index candidate
/// the shape exposes — index-backed-select-shaped nodes and indexable
/// semantic-join build sides, across all four index families (the choice
/// among families is also residency-driven) — and (c) the DIP
/// multi-select count.
void CollectFreshness(
    const PlanNode& n, const PlanCache::VersionProbe& version,
    const PlanCache::AbsentProbe& absent,
    std::unordered_set<std::string>* seen_tables,
    std::unordered_set<std::string>* seen_candidates,
    std::vector<std::pair<std::string, std::uint64_t>>* stamps,
    std::vector<std::pair<PlanCache::IndexCandidate, bool>>* residency,
    std::size_t* multi_selects) {
  if ((n.kind == PlanKind::kScan || n.kind == PlanKind::kDetectScan) &&
      !n.table_name.empty() && seen_tables->insert(n.table_name).second) {
    stamps->emplace_back(n.table_name, version(n.table_name));
  }
  if (!n.queries.empty()) ++*multi_selects;
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
                     stamps, residency, multi_selects);
  }
}

}  // namespace

PlanCache::Shape PlanCache::Normalize(const PlanNode& plan,
                                      const std::string& knob_signature) {
  Shape shape;
  shape.fingerprint.reserve(256);
  FingerprintNode(plan, &shape.fingerprint, &shape);
  shape.fingerprint.push_back('|');
  shape.fingerprint.append(knob_signature);
  return shape;
}

PlanPtr RebindPlan(const PlanPtr& plan, const std::vector<Value>& old_values,
                   const std::vector<Value>& new_values,
                   const std::vector<std::string>& old_queries,
                   const std::vector<std::string>& new_queries) {
  if (plan == nullptr || old_values.size() != new_values.size() ||
      old_queries.size() != new_queries.size()) {
    return nullptr;
  }
  bool identical = true;
  ValueMap values;
  for (std::size_t i = 0; i < old_values.size(); ++i) {
    auto [it, inserted] =
        values.emplace(ValueKey(old_values[i]), new_values[i]);
    if (!inserted && !SameValue(it->second, new_values[i])) {
      return nullptr;  // one old value -> two new values: ambiguous
    }
    if (!SameValue(old_values[i], new_values[i])) identical = false;
  }
  QueryMap queries;
  for (std::size_t i = 0; i < old_queries.size(); ++i) {
    auto [it, inserted] = queries.emplace(old_queries[i], new_queries[i]);
    if (!inserted && it->second != new_queries[i]) return nullptr;
    if (old_queries[i] != new_queries[i]) identical = false;
  }
  if (identical) return plan;  // share the cached tree as-is
  PlanPtr rebound = plan->Clone();
  RebindNode(rebound.get(), values, queries);
  return rebound;
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
  const auto start = std::chrono::steady_clock::now();
  Lookup out;
  EntryPtr entry;
  {
    MutexLock lock(mu_);
    bool counted_wait = false;
    for (;;) {
      auto it = entries_.find(shape.fingerprint);
      if (it == entries_.end()) {
        auto placeholder = std::make_shared<Entry>();
        entries_.emplace(shape.fingerprint, placeholder);
        ++stats_.misses;
        out.must_plan = true;
        out.ticket = true;
        return out;
      }
      if (it->second->planning) {
        if (!counted_wait) {
          counted_wait = true;
          ++stats_.single_flight_waits;
        }
        cv_.Wait(lock);
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
  // Rebind outside the lock: parameter substitution over the cached tree
  // must not serialize concurrent hits.
  PlanPtr rebound =
      RebindPlan(entry->plan, entry->value_params, shape.value_params,
                 entry->query_params, shape.query_params);
  const double elapsed = SecondsSince(start);
  MutexLock lock(mu_);
  stats_.lookup_seconds += elapsed;
  if (rebound == nullptr) {
    // Duplicate literal values diverged between the cached and looking
    // query — substitution would be guesswork. Plan standalone (no
    // ticket: the installed entry stays valid for unambiguous traffic).
    ++stats_.rebind_ambiguous;
    ++stats_.misses;
    out.must_plan = true;
    return out;
  }
  ++stats_.hits;
  out.plan = std::move(rebound);
  out.stamp = entry->stamp;
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
  std::size_t optimized_multi = 0;
  if (optimized != nullptr) {
    CollectFreshness(*optimized, version, absent, &seen_tables,
                     &seen_candidates, &stamps, &residency, &optimized_multi);
  }
  // More multi-selects than the source shape had: the DIP rule executed
  // inducing subplans at plan time, so this plan is derived from the
  // concrete literals and must not serve other parameter bindings.
  const bool cacheable =
      optimized != nullptr && optimized_multi <= shape.multi_selects;

  MutexLock lock(mu_);
  stats_.planning_seconds += planning_seconds;
  auto it = entries_.find(shape.fingerprint);
  if (!cacheable) {
    ++stats_.uncacheable;
    if (it != entries_.end() && it->second->planning) entries_.erase(it);
    cv_.NotifyAll();
    return;
  }
  EntryPtr entry;
  if (it != entries_.end()) {
    entry = it->second;
  } else {
    entry = std::make_shared<Entry>();
    entries_.emplace(shape.fingerprint, entry);
  }
  entry->plan = optimized;
  entry->value_params = shape.value_params;
  entry->query_params = shape.query_params;
  entry->stamp = 0;
  for (const auto& [table, stamp] : stamps) {
    if (stamp > entry->stamp) entry->stamp = stamp;
  }
  entry->stamps = std::move(stamps);
  entry->residency = std::move(residency);
  entry->lru_tick = ++tick_;
  entry->planning = false;
  EvictLocked(entry.get());
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
