#include "vecsim/hnsw_index.h"

#include <algorithm>
#include <cmath>
#include <functional>

#include "core/hash.h"
#include "core/rng.h"
#include "vecsim/index_io.h"
#include "vecsim/top_k.h"

namespace cre {

namespace {

/// Max-heap on score (best candidate on top).
struct ScoreLess {
  bool operator()(const ScoredId& a, const ScoredId& b) const {
    return a.score < b.score || (a.score == b.score && a.id > b.id);
  }
};

/// Min-heap on score (worst retained result on top); doubles as the
/// best-first (descending score, ascending id) ordering every candidate
/// sort in this file uses — one definition keeps the deterministic
/// tie-break in one place.
struct ScoreGreater {
  bool operator()(const ScoredId& a, const ScoredId& b) const {
    return a.score > b.score || (a.score == b.score && a.id < b.id);
  }
};

/// Poll cadence for cooperative cancellation inside the sequential
/// bootstrap insert loop: cheap enough to be noise, frequent enough that
/// cancel latency is a handful of inserts.
constexpr std::uint32_t kCancelPollStride = 32;

bool Cancelled(const CancelFlag* cancel) {
  return cancel != nullptr && cancel->cancelled();
}

/// RangeSearch's first layer-0 beam width. The small beam is enough when
/// it straddles the edge of the exploration band: some, but fewer than
/// half, of its nodes score within range_slack of the threshold. Every
/// other probe pays for this beam and a full ef_search one, so the saving
/// depends on how many probes straddle the edge.
constexpr std::size_t kRangeSeedBeam = 16;

/// Neighbor selection scores a candidate against this many kept
/// neighbors per gather-batch call. Scoring all of them at once would
/// waste work: most candidates are pruned by one of their first checks.
constexpr std::size_t kSelectChunk = 8;

}  // namespace

/// hnswlib's VisitedListPool idiom with one list per thread: a node is
/// visited iff marks[node] == epoch, so starting a new visited set is an
/// increment, not an O(n) clear. One thread's scratch serves every index
/// it searches (stale stamps from another graph are older epochs), so
/// the marks only grow to the largest graph seen. The heaps and batch
/// buffers keep their capacity across calls, and so do construction's
/// buffers: ApplyBatch re-selects links on pool workers, so they are per
/// thread too.
struct HnswIndex::SearchScratch {
  std::vector<std::uint32_t> marks;
  std::uint32_t epoch = 0;
  /// Beam state: `candidates` is a max-heap under ScoreLess (best on
  /// top), `results` a min-heap under ScoreGreater (worst kept on top).
  std::vector<ScoredId> candidates;
  std::vector<ScoredId> results;
  std::vector<std::uint32_t> fresh;
  std::vector<float> scores;
  std::vector<std::uint32_t> frontier;
  /// Decode buffer for the exact fp32 rescore of quantized rows.
  std::vector<float> decoded;
  /// Construction: decode buffers for the inserted node (PlanInsert,
  /// Insert), the node whose links are re-selected, and the candidate a
  /// selection checks; a plan's scored batch peers; AddLinks' scored
  /// links; and the selection's pruned list.
  std::vector<float> node_vec;
  std::vector<float> shrink_vec;
  std::vector<float> cand_vec;
  std::vector<ScoredId> peers;
  std::vector<ScoredId> scored_links;
  std::vector<std::uint32_t> pruned;

  /// Starts an empty visited set over node ids [0, n).
  void NewVisit(std::size_t n) {
    if (marks.size() < n) marks.resize(n, 0);
    if (++epoch == 0) {  // wrapped: stamps from 2^32 visits ago look live
      std::fill(marks.begin(), marks.end(), 0);
      epoch = 1;
    }
  }
  /// Marks `id` visited; false if it already was.
  bool Visit(std::uint32_t id) {
    if (marks[id] == epoch) return false;
    marks[id] = epoch;
    return true;
  }
};

HnswIndex::SearchScratch& HnswIndex::ThreadScratch() {
  thread_local SearchScratch scratch;
  return scratch;
}

int HnswIndex::DrawLevel() {
  const double ml = 1.0 / std::log(static_cast<double>(options_.M));
  const double u = std::max(level_rng_.NextDouble(), 1e-12);
  ++level_draws_;
  return static_cast<int>(-std::log(u) * ml);
}

const float* HnswIndex::NodeVec(std::uint32_t id,
                                std::vector<float>* scratch) const {
  if (!store_.quantized()) {
    return store_.Fp32Data() + static_cast<std::size_t>(id) * dim_;
  }
  scratch->resize(dim_);
  store_.Decode(id, scratch->data());
  return scratch->data();
}

Status HnswIndex::Build(const float* data, std::size_t n, std::size_t dim) {
  if (dim == 0) return Status::InvalidArgument("dim must be positive");
  if (options_.M < 2) {
    // The level distribution uses mL = 1/ln(M): M == 1 would divide by
    // ln(1) = 0 and M == 0 has no graph at all.
    return Status::InvalidArgument("M must be >= 2");
  }
  n_ = n;
  dim_ = dim;
  store_.Reset(options_.quant.codec, dim);
  store_.Append(data, n);
  links_.assign(n, {});
  levels_.assign(n, 0);
  entry_ = 0;
  max_level_ = -1;
  // Geometric level draws (mL = 1/ln(M)) with a fixed seed keep the graph
  // deterministic across rebuilds of the same data; Add() continues the
  // same stream for appended nodes.
  level_rng_ = Rng(options_.seed);
  level_draws_ = 0;
  if (n == 0) return Status::OK();

  for (std::uint32_t i = 0; i < n; ++i) {
    const int level = DrawLevel();
    levels_[i] = level;
    links_[i].assign(static_cast<std::size_t>(level) + 1, {});
  }

  return InsertFrom(0);
}

Status HnswIndex::InsertFrom(std::uint32_t first) {
  // Canonical batched construction. The first build_bootstrap nodes
  // insert one-at-a-time (each sees all of its predecessors). After
  // that, nodes insert in id-ordered batches: every batch member plans
  // its links against the graph as frozen at the batch start — plus the
  // earlier members of its own batch, folded in by exact scoring, so no
  // candidate a sequential insert would have seen goes missing — then
  // the plans apply in canonical order (phase B). The batch schedule,
  // the frozen-snapshot searches, and the canonical application make the
  // graph a pure function of (prior graph, inserted data, options) —
  // identical with or without a pool — while phase A's searches and
  // phase B's per-target link re-selection scale with cores. Batch size
  // grows with the graph (cur / 4, capped) so members search a structure
  // several times their batch, and the cap keeps the exact intra-batch
  // scoring linear overall. An Add of a few nodes to a large graph is
  // one batch.
  const std::uint32_t n = static_cast<std::uint32_t>(n_);
  const std::uint32_t bootstrap = std::max(
      first, static_cast<std::uint32_t>(std::min<std::size_t>(
                 n, std::max<std::size_t>(1, options_.build_bootstrap))));
  for (std::uint32_t i = first; i < bootstrap; ++i) {
    if ((i - first) % kCancelPollStride == 0 && Cancelled(options_.cancel)) {
      return Status::Cancelled("hnsw build cancelled");
    }
    Insert(i, levels_[i]);
  }

  std::vector<InsertPlan> plans;
  for (std::uint32_t cur = bootstrap; cur < n;) {
    // Batch-level cancellation check: a flipped flag aborts construction
    // within one batch instead of after the whole multi-second build.
    if (Cancelled(options_.cancel)) {
      return Status::Cancelled("hnsw build cancelled");
    }
    const std::size_t batch = std::min<std::size_t>(
        {n - cur, std::max<std::size_t>(128, cur / 4), std::size_t{1024}});
    plans.assign(batch, {});
    auto plan_range = [&](std::size_t begin, std::size_t end) {
      SearchScratch& scratch = ThreadScratch();
      for (std::size_t j = begin; j < end; ++j) {
        const std::uint32_t id = cur + static_cast<std::uint32_t>(j);
        plans[j] = PlanInsert(id, levels_[id], cur, &scratch);
      }
    };
    if (options_.build_pool != nullptr) {
      options_.build_pool->ParallelFor(batch, plan_range, /*grain=*/1);
    } else {
      plan_range(0, batch);
    }
    ApplyBatch(cur, batch, &plans);
    cur += static_cast<std::uint32_t>(batch);
  }
  return Status::OK();
}

HnswIndex::InsertPlan HnswIndex::PlanInsert(std::uint32_t id, int level,
                                            std::uint32_t batch_first,
                                            SearchScratch* scratch) const {
  // Mirrors Insert()'s search half on the frozen graph: greedy descent
  // through the upper layers, then an ef_construction beam per layer with
  // the Malkov-Yashunin neighbor selection. No writes.
  InsertPlan plan;
  plan.links.assign(static_cast<std::size_t>(level) + 1, {});
  const float* q = NodeVec(id, &scratch->node_vec);
  const float pre = store_.QueryPrecompute(q);
  std::uint32_t ep = entry_;
  for (int layer = max_level_; layer > level; --layer) {
    ep = GreedyStep(q, pre, ep, layer, scratch);
  }
  // Earlier batch members are invisible to the frozen-graph search, so
  // score them exactly once (one contiguous batch-kernel call) and merge
  // them into every layer's candidate set below — the same neighbors a
  // sequential insert would have reached through the graph.
  // The peers are copied out of `scores` before SearchLayer reuses it.
  std::vector<ScoredId>& peers = scratch->peers;
  peers.clear();
  if (id > batch_first) {
    const std::size_t peer_count = id - batch_first;
    std::vector<float>& peer_scores = scratch->scores;
    peer_scores.resize(peer_count);
    store_.ScoreRange(q, pre, batch_first, peer_count, peer_scores.data());
    for (std::size_t i = 0; i < peer_count; ++i) {
      peers.push_back(
          {batch_first + static_cast<std::uint32_t>(i), peer_scores[i]});
    }
  }
  for (int layer = std::min(level, max_level_); layer >= 0; --layer) {
    SearchLayer(q, pre, ep, options_.ef_construction, layer, scratch);
    std::vector<ScoredId>& found = scratch->results;
    std::sort(found.begin(), found.end(), ScoreGreater{});
    if (!found.empty()) ep = found.front().id;
    for (const ScoredId& peer : peers) {
      if (levels_[peer.id] >= layer) found.push_back(peer);
    }
    if (!peers.empty()) std::sort(found.begin(), found.end(), ScoreGreater{});
    SelectNeighbors(found, MaxDegree(layer), scratch, &plan.links[layer]);
  }
  return plan;
}

void HnswIndex::ApplyBatch(std::uint32_t first, std::size_t count,
                           std::vector<InsertPlan>* plans) {
  // Own links first (batch members may point at pre-batch nodes and at
  // earlier batch peers); the reverse-edge pass below runs strictly
  // after, so a peer's list is complete before anything appends to it.
  for (std::size_t j = 0; j < count; ++j) {
    InsertPlan& plan = (*plans)[j];
    const std::uint32_t id = first + static_cast<std::uint32_t>(j);
    const int top = static_cast<int>(plan.links.size()) - 1;
    for (int layer = std::min(top, max_level_); layer >= 0; --layer) {
      links_[id][layer] = std::move(plan.links[layer]);
    }
  }

  // Reverse edges, grouped by (target, layer) in canonical order: each
  // group adds its new ids (ascending) to the target's links, re-selecting
  // them once when they overflow. Distinct groups touch disjoint adjacency
  // lists, so the groups can fan out over the pool without changing the
  // result.
  struct Edge {
    std::uint32_t target;
    int layer;
    std::uint32_t id;
  };
  std::vector<Edge> edges;
  for (std::size_t j = 0; j < count; ++j) {
    const std::uint32_t id = first + static_cast<std::uint32_t>(j);
    for (std::size_t layer = 0; layer < links_[id].size(); ++layer) {
      for (const std::uint32_t nb : links_[id][layer]) {
        edges.push_back({nb, static_cast<int>(layer), id});
      }
    }
  }
  std::sort(edges.begin(), edges.end(), [](const Edge& a, const Edge& b) {
    return a.target < b.target ||
           (a.target == b.target &&
            (a.layer < b.layer || (a.layer == b.layer && a.id < b.id)));
  });
  std::vector<std::uint32_t> edge_ids(edges.size());
  std::vector<std::size_t> group_starts;
  for (std::size_t i = 0; i < edges.size(); ++i) {
    edge_ids[i] = edges[i].id;
    if (i == 0 || edges[i].target != edges[i - 1].target ||
        edges[i].layer != edges[i - 1].layer) {
      group_starts.push_back(i);
    }
  }
  group_starts.push_back(edges.size());

  auto apply_groups = [&](std::size_t begin, std::size_t end) {
    SearchScratch& scratch = ThreadScratch();
    for (std::size_t g = begin; g < end; ++g) {
      const std::size_t lo = group_starts[g];
      const std::size_t hi = group_starts[g + 1];
      AddLinks(edges[lo].target, edges[lo].layer, edge_ids.data() + lo,
               hi - lo, &scratch);
    }
  };
  const std::size_t groups = group_starts.size() - 1;
  if (options_.build_pool != nullptr) {
    options_.build_pool->ParallelFor(groups, apply_groups, /*grain=*/16);
  } else {
    apply_groups(0, groups);
  }

  // Entry-point handover in id order, exactly as sequential inserts
  // would have done it.
  for (std::size_t j = 0; j < count; ++j) {
    const std::uint32_t id = first + static_cast<std::uint32_t>(j);
    if (levels_[id] > max_level_) {
      max_level_ = levels_[id];
      entry_ = id;
    }
  }
}

std::uint32_t HnswIndex::GreedyStep(const float* query, float query_pre,
                                    std::uint32_t entry, int layer,
                                    SearchScratch* scratch) const {
  std::uint32_t cur = entry;
  float cur_score = store_.ScoreOne(query, query_pre, cur);
  std::vector<float>& scores = scratch->scores;
  for (;;) {
    const auto& nbrs = links_[cur][layer];
    if (nbrs.empty()) return cur;
    // One gather-batch call scores the whole adjacency list.
    scores.resize(nbrs.size());
    store_.ScoreIds(query, query_pre, nbrs.data(), nbrs.size(),
                    scores.data());
    bool improved = false;
    for (std::size_t i = 0; i < nbrs.size(); ++i) {
      if (scores[i] > cur_score) {
        cur = nbrs[i];
        cur_score = scores[i];
        improved = true;
      }
    }
    if (!improved) return cur;
  }
}

void HnswIndex::SearchLayer(const float* query, float query_pre,
                            std::uint32_t entry, std::size_t ef, int layer,
                            SearchScratch* scratch) const {
  scratch->NewVisit(n_);
  std::vector<ScoredId>& candidates = scratch->candidates;
  std::vector<ScoredId>& results = scratch->results;
  candidates.clear();
  results.clear();
  auto push = [](std::vector<ScoredId>* heap, ScoredId x, auto less) {
    heap->push_back(x);
    std::push_heap(heap->begin(), heap->end(), less);
  };
  auto pop = [](std::vector<ScoredId>* heap, auto less) {
    std::pop_heap(heap->begin(), heap->end(), less);
    heap->pop_back();
  };

  const float entry_score = store_.ScoreOne(query, query_pre, entry);
  scratch->Visit(entry);
  push(&candidates, {entry, entry_score}, ScoreLess{});
  push(&results, {entry, entry_score}, ScoreGreater{});

  std::vector<std::uint32_t>& fresh = scratch->fresh;
  std::vector<float>& scores = scratch->scores;
  while (!candidates.empty()) {
    const ScoredId c = candidates.front();
    pop(&candidates, ScoreLess{});
    if (results.size() >= ef && c.score < results.front().score) break;
    // Collect the node's unvisited links, then score them in one
    // gather-batch kernel call (prefetch hides the row loads).
    fresh.clear();
    for (const std::uint32_t nb : links_[c.id][layer]) {
      if (scratch->Visit(nb)) fresh.push_back(nb);
    }
    if (fresh.empty()) continue;
    scores.resize(fresh.size());
    store_.ScoreIds(query, query_pre, fresh.data(), fresh.size(),
                    scores.data());
    for (std::size_t i = 0; i < fresh.size(); ++i) {
      const float s = scores[i];
      if (results.size() < ef || s > results.front().score) {
        push(&candidates, {fresh[i], s}, ScoreLess{});
        push(&results, {fresh[i], s}, ScoreGreater{});
        if (results.size() > ef) pop(&results, ScoreGreater{});
      }
    }
  }
}

void HnswIndex::SelectNeighbors(const std::vector<ScoredId>& candidates,
                                std::size_t m, SearchScratch* scratch,
                                std::vector<std::uint32_t>* out) const {
  std::vector<std::uint32_t>& selected = *out;
  std::vector<std::uint32_t>& pruned = scratch->pruned;
  selected.clear();
  pruned.clear();
  float chunk_scores[kSelectChunk];
  for (const ScoredId& cand : candidates) {
    if (selected.size() >= m) break;
    const float* cq = NodeVec(cand.id, &scratch->cand_vec);
    const float cpre = store_.QueryPrecompute(cq);
    bool keep = true;
    for (std::size_t s = 0; keep && s < selected.size(); s += kSelectChunk) {
      const std::size_t count = std::min(kSelectChunk, selected.size() - s);
      store_.ScoreIds(cq, cpre, selected.data() + s, count, chunk_scores);
      for (std::size_t i = 0; i < count; ++i) {
        if (chunk_scores[i] > cand.score) {
          keep = false;
          break;
        }
      }
    }
    (keep ? selected : pruned).push_back(cand.id);
  }
  for (const std::uint32_t id : pruned) {
    if (selected.size() >= m) break;
    selected.push_back(id);
  }
}

void HnswIndex::AddLinks(std::uint32_t node, int layer,
                         const std::uint32_t* ids, std::size_t count,
                         SearchScratch* scratch) {
  auto& nbrs = links_[node][layer];
  const std::size_t cap = MaxDegree(layer);
  const std::size_t old = nbrs.size();
  if (old + count <= cap) {
    nbrs.insert(nbrs.end(), ids, ids + count);
    return;
  }
  // Re-select from the old links plus `ids` without appending them
  // first: the list never grows past its capacity, so it is rewritten in
  // place instead of reallocated.
  const float* v = NodeVec(node, &scratch->shrink_vec);
  const float pre = store_.QueryPrecompute(v);
  std::vector<float>& scores = scratch->scores;
  scores.resize(old + count);
  store_.ScoreIds(v, pre, nbrs.data(), old, scores.data());
  store_.ScoreIds(v, pre, ids, count, scores.data() + old);
  std::vector<ScoredId>& scored = scratch->scored_links;
  scored.clear();
  for (std::size_t i = 0; i < old; ++i) scored.push_back({nbrs[i], scores[i]});
  for (std::size_t i = 0; i < count; ++i) {
    scored.push_back({ids[i], scores[old + i]});
  }
  std::sort(scored.begin(), scored.end(), ScoreGreater{});
  SelectNeighbors(scored, cap, scratch, &nbrs);
}

void HnswIndex::Insert(std::uint32_t id, int level) {
  if (max_level_ < 0) {  // first node
    entry_ = id;
    max_level_ = level;
    return;
  }

  SearchScratch& scratch = ThreadScratch();
  const float* q = NodeVec(id, &scratch.node_vec);
  const float pre = store_.QueryPrecompute(q);
  std::uint32_t ep = entry_;
  for (int layer = max_level_; layer > level; --layer) {
    ep = GreedyStep(q, pre, ep, layer, &scratch);
  }

  for (int layer = std::min(level, max_level_); layer >= 0; --layer) {
    SearchLayer(q, pre, ep, options_.ef_construction, layer, &scratch);
    std::vector<ScoredId>& found = scratch.results;
    std::sort(found.begin(), found.end(), ScoreGreater{});
    auto& own = links_[id][layer];
    SelectNeighbors(found, MaxDegree(layer), &scratch, &own);
    for (const std::uint32_t nb : own) AddLinks(nb, layer, &id, 1, &scratch);
    if (!found.empty()) ep = found.front().id;
  }

  if (level > max_level_) {
    max_level_ = level;
    entry_ = id;
  }
}

std::vector<ScoredId> HnswIndex::TopK(const float* query,
                                      std::size_t k) const {
  if (n_ == 0 || k == 0) return {};
  SearchScratch& scratch = ThreadScratch();
  const float pre = store_.QueryPrecompute(query);
  std::uint32_t ep = entry_;
  for (int layer = max_level_; layer > 0; --layer) {
    ep = GreedyStep(query, pre, ep, layer, &scratch);
  }
  // Quantized codecs over-fetch so the exact re-rank below can repair
  // ordering errors inside the top-k band.
  const std::size_t fetch =
      store_.quantized()
          ? std::max(k, k * std::max<std::size_t>(
                            options_.quant.rescore_factor, 1))
          : k;
  SearchLayer(query, pre, ep, std::max(options_.ef_search, fetch), 0,
              &scratch);
  std::vector<ScoredId>& found = scratch.results;
  std::sort(found.begin(), found.end(), ScoreGreater{});
  if (found.size() > fetch) found.resize(fetch);
  if (!store_.quantized()) {
    return {found.begin(), found.begin() + std::min(k, found.size())};
  }
  scratch.decoded.resize(dim_);
  TopKCollector rescored(k);
  for (const ScoredId& cand : found) {
    rescored.Offer(cand.id,
                   store_.RescoreOne(query, cand.id, scratch.decoded.data()));
  }
  return rescored.TakeSorted();
}

void HnswIndex::RangeSearch(const float* query, float threshold,
                            std::vector<ScoredId>* out) const {
  if (n_ == 0) return;
  SearchScratch& scratch = ThreadScratch();
  const float pre = store_.QueryPrecompute(query);
  std::uint32_t ep = entry_;
  for (int layer = max_level_; layer > 0; --layer) {
    ep = GreedyStep(query, pre, ep, layer, &scratch);
  }
  // Seed the threshold region with a layer-0 beam, then flood-fill the
  // layer-0 graph over nodes scoring within range_slack of the threshold.
  // Only exact hits (>= threshold) are reported: no false positives —
  // quantized codecs widen the exploration band by the codec's error
  // bound and re-verify every hit with exact fp32 arithmetic.
  const float quant_slack = store_.ScoreSlack();
  const float explore = threshold - options_.range_slack - quant_slack;
  const float gate = threshold - quant_slack;
  // A small beam first: the flood fill only needs seeds inside the band.
  // One full ef_search beam from the same start (the same search as
  // seeding at full width) replaces it when none of its nodes is in the
  // band, since the region may lie past its reach, or when half or more
  // are: the band then reaches past the beam, and where scores are flat
  // (low thresholds) it falls into pieces the flood fill cannot connect
  // but the wide beam's seeds reach directly.
  const std::vector<ScoredId>& seeds = scratch.results;
  const std::size_t seed_beam = std::min(options_.ef_search, kRangeSeedBeam);
  SearchLayer(query, pre, ep, seed_beam, 0, &scratch);
  const std::size_t in_band = static_cast<std::size_t>(
      std::count_if(seeds.begin(), seeds.end(),
                    [&](const ScoredId& s) { return s.score >= explore; }));
  if ((in_band == 0 || 2 * in_band >= seed_beam) &&
      options_.ef_search > seed_beam) {
    SearchLayer(query, pre, ep, options_.ef_search, 0, &scratch);
  }

  scratch.decoded.resize(dim_);
  auto emit = [&](std::uint32_t id, float approx_score) {
    if (approx_score < gate) return;
    if (!store_.quantized()) {
      out->push_back({id, approx_score});
      return;
    }
    const float exact = store_.RescoreOne(query, id, scratch.decoded.data());
    if (exact >= threshold) out->push_back({id, exact});
  };
  scratch.NewVisit(n_);
  std::vector<std::uint32_t>& frontier = scratch.frontier;
  std::vector<std::uint32_t>& fresh = scratch.fresh;
  std::vector<float>& scores = scratch.scores;
  frontier.clear();
  for (const ScoredId& s : seeds) {
    scratch.Visit(s.id);
    emit(s.id, s.score);
    if (s.score >= explore) frontier.push_back(s.id);
  }
  while (!frontier.empty()) {
    const std::uint32_t cur = frontier.back();
    frontier.pop_back();
    fresh.clear();
    for (const std::uint32_t nb : links_[cur][0]) {
      if (scratch.Visit(nb)) fresh.push_back(nb);
    }
    if (fresh.empty()) continue;
    scores.resize(fresh.size());
    store_.ScoreIds(query, pre, fresh.data(), fresh.size(), scores.data());
    for (std::size_t i = 0; i < fresh.size(); ++i) {
      emit(fresh[i], scores[i]);
      if (scores[i] >= explore) frontier.push_back(fresh[i]);
    }
  }
}

Status HnswIndex::Add(const float* data, std::size_t n, std::size_t dim) {
  if (dim_ == 0) return Build(data, n, dim);
  if (dim != dim_) return Status::InvalidArgument("hnsw Add: dim mismatch");
  if (n == 0) return Status::OK();

  const std::uint32_t first = static_cast<std::uint32_t>(n_);
  store_.Append(data, n);
  n_ += n;
  levels_.resize(n_, 0);
  links_.resize(n_);
  for (std::size_t i = first; i < n_; ++i) {
    const int level = DrawLevel();
    levels_[i] = level;
    links_[i].assign(static_cast<std::size_t>(level) + 1, {});
  }
  return InsertFrom(first);
}

namespace {
constexpr std::uint32_t kHnswMagic = 0x43484E57;  // "CHNW"
// v2: codec-encoded base vectors (kind byte + blobs) instead of raw fp32.
constexpr std::uint32_t kHnswVersion = 2;
}  // namespace

Status HnswIndex::Save(std::ostream& out) const {
  CRE_RETURN_NOT_OK(vecio::WriteTag(out, kHnswMagic, kHnswVersion));
  CRE_RETURN_NOT_OK(vecio::WritePod<std::uint64_t>(out, options_.M));
  CRE_RETURN_NOT_OK(
      vecio::WritePod<std::uint64_t>(out, options_.ef_construction));
  CRE_RETURN_NOT_OK(vecio::WritePod<std::uint64_t>(out, options_.ef_search));
  CRE_RETURN_NOT_OK(vecio::WritePod<std::uint64_t>(out, options_.seed));
  CRE_RETURN_NOT_OK(vecio::WritePod<float>(out, options_.range_slack));
  CRE_RETURN_NOT_OK(
      vecio::WritePod<std::uint64_t>(out, options_.build_bootstrap));
  CRE_RETURN_NOT_OK(vecio::WritePod<std::uint64_t>(out, n_));
  CRE_RETURN_NOT_OK(vecio::WritePod<std::uint64_t>(out, dim_));
  CRE_RETURN_NOT_OK(vecio::WritePod<std::uint32_t>(out, entry_));
  CRE_RETURN_NOT_OK(vecio::WritePod<std::int32_t>(out, max_level_));
  CRE_RETURN_NOT_OK(vecio::WritePod<std::uint64_t>(out, level_draws_));
  CRE_RETURN_NOT_OK(store_.Save(out));
  CRE_RETURN_NOT_OK(vecio::WriteVec(out, levels_));
  for (const auto& per_node : links_) {
    CRE_RETURN_NOT_OK(vecio::WritePod<std::uint64_t>(out, per_node.size()));
    for (const auto& layer : per_node) {
      CRE_RETURN_NOT_OK(vecio::WriteVec(out, layer));
    }
  }
  return Status::OK();
}

Status HnswIndex::Load(std::istream& in) {
  CRE_RETURN_NOT_OK(vecio::ExpectTag(in, kHnswMagic, kHnswVersion, "hnsw"));
  std::uint64_t m = 0, efc = 0, efs = 0, seed = 0, bootstrap = 0;
  std::uint64_t n = 0, dim = 0, draws = 0;
  float slack = 0;
  std::uint32_t entry = 0;
  std::int32_t max_level = -1;
  CRE_RETURN_NOT_OK(vecio::ReadPod(in, &m));
  CRE_RETURN_NOT_OK(vecio::ReadPod(in, &efc));
  CRE_RETURN_NOT_OK(vecio::ReadPod(in, &efs));
  CRE_RETURN_NOT_OK(vecio::ReadPod(in, &seed));
  CRE_RETURN_NOT_OK(vecio::ReadPod(in, &slack));
  CRE_RETURN_NOT_OK(vecio::ReadPod(in, &bootstrap));
  CRE_RETURN_NOT_OK(vecio::ReadPod(in, &n));
  CRE_RETURN_NOT_OK(vecio::ReadPod(in, &dim));
  CRE_RETURN_NOT_OK(vecio::ReadPod(in, &entry));
  CRE_RETURN_NOT_OK(vecio::ReadPod(in, &max_level));
  CRE_RETURN_NOT_OK(vecio::ReadPod(in, &draws));
  // Build and Add each consume exactly one level draw per node, so an
  // honest image always has draws == n; anything else is corruption (and
  // an unbounded value would spin the fast-forward loop below forever).
  // The n/dim caps additionally keep the n*dim consistency check below
  // far from uint64 wraparound.
  if (m < 2 || m > 1024 || dim == 0 || dim > vecio::kMaxDim ||
      n > vecio::kMaxArrayElems || draws != n) {
    return Status::InvalidArgument("hnsw load: implausible header");
  }
  CRE_RETURN_NOT_OK(store_.Load(in, static_cast<std::size_t>(n),
                                static_cast<std::size_t>(dim)));
  CRE_RETURN_NOT_OK(vecio::ReadVec(in, &levels_));
  if (levels_.size() != n || (n > 0 && entry >= n)) {
    return Status::InvalidArgument("hnsw load: inconsistent sizes");
  }
  for (const int level : levels_) {
    if (level < 0 || level > 63) {
      return Status::InvalidArgument("hnsw load: level out of range");
    }
  }
  links_.assign(static_cast<std::size_t>(n), {});
  for (std::size_t node = 0; node < links_.size(); ++node) {
    auto& per_node = links_[node];
    std::uint64_t layer_count = 0;
    CRE_RETURN_NOT_OK(vecio::ReadPod(in, &layer_count));
    // Every search indexes links_[x][layer] for layer <= levels_[x], so
    // the structural invariants of a real build must hold before the
    // graph is trusted: one adjacency list per level (inclusive), and
    // every link at layer L pointing at a node that reaches layer L.
    if (layer_count > 64 ||
        layer_count != static_cast<std::uint64_t>(levels_[node]) + 1) {
      return Status::InvalidArgument("hnsw load: implausible layer count");
    }
    per_node.resize(static_cast<std::size_t>(layer_count));
    for (std::size_t layer = 0; layer < per_node.size(); ++layer) {
      CRE_RETURN_NOT_OK(vecio::ReadVec(in, &per_node[layer]));
      for (const std::uint32_t id : per_node[layer]) {
        if (id >= n ||
            static_cast<std::size_t>(levels_[id]) < layer) {
          return Status::InvalidArgument("hnsw load: link out of range");
        }
      }
    }
  }
  if (n > 0) {
    int top = 0;
    for (const int level : levels_) top = std::max(top, level);
    // The greedy descent starts at (entry, max_level): both must match
    // the actual level structure or the first search walks off a layer.
    if (max_level < 0 || max_level != top || levels_[entry] != max_level) {
      return Status::InvalidArgument("hnsw load: inconsistent entry point");
    }
  } else if (max_level != -1) {
    return Status::InvalidArgument("hnsw load: inconsistent entry point");
  }
  // Build-structural options are restored from the image (M bounds the
  // stored adjacency lists, seed/ef_construction/bootstrap keep future
  // Adds deterministic, and the codec shapes every stored score);
  // query-time knobs (ef_search, range_slack, rescore_factor) stay as
  // configured on this instance — a recall/latency setting change must
  // take effect on warm starts, not silently revert to save-time values.
  (void)efs;
  (void)slack;
  options_.M = static_cast<std::size_t>(m);
  options_.ef_construction = static_cast<std::size_t>(efc);
  options_.seed = seed;
  options_.build_bootstrap = static_cast<std::size_t>(bootstrap);
  options_.quant.codec = store_.kind();
  n_ = static_cast<std::size_t>(n);
  dim_ = static_cast<std::size_t>(dim);
  entry_ = entry;
  max_level_ = static_cast<int>(max_level);
  // Fast-forward the level stream to where the saved index left it, so a
  // post-load Add draws exactly what the saved instance would have drawn.
  level_rng_ = Rng(options_.seed);
  for (std::uint64_t i = 0; i < draws; ++i) level_rng_.NextDouble();
  level_draws_ = draws;
  return Status::OK();
}

std::uint64_t HnswIndex::GraphChecksum() const {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  h = HashCombine(h, entry_);
  h = HashCombine(h, static_cast<std::uint64_t>(max_level_ + 1));
  for (std::size_t i = 0; i < n_; ++i) {
    h = HashCombine(h, static_cast<std::uint64_t>(levels_[i]));
    for (const auto& layer : links_[i]) {
      h = HashCombine(h, layer.size());
      for (const std::uint32_t id : layer) h = HashCombine(h, id);
    }
  }
  return h;
}

std::size_t HnswIndex::MemoryBytes() const {
  std::size_t bytes = store_.MemoryBytes() + levels_.size() * sizeof(int);
  for (const auto& per_node : links_) {
    for (const auto& layer : per_node) {
      bytes += layer.size() * sizeof(std::uint32_t) +
               sizeof(std::vector<std::uint32_t>);
    }
  }
  return bytes;
}

}  // namespace cre
