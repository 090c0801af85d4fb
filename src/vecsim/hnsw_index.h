#ifndef CRE_VECSIM_HNSW_INDEX_H_
#define CRE_VECSIM_HNSW_INDEX_H_

#include <cstdint>
#include <vector>

#include "core/cancel.h"
#include "core/rng.h"
#include "core/task_runner.h"
#include "vecsim/codec.h"
#include "vecsim/kernels.h"
#include "vecsim/vector_index.h"

namespace cre {

/// HNSW graph index (Malkov & Yashunin): a layered proximity graph where
/// upper layers are exponentially sparser "express lanes" and layer 0
/// holds every vector. Queries greedily descend the hierarchy and run a
/// best-first beam search at layer 0. Unlike IVF this needs no global
/// training pass, degrades gracefully on unclustered data, and gives a
/// tunable recall/latency knob (`ef_search`) at query time — the index
/// family the IndexManager prefers for cross-query reuse, where build cost
/// is paid once and amortized over many probes.
struct HnswOptions {
  /// Max out-degree per node on layers > 0 (layer 0 allows 2*M).
  std::size_t M = 16;
  /// Beam width while inserting (quality of the construction).
  std::size_t ef_construction = 128;
  /// Query beam width (recall/latency knob): TopK's layer-0 beam, and the
  /// ceiling RangeSearch's seed beam widens to. RangeSearch first seeds
  /// with a beam of min(ef_search, 16) and widens once to ef_search when
  /// none, or half or more, of that beam's nodes score within range_slack
  /// of the threshold.
  std::size_t ef_search = 96;
  std::uint64_t seed = 13;
  /// RangeSearch flood-fills layer 0 from its seed beam over nodes
  /// scoring >= threshold - range_slack, reporting only those >=
  /// threshold: the slack lets the walk cross small similarity dips
  /// inside a threshold region without admitting false positives (every
  /// hit is exactly verified). A seed beam with some, but fewer than
  /// half, of its nodes in this band hands off to the flood fill at its
  /// small width.
  float range_slack = 0.05f;
  /// Worker pool for construction. Build and Add both run the
  /// *canonical batched* insertion schedule — bootstrap incrementally,
  /// then insert id-ordered batches whose candidate searches read a
  /// frozen graph snapshot and whose link updates apply in canonical
  /// order — so the resulting graph is a pure function of (prior graph,
  /// inserted data, options) and byte-identical for any pool size,
  /// including none. The pool only decides whether each batch's searches
  /// and per-node link updates run concurrently. It is never copied by
  /// Clone: the IndexManager chooses it per job, and a deferred refresh
  /// already runs as a task of the pool's group, so it inserts serially
  /// (waiting on its own group would wait on itself).
  TaskRunner* build_pool = nullptr;
  /// Nodes inserted one-at-a-time before batching starts (a tiny frozen
  /// graph would give batch members too little structure to search, and
  /// small builds are too cheap to be worth batching at all — below this
  /// size construction is exactly the sequential algorithm).
  std::size_t build_bootstrap = 512;
  /// Cooperative cancellation for construction. Build/Add poll this
  /// between bootstrap inserts and between batches — not just at the
  /// morsel/segment boundaries the drivers poll — so cancelling a query
  /// that is cold-building a large graph takes effect within one batch,
  /// not after the entire multi-second build. Not serialized.
  const CancelFlag* cancel = nullptr;
  /// Base-vector codec. With a quantized codec both construction and
  /// search score the compressed rows asymmetrically (the graph stays a
  /// pure function of (data, options) — codec included), and TopK
  /// over-fetches rescore_factor * k beam results for an exact fp32
  /// re-rank over the decoded vectors.
  QuantizationOptions quant;
};

class HnswIndex : public VectorIndex {
 public:
  explicit HnswIndex(HnswOptions options = {}) : options_(options) {}

  Status Build(const float* data, std::size_t n, std::size_t dim) override;
  /// True incremental insertion: appends `n` vectors to the built graph
  /// through the same batched schedule Build uses after its bootstrap
  /// (frozen-graph plans with exact peer scoring, then canonical link
  /// application), fanned out over build_pool when one is set. Each new
  /// node's level comes from the continuation of the build's seeded RNG
  /// stream. Deterministic: (graph state, appended data, options) fully
  /// determine the result for any pool size, so concurrent refreshers
  /// starting from the same snapshot produce identical graphs. The
  /// IndexManager's append-refresh path clones the resident graph and
  /// Adds into the clone (copy-on-write) — far cheaper than a rebuild
  /// because the existing nodes' beam searches are not repeated.
  Status Add(const float* data, std::size_t n, std::size_t dim) override;
  /// The clone inserts serially until SetBuildPool gives it a pool.
  std::unique_ptr<VectorIndex> Clone() const override {
    auto copy = std::make_unique<HnswIndex>(*this);
    copy->options_.build_pool = nullptr;
    return copy;
  }
  void SetBuildPool(TaskRunner* pool) override { options_.build_pool = pool; }
  Status Save(std::ostream& out) const override;
  Status Load(std::istream& in) override;
  void RangeSearch(const float* query, float threshold,
                   std::vector<ScoredId>* out) const override;
  std::vector<ScoredId> TopK(const float* query, std::size_t k) const override;

  std::size_t size() const override { return n_; }
  std::size_t dim() const override { return dim_; }
  std::string name() const override { return "hnsw"; }
  std::size_t MemoryBytes() const override;

  int max_level() const { return max_level_; }
  VectorCodecKind codec() const { return store_.kind(); }

  /// Order-sensitive digest of the whole graph (levels, adjacency, entry
  /// point): equal checksums mean byte-identical graphs. Used by the
  /// parallel-vs-serial build identity tests.
  std::uint64_t GraphChecksum() const;

 private:
  /// Per-node output of a batch's frozen-graph candidate search
  /// (phase A): the node's proposed out-links per layer.
  struct InsertPlan {
    std::vector<std::vector<std::uint32_t>> links;
  };
  /// Per-thread search state: epoch-stamped visited marks and the beam's
  /// heaps and batch buffers, reused across calls (hnsw_index.cc).
  struct SearchScratch;
  /// The calling thread's scratch, shared by every index it searches.
  static SearchScratch& ThreadScratch();

  /// Inserts nodes [first, n_), whose levels and empty link lists are
  /// already in place, on the canonical schedule: ids below
  /// build_bootstrap one at a time, then id-ordered batches of
  /// PlanInsert (phase A, fanned out over build_pool) and ApplyBatch
  /// (phase B). Build runs it from 0, Add from the old size.
  Status InsertFrom(std::uint32_t first);

  /// Computes `id`'s insertion plan against the current (frozen) graph.
  /// Earlier batch members ([batch_first, id), invisible in the frozen
  /// snapshot) join the candidate set by exact scoring, so the plan sees
  /// everything a sequential insert would have seen. Read-only; safe to
  /// run concurrently for all members of a batch.
  InsertPlan PlanInsert(std::uint32_t id, int level,
                        std::uint32_t batch_first,
                        SearchScratch* scratch) const;

  /// Applies a batch's plans: assigns own links, then groups the reverse
  /// edges by target node and adds them to each target once, in
  /// canonical (target, layer, id) order — deterministic regardless of
  /// how the per-target work is scheduled, because distinct targets touch
  /// disjoint adjacency lists.
  void ApplyBatch(std::uint32_t first, std::size_t count,
                  std::vector<InsertPlan>* plans);
  std::size_t MaxDegree(int layer) const {
    return layer == 0 ? 2 * options_.M : options_.M;
  }
  /// Best-first beam search at `layer` from `entry`, over a fresh visited
  /// set; leaves up to `ef` results, unsorted, in scratch->results. All
  /// of a node's unvisited links are scored in one batch-kernel call (the
  /// gather shape with software prefetch).
  void SearchLayer(const float* query, float query_pre, std::uint32_t entry,
                   std::size_t ef, int layer, SearchScratch* scratch) const;
  /// One greedy descent step chain: from `entry`, repeatedly hop to the
  /// best-scoring neighbor at `layer` until no neighbor improves; each
  /// hop scores the node's whole adjacency list in one batch call.
  std::uint32_t GreedyStep(const float* query, float query_pre,
                           std::uint32_t entry, int layer,
                           SearchScratch* scratch) const;
  void Insert(std::uint32_t id, int level);
  /// Malkov & Yashunin's neighbor-selection heuristic (Alg. 4): from
  /// `candidates` (scored against the base point, sorted descending),
  /// keeps a candidate only if it is closer to the base than to every
  /// neighbor kept so far, then backfills remaining slots from the pruned
  /// list, writing the result to *out. The pruning preserves "bridge"
  /// edges between clusters that plain top-M would discard — without it
  /// the graph fragments into per-cluster islands and recall collapses on
  /// clustered data. A candidate is scored against the kept neighbors in
  /// small gather-batch chunks, stopping at the first chunk that prunes
  /// it: most candidates fall to their first few checks.
  void SelectNeighbors(const std::vector<ScoredId>& candidates, std::size_t m,
                       SearchScratch* scratch,
                       std::vector<std::uint32_t>* out) const;
  /// Adds the reverse links `ids` to `node`'s list at `layer`; when the
  /// list would exceed its capacity, re-selects it from the old links
  /// plus `ids` instead.
  void AddLinks(std::uint32_t node, int layer, const std::uint32_t* ids,
                std::size_t count, SearchScratch* scratch);

  /// fp32 view of node `id`: a direct pointer for the fp32 codec, a
  /// decode into *scratch otherwise. Construction uses this for the
  /// query side of node-vs-node scoring.
  const float* NodeVec(std::uint32_t id, std::vector<float>* scratch) const;

  /// Next geometric level draw from the seeded stream. Build consumes one
  /// draw per node and Add continues the same stream, so build(A) +
  /// add(B) assigns B's nodes the levels build(A+B) would have — the
  /// level distribution (and thus the deterministic-graph contract) is
  /// independent of how the data arrived. level_draws_ counts consumed
  /// draws so persistence can fast-forward a fresh stream on Load.
  int DrawLevel();

  HnswOptions options_;
  std::size_t n_ = 0;
  std::size_t dim_ = 0;
  VectorStore store_;
  /// links_[node][layer] = adjacency list (layer <= levels_[node]).
  std::vector<std::vector<std::vector<std::uint32_t>>> links_;
  std::vector<int> levels_;
  std::uint32_t entry_ = 0;
  int max_level_ = -1;
  Rng level_rng_{0};
  std::uint64_t level_draws_ = 0;
};

}  // namespace cre

#endif  // CRE_VECSIM_HNSW_INDEX_H_
