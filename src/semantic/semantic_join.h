#ifndef CRE_SEMANTIC_SEMANTIC_JOIN_H_
#define CRE_SEMANTIC_SEMANTIC_JOIN_H_

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/cancel.h"
#include "core/resource_governor.h"
#include "core/task_runner.h"
#include "embed/model_registry.h"
#include "exec/operator.h"
#include "vecsim/brute_force.h"
#include "vecsim/hnsw_index.h"
#include "vecsim/ivf_index.h"
#include "vecsim/ivfpq_index.h"
#include "vecsim/vector_index.h"

namespace cre {

/// Physical strategies for similarity operators — the similarity analogue
/// of choosing between a nested-loop scan and an index join (Sec. V, E6).
/// Shared between the semantic join and the index-backed semantic select;
/// every non-brute strategy names a VectorIndex family the IndexManager
/// can build, cache, and reuse across queries. The ordinals are persisted
/// (index image headers, IndexKeyHash), so they stay explicit; 1 belonged
/// to a retired family and must not be reused.
enum class SemanticJoinStrategy {
  kBruteForce = 0,  ///< exact all-pairs scan (SIMD + parallel capable)
  kIvf = 2,         ///< IVF-flat probes + exact verify
  kHnsw = 3,        ///< hierarchical proximity graph + exact verify
  kIvfPq = 4,       ///< product-quantized IVF: ADC scans + reconstruction
                    ///< re-rank; ~an order of magnitude smaller resident
                    ///< footprint than ivf/hnsw at approximate recall
};

/// Every strategy, brute force first: the candidate set of the optimizer's
/// strategy rules and the only list of families in the engine.
inline constexpr SemanticJoinStrategy kSemanticJoinStrategies[] = {
    SemanticJoinStrategy::kBruteForce, SemanticJoinStrategy::kIvf,
    SemanticJoinStrategy::kHnsw, SemanticJoinStrategy::kIvfPq};

const char* SemanticJoinStrategyName(SemanticJoinStrategy s);

/// Constructs an unbuilt index of family `kind` (nullptr for kBruteForce):
/// the one place a strategy becomes an index class. `pool` fans IVF and
/// HNSW construction out and `cancel` is polled by the index's build and
/// scan loops. A non-null argument overrides the family options' own
/// build_pool/cancel; a null one keeps them (IVF has no pool option, so a
/// null `pool` builds it serially).
std::unique_ptr<VectorIndex> MakeVectorIndex(SemanticJoinStrategy kind,
                                             const IvfOptions& ivf,
                                             const HnswOptions& hnsw,
                                             const IvfPqOptions& ivfpq,
                                             TaskRunner* pool,
                                             const CancelFlag* cancel);

/// Amortization state of one managed index, as seen by the optimizer's
/// residency probe (defined here next to SemanticJoinStrategy because it
/// names the same physical families and is shared by the index and
/// optimizer layers):
///  - kResident: a fresh index is in the IndexManager — probe cost only;
///  - kBuilding: a background build is in flight — this query is served
///    by the brute-force fallback, but the build is a sunk cost the
///    stream already paid, so the optimizer costs the index family as if
///    (nearly) warm;
///  - kRefreshable: resident but stale only by catalog Appends — the
///    manager renews it incrementally (clone + insert the appended
///    rows) at the next lookup, a small fraction of a rebuild;
///  - kOnDisk: not in memory, but a persisted image with a matching
///    identity exists under the manager's persist_dir — choosing the
///    index family pays a deserialization load (bytes off disk, no
///    embedding, no distance computations), which is orders of magnitude
///    cheaper than a rebuild;
///  - kAbsent: cold — choosing an index family pays the (possibly
///    background-discounted) amortized build.
enum class IndexResidency {
  kAbsent = 0,
  kOnDisk,
  kRefreshable,
  kBuilding,
  kResident,
};

const char* IndexResidencyName(IndexResidency r);

struct SemanticJoinOptions {
  float threshold = 0.9f;
  SemanticJoinStrategy strategy = SemanticJoinStrategy::kBruteForce;
  /// Enables parallel probing and parallel local IVF/HNSW builds when set.
  TaskRunner* pool = nullptr;
  /// Cooperative cancellation, polled inside the per-batch probe loops
  /// (and threaded into local index builds) so cancelling a heavy
  /// semantic join takes effect within a few hundred probes instead of
  /// at the next batch boundary. The engine wires the query's flag here.
  const CancelFlag* cancel = nullptr;
  /// Local index build parameters. When set, `pool` and `cancel` above
  /// override the nested build_pool/cancel (see MakeVectorIndex).
  IvfOptions ivf;
  HnswOptions hnsw;
  IvfPqOptions ivfpq;
  /// Prebuilt index over the build (right) side's key embeddings, usually
  /// served by the engine's IndexManager. When set (and consistent with
  /// the collected build side), the operator probes it directly instead of
  /// embedding + building per execution — the cross-query amortization the
  /// index subsystem exists for. Ignored for kBruteForce.
  std::shared_ptr<const VectorIndex> shared_index;
  /// Top-k mode: when > 0, each left row joins with its `top_k` most
  /// similar right rows that also clear `threshold` (set threshold to a
  /// very low value for pure k-NN). 0 = plain threshold range join.
  std::size_t top_k = 0;
  /// The query's memory budget, charged for the embed matrices before
  /// they are allocated (null charges nothing).
  QueryBudgetPtr budget;
};

/// The paper's Semantic Join operator extension (Sec. IV): joins two
/// relations on the latent-space distance between the embeddings of their
/// join-key strings. Emits left columns + right columns (duplicates
/// suffixed "_r") + a float64 "similarity" score column.
class SemanticJoinOperator : public PhysicalOperator {
 public:
  SemanticJoinOperator(OperatorPtr left, OperatorPtr right,
                       std::string left_key, std::string right_key,
                       EmbeddingModelPtr model, SemanticJoinOptions options);

  const Schema& output_schema() const override { return schema_; }
  Status Open() override;
  Result<TablePtr> Next() override;
  std::string name() const override {
    return std::string("SemanticJoin[") +
           SemanticJoinStrategyName(options_.strategy) + "](" + left_key_ +
           " ~ " + right_key_ + " >= " + std::to_string(options_.threshold) +
           ")";
  }

 private:
  Status BuildRightSide();

  OperatorPtr left_;
  OperatorPtr right_;
  std::string left_key_;
  std::string right_key_;
  EmbeddingModelPtr model_;
  SemanticJoinOptions options_;

  Schema schema_;
  TablePtr build_;
  std::vector<float> right_matrix_;
  ScopedCharge right_charge_;
  /// Owned (locally built) or shared (IndexManager-served) index.
  std::shared_ptr<const VectorIndex> index_;
  bool opened_ = false;
};

/// Standalone similarity join over two string arrays: embeds both sides
/// with `model` and returns matching pairs, or the index build's error.
/// This is the primitive that Figure 4 measures under different
/// optimization rungs.
Result<std::vector<MatchPair>> SemanticStringJoin(
    const std::vector<std::string>& left,
    const std::vector<std::string>& right, const EmbeddingModel& model,
    const SemanticJoinOptions& options);

}  // namespace cre

#endif  // CRE_SEMANTIC_SEMANTIC_JOIN_H_
