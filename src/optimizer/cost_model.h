#ifndef CRE_OPTIMIZER_COST_MODEL_H_
#define CRE_OPTIMIZER_COST_MODEL_H_

#include "embed/model_registry.h"
#include "plan/plan_node.h"

namespace cre {

/// Abstract cost units (~nanoseconds of single-threaded work). Relational
/// and model-based operators are costed in the same currency, which is
/// what lets one optimizer choose across them (paper Sec. V).
struct CostParams {
  double row_scan = 2.0;
  double expr_eval = 6.0;
  double hash_build = 30.0;
  double hash_probe = 15.0;
  double materialize = 10.0;
  /// Per-row embedding lookup (overridden by the model's own annotation
  /// when the model is registered).
  double embed = 300.0;
  /// Per (pair, dimension) similarity cost.
  double dot_per_dim = 0.35;
  double vector_dim = 100.0;
  /// Simulated per-image inference (kept consistent with
  /// ObjectDetector::Options::cost_per_image_us = 30us).
  double detect_per_image = 30000.0;
  double avg_objects_per_image = 3.0;
  // Index strategy parameters (mirror IvfOptions defaults).
  double ivf_centroids = 64.0;
  double ivf_nprobe = 8.0;
  double ivf_kmeans_iters = 10.0;
  // IVF-PQ parameters (mirror IvfPqOptions defaults; the coarse stage
  // reuses the ivf_* knobs' structure but with its own centroid count).
  double ivfpq_centroids = 32.0;
  double ivfpq_nprobe = 8.0;
  double ivfpq_m = 8.0;
  /// PQ training sweeps 256 codewords per subspace per Lloyd iteration;
  /// training + encoding dominate the build alongside the coarse k-means.
  double ivfpq_kmeans_iters = 8.0;
  /// ADC scan cost per (row, subspace) relative to a per-dimension dot:
  /// one table load + add per subspace instead of dim/m multiply-adds —
  /// the scan runs at a fraction of the flat-scan cost per row.
  double ivfpq_adc_per_sub = 1.0;
  // HNSW parameters (mirror HnswOptions defaults).
  double hnsw_m = 16.0;
  double hnsw_ef_construction = 128.0;
  double hnsw_ef_search = 96.0;
  /// Each beam-search hop scores the expanded node's neighbors, so a probe
  /// touches roughly ef_search * hnsw_expansion_factor candidates. One
  /// form prices both probe shapes, at 0.35 ns/dim on a 4-vCPU Xeon with
  /// avx512 dispatch:
  ///  - top-10 (a full ef_search beam), bench/fig_parallel_tails' "hnsw
  ///    probe" line (20k vectors of a 64-dim hash model): 79-113
  ///    us/probe, implying 34-50;
  ///  - range search costs a 16-wide seed beam plus the flood fill, and a
  ///    full ef_search beam as well when none, or half or more, of the
  ///    seed beam's nodes score near the threshold. The same line's range
  ///    probes at 0.8 (a dense band; ~70% widen) take 103-129 us,
  ///    implying 46-58;
  ///    perfbench semantic_serving's (10k 100-dim words at 0.75; ~15%
  ///    widen) take 32 us, implying ~7.
  /// 28 sits between the shapes: no single value prices them all.
  double hnsw_expansion_factor = 28.0;
  /// Construction does strictly more per scored candidate than a probe
  /// (neighbor selection, reverse-link shrinking, multi-layer beams).
  /// Fitted from the same bench: 145us/insert vs
  /// ef_construction * expansion * dot = 80us -> ~1.8x.
  double hnsw_build_cost_multiplier = 1.8;
  /// Expected number of future queries that will reuse a managed index
  /// before its table changes. Cold builds over reusable (bare catalog
  /// scan) bases are charged build_cost / horizon: raising it makes the
  /// engine invest in indexes eagerly for repeated-traffic workloads,
  /// which later queries then hit resident at zero build cost. The
  /// default of 1 charges the full cold build (no speculative
  /// investment), so plans only diverge from the pre-IndexManager
  /// choices once an index is actually resident. Tuned per workload via
  /// OptimizerOptions::index_reuse_horizon.
  double index_reuse_horizon = 1.0;
  /// Per-row routing cost of the radix-partitioned aggregation's phase 1
  /// (hash the serialized group key, pick a partition).
  double radix_route = 2.0;
  /// Per-base-row cost of adopting a persisted on-disk index image
  /// (IndexResidency::kOnDisk): deserialization + validation hashing —
  /// pure memory/IO work, no embedding and no distance computations, so
  /// it sits orders of magnitude under the per-row build cost (HNSW
  /// builds run tens of microseconds per row; a load streams bytes).
  double index_load_per_row = 25.0;
  /// Per-base-row cost of incrementally renewing a stale-by-append
  /// index (IndexResidency::kRefreshable): clone + embed/insert only
  /// the appended slice. At the ~10% appends incremental maintenance
  /// targets, that is ~a tenth of the per-row build cost amortized over
  /// the base — small like a load, far under a rebuild; bench
  /// fig_index_persistence measures the refresh at ~8x under rebuild.
  double index_refresh_per_row = 120.0;
  /// Multiplier on the amortized cold-build charge when the IndexManager
  /// runs builds asynchronously (Engine sets < 1 with async builds on).
  /// A background build never adds latency to the requesting query — it
  /// runs at QueryPriority::kBackground while the query is served by the
  /// brute-force path — so only its steady-state CPU draw on the shared
  /// pool is charged, making the optimizer invest in indexes earlier for
  /// repeated-traffic workloads.
  double background_build_discount = 1.0;
  /// Engine worker-thread count visible to the planner. Costs of operators
  /// the morsel-driven executor can spread across cores (scans, filters,
  /// projections, semantic selects, join probes, sorts, aggregate
  /// accumulation, detection, semantic-join probing) are discounted by an
  /// Amdahl factor.
  double parallelism = 1.0;
  /// Fraction of a parallelizable operator's work that actually scales
  /// with threads — the rest is per-query coordination (morsel
  /// scheduling, shared-state builds, result concatenation and merges).
  /// Calibrated against bench/fig_parallel_tails: its per-stage timings
  /// put the parallelizable share of a 120k-row sort at ~0.89 (local
  /// sort 9.2ms + partitioned merge 7.4ms of an 18.6ms total; the
  /// residue is splitter sampling, boundary search, and scheduling), and
  /// the bench prints a direct Amdahl-inversion fit of this constant
  /// from its 1/2/4/8-thread speedups on multi-core runners. 0.9 is the
  /// rounded fit; re-fit with the bench when operator internals change.
  double parallel_fraction = 0.9;
};

/// Computes cumulative plan costs bottom-up into PlanNode::est_cost.
/// Requires est_rows to be annotated first (CardinalityEstimator).
class CostModel {
 public:
  explicit CostModel(const ModelRegistry* models, CostParams params = {})
      : models_(models), params_(params) {}

  /// Annotates est_cost over the whole tree; returns the root cost.
  double Annotate(PlanNode* node) const;

  /// Cost of constructing an index of family `strategy` over `base_rows`
  /// vectors (0 for brute force — there is nothing to build). Excludes the
  /// cost of embedding the base rows; pair with EmbedCost when the matrix
  /// is not already available.
  double SemanticIndexBuildCost(SemanticJoinStrategy strategy,
                                double base_rows) const;

  /// Cost of probing `probe_rows` queries against `base_rows` base vectors
  /// under `strategy` (brute force = exact all-pairs scan).
  double SemanticIndexProbeCost(SemanticJoinStrategy strategy,
                                double probe_rows, double base_rows) const;

  /// Build + probe under one strategy — the cold single-query cost the
  /// index-selection rule and its ablation bench compare (E6).
  double SemanticJoinStrategyCost(SemanticJoinStrategy strategy,
                                  double left_rows, double right_rows) const;

  /// Strategy cost distinguishing the IndexManager amortization states
  /// (Sec. V): `resident` charges probe only; `reusable` (a managed,
  /// bare-scan base whose index future queries can share) charges
  /// build / index_reuse_horizon; otherwise the full cold build.
  double AmortizedStrategyCost(SemanticJoinStrategy strategy,
                               double probe_rows, double base_rows,
                               bool resident, bool reusable) const;
  /// Multi-state form: kResident and kBuilding both charge probe only
  /// (an in-flight background build is sunk cost — see IndexResidency);
  /// kOnDisk charges probe + a deserialization load (index_load_per_row,
  /// far under a rebuild); kRefreshable charges probe + the incremental
  /// renewal (index_refresh_per_row); kAbsent charges the amortized
  /// build, discounted by background_build_discount when builds are
  /// asynchronous.
  double AmortizedStrategyCost(SemanticJoinStrategy strategy,
                               double probe_rows, double base_rows,
                               IndexResidency residency,
                               bool reusable) const;

  /// Full self-cost of a single-query semantic select over `base_rows`
  /// under `strategy`: brute = embed-and-score every row; index families
  /// = one query embedding + an (amortized / resident) managed index
  /// probe. Mirrors the kSemanticSelect case of plan annotation so the
  /// select-strategy rule and EXPLAIN agree.
  double SemanticSelectStrategyCost(double base_rows,
                                    const std::string& model_name,
                                    SemanticJoinStrategy strategy,
                                    bool resident) const;
  /// Three-state form (see AmortizedStrategyCost).
  double SemanticSelectStrategyCost(double base_rows,
                                    const std::string& model_name,
                                    SemanticJoinStrategy strategy,
                                    IndexResidency residency) const;

  /// Per-row embedding cost of `model_name` (the model's own annotation
  /// when registered, params().embed otherwise).
  double EmbedCost(const std::string& model_name) const;

  /// False when an index of family `strategy` would reject the vectors of
  /// `model_name` at Build: IVF-PQ needs the model's dim divisible by
  /// ivfpq_m (the engine's optimizer sets it from its index options). The
  /// strategy rules never pick such a family. Unregistered models are
  /// assumed buildable.
  bool StrategyAcceptsModel(SemanticJoinStrategy strategy,
                            const std::string& model_name) const;

  /// Grouped-aggregation cost: the cheaper of the two physical forms the
  /// parallel driver can run. The crossover (radix wins once the serial
  /// whole-map merge tail outweighs the per-row routing overhead) is what
  /// OptimizerOptions::radix_agg_min_groups approximates as a threshold.
  double AggregateCost(double in_rows, double out_groups) const;
  /// Per-worker hash states whose partials fold into one map serially at
  /// the barrier — cheap at low group counts, a tail at high ones.
  double AggregateMergeFormCost(double in_rows, double out_groups) const;
  /// Two-phase radix partitioning: per-row routing in phase 1 buys
  /// per-partition parallel merges in phase 2.
  double AggregateRadixFormCost(double in_rows, double out_groups) const;

  const CostParams& params() const { return params_; }

 private:
  double SelfCost(const PlanNode& node) const;
  /// Amdahl discount for work the parallel driver spreads over cores.
  double ParallelCost(double cost) const;
  /// Per-query share of a cold managed build for a semantic select:
  /// embedding `base_rows` plus constructing the index, over the reuse
  /// horizon.
  double AmortizedSelectBuildCost(SemanticJoinStrategy strategy,
                                  double base_rows,
                                  const std::string& model_name) const;

  const ModelRegistry* models_;
  CostParams params_;
};

}  // namespace cre

#endif  // CRE_OPTIMIZER_COST_MODEL_H_
