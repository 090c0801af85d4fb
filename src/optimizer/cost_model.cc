#include "optimizer/cost_model.h"

#include <algorithm>
#include <cmath>

#include "vecsim/ivf_index.h"
#include "vecsim/ivfpq_index.h"

namespace cre {

double CostModel::ParallelCost(double cost) const {
  const double p = std::max(1.0, params_.parallelism);
  const double f = std::clamp(params_.parallel_fraction, 0.0, 1.0);
  return cost * ((1.0 - f) + f / p);
}

double CostModel::EmbedCost(const std::string& model_name) const {
  if (models_ != nullptr && models_->Contains(model_name)) {
    return models_->Get(model_name).ValueOrDie()->cost_ns_per_embedding();
  }
  return params_.embed;
}

bool CostModel::StrategyAcceptsModel(SemanticJoinStrategy strategy,
                                     const std::string& model_name) const {
  if (strategy != SemanticJoinStrategy::kIvfPq || models_ == nullptr ||
      !models_->Contains(model_name)) {
    return true;
  }
  return IvfPqIndex::AcceptsDim(
      models_->Get(model_name).ValueOrDie()->dim(),
      static_cast<std::size_t>(params_.ivfpq_m));
}

double CostModel::SemanticIndexBuildCost(SemanticJoinStrategy strategy,
                                         double base_rows) const {
  const double dot = params_.vector_dim * params_.dot_per_dim;
  switch (strategy) {
    case SemanticJoinStrategy::kBruteForce:
      return 0;
    case SemanticJoinStrategy::kIvf: {
      // k-means over at most kTrainPointsPerCentroid rows per centroid,
      // then one assignment pass over the rest of a larger base.
      const double trained =
          std::min(base_rows, params_.ivf_centroids *
                                  static_cast<double>(
                                      IvfIndex::kTrainPointsPerCentroid));
      const double assigned = base_rows > trained ? base_rows : 0.0;
      return (trained * params_.ivf_kmeans_iters + assigned) *
             params_.ivf_centroids * dot;
    }
    case SemanticJoinStrategy::kHnsw:
      // Each insert runs an ef_construction beam search per layer;
      // expected layer count per node is a small constant. The
      // multiplier covers neighbor selection and reverse-link shrinking
      // (fitted; see CostParams::hnsw_build_cost_multiplier).
      return base_rows * params_.hnsw_ef_construction *
             params_.hnsw_expansion_factor *
             params_.hnsw_build_cost_multiplier * dot;
    case SemanticJoinStrategy::kIvfPq:
      // Coarse k-means (as IVF, with its own centroid count) + PQ
      // training: every residual is scanned against 256 codewords per
      // subspace per Lloyd iteration (subspace dots are dim/m wide, so
      // one full sweep costs ~256 * dot per row), + encoding (one more
      // sweep).
      return base_rows * dot *
             (params_.ivfpq_centroids * params_.ivf_kmeans_iters +
              256.0 * (params_.ivfpq_kmeans_iters + 1.0));
  }
  return 0;
}

double CostModel::SemanticIndexProbeCost(SemanticJoinStrategy strategy,
                                         double probe_rows,
                                         double base_rows) const {
  const double dot = params_.vector_dim * params_.dot_per_dim;
  switch (strategy) {
    case SemanticJoinStrategy::kBruteForce:
      return probe_rows * base_rows * dot;
    case SemanticJoinStrategy::kIvf: {
      const double scanned_fraction =
          std::min(1.0, params_.ivf_nprobe / params_.ivf_centroids);
      return probe_rows * (params_.ivf_centroids * dot +
                           base_rows * scanned_fraction * dot);
    }
    case SemanticJoinStrategy::kHnsw: {
      const double descent =
          params_.hnsw_m * std::log2(std::max(2.0, base_rows));
      const double beam = std::min(
          base_rows,
          params_.hnsw_ef_search * params_.hnsw_expansion_factor);
      return probe_rows * (descent + beam) * dot;
    }
    case SemanticJoinStrategy::kIvfPq: {
      // Centroid scoring + LUT fill (256 subspace dots = ~256/m full
      // dots) + ADC over the probed lists at one table-add per subspace
      // per row (a fraction of a full dot), + the reconstruction
      // re-rank of a constant-size band (folded into the ADC term).
      const double scanned_fraction =
          std::min(1.0, params_.ivfpq_nprobe / params_.ivfpq_centroids);
      const double lut = 256.0 / std::max(1.0, params_.ivfpq_m) * dot;
      const double adc_row = params_.ivfpq_m * params_.ivfpq_adc_per_sub *
                             params_.dot_per_dim;
      return probe_rows * (params_.ivfpq_centroids * dot + lut +
                           base_rows * scanned_fraction * adc_row);
    }
  }
  return 0;
}

double CostModel::SemanticJoinStrategyCost(SemanticJoinStrategy strategy,
                                           double left_rows,
                                           double right_rows) const {
  return SemanticIndexBuildCost(strategy, right_rows) +
         SemanticIndexProbeCost(strategy, left_rows, right_rows);
}

double CostModel::SemanticSelectStrategyCost(double base_rows,
                                             const std::string& model_name,
                                             SemanticJoinStrategy strategy,
                                             bool resident) const {
  return SemanticSelectStrategyCost(
      base_rows, model_name, strategy,
      resident ? IndexResidency::kResident : IndexResidency::kAbsent);
}

double CostModel::SemanticSelectStrategyCost(double base_rows,
                                             const std::string& model_name,
                                             SemanticJoinStrategy strategy,
                                             IndexResidency residency) const {
  if (strategy == SemanticJoinStrategy::kBruteForce) {
    return ParallelCost(base_rows *
                        (EmbedCost(model_name) +
                         params_.vector_dim * params_.dot_per_dim));
  }
  double c = EmbedCost(model_name) +
             SemanticIndexProbeCost(strategy, 1.0, base_rows);
  if (residency == IndexResidency::kOnDisk) {
    // Adopt the persisted image: deserialize + validate, no embedding.
    c += base_rows * params_.index_load_per_row;
  } else if (residency == IndexResidency::kRefreshable) {
    // Incremental renewal: insert only the appended slice.
    c += base_rows * params_.index_refresh_per_row;
  } else if (residency == IndexResidency::kAbsent) {
    c += AmortizedSelectBuildCost(strategy, base_rows, model_name);
  }
  return c;
}

double CostModel::AmortizedSelectBuildCost(
    SemanticJoinStrategy strategy, double base_rows,
    const std::string& model_name) const {
  // A foreground build fans IVF and HNSW construction out over the pool,
  // like the scan it competes with; a background one (discount < 1) runs
  // serially inside its one task and is charged only the discount.
  double build = SemanticIndexBuildCost(strategy, base_rows);
  if (strategy != SemanticJoinStrategy::kIvfPq &&
      params_.background_build_discount >= 1.0) {
    build = ParallelCost(build);
  }
  return (base_rows * EmbedCost(model_name) + build) *
         params_.background_build_discount /
         std::max(1.0, params_.index_reuse_horizon);
}

double CostModel::AmortizedStrategyCost(SemanticJoinStrategy strategy,
                                        double probe_rows, double base_rows,
                                        bool resident, bool reusable) const {
  return AmortizedStrategyCost(
      strategy, probe_rows, base_rows,
      resident ? IndexResidency::kResident : IndexResidency::kAbsent,
      reusable);
}

double CostModel::AmortizedStrategyCost(SemanticJoinStrategy strategy,
                                        double probe_rows, double base_rows,
                                        IndexResidency residency,
                                        bool reusable) const {
  const double probe =
      SemanticIndexProbeCost(strategy, probe_rows, base_rows);
  if (strategy == SemanticJoinStrategy::kBruteForce) return probe;
  // A persisted image loads, and a stale-by-append index renews
  // incrementally, for a fraction of any rebuild.
  if (residency == IndexResidency::kOnDisk) {
    return probe + base_rows * params_.index_load_per_row;
  }
  if (residency == IndexResidency::kRefreshable) {
    return probe + base_rows * params_.index_refresh_per_row;
  }
  // Warm, or a background build the stream has already paid for.
  if (residency != IndexResidency::kAbsent) return probe;
  const double build = SemanticIndexBuildCost(strategy, base_rows);
  const double horizon =
      reusable ? std::max(1.0, params_.index_reuse_horizon) : 1.0;
  return build * params_.background_build_discount / horizon + probe;
}

double CostModel::SelfCost(const PlanNode& node) const {
  const double out_rows = std::max(0.0, node.est_rows);
  const double in_rows =
      node.children.empty() ? out_rows
                            : std::max(0.0, node.children[0]->est_rows);
  switch (node.kind) {
    case PlanKind::kScan: {
      double c = out_rows * params_.row_scan;
      if (node.predicate) c += out_rows * params_.expr_eval;
      return ParallelCost(c);
    }
    case PlanKind::kDetectScan: {
      const double images = out_rows / params_.avg_objects_per_image;
      return ParallelCost(images * params_.detect_per_image);
    }
    case PlanKind::kFilter:
      return ParallelCost(in_rows * params_.expr_eval);
    case PlanKind::kProject:
      return ParallelCost(in_rows * params_.materialize);
    case PlanKind::kSort:
      // Per-run local sorts and the splitter-partitioned loser-tree
      // merge both spread over the pool; sampling, boundary search, and
      // scheduling are the serial residue inside parallel_fraction.
      return ParallelCost(
          in_rows * params_.hash_build *
          std::max(1.0, std::log2(std::max(2.0, in_rows)) / 4.0));
    case PlanKind::kLimit:
      // Runs through the morsel scheduler under a shared row budget; the
      // budget's prefix cutoff bounds work by output, not input.
      return ParallelCost(out_rows * params_.row_scan);
    case PlanKind::kSemanticSelect: {
      if (node.IndexBackedSelect()) {
        // Index-backed range search: embed one query and probe the managed
        // whole-table index instead of embedding every input row. Cold
        // builds amortize over the reuse horizon; a persisted on-disk
        // image charges its load; resident indexes are free to reuse
        // (the IndexManager already holds them).
        double c = EmbedCost(node.model_name) +
                   SemanticIndexProbeCost(node.strategy, 1.0, in_rows);
        const bool warm = node.index_resident ||
                          node.index_residency == IndexResidency::kResident ||
                          node.index_residency == IndexResidency::kBuilding;
        if (node.index_residency == IndexResidency::kOnDisk) {
          c += in_rows * params_.index_load_per_row;
        } else if (node.index_residency == IndexResidency::kRefreshable) {
          c += in_rows * params_.index_refresh_per_row;
        } else if (!warm) {
          c += AmortizedSelectBuildCost(node.strategy, in_rows,
                                        node.model_name);
        }
        return c + out_rows * params_.materialize;
      }
      const double queries =
          node.queries.empty() ? 1.0 : static_cast<double>(node.queries.size());
      return ParallelCost(
          in_rows * (EmbedCost(node.model_name) +
                     queries * params_.vector_dim * params_.dot_per_dim));
    }
    case PlanKind::kJoin: {
      // Build is serial (one shared hash table); the probe spreads over
      // morsel pipelines.
      const double l = node.children[0]->est_rows;
      const double r = node.children[1]->est_rows;
      return r * params_.hash_build +
             ParallelCost(l * params_.hash_probe +
                          out_rows * params_.materialize);
    }
    case PlanKind::kSemanticJoin: {
      const double l = node.children[0]->est_rows;
      const double r = node.children[1]->est_rows;
      // With a resident shared index the operator skips both the
      // build-side embedding and the index construction (warm path).
      const double embed =
          (node.index_resident ? l : l + r) * EmbedCost(node.model_name);
      const double strategy =
          node.index_resident
              ? SemanticIndexProbeCost(node.strategy, l, r)
              : SemanticJoinStrategyCost(node.strategy, l, r);
      // Embedding and probing parallelize (vecsim splits the probe side
      // over the pool); result materialization is serial.
      return ParallelCost(embed + strategy) + out_rows * params_.materialize;
    }
    case PlanKind::kSemanticGroupBy: {
      // Order-sensitive online clustering: inherently serial consumption.
      // Clusters grow with distinct semantic groups; assume sqrt scaling.
      const double clusters = std::max(4.0, std::sqrt(in_rows));
      return in_rows * (EmbedCost(node.model_name) +
                        clusters * params_.vector_dim * params_.dot_per_dim);
    }
    case PlanKind::kAggregate:
      return AggregateCost(in_rows, out_rows);
  }
  return 0;
}

double CostModel::AggregateMergeFormCost(double in_rows,
                                         double out_groups) const {
  const double p = std::max(1.0, params_.parallelism);
  // Accumulation spreads over workers, then each of the p-1 non-first
  // partials folds its (up to out_groups) entries into the total on the
  // driver thread — the serial merge tail — before the serial emit.
  return ParallelCost(in_rows * params_.hash_build) +
         out_groups * (p - 1.0) * params_.hash_probe +
         out_groups * params_.materialize;
}

double CostModel::AggregateRadixFormCost(double in_rows,
                                         double out_groups) const {
  const double p = std::max(1.0, params_.parallelism);
  // Phase 1 pays per-row radix routing on top of the hash accumulation;
  // phase 2's per-partition merges and emits fan out over the pool.
  return ParallelCost(in_rows * (params_.hash_build + params_.radix_route)) +
         ParallelCost(out_groups * (p - 1.0) * params_.hash_probe +
                      out_groups * params_.materialize);
}

double CostModel::AggregateCost(double in_rows, double out_groups) const {
  return std::min(AggregateMergeFormCost(in_rows, out_groups),
                  AggregateRadixFormCost(in_rows, out_groups));
}

double CostModel::Annotate(PlanNode* node) const {
  double total = SelfCost(*node);
  for (auto& c : node->children) total += Annotate(c.get());
  node->est_cost = total;
  return total;
}

}  // namespace cre
