#include "exec/pipeline.h"

#include <algorithm>
#include <sstream>
#include <string>

namespace cre {

bool IsMorselStreamable(const PlanNode& node) {
  switch (node.kind) {
    case PlanKind::kFilter:
    case PlanKind::kProject:
      return true;
    case PlanKind::kSemanticSelect:
      // The index-backed form probes a whole-table index and acts as a
      // leaf (segment source); the scanning form streams per morsel.
      return !node.IndexBackedSelect();
    case PlanKind::kJoin:
      // Probe side streams once the build side is a shared hash table.
      return true;
    default:
      return false;
  }
}

bool IsPipelineBreaker(const PlanNode& node) {
  return !IsMorselStreamable(node);
}

PipelineSegment DecomposePipeline(const PlanNode& root) {
  PipelineSegment segment;
  const PlanNode* cur = &root;
  while (IsMorselStreamable(*cur)) {
    segment.ops.push_back(cur);
    cur = cur->children[0].get();  // kJoin child 0 is the probe side
  }
  segment.source = cur;
  std::reverse(segment.ops.begin(), segment.ops.end());
  return segment;
}

bool UseRadixAggregation(const PlanNode& agg, std::size_t dop,
                         std::size_t radix_agg_min_groups) {
  return dop > 1 && !agg.group_keys.empty() &&
         (agg.est_rows >= 0
              ? agg.est_rows >= static_cast<double>(radix_agg_min_groups)
              : radix_agg_min_groups == 0);
}

namespace {

/// Renders the parallel driver's routing decisions without executing
/// anything: the walk mirrors ParallelPlanDriver::Run /
/// MaterializeSource exactly, so the annotations state how each
/// pipeline *would* be scheduled.
class PipelineDescriber {
 public:
  PipelineDescriber(std::size_t dop, std::size_t radix_min_groups)
      : dop_(dop), radix_min_groups_(radix_min_groups) {}

  std::string Render(const PlanNode& plan) {
    os_ << "pipelines (dop=" << dop_ << "):\n";
    EmitSegment(plan, "result", "");
    return os_.str();
  }

 private:
  /// Scheduling annotation. At dop 1 the driver takes the same routes,
  /// each run serially on the caller's thread.
  std::string Mode(const std::string& desc) const {
    return "[" + desc + ", dop=" + std::to_string(dop_) + "]";
  }

  static std::string SourceName(const PlanNode& src) {
    std::ostringstream name;
    name << PlanKindName(src.kind);
    switch (src.kind) {
      case PlanKind::kScan:
      case PlanKind::kDetectScan:
        name << "(" << src.table_name << ")";
        break;
      case PlanKind::kSort:
        name << "(" << src.sort_key << ")";
        break;
      case PlanKind::kLimit:
        name << "(" << src.limit << ")";
        break;
      default:
        break;
    }
    return name.str();
  }

  /// Emits the pipeline producing `node`'s rows into `sink`, then
  /// recurses into everything feeding it (join build sides, breaker
  /// inputs). `extra` augments the scheduling annotation (e.g. the
  /// shared row budget of a LIMIT sink).
  void EmitSegment(const PlanNode& node, const std::string& sink,
                   const std::string& extra) {
    PipelineSegment seg = DecomposePipeline(node);
    const PlanNode& src = *seg.source;

    if (seg.ops.empty() && src.kind != PlanKind::kScan) {
      // The breaker's output flows straight to the sink — no morsel
      // pipeline of its own (the driver returns the materialized table).
      EmitSource(src, sink);
      return;
    }

    std::string chain = SourceName(src);
    for (const PlanNode* op : seg.ops) {
      chain += " -> ";
      chain += PlanKindName(op->kind);
    }
    std::string desc = "morsel scheduler";
    if (!extra.empty()) desc += ", " + extra;
    Line(chain, sink, Mode(desc));

    for (const PlanNode* op : seg.ops) {
      if (op->kind == PlanKind::kJoin) {
        EmitSegment(*op->children[1], "HashJoin build", "");
      }
    }
    EmitSource(src, SourceName(src));
  }

  /// Emits how a segment source (breaker) materializes, feeding `sink`
  /// (its own name when it already heads a pipeline line above).
  void EmitSource(const PlanNode& src, const std::string& sink) {
    // "Sort(x) => result" when flowing straight to an outer sink;
    // plain "Sort(x)" when it already appeared as a chain source.
    std::string target = SourceName(src);
    if (sink != target) target += " => " + sink;
    switch (src.kind) {
      case PlanKind::kScan:
      case PlanKind::kSemanticSelect:  // index-backed: one managed probe
        return;
      case PlanKind::kDetectScan:
        Line(SourceName(src), sink == SourceName(src) ? "materialized" : sink,
             Mode("parallel detection (internal)"));
        return;
      case PlanKind::kSort:
        Line(SourceName(src), sink == SourceName(src) ? "materialized" : sink,
             Mode("parallel sort: local runs + partitioned k-way merge"));
        EmitSegment(*src.children[0], SourceName(src), "");
        return;
      case PlanKind::kLimit: {
        const PlanNode& child = *src.children[0];
        if (child.kind == PlanKind::kSort) {
          // The driver folds LIMIT over Sort into one parallel top-k sort.
          Line(SourceName(src) + " + " + SourceName(child),
               sink == SourceName(src) ? "materialized" : sink,
               Mode("parallel top-k sort, shared row budget"));
          EmitSegment(*child.children[0], SourceName(child), "");
        } else {
          EmitSegment(child, target, "shared row budget");
        }
        return;
      }
      case PlanKind::kAggregate: {
        EmitSegment(*src.children[0], target,
                    UseRadixAggregation(src, dop_, radix_min_groups_)
                        ? "radix-partitioned parallel merge"
                        : "per-worker partials, serial merge");
        return;
      }
      case PlanKind::kSemanticJoin:
        Line(SourceName(src), sink == SourceName(src) ? "materialized" : sink,
             Mode("parallel probe (internal)"));
        EmitSegment(*src.children[0], "SemanticJoin probe", "");
        EmitSegment(*src.children[1], "SemanticJoin build", "");
        return;
      case PlanKind::kSemanticGroupBy:
        Line(SourceName(src), sink == SourceName(src) ? "materialized" : sink,
             "[serial consumption (order-sensitive)]");
        EmitSegment(*src.children[0], SourceName(src), "");
        return;
      default:
        return;
    }
  }

  void Line(const std::string& chain, const std::string& sink,
            const std::string& mode) {
    os_ << "  #" << counter_++ << ": " << chain << " => " << sink << "  "
        << mode << "\n";
  }

  std::size_t dop_;
  std::size_t radix_min_groups_;
  int counter_ = 0;
  std::ostringstream os_;
};

}  // namespace

std::string DescribePipelines(const PlanNode& plan, std::size_t dop,
                              std::size_t radix_agg_min_groups) {
  return PipelineDescriber(dop, radix_agg_min_groups).Render(plan);
}

}  // namespace cre
