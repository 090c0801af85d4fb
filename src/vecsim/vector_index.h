#ifndef CRE_VECSIM_VECTOR_INDEX_H_
#define CRE_VECSIM_VECTOR_INDEX_H_

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <string>
#include <vector>

#include "core/result.h"
#include "core/status.h"
#include "vecsim/top_k.h"

namespace cre {

class TaskRunner;

/// Shared interface for approximate/exact similarity indexes over a fixed
/// base set of unit-normalized vectors. Scores are cosine similarities
/// (== dot products on unit vectors). Physical operator selection between
/// a full scan and these indexes is a cost-based optimizer decision (E6).
class VectorIndex {
 public:
  virtual ~VectorIndex() = default;

  /// Builds the index over `n` vectors of dimension `dim`, stored row-major
  /// in `data` (must stay alive while the index is used unless the
  /// implementation copies; all implementations here copy).
  virtual Status Build(const float* data, std::size_t n, std::size_t dim) = 0;

  /// Incrementally appends `n` vectors to an already-built index; the new
  /// base ids continue from size(). Deterministic: the result is a pure
  /// function of (current index state, appended data). This is what lets
  /// the IndexManager refresh a resident index after an append-style table
  /// mutation instead of rebuilding from scratch. Families that cannot
  /// maintain incrementally keep the default and force a rebuild.
  virtual Status Add(const float* data, std::size_t n, std::size_t dim) {
    (void)data;
    (void)n;
    (void)dim;
    return Status::NotImplemented(name() + " does not support incremental Add");
  }

  /// Worker pool later Build/Add calls may fan out over (nullptr runs
  /// them serially). The pool never changes the result, only how fast it
  /// arrives. Families that construct serially ignore it.
  virtual void SetBuildPool(TaskRunner* pool) { (void)pool; }

  /// Deep copy (nullptr when the family does not support cloning). Used by
  /// the copy-on-write refresh path: queries keep probing the old immutable
  /// index while appends go into the clone, which is then swapped in.
  virtual std::unique_ptr<VectorIndex> Clone() const { return nullptr; }

  // ---- persistence contract ----
  // Save writes a self-contained, versioned binary image of the index
  // (per-family magic + format version + build options + structure);
  // Load restores it into an instance of the same family, byte-identical
  // for search purposes: under equal query-time knobs, every
  // RangeSearch/TopK over the loaded index returns exactly what the
  // saved one returned. Build-structural options (graph degree, hash
  // shapes, seeds) come from the image; query-time knobs (beam widths,
  // probe counts) stay as configured on the loading instance, so a
  // recall/latency setting change takes effect on warm starts. Load
  // validates the format tag and bounds-checks every read, so a
  // truncated or foreign file yields a Status, never a broken index.

  virtual Status Save(std::ostream& out) const {
    (void)out;
    return Status::NotImplemented(name() + " does not support Save");
  }

  virtual Status Load(std::istream& in) {
    (void)in;
    return Status::NotImplemented(name() + " does not support Load");
  }

  /// Appends all base ids whose similarity to `query` is >= `threshold`.
  virtual void RangeSearch(const float* query, float threshold,
                           std::vector<ScoredId>* out) const = 0;

  /// Returns the k most similar base ids, sorted descending.
  virtual std::vector<ScoredId> TopK(const float* query,
                                     std::size_t k) const = 0;

  virtual std::size_t size() const = 0;
  virtual std::size_t dim() const = 0;
  virtual std::string name() const = 0;

  /// Approximate memory footprint in bytes (for the optimizer cost model).
  virtual std::size_t MemoryBytes() const = 0;

  // ---- checked entry points (uniform edge-case contract) ----
  // The raw virtuals above take a bare pointer and trust the caller's
  // dimension; operators that receive the query vector across an API
  // boundary use these instead, so a model/index dimensionality mismatch
  // surfaces as a Status rather than an out-of-bounds read. All index
  // families additionally share the conventions: Build with n == 0 (and
  // dim > 0) succeeds and yields an empty index whose searches return
  // nothing, and TopK with k > size() returns all size() entries.

  Status CheckQueryDim(std::size_t query_dim) const {
    if (query_dim != dim()) {
      return Status::InvalidArgument(
          "query dim " + std::to_string(query_dim) + " != index dim " +
          std::to_string(dim()) + " (" + name() + ")");
    }
    return Status::OK();
  }

  Status RangeSearchChecked(const float* query, std::size_t query_dim,
                            float threshold, std::vector<ScoredId>* out) const {
    CRE_RETURN_NOT_OK(CheckQueryDim(query_dim));
    RangeSearch(query, threshold, out);
    return Status::OK();
  }

  Result<std::vector<ScoredId>> TopKChecked(const float* query,
                                            std::size_t query_dim,
                                            std::size_t k) const {
    CRE_RETURN_NOT_OK(CheckQueryDim(query_dim));
    return TopK(query, k);
  }
};

}  // namespace cre

#endif  // CRE_VECSIM_VECTOR_INDEX_H_
