#ifndef CRE_EXEC_OPERATOR_H_
#define CRE_EXEC_OPERATOR_H_

#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "core/result.h"
#include "storage/table.h"

namespace cre {

/// Default number of rows per exchanged batch.
inline constexpr std::size_t kDefaultBatchSize = 4096;

/// Row cap that never binds: drains and maps run to end-of-stream.
inline constexpr std::size_t kNoRowCap =
    std::numeric_limits<std::size_t>::max();

/// Pull-based physical operator working on column batches (each batch is a
/// small Table). Next() returns nullptr at end-of-stream. This is the
/// compiled/vectorized execution path; the tuple-at-a-time interpreted
/// path lives in src/baseline for the Figure 4 comparison.
class PhysicalOperator {
 public:
  virtual ~PhysicalOperator() = default;

  /// Schema of batches produced by Next().
  virtual const Schema& output_schema() const = 0;

  /// Prepares execution (e.g. builds join hash tables). Called once.
  virtual Status Open() = 0;

  /// Produces the next batch, or nullptr when exhausted.
  virtual Result<TablePtr> Next() = 0;

  virtual std::string name() const = 0;
};

using OperatorPtr = std::unique_ptr<PhysicalOperator>;

/// Concatenates `parts` in order into one fresh table of `schema`, sized
/// once for all their rows, keeping the first `cap` rows (the last part
/// kept is cut short). The execution layer's one concatenation: every
/// drain, morsel map, adoption wave and partition merge ends here.
Result<TablePtr> Concatenate(const Schema& schema,
                             const std::vector<TablePtr>& parts,
                             std::size_t cap = kNoRowCap);

/// The one drain: opens `root` and pulls batches until end-of-stream or
/// until `cap` rows are in hand, then returns the first `cap` rows (all
/// of them by default) as one fresh table.
Result<TablePtr> ExecuteToTable(PhysicalOperator* root,
                                std::size_t cap = kNoRowCap);

}  // namespace cre

#endif  // CRE_EXEC_OPERATOR_H_
