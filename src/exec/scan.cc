#include "exec/scan.h"

namespace cre {

Result<TablePtr> TableScanOperator::Next() {
  const std::size_t n = table_->num_rows();
  if (offset_ >= n) return TablePtr(nullptr);
  // Full-table fast path: hand out the shared table itself.
  if (offset_ == 0 && n <= batch_size_) {
    offset_ = n;
    return table_;
  }
  const std::size_t len = std::min(batch_size_, n - offset_);
  TablePtr batch = table_->Slice(offset_, len);  // O(1): shares buffers
  offset_ += len;
  return batch;
}

}  // namespace cre
