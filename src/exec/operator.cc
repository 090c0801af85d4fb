#include "exec/operator.h"

#include <algorithm>

namespace cre {

Result<TablePtr> Concatenate(const Schema& schema,
                             const std::vector<TablePtr>& parts,
                             std::size_t cap) {
  std::size_t rows = 0;
  for (const TablePtr& part : parts) rows += part->num_rows();
  auto out = Table::Make(schema);
  out->Reserve(std::min(rows, cap));
  for (const TablePtr& part : parts) {
    const std::size_t room = cap - out->num_rows();
    if (room == 0) break;
    CRE_RETURN_NOT_OK(out->AppendTable(
        part->num_rows() > room ? *part->Slice(0, room) : *part));
  }
  return out;
}

Result<TablePtr> ExecuteToTable(PhysicalOperator* root, std::size_t cap) {
  CRE_RETURN_NOT_OK(root->Open());
  std::vector<TablePtr> batches;
  std::size_t rows = 0;
  while (rows < cap) {
    CRE_ASSIGN_OR_RETURN(TablePtr batch, root->Next());
    if (batch == nullptr) break;
    rows += batch->num_rows();
    batches.push_back(std::move(batch));
  }
  return Concatenate(root->output_schema(), batches, cap);
}

}  // namespace cre
