#include "exec/stats.h"

#include "core/timer.h"

namespace cre {

Status InstrumentedOperator::Open() {
  Timer t;
  Status s = child_->Open();
  stats_->AddOpenSeconds(t.Seconds());
  return s;
}

Result<TablePtr> InstrumentedOperator::Next() {
  Timer t;
  auto r = child_->Next();
  const double seconds = t.Seconds();
  if (r.ok() && r.ValueUnsafe() != nullptr) {
    stats_->AddBatch(r.ValueUnsafe()->num_rows(), seconds);
  } else {
    AtomicAddDouble(stats_->next_seconds, seconds);
  }
  return r;
}

}  // namespace cre
