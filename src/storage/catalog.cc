#include "storage/catalog.h"

namespace cre {

Status Catalog::Register(const std::string& name, TablePtr table) {
  MutexLock lock(mu_);
  if (tables_.count(name)) {
    return Status::AlreadyExists("table '" + name + "' already registered");
  }
  tables_[name] = std::move(table);
  versions_[name] = ++version_counter_;
  return Status::OK();
}

void Catalog::Put(const std::string& name, TablePtr table) {
  MutexLock lock(mu_);
  tables_[name] = std::move(table);
  versions_[name] = ++version_counter_;
  // Destructive: nothing guarantees the old rows survive as a prefix, so
  // no delta chain may span this transition.
  deltas_.erase(name);
}

Result<TablePtr> Catalog::Append(const std::string& name, const Table& rows) {
  // The new version is built OUTSIDE the lock and published only if the
  // base version is still current; a racing mutation restarts the merge
  // from the new base.
  for (;;) {
    TablePtr old;
    std::uint64_t from = 0;
    {
      MutexLock lock(mu_);
      auto it = tables_.find(name);
      if (it == tables_.end()) {
        return Status::NotFound("table '" + name + "' not in catalog");
      }
      old = it->second;
      from = versions_.at(name);
    }
    // Tables are immutable once registered (snapshots and in-flight
    // queries share them). Copying one copies its column handles, which
    // is O(#columns): the copy shares the old version's rows, and
    // appending `rows` claims the slots past them in the same buffers
    // (or, once those are full or taken, reallocates with std::vector's
    // doubling), so the append costs O(|rows|) amortized while `old`
    // keeps reading its own prefix.
    auto merged = std::make_shared<Table>(*old);
    CRE_RETURN_NOT_OK(merged->AppendTable(rows));

    MutexLock lock(mu_);
    auto it = tables_.find(name);
    if (it == tables_.end()) {
      return Status::NotFound("table '" + name + "' dropped during append");
    }
    if (versions_.at(name) != from) continue;  // raced: re-merge from new base
    it->second = merged;
    versions_[name] = ++version_counter_;
    auto& history = deltas_[name];
    history.push_back({from, versions_[name], old->num_rows()});
    if (history.size() > kMaxDeltaHistory) {
      // Forget the oldest transition: artifacts built before it lose
      // their chain and rebuild, the right call after that many deltas.
      history.erase(history.begin());
    }
    return merged;
  }
}

Result<Catalog::AppendChain> Catalog::AppendedSince(
    const std::string& name, std::uint64_t since_version) const {
  MutexLock lock(mu_);
  auto table_it = tables_.find(name);
  if (table_it == tables_.end()) {
    return Status::NotFound("table '" + name + "' not in catalog");
  }
  const std::uint64_t current = versions_.at(name);
  auto delta_it = deltas_.find(name);
  const std::vector<AppendDelta>* history =
      delta_it == deltas_.end() ? nullptr : &delta_it->second;
  // Walk the chain from since_version; it must connect transition by
  // transition all the way to the current stamp, or the mutations were
  // not purely append-style.
  std::uint64_t at = since_version;
  std::size_t prefix_rows = table_it->second->num_rows();
  bool first = true;
  while (at != current) {
    const AppendDelta* next = nullptr;
    if (history != nullptr) {
      for (const AppendDelta& d : *history) {
        if (d.from_version == at) {
          next = &d;
          break;
        }
      }
    }
    if (next == nullptr) {
      return Status::NotFound("no unbroken append chain for '" + name +
                              "' since version " +
                              std::to_string(since_version));
    }
    if (first) {
      prefix_rows = next->old_rows;
      first = false;
    }
    at = next->to_version;
  }
  return AppendChain{table_it->second, current, prefix_rows};
}

Result<TablePtr> Catalog::Get(const std::string& name) const {
  MutexLock lock(mu_);
  auto it = tables_.find(name);
  if (it == tables_.end()) {
    return Status::NotFound("table '" + name + "' not in catalog");
  }
  return it->second;
}

bool Catalog::Contains(const std::string& name) const {
  MutexLock lock(mu_);
  return tables_.count(name) > 0;
}

Status Catalog::Drop(const std::string& name) {
  MutexLock lock(mu_);
  if (!tables_.erase(name)) {
    return Status::NotFound("table '" + name + "' not in catalog");
  }
  versions_[name] = ++version_counter_;
  deltas_.erase(name);
  return Status::OK();
}

std::uint64_t Catalog::Version(const std::string& name) const {
  MutexLock lock(mu_);
  auto it = versions_.find(name);
  return it == versions_.end() ? 0 : it->second;
}

Result<Catalog::VersionedTable> Catalog::GetVersioned(
    const std::string& name) const {
  MutexLock lock(mu_);
  auto it = tables_.find(name);
  if (it == tables_.end()) {
    return Status::NotFound("table '" + name + "' not in catalog");
  }
  return VersionedTable{it->second, versions_.at(name)};
}

std::shared_ptr<const Catalog> Catalog::Snapshot() const {
  auto snapshot = std::make_shared<Catalog>();
  // The fresh snapshot is not yet shared, but its fields are guarded by
  // its own mu_; take both locks so the copy is provably disciplined.
  MutexLock snapshot_lock(snapshot->mu_);
  MutexLock lock(mu_);
  snapshot->tables_ = tables_;
  snapshot->versions_ = versions_;
  snapshot->deltas_ = deltas_;
  snapshot->version_counter_ = version_counter_;
  return snapshot;
}

std::vector<std::string> Catalog::ListTables() const {
  MutexLock lock(mu_);
  std::vector<std::string> names;
  names.reserve(tables_.size());
  for (const auto& [name, _] : tables_) names.push_back(name);
  return names;
}

}  // namespace cre
