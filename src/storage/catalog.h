#ifndef CRE_STORAGE_CATALOG_H_
#define CRE_STORAGE_CATALOG_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/mutex.h"
#include "core/result.h"
#include "storage/table.h"

namespace cre {

/// Thread-safe name -> table registry. The engine resolves logical scan
/// nodes against a catalog; multiple sources (RDBMS tables, KB exports,
/// vision outputs) register here for holistic optimization.
///
/// Every mutation of a name (Register/Put/Append/Drop) advances that
/// name's version stamp. Derived artifacts built over a table's contents
/// — e.g. the IndexManager's vector indexes — record the version they
/// were built against and treat a stamp change as invalidation.
///
/// Append-style mutations additionally record a per-version *row delta*:
/// the new table is the old table's rows as an unchanged prefix plus
/// appended rows. The prefix is shared, not copied: both versions' columns
/// point into the same append-only buffers (see ColumnStore), each reading
/// only its own row count. Derived artifacts can then refresh incrementally
/// (insert only the appended rows) instead of rebuilding; any Put/Drop
/// breaks the delta chain, so a chain that spans from an artifact's
/// build stamp to the current stamp proves the artifact's base rows are
/// still a prefix of the live table.
class Catalog {
 public:
  Catalog() = default;

  /// Registers `table` under `name`; fails if the name exists.
  Status Register(const std::string& name, TablePtr table);

  /// Replaces or inserts. Recorded as a destructive change: derived
  /// artifacts over the old contents must rebuild (use Append for the
  /// incremental-maintenance-friendly mutation).
  void Put(const std::string& name, TablePtr table);

  /// Append-style mutation: publishes a new version of `name` whose rows
  /// are the current rows (unchanged, as a prefix) followed by all rows
  /// of `rows` (schemas must match). The new version shares the current
  /// version's column buffers (prefix sharing) and writes only the
  /// appended rows, past every row the older versions can see, so an
  /// append costs O(|rows|) amortized rather than O(table) and pinned
  /// older versions keep reading their own rows unchanged. Records the
  /// append delta so derived artifacts built against any version in the
  /// unbroken delta chain can refresh incrementally. Returns the new
  /// table.
  Result<TablePtr> Append(const std::string& name, const Table& rows);

  Result<TablePtr> Get(const std::string& name) const;
  bool Contains(const std::string& name) const;
  Status Drop(const std::string& name);

  std::vector<std::string> ListTables() const;

  /// Current version stamp of `name` (0 = never registered). Stamps are
  /// unique across the catalog's lifetime: a drop + re-register never
  /// reuses an old stamp.
  std::uint64_t Version(const std::string& name) const;

  /// Table and its version stamp in one consistent snapshot (so a builder
  /// cannot pair a new table with a pre-replacement stamp).
  struct VersionedTable {
    TablePtr table;
    std::uint64_t version = 0;
  };
  Result<VersionedTable> GetVersioned(const std::string& name) const;

  /// An immutable point-in-time copy of the whole catalog: every name's
  /// (table pointer, version stamp) pair captured under one lock hold —
  /// the multi-table generalization of GetVersioned. Table contents are
  /// shared (tables are immutable once registered), so a snapshot is
  /// O(#names). QueryContext pins one per query at plan time: optimizer,
  /// lowering, and operators all resolve names against it, so a
  /// concurrent Put/Drop can never hand one query two versions of a
  /// table (or pair a fresh index with stale rows).
  std::shared_ptr<const Catalog> Snapshot() const;

  /// Proof that `name`'s mutations since `since_version` were all
  /// append-style, together with everything an incremental refresher
  /// needs, captured under one lock hold: the current table and stamp,
  /// and the row count at `since_version` (the unchanged prefix).
  /// Fails (NotFound) when the chain is broken — a Put/Drop intervened,
  /// `since_version` fell out of the bounded history, or the name is
  /// gone — in which case the caller must rebuild from scratch.
  struct AppendChain {
    TablePtr table;                 ///< current contents
    std::uint64_t to_version = 0;   ///< current stamp
    std::size_t prefix_rows = 0;    ///< rows at since_version
  };
  Result<AppendChain> AppendedSince(const std::string& name,
                                    std::uint64_t since_version) const;

 private:
  /// One recorded append transition (from_version's rows are a prefix of
  /// to_version's).
  struct AppendDelta {
    std::uint64_t from_version = 0;
    std::uint64_t to_version = 0;
    std::size_t old_rows = 0;
  };
  /// Bounded per-name history: beyond this many un-refreshed appends the
  /// chain is treated as destructive (a rebuild amortizes better anyway).
  static constexpr std::size_t kMaxDeltaHistory = 64;

  mutable Mutex mu_;
  std::map<std::string, TablePtr> tables_ CRE_GUARDED_BY(mu_);
  std::map<std::string, std::uint64_t> versions_ CRE_GUARDED_BY(mu_);
  std::map<std::string, std::vector<AppendDelta>> deltas_ CRE_GUARDED_BY(mu_);
  std::uint64_t version_counter_ CRE_GUARDED_BY(mu_) = 0;
};

}  // namespace cre

#endif  // CRE_STORAGE_CATALOG_H_
