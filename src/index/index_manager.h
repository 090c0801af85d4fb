#ifndef CRE_INDEX_INDEX_MANAGER_H_
#define CRE_INDEX_INDEX_MANAGER_H_

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/hash.h"
#include "core/mutex.h"
#include "core/resource_governor.h"
#include "core/result.h"
#include "embed/model_registry.h"
#include "semantic/semantic_join.h"
#include "storage/catalog.h"
#include "vecsim/vector_index.h"

namespace cre {

/// Identity of one persistent vector index: the embeddings of one string
/// column of one catalog table under one representation model, organized
/// as one physical index family. Two queries that agree on all four share
/// the same index instance.
struct IndexKey {
  std::string table;
  std::string column;
  std::string model;
  SemanticJoinStrategy kind = SemanticJoinStrategy::kHnsw;

  bool operator==(const IndexKey& o) const {
    return kind == o.kind && table == o.table && column == o.column &&
           model == o.model;
  }
  std::string ToString() const;
};

struct IndexKeyHash {
  std::size_t operator()(const IndexKey& k) const;
};

/// Header of a persisted index image: a magic/version tag, the key's
/// identity, the catalog stamp at save time, the indexed column's content
/// hash and its row count. ReadImageHeader rejects a malformed header, and
/// a family tag not in kSemanticJoinStrategies, with InvalidArgument.
Status WriteImageHeader(std::ostream& out, const IndexKey& key,
                        std::uint64_t catalog_stamp,
                        std::uint64_t content_hash, std::uint64_t rows);
Status ReadImageHeader(std::istream& in, IndexKey* key,
                       std::uint64_t* catalog_stamp,
                       std::uint64_t* content_hash, std::uint64_t* rows);

struct IndexManagerOptions {
  /// Master switch: when false the engine never consults the manager and
  /// semantic operators build per-execution indexes as before.
  bool enabled = true;
  /// Asynchronous builds: when true (and the engine has wired a
  /// background runner), a cold or stale GetOrBuildAsync lookup enqueues
  /// its build or refresh as a background-priority task and returns
  /// immediately so the requesting query is served by the brute-force
  /// path — the build latency is hidden from the query stream entirely.
  /// When false, GetOrBuildAsync blocks exactly like GetOrBuild.
  bool async_builds = false;
  /// On-disk persistence: when non-empty, every successful build/refresh
  /// write-throughs a versioned index image into this directory
  /// (<dir>/cre_<keyhash>.idx, atomic tmp+rename), and a cold lookup
  /// warm-starts from the matching image instead of rebuilding — so
  /// resident indexes survive both LRU eviction and process restarts.
  /// Images carry the (table, column, model, family) identity, the
  /// catalog stamp at save time, and a content hash of the indexed
  /// column; a load whose identity/content does not match the live
  /// table, or whose file is truncated/corrupt, is rejected and the
  /// lookup falls back to a clean rebuild. Never serves stale data.
  std::string persist_dir;
  /// Total bytes of persisted images kept in persist_dir before the GC
  /// sweep reclaims the oldest (by file modification time). 0 = no
  /// budget (images accumulate until destructively invalidated). The
  /// image just written is never reclaimed by its own write-through.
  std::size_t persist_budget_bytes = 0;
  /// Total bytes of resident indexes before LRU eviction kicks in. The
  /// most recently built index is never evicted by its own insertion.
  std::size_t memory_budget_bytes = 256ull << 20;
  /// Engine-wide memory accountant (may be null). Builds charge the
  /// transient embed matrix against it before allocating; a breach fails
  /// the build with kResourceExhausted — the semantic strategies then
  /// degrade to the brute-force fallback instead of dying.
  ResourceGovernor* governor = nullptr;
  /// Bounded retry for transient persisted-image write failures: total
  /// attempts per image (>= 1) with exponential backoff starting at
  /// `persist_retry_backoff_ms` (doubling per retry). Retries are counted
  /// in Stats::disk_retries / cre_index_disk_retry_total.
  int persist_retry_attempts = 3;
  double persist_retry_backoff_ms = 1.0;
  /// Build parameters for the index families the manager constructs.
  /// hnsw.build_pool is the pool foreground builds of every family fan out
  /// over (IVF and HNSW use it); background builds run serially.
  IvfOptions ivf;
  HnswOptions hnsw;
  IvfPqOptions ivfpq;
};

/// The engine's persistent vector-index subsystem (paper Sec. V: "index
/// structures for expediting similarity and top-k searches" as first-class,
/// optimizer-visible state). Owns every cached VectorIndex, keyed by
/// IndexKey, and provides:
///
///  - cross-query reuse: GetOrBuild returns a shared, immutable index;
///    repeated queries over the same (table, column, model, kind) pay the
///    embedding + build cost once;
///  - versioned invalidation with incremental maintenance: each entry
///    records the Catalog version stamp of its base table at build time.
///    A destructive change (Put/Drop) makes the entry stale and the next
///    lookup rebuilds; an append-style change (Catalog::Append) makes the
///    next lookup *refresh* the entry in place — clone, insert only the
///    appended rows, swap — at a fraction of the rebuild cost, as long as
///    the appended rows are at most a quarter of the table (past that
///    crossover a rebuild is cheaper and re-balances the index);
///  - a memory budget with LRU eviction over ready entries, with byte
///    accounting recomputed on every install (builds grow on refresh);
///  - on-disk persistence (persist_dir): built indexes spill to disk and
///    cold lookups warm-start from it, surviving process restarts;
///  - thread-safe concurrent access with single-flight builds: concurrent
///    queries needing the same absent index block on one build instead of
///    duplicating it.
///
/// Returned indexes are immutable and safe to probe from any thread; they
/// stay alive (shared_ptr) even if evicted, refreshed, or invalidated
/// mid-query.
class IndexManager {
 public:
  struct Stats {
    std::uint64_t hits = 0;           ///< lookups served by a fresh entry
    std::uint64_t misses = 0;         ///< lookups that required a build
    std::uint64_t builds = 0;         ///< successful full constructions
    std::uint64_t build_failures = 0;
    /// Stale entries renewed by the incremental append path (no rebuild).
    std::uint64_t refreshes = 0;
    std::uint64_t evictions = 0;      ///< entries dropped for the budget
    std::uint64_t invalidations = 0;  ///< entries dropped as version-stale
    /// Builds enqueued onto the background runner by GetOrBuildAsync.
    std::uint64_t background_builds = 0;
    /// Async lookups answered "build in flight" (the caller served the
    /// query through the brute-force fallback instead of blocking).
    std::uint64_t async_fallbacks = 0;
    /// Lookups served by deserializing a persisted image (no rebuild).
    std::uint64_t disk_loads = 0;
    /// Successful write-throughs of built/refreshed indexes to disk.
    std::uint64_t disk_writes = 0;
    /// Persisted images rejected at load time: identity/stamp/content
    /// mismatch against the live table, or a truncated/corrupt file.
    std::uint64_t disk_rejects = 0;
    /// Persisted images deleted by GC: a destructive table change proved
    /// the image permanently stale, or the size-budget sweep reclaimed
    /// the oldest images to fit persist_budget_bytes.
    std::uint64_t disk_gc = 0;
    /// Write-through attempts retried after a transient failure (each
    /// backed off exponentially; an image that exhausts its attempts is
    /// simply not persisted — resident serving is unaffected).
    std::uint64_t disk_retries = 0;
    std::size_t resident_count = 0;
    std::size_t resident_bytes = 0;
  };

  IndexManager(const Catalog* catalog, const ModelRegistry* models,
               IndexManagerOptions options = {});

  /// Returns the shared index for `key`, blocking until it is fresh.
  /// GetOrBuild and GetOrBuildAsync share one lookup: a fresh entry is a
  /// hit; a stale-by-append entry below the refresh crossover refreshes
  /// incrementally; any other stale entry is invalidated (with this
  /// process's now-dead image) and, like an absent key, loads from the
  /// persisted on-disk image or builds. The refresh, load or build is one
  /// single-flight job per key: concurrent callers wait for it, and a
  /// failed refresh falls through to a rebuild. Errors (missing
  /// table/model, non-string column, failed build) are returned to every
  /// waiter and nothing is cached. When `built_version` is non-null it
  /// receives the catalog version stamp the returned index was built
  /// against — callers pairing the index with their own table snapshot
  /// compare stamps (not just row counts) to rule out a same-cardinality
  /// table replacement racing the lookup.
  Result<std::shared_ptr<const VectorIndex>> GetOrBuild(
      const IndexKey& key, std::uint64_t* built_version = nullptr);

  /// Outcome of a non-blocking lookup: either a ready index (with the
  /// catalog version it was built against) or "a build is in flight" —
  /// never both, never a wait.
  struct AsyncIndex {
    std::shared_ptr<const VectorIndex> index;  ///< null while building
    std::uint64_t built_version = 0;
    bool build_in_flight = false;
  };

  /// The serving path's lookup: GetOrBuild's decision and job, except
  /// that with async builds on (options().async_builds and a background
  /// runner wired) it never waits. A refresh or build runs as the same
  /// job on the background runner, and this call — like every lookup of
  /// the key until the job installs — returns build_in_flight, so
  /// lowering emits the brute-force fallback instead of blocking behind
  /// index construction. A cold key with a plausibly fresh on-disk image
  /// still loads inline (deserialization is orders of magnitude cheaper
  /// than a build), so the first query after a restart is index-backed.
  /// With async builds off this is exactly GetOrBuild.
  Result<AsyncIndex> GetOrBuildAsync(const IndexKey& key);

  /// Wires the executor background builds run on — the engine passes a
  /// QueryScheduler group admitted at QueryPriority::kBackground, so
  /// builds only consume pool cycles the query stream leaves idle. Call
  /// before serving; the runner must outlive the manager's last build.
  void EnableAsyncBuilds(TaskRunner* background_runner);

  /// True when a fresh (current-version) index for `key` is resident —
  /// the optimizer's amortization signal: a resident index makes the
  /// index-backed strategy's build cost zero.
  bool IsResident(const IndexKey& key) const;

  /// Four-state amortization signal for the optimizer: resident, build
  /// in flight (sunk cost), persisted on disk (load cost ≪ rebuild
  /// cost), or absent. The on-disk probe is intentionally cheap — image
  /// identity and row count only; the full content-hash validation runs
  /// at load time, falling back to a rebuild on mismatch (costing is
  /// advisory, correctness never depends on it).
  IndexResidency Residency(const IndexKey& key) const;

  /// Blocks until no build (background or single-flight synchronous) is
  /// in flight. Test/shutdown aid; new builds may start afterwards.
  void WaitForBuilds();

  /// Drops every entry built over `table` (any column/model/kind), along
  /// with their persisted images — an explicit destructive signal.
  void InvalidateTable(const std::string& table);

  /// Drops every resident entry. Persisted on-disk images are kept: they
  /// are the warm-start source, and stale ones are rejected at load.
  void Clear();

  Stats stats() const;
  const IndexManagerOptions& options() const { return options_; }

 private:
  struct Entry {
    std::shared_ptr<const VectorIndex> index;  ///< null while building
    std::uint64_t table_version = 0;
    std::size_t bytes = 0;
    std::uint64_t lru_tick = 0;
    bool building = false;
    Status build_status;
  };
  using EntryPtr = std::shared_ptr<Entry>;

  /// Identity card of one persisted image, cached so Residency() and
  /// warm-start probes never re-read headers. Populated by the startup
  /// directory scan and by write-throughs.
  struct PersistedMeta {
    std::string path;
    std::uint64_t catalog_stamp = 0;
    std::uint64_t content_hash = 0;
    std::uint64_t rows = 0;
    /// True when catalog_stamp came from THIS process (a write-through
    /// or an adoption), false for stamps read off disk at scan time.
    /// Catalog stamps are process-local counters, so only local stamps
    /// may ever be compared against live catalog versions — a scanned
    /// stamp from a previous run is just provenance.
    bool stamp_local = false;
    /// On-disk footprint and age, for the size-budget GC sweep (oldest
    /// modification time reclaimed first). Filled by the startup scan
    /// and refreshed on every write-through.
    std::uint64_t bytes = 0;
    std::int64_t mtime_ns = 0;
  };

  /// How a finished index reached its entry; selects the stats counter
  /// and whether a write-through is warranted.
  enum class InstallSource { kBuild, kRefresh, kDiskLoad };

  /// What a lookup does with its key, classified under mu_ by
  /// DecideLocked: serve a fresh entry, wait for (or report) another
  /// caller's job, refresh a stale-by-append entry, or fill the key from
  /// its on-disk image or a build.
  enum class Verdict { kHit, kInFlight, kRefresh, kFill };

  /// One key's refresh, or its disk load falling back to a build, claimed
  /// under mu_ (the entry is marked building and counted in
  /// builds_in_flight_) and run outside it by RunJob.
  struct Job {
    EntryPtr entry;
    /// kRefresh renews `entry` from old_index; kBuild fills a placeholder.
    InstallSource source = InstallSource::kBuild;
    std::shared_ptr<const VectorIndex> old_index;
    std::uint64_t old_version = 0;
    bool try_disk = false;
    /// Runs on the background runner (and so builds serially there).
    bool deferred = false;
  };

  /// The one lookup behind GetOrBuild (may_defer=false) and
  /// GetOrBuildAsync (may_defer=true): decides, claims the job, and runs
  /// it inline or, when deferring and async builds are on, submits it to
  /// the background runner and reports build_in_flight.
  Result<AsyncIndex> Lookup(const IndexKey& key, bool may_defer);

  /// Classifies `key` (see Verdict); `entry` receives the resident entry
  /// (null for kFill). A stale entry that does not refresh is invalidated
  /// here, and the path of this process's image it outdated goes into
  /// `doomed_image` for the caller to unlink after releasing mu_.
  Verdict DecideLocked(const IndexKey& key, EntryPtr* entry,
                       std::string* doomed_image) CRE_REQUIRES(mu_);

  /// Runs a claimed job: refresh, or disk load falling back to a build;
  /// then schedules the write-through and installs the result. The
  /// persist is scheduled before the install because the install drops
  /// builds_in_flight_, after which a background job must not touch the
  /// manager (WaitForBuilds' contract). Returns the installed index.
  Result<std::shared_ptr<const VectorIndex>> RunJob(
      const IndexKey& key, const Job& job, std::uint64_t* built_version);

  /// Embeds the key's column and constructs+builds the index (no locks).
  /// `serial` forces a pool-free build: background builds run *on* a
  /// worker thread, and a task that fanned out and waited on the pool
  /// would break the workers-never-block invariant (deadlock on small
  /// pools). `content_hash` receives the indexed column's content hash.
  Result<std::shared_ptr<const VectorIndex>> BuildIndex(
      const IndexKey& key, std::uint64_t* table_version,
      std::uint64_t* content_hash, bool serial = false) const;

  /// Incremental renewal of a stale-by-append entry (no locks): clones
  /// `old_index`, embeds the rows appended since `old_version`, inserts
  /// them, and returns the refreshed instance stamped with the append
  /// chain's head version. Fails (caller then rebuilds) when the chain
  /// broke or the clone does not line up with the prefix.
  Result<std::shared_ptr<const VectorIndex>> RefreshIndex(
      const IndexKey& key,
      const std::shared_ptr<const VectorIndex>& old_index,
      std::uint64_t old_version, std::uint64_t* new_version,
      std::uint64_t* content_hash) const;

  /// Deserializes the persisted image for `key` and validates it against
  /// the *live* table (identity, row count, content hash) — a mismatch
  /// or short file is an error, never a stale index (no locks).
  Result<std::shared_ptr<const VectorIndex>> LoadFromDisk(
      const IndexKey& key, std::uint64_t* table_version,
      std::uint64_t* content_hash) const;

  /// Installs a finished build/refresh/load into `entry` (or removes the
  /// entry on failure) and wakes waiters. Recomputes the entry's byte
  /// footprint from the installed index — entries grow across refreshes,
  /// so bytes are never trusted from a previous install. A disk load also
  /// marks the adopted image's stamp as this process's. Caller holds
  /// mu_.
  void FinishInstallLocked(const IndexKey& key, const EntryPtr& entry,
                           Result<std::shared_ptr<const VectorIndex>>&& built,
                           std::uint64_t version, std::uint64_t* built_version,
                           InstallSource source) CRE_REQUIRES(mu_);

  /// Write-through of a ready index image (tmp + atomic rename), with
  /// bounded retry + exponential backoff on transient failures, then
  /// records it in persisted_. No-op when persist_dir is empty. No locks
  /// held during file IO.
  void PersistToDisk(const IndexKey& key,
                     const std::shared_ptr<const VectorIndex>& index,
                     std::uint64_t catalog_stamp, std::uint64_t content_hash);

  /// One write-through attempt (the body PersistToDisk retries around).
  /// Returns OK on publish AND on deliberate discard (a newer image beat
  /// us); errors are transient I/O failures worth retrying.
  Status PersistToDiskOnce(const IndexKey& key,
                           const std::shared_ptr<const VectorIndex>& index,
                           std::uint64_t catalog_stamp,
                           std::uint64_t content_hash);

  /// Queues PersistToDisk on the background runner when one is wired
  /// (write-through off the query's latency), falling back to inline.
  /// The pending write counts in builds_in_flight_ so WaitForBuilds
  /// covers it — nothing may touch the manager after the count drops.
  void SchedulePersist(const IndexKey& key,
                       std::shared_ptr<const VectorIndex> index,
                       std::uint64_t catalog_stamp,
                       std::uint64_t content_hash);

  /// Scans persist_dir for image headers at construction. Unreadable or
  /// foreign files are ignored.
  void ScanPersistDir();

  /// Forgets (and deletes) a rejected/stale persisted image.
  void DropPersisted(const IndexKey& key);

  /// Reclaims the oldest persisted images (by modification time) until
  /// the on-disk footprint fits persist_budget_bytes, never touching
  /// `just_written`. Victim paths go into `doomed` for the caller to
  /// unlink after releasing mu_ (file IO never runs under the manager
  /// lock). No-op when the budget is 0. Caller holds mu_.
  void SweepPersistBudgetLocked(const IndexKey& just_written,
                                std::vector<std::string>* doomed)
      CRE_REQUIRES(mu_);

  /// True when the stale `entry` changed only by catalog appends since
  /// its build and the appended rows are at most a quarter of the table,
  /// the refresh-vs-rebuild crossover (kRefreshCostPerRow). Both lookups and Residency() ask
  /// this one predicate, so the optimizer's kRefreshable signal and the
  /// manager's actual behavior never disagree.
  bool RefreshableLocked(const IndexKey& key, const Entry& entry) const
      CRE_REQUIRES(mu_);

  /// Cheap plausibility of the persisted image against the live table
  /// (identity known, row counts agree) — the same probe Residency uses.
  /// Gates the async path's synchronous warm start: a stale image must
  /// not lure a serving-path lookup into a blocking rebuild. Caller
  /// holds mu_.
  bool PersistedPlausibleLocked(const IndexKey& key) const CRE_REQUIRES(mu_);

  std::string PersistPathFor(const IndexKey& key) const;

  /// Debug-mode invariant: resident_bytes_ equals the sum of every
  /// entry's recorded bytes (placeholders count 0). Catches the class of
  /// accounting drift where an entry's footprint changes without the
  /// aggregate following. Caller holds mu_. No-op in release builds.
  void CheckAccountingLocked() const CRE_REQUIRES(mu_);

  /// Evicts least-recently-used ready entries (never `keep`) until the
  /// budget holds. Caller holds mu_.
  void EvictForBudgetLocked(const Entry* keep) CRE_REQUIRES(mu_);

  const Catalog* catalog_;
  const ModelRegistry* models_;
  IndexManagerOptions options_;

  mutable Mutex mu_;
  CondVar cv_;
  std::unordered_map<IndexKey, EntryPtr, IndexKeyHash> entries_
      CRE_GUARDED_BY(mu_);
  std::unordered_map<IndexKey, PersistedMeta, IndexKeyHash> persisted_
      CRE_GUARDED_BY(mu_);
  std::uint64_t tick_ CRE_GUARDED_BY(mu_) = 0;
  std::size_t resident_bytes_ CRE_GUARDED_BY(mu_) = 0;
  std::size_t builds_in_flight_ CRE_GUARDED_BY(mu_) = 0;
  TaskRunner* background_runner_ CRE_GUARDED_BY(mu_) = nullptr;
  Stats counters_ CRE_GUARDED_BY(mu_);
};

}  // namespace cre

#endif  // CRE_INDEX_INDEX_MANAGER_H_
