#include "index/index_manager.h"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <thread>
#include <utility>

#include "core/fault_injection.h"
#include "core/logging.h"
#include "storage/key_table.h"
#include "vecsim/hnsw_index.h"
#include "vecsim/index_io.h"
#include "vecsim/ivf_index.h"

namespace cre {

namespace {

/// Order-sensitive digest of an indexed string column (row count + every
/// value). This — not the process-local catalog stamp — is what proves a
/// persisted index image still matches the live table across restarts.
std::uint64_t ColumnContentHash(Span<std::string> words) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  h = HashCombine(h, words.size());
  for (const auto& w : words) h = HashCombine(h, HashString(w));
  return h;
}

/// An unbuilt index of a managed family. options.hnsw.build_pool is the
/// manager's build pool for every family, so only `pool` decides whether
/// this index uses it (nullptr builds serially). Managed indexes outlive
/// any one query, so no query's cancel flag reaches them.
std::unique_ptr<VectorIndex> MakeManagedIndex(
    SemanticJoinStrategy kind, const IndexManagerOptions& options,
    TaskRunner* pool) {
  HnswOptions hnsw = options.hnsw;
  hnsw.build_pool = nullptr;
  return MakeVectorIndex(kind, options.ivf, hnsw, options.ivfpq, pool,
                         /*cancel=*/nullptr);
}

/// Serves hits in base-table row ids from an index built over the
/// column's *distinct* values. Each distinct string embeds (and indexes)
/// once regardless of how often it repeats — on Zipfian corpora this
/// shrinks the index by the duplication factor — and the inner graph/
/// partition structures never degenerate into duplicate cliques. Hits
/// expand through the postings lists back to every base row holding the
/// value, so callers see ids 0..num_rows as if the index covered the
/// full column.
///
/// Inner id i is the column's i-th distinct value in first-seen order,
/// and appends keep it so: a KeyTable over the values tells a known value
/// (a postings append) from a new one (the next id: an embedding and an
/// incremental insert into the inner index). The values and postings are
/// therefore a function of the column alone, so a saved image holds only
/// the row count and the inner index, and a load derives the rest from
/// the live column with the same KeyTable pass.
class DistinctExpandedIndex : public VectorIndex {
 public:
  explicit DistinctExpandedIndex(std::unique_ptr<VectorIndex> inner)
      : inner_(std::move(inner)), values_({DataType::kString}) {}

  /// Builds the inner index from the embeddings of the values IndexRows
  /// found, row i of `data` embedding value i.
  Status Build(const float* data, std::size_t n, std::size_t dim) override {
    if (n != values_.size()) {
      return Status::Internal("inner build does not cover the values");
    }
    return inner_->Build(data, n, dim);
  }

  /// Adds base rows [size(), col.size()) of the string column `col` to the
  /// postings and returns the values first seen among them, in id order.
  /// The span lives until the next call.
  Span<std::string> IndexRows(const Column& col) {
    const std::size_t known = values_.size();
    std::vector<std::uint32_t> ids;
    values_.FindOrAddRows(col.Slice(rows_, col.size() - rows_), &ids);
    postings_.resize(values_.size());
    for (std::size_t r = 0; r < ids.size(); ++r) {
      postings_[ids[r]].push_back(static_cast<std::uint32_t>(rows_ + r));
    }
    rows_ = col.size();
    return Span<std::string>(values_.keys()[0].strings().data() + known,
                             values_.size() - known);
  }

  /// Incremental append of base rows [size(), col.size()): known values
  /// extend their postings list, new values embed once (their matrix
  /// charged to `budget`) and insert into the inner index over `pool`
  /// (nullptr: serially). Deterministic given (current state, appended
  /// rows), whatever the pool.
  Status AppendRows(const Column& col, const EmbeddingModel& model,
                    TaskRunner* pool, const QueryBudgetPtr& budget) {
    if (col.size() < rows_) {
      return Status::Internal("append prefix does not line up with index");
    }
    const Span<std::string> fresh = IndexRows(col);
    if (fresh.size() > 0) {
      const std::size_t dim = model.dim();
      ScopedCharge charge;
      CRE_RETURN_NOT_OK(charge.Acquire(budget,
                                       fresh.size() * dim * sizeof(float),
                                       "index refresh embed matrix"));
      std::vector<float> matrix(fresh.size() * dim);
      model.EmbedBatch(fresh, matrix.data());
      inner_->SetBuildPool(pool);
      CRE_RETURN_NOT_OK(inner_->Add(matrix.data(), fresh.size(), dim));
    }
    return Status::OK();
  }

  void RangeSearch(const float* query, float threshold,
                   std::vector<ScoredId>* out) const override {
    // Distinct-value hits go to a per-thread buffer that keeps its
    // capacity, so a probe allocates nothing beyond its output rows.
    thread_local std::vector<ScoredId> hits;
    hits.clear();
    inner_->RangeSearch(query, threshold, &hits);
    for (const ScoredId& h : hits) {
      for (const std::uint32_t row : postings_[h.id]) {
        out->push_back({row, h.score});
      }
    }
  }

  std::vector<ScoredId> TopK(const float* query,
                             std::size_t k) const override {
    // k distinct hits expand to >= k rows (every value has >= 1 row), so
    // asking the inner index for k is always sufficient.
    std::vector<ScoredId> out;
    out.reserve(k);
    for (const ScoredId& h : inner_->TopK(query, k)) {
      for (const std::uint32_t row : postings_[h.id]) {
        if (out.size() >= k) return out;
        out.push_back({row, h.score});
      }
    }
    return out;
  }

  std::size_t size() const override { return rows_; }
  std::size_t dim() const override { return inner_->dim(); }
  std::string name() const override { return inner_->name(); }
  std::size_t MemoryBytes() const override {
    std::size_t bytes = inner_->MemoryBytes() + values_.MemoryBytes();
    for (const auto& p : postings_) {
      bytes += p.size() * sizeof(std::uint32_t);
    }
    return bytes;
  }

  std::unique_ptr<VectorIndex> Clone() const override {
    std::unique_ptr<VectorIndex> inner = inner_->Clone();
    if (inner == nullptr) return nullptr;
    auto copy = std::make_unique<DistinctExpandedIndex>(std::move(inner));
    copy->values_ = values_;
    copy->postings_ = postings_;
    copy->rows_ = rows_;
    return copy;
  }

  Status Save(std::ostream& out) const override {
    CRE_RETURN_NOT_OK(vecio::WriteTag(out, kWrapperMagic, kWrapperVersion));
    CRE_RETURN_NOT_OK(vecio::WritePod<std::uint64_t>(out, rows_));
    return inner_->Save(out);
  }

  /// Deserializes a wrapper image into `inner` (an unbuilt index of the
  /// right family) over the live string column `col` the image was saved
  /// from, and returns the reassembled managed index. The image must
  /// cover exactly col's rows and hold one inner entry per distinct value.
  static Result<std::unique_ptr<DistinctExpandedIndex>> LoadManaged(
      std::istream& in, std::unique_ptr<VectorIndex> inner,
      const Column& col) {
    CRE_RETURN_NOT_OK(
        vecio::ExpectTag(in, kWrapperMagic, kWrapperVersion, "managed index"));
    std::uint64_t rows = 0;
    CRE_RETURN_NOT_OK(vecio::ReadPod(in, &rows));
    if (rows != col.size()) {
      return Status::InvalidArgument(
          "managed index load: row count does not match the column");
    }
    CRE_RETURN_NOT_OK(inner->Load(in));
    auto out = std::make_unique<DistinctExpandedIndex>(std::move(inner));
    out->IndexRows(col);
    if (out->inner_->size() != out->values_.size()) {
      return Status::InvalidArgument(
          "managed index load: inner size does not match distinct values");
    }
    return out;
  }

 private:
  static constexpr std::uint32_t kWrapperMagic = 0x43575250;  // "CWRP"
  /// Version 1 images also stored the distinct values and postings.
  static constexpr std::uint32_t kWrapperVersion = 2;

  std::unique_ptr<VectorIndex> inner_;
  KeyTable values_;  ///< distinct values; id = inner index id
  std::vector<std::vector<std::uint32_t>> postings_;  ///< per value id
  std::size_t rows_ = 0;
};

// ---- persisted image header ----
// One image = [manager header][wrapper payload][inner payload]. The
// header carries the full index identity plus the freshness evidence, so
// a scan can build the on-disk catalog from headers alone and a load can
// reject a stale or foreign image before touching the payload.

constexpr std::uint32_t kImageMagic = 0x43524D47;  // "CRMG"
constexpr std::uint32_t kImageVersion = 1;

/// Refresh-vs-rebuild crossover. Refreshing touches only the appended
/// rows, but each new value it inserts may cost more than its share of a
/// bulk build: the clone copies the whole index, and an insert re-selects
/// the links of its reverse-edge targets. bench_fig_index_persistence
/// prints that cost in bulk-build values per new value: 1.0-1.1 serial
/// and 0.8-0.9 over a 2-thread pool with HNSW's batched Add (1.1-1.7 and
/// 1.5-2.0 with the sequential Add before it), so on time alone a
/// refresh wins past half the table appended, and by a wider margin than
/// before. The constant is a quality margin instead: IVF's Add never
/// retrains its centroids and a graph grown mostly by Adds is never
/// re-balanced, so a stale entry refreshes while
/// appended * kRefreshCostPerRow <= total rows, i.e. up to 25% appended,
/// and rebuilds past that.
constexpr double kRefreshCostPerRow = 4.0;

}  // namespace

Status WriteImageHeader(std::ostream& out, const IndexKey& key,
                        std::uint64_t catalog_stamp,
                        std::uint64_t content_hash, std::uint64_t rows) {
  CRE_RETURN_NOT_OK(vecio::WriteTag(out, kImageMagic, kImageVersion));
  CRE_RETURN_NOT_OK(vecio::WriteString(out, key.table));
  CRE_RETURN_NOT_OK(vecio::WriteString(out, key.column));
  CRE_RETURN_NOT_OK(vecio::WriteString(out, key.model));
  CRE_RETURN_NOT_OK(
      vecio::WritePod<std::uint32_t>(out, static_cast<std::uint32_t>(key.kind)));
  CRE_RETURN_NOT_OK(vecio::WritePod<std::uint64_t>(out, catalog_stamp));
  CRE_RETURN_NOT_OK(vecio::WritePod<std::uint64_t>(out, content_hash));
  return vecio::WritePod<std::uint64_t>(out, rows);
}

Status ReadImageHeader(std::istream& in, IndexKey* key,
                       std::uint64_t* catalog_stamp,
                       std::uint64_t* content_hash, std::uint64_t* rows) {
  CRE_RETURN_NOT_OK(
      vecio::ExpectTag(in, kImageMagic, kImageVersion, "index image"));
  CRE_RETURN_NOT_OK(vecio::ReadString(in, &key->table));
  CRE_RETURN_NOT_OK(vecio::ReadString(in, &key->column));
  CRE_RETURN_NOT_OK(vecio::ReadString(in, &key->model));
  std::uint32_t kind = 0;
  CRE_RETURN_NOT_OK(vecio::ReadPod(in, &kind));
  // Rejects unknown tags and tag 1, the retired LSH family, whose images
  // no build can read any more.
  const auto known = std::find_if(
      std::begin(kSemanticJoinStrategies), std::end(kSemanticJoinStrategies),
      [kind](SemanticJoinStrategy s) {
        return static_cast<std::uint32_t>(s) == kind;
      });
  if (known == std::end(kSemanticJoinStrategies)) {
    return Status::InvalidArgument("index image: unknown family");
  }
  key->kind = *known;
  CRE_RETURN_NOT_OK(vecio::ReadPod(in, catalog_stamp));
  CRE_RETURN_NOT_OK(vecio::ReadPod(in, content_hash));
  return vecio::ReadPod(in, rows);
}

std::string IndexKey::ToString() const {
  return table + "." + column + " @" + model + " [" +
         SemanticJoinStrategyName(kind) + "]";
}

std::size_t IndexKeyHash::operator()(const IndexKey& k) const {
  std::uint64_t h = HashString(k.table);
  h = HashCombine(h, HashString(k.column));
  h = HashCombine(h, HashString(k.model));
  h = HashCombine(h, static_cast<std::uint64_t>(k.kind));
  return static_cast<std::size_t>(h);
}

IndexManager::IndexManager(const Catalog* catalog, const ModelRegistry* models,
                           IndexManagerOptions options)
    : catalog_(catalog),
      models_(models),
      options_(std::move(options)),
      budget_(options_.governor == nullptr
                  ? nullptr
                  : std::make_shared<QueryBudget>(options_.governor, 0)) {
  ScanPersistDir();
}

Result<std::shared_ptr<const VectorIndex>> IndexManager::BuildIndex(
    const IndexKey& key, std::uint64_t* table_version,
    std::uint64_t* content_hash, bool serial) const {
  // Snapshot table + version atomically: the entry must never pair a new
  // table's contents with an older stamp (it would mask an invalidation).
  CRE_ASSIGN_OR_RETURN(Catalog::VersionedTable vt,
                       catalog_->GetVersioned(key.table));
  *table_version = vt.version;
  CRE_ASSIGN_OR_RETURN(const Column* col, vt.table->ColumnByName(key.column));
  if (col->type() != DataType::kString) {
    return Status::TypeError("index column '" + key.column +
                             "' of table '" + key.table +
                             "' must be a string column");
  }
  CRE_ASSIGN_OR_RETURN(EmbeddingModelPtr model, models_->Get(key.model));

  if (content_hash != nullptr) *content_hash = ColumnContentHash(col->strings());
  const std::size_t dim = model->dim();

  // Background builds execute on a pool worker; fanning construction out
  // over the pool from there would make a worker block in Wait (deadlock
  // on small pools), so they build serially inside their one task.
  std::unique_ptr<VectorIndex> inner = MakeManagedIndex(
      key.kind, options_, serial ? nullptr : options_.hnsw.build_pool);
  if (inner == nullptr) {
    return Status::InvalidArgument(
        "brute force is not an index kind (nothing to cache)");
  }
  // Embed and index each distinct value once; remember which rows hold it.
  auto index = std::make_shared<DistinctExpandedIndex>(std::move(inner));
  const Span<std::string> distinct = index->IndexRows(*col);
  // The transient embed matrix is the build's allocation spike; charge it
  // against the engine-wide governor before allocating.
  ScopedCharge charge;
  CRE_RETURN_NOT_OK(charge.Acquire(budget_,
                                   distinct.size() * dim * sizeof(float),
                                   "index build embed matrix"));
  CRE_RETURN_IF_FAULT("index.build.embed");
  std::vector<float> matrix(distinct.size() * dim);
  model->EmbedBatch(distinct, matrix.data());

  CRE_RETURN_IF_FAULT("index.build.construct");
  CRE_RETURN_NOT_OK(index->Build(matrix.data(), distinct.size(), dim));
  return std::shared_ptr<const VectorIndex>(std::move(index));
}

Result<std::shared_ptr<const VectorIndex>> IndexManager::RefreshIndex(
    const IndexKey& key, const std::shared_ptr<const VectorIndex>& old_index,
    std::uint64_t old_version, std::uint64_t* new_version,
    std::uint64_t* content_hash, bool serial) const {
  // Re-fetch the chain under the catalog lock: the table, its head
  // stamp, and the proof that everything since old_version was
  // append-style arrive as one consistent unit, so the refreshed entry
  // is stamped with exactly the contents it indexed. If yet another
  // append lands while we refresh, the entry comes out stale again and
  // the next lookup refreshes once more — never wrong, at worst late.
  CRE_ASSIGN_OR_RETURN(Catalog::AppendChain chain,
                       catalog_->AppendedSince(key.table, old_version));
  const auto* old_wrapper =
      dynamic_cast<const DistinctExpandedIndex*>(old_index.get());
  if (old_wrapper == nullptr || old_wrapper->size() != chain.prefix_rows) {
    return Status::Internal("refresh prefix does not match resident index");
  }
  CRE_ASSIGN_OR_RETURN(const Column* col,
                       chain.table->ColumnByName(key.column));
  if (col->type() != DataType::kString) {
    return Status::TypeError("index column '" + key.column +
                             "' must be a string column");
  }
  CRE_ASSIGN_OR_RETURN(EmbeddingModelPtr model, models_->Get(key.model));

  // Copy-on-write: queries holding the old shared_ptr keep probing an
  // untouched immutable graph; all mutation goes into the clone.
  std::unique_ptr<VectorIndex> cloned = old_wrapper->Clone();
  auto* wrapper = dynamic_cast<DistinctExpandedIndex*>(cloned.get());
  if (wrapper == nullptr) {
    return Status::Internal("managed index family does not support cloning");
  }
  CRE_RETURN_IF_FAULT("index.refresh.append");
  CRE_RETURN_NOT_OK(wrapper->AppendRows(
      *col, *model, serial ? nullptr : options_.hnsw.build_pool, budget_));
  *new_version = chain.to_version;
  if (content_hash != nullptr) {
    *content_hash = ColumnContentHash(col->strings());
  }
  return std::shared_ptr<const VectorIndex>(std::move(cloned));
}

std::string IndexManager::PersistPathFor(const IndexKey& key) const {
  return options_.persist_dir + "/cre_" +
         std::to_string(IndexKeyHash{}(key)) + ".idx";
}

void IndexManager::ScanPersistDir() {
  if (options_.persist_dir.empty()) return;
  std::error_code ec;
  std::filesystem::create_directories(options_.persist_dir, ec);
  std::filesystem::directory_iterator dir(options_.persist_dir, ec);
  if (ec) return;
  for (const auto& de : dir) {
    if (!de.is_regular_file(ec)) continue;
    const std::string path = de.path().string();
    if (de.path().extension() != ".idx") continue;
    std::ifstream in(path, std::ios::binary);
    if (!in.is_open()) continue;
    IndexKey key;
    PersistedMeta meta;
    if (!ReadImageHeader(in, &key, &meta.catalog_stamp, &meta.content_hash,
                         &meta.rows)
             .ok()) {
      continue;  // foreign or corrupt header: not a warm-start candidate
    }
    meta.path = path;
    std::error_code sec;
    const auto size = de.file_size(sec);
    meta.bytes = sec ? 0 : static_cast<std::uint64_t>(size);
    const auto mtime = de.last_write_time(sec);
    meta.mtime_ns =
        sec ? 0 : static_cast<std::int64_t>(mtime.time_since_epoch().count());
    persisted_[key] = std::move(meta);
  }
}

Status IndexManager::PersistToDiskOnce(
    const IndexKey& key, const std::shared_ptr<const VectorIndex>& index,
    std::uint64_t catalog_stamp, std::uint64_t content_hash) {
  static std::atomic<std::uint64_t> tmp_seq{0};
  const std::string path = PersistPathFor(key);
  // Unique across threads (counter) AND across processes sharing one
  // persist_dir (pid) — e.g. a blue-green restart overlap; colliding tmp
  // names would interleave two writers' bytes and publish garbage over a
  // good image.
  const std::string tmp = path + ".tmp" + std::to_string(::getpid()) + "_" +
                          std::to_string(tmp_seq.fetch_add(1));
  {
    CRE_RETURN_IF_FAULT("persist.open");
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out.is_open()) {
      return Status::IoError("cannot create index image tmp file: " + tmp);
    }
    Status s = CRE_INJECT_FAULT("persist.write");
    if (s.ok()) {
      s = WriteImageHeader(out, key, catalog_stamp, content_hash,
                           index->size());
    }
    if (s.ok()) s = index->Save(out);
    out.flush();
    if (s.ok() && !out.good()) {
      s = Status::IoError("short write persisting index image: " + tmp);
    }
    if (!s.ok()) {
      out.close();
      std::error_code ec;
      std::filesystem::remove(tmp, ec);
      return s;
    }
  }
  // Atomic publish: readers only ever see a complete image. The rename
  // runs under mu_ so a slow writer that lost the race to a newer
  // install (a refresh that finished after this build released the
  // lock) cannot roll the published image back to an older stamp.
  std::error_code ec;
  bool published = false;
  Status rename_status;
  std::vector<std::string> doomed;
  {
    MutexLock lock(mu_);
    auto it = persisted_.find(key);
    // Only a stamp written by THIS process is comparable (catalog
    // stamps restart with the process); a scanned image from a previous
    // run never outranks a fresh write.
    if (it != persisted_.end() && it->second.stamp_local &&
        it->second.catalog_stamp > catalog_stamp) {
      // A newer image is already published; discard ours (a success: the
      // key is persisted, just by someone fresher).
    } else {
      Status fault = CRE_INJECT_FAULT("persist.rename");
      if (fault.ok()) {
        std::filesystem::rename(tmp, path, ec);
      }
      if (!fault.ok() || ec) {
        rename_status =
            fault.ok() ? Status::IoError("cannot publish index image: " +
                                         path + " (" + ec.message() + ")")
                       : fault;
      } else {
        PersistedMeta meta{path, catalog_stamp, content_hash, index->size(),
                           /*stamp_local=*/true};
        std::error_code sec;
        const auto size = std::filesystem::file_size(path, sec);
        meta.bytes = sec ? 0 : static_cast<std::uint64_t>(size);
        const auto mtime = std::filesystem::last_write_time(path, sec);
        meta.mtime_ns = sec ? 0 : static_cast<std::int64_t>(
                                      mtime.time_since_epoch().count());
        persisted_[key] = std::move(meta);
        ++counters_.disk_writes;
        published = true;
        SweepPersistBudgetLocked(key, &doomed);
      }
    }
  }
  for (const auto& victim : doomed) {
    std::filesystem::remove(victim, ec);
  }
  if (!published) std::filesystem::remove(tmp, ec);
  return rename_status;
}

void IndexManager::PersistToDisk(
    const IndexKey& key, const std::shared_ptr<const VectorIndex>& index,
    std::uint64_t catalog_stamp, std::uint64_t content_hash) {
  if (options_.persist_dir.empty() || index == nullptr) return;
  const int attempts =
      options_.persist_retry_attempts < 1 ? 1 : options_.persist_retry_attempts;
  double backoff_ms = options_.persist_retry_backoff_ms;
  for (int attempt = 0; attempt < attempts; ++attempt) {
    if (attempt > 0) {
      // Transient write failure (fd pressure, a racing unlink, a slow
      // filesystem): back off exponentially, then try a fresh tmp file.
      {
        MutexLock lock(mu_);
        ++counters_.disk_retries;
      }
      if (backoff_ms > 0) {
        std::this_thread::sleep_for(
            std::chrono::duration<double, std::milli>(backoff_ms));
        backoff_ms *= 2;
      }
    }
    Status s = PersistToDiskOnce(key, index, catalog_stamp, content_hash);
    if (s.ok()) return;
  }
  // Attempts exhausted: the image is simply not persisted this round —
  // resident serving is unaffected, and the next install tries again.
}

void IndexManager::SchedulePersist(const IndexKey& key,
                                   std::shared_ptr<const VectorIndex> index,
                                   std::uint64_t catalog_stamp,
                                   std::uint64_t content_hash) {
  if (options_.persist_dir.empty() || index == nullptr) return;
  TaskRunner* runner = nullptr;
  {
    MutexLock lock(mu_);
    runner = background_runner_;
    // The pending write counts like a build so WaitForBuilds covers it:
    // a waiter may destroy the manager the moment the count drops, so
    // the task must decrement as its very last manager touch.
    if (runner != nullptr) ++builds_in_flight_;
  }
  if (runner == nullptr) {
    PersistToDisk(key, index, catalog_stamp, content_hash);
    return;
  }
  runner->Submit([this, key, index = std::move(index), catalog_stamp,
                  content_hash] {
    PersistToDisk(key, index, catalog_stamp, content_hash);
    MutexLock lock(mu_);
    --builds_in_flight_;
    cv_.NotifyAll();
  });
}

void IndexManager::SweepPersistBudgetLocked(const IndexKey& just_written,
                                            std::vector<std::string>* doomed) {
  if (options_.persist_budget_bytes == 0) return;
  std::uint64_t total = 0;
  for (const auto& [key, meta] : persisted_) {
    (void)key;
    total += meta.bytes;
  }
  while (total > options_.persist_budget_bytes) {
    auto victim = persisted_.end();
    for (auto it = persisted_.begin(); it != persisted_.end(); ++it) {
      if (it->first == just_written) continue;
      if (victim == persisted_.end() ||
          it->second.mtime_ns < victim->second.mtime_ns) {
        victim = it;
      }
    }
    // Never reclaim the image that triggered the sweep: an over-budget
    // singleton would otherwise write-then-delete itself forever.
    if (victim == persisted_.end()) return;
    total -= victim->second.bytes;
    doomed->push_back(victim->second.path);
    persisted_.erase(victim);
    ++counters_.disk_gc;
  }
}

void IndexManager::DropPersisted(const IndexKey& key) {
  std::string path;
  {
    MutexLock lock(mu_);
    auto it = persisted_.find(key);
    if (it == persisted_.end()) return;
    path = it->second.path;
    persisted_.erase(it);
    ++counters_.disk_rejects;
  }
  std::error_code ec;
  std::filesystem::remove(path, ec);
}

Result<std::shared_ptr<const VectorIndex>> IndexManager::LoadFromDisk(
    const IndexKey& key, std::uint64_t* table_version,
    std::uint64_t* content_hash) const {
  std::string path;
  {
    MutexLock lock(mu_);
    auto it = persisted_.find(key);
    if (it == persisted_.end()) {
      return Status::NotFound("no persisted image for " + key.ToString());
    }
    path = it->second.path;
  }
  CRE_RETURN_IF_FAULT("load.open");
  std::ifstream in(path, std::ios::binary);
  if (!in.is_open()) {
    return Status::NotFound("persisted image unreadable: " + path);
  }
  CRE_RETURN_IF_FAULT("load.read");
  IndexKey file_key;
  std::uint64_t saved_stamp = 0, saved_hash = 0, saved_rows = 0;
  CRE_RETURN_NOT_OK(
      ReadImageHeader(in, &file_key, &saved_stamp, &saved_hash, &saved_rows));
  if (!(file_key == key)) {
    return Status::InvalidArgument("persisted image identity mismatch");
  }
  // Freshness is judged against the *live* table, by content: catalog
  // stamps are process-local, so after a restart only the column digest
  // can prove the image still matches. A mismatch (the table changed
  // while the image sat on disk) is a rejection, never a stale serve.
  CRE_ASSIGN_OR_RETURN(Catalog::VersionedTable vt,
                       catalog_->GetVersioned(key.table));
  CRE_ASSIGN_OR_RETURN(const Column* col, vt.table->ColumnByName(key.column));
  if (col->type() != DataType::kString) {
    return Status::TypeError("persisted image over non-string column");
  }
  const auto& words = col->strings();
  if (words.size() != saved_rows ||
      ColumnContentHash(words) != saved_hash) {
    return Status::InvalidArgument(
        "persisted image stale: table content changed since save");
  }
  std::unique_ptr<VectorIndex> inner =
      MakeManagedIndex(key.kind, options_, /*pool=*/nullptr);
  if (inner == nullptr) {
    return Status::InvalidArgument("persisted image of non-index family");
  }
  // The content hash has validated the column the wrapper derives its
  // distinct values and postings from.
  CRE_ASSIGN_OR_RETURN(
      std::unique_ptr<DistinctExpandedIndex> wrapper,
      DistinctExpandedIndex::LoadManaged(in, std::move(inner), *col));
  *table_version = vt.version;
  if (content_hash != nullptr) *content_hash = saved_hash;
  return std::shared_ptr<const VectorIndex>(std::move(wrapper));
}

Result<std::shared_ptr<const VectorIndex>> IndexManager::GetOrBuild(
    const IndexKey& key, std::uint64_t* built_version) {
  CRE_ASSIGN_OR_RETURN(AsyncIndex found, Lookup(key, /*may_defer=*/false));
  if (built_version != nullptr) *built_version = found.built_version;
  return std::move(found.index);
}

Result<IndexManager::AsyncIndex> IndexManager::GetOrBuildAsync(
    const IndexKey& key) {
  return Lookup(key, /*may_defer=*/true);
}

Result<IndexManager::AsyncIndex> IndexManager::Lookup(const IndexKey& key,
                                                      bool may_defer) {
  MutexLock lock(mu_);
  const bool async =
      may_defer && options_.async_builds && background_runner_ != nullptr;
  bool counted_miss = false;
  for (;;) {
    EntryPtr entry;
    std::string doomed_image;
    const Verdict verdict = DecideLocked(key, &entry, &doomed_image);
    if (verdict == Verdict::kHit) {
      entry->lru_tick = ++tick_;
      ++counters_.hits;
      return AsyncIndex{entry->index, entry->table_version, false};
    }
    if (verdict == Verdict::kInFlight) {
      if (async) {
        // A sibling query or the background runner is already on it;
        // report in-flight instead of joining the wait.
        ++counters_.async_fallbacks;
        return AsyncIndex{nullptr, 0, true};
      }
      // Single-flight: wait for the other caller's job rather than
      // duplicating it, then decide again (the entry may have been
      // replaced or removed meanwhile).
      while (entry->building) cv_.Wait(lock);
      continue;
    }
    if (!counted_miss) {
      ++counters_.misses;
      counted_miss = true;
    }
    Job job;
    if (verdict == Verdict::kRefresh) {
      // Copy-on-write renewal of the resident entry; queries keep probing
      // the old instance (or the brute-force fallback) until it lands.
      job.entry = std::move(entry);
      job.source = InstallSource::kRefresh;
      job.old_index = job.entry->index;
      job.old_version = job.entry->table_version;
      job.deferred = async;
    } else {
      // A plausibly fresh persisted image loads inline even when async:
      // deserialization is orders of magnitude cheaper than a build, so
      // even the first post-restart query is index-backed. Mere image
      // existence is not enough — a stale image would be rejected at
      // load and drag a serving-path call into a blocking rebuild.
      job.deferred = async && !PersistedPlausibleLocked(key);
      job.try_disk =
          !job.deferred && persisted_.find(key) != persisted_.end();
      job.entry = std::make_shared<Entry>();
      entries_[key] = job.entry;
    }
    // Claim the key: until the job installs, every lookup of it sees a
    // building entry.
    job.entry->building = true;
    ++builds_in_flight_;
    if (job.deferred) {
      ++counters_.background_builds;
      ++counters_.async_fallbacks;
      // A failed background job leaves the key absent (its status is on
      // the entry), and the next lookup decides afresh.
      background_runner_->Submit(
          [this, key, job] { (void)RunJob(key, job, nullptr); });
    }
    lock.Unlock();
    if (!doomed_image.empty()) {
      std::error_code ec;
      std::filesystem::remove(doomed_image, ec);
    }
    if (job.deferred) return AsyncIndex{nullptr, 0, true};
    std::uint64_t version = 0;
    auto index = RunJob(key, job, &version);
    if (index.ok()) {
      return AsyncIndex{std::move(index).ValueUnsafe(), version, false};
    }
    if (job.source != InstallSource::kRefresh) return index.status();
    // The append chain broke mid-flight (or the refresh failed); its
    // entry is gone, so deciding again falls through to a rebuild.
    lock.Lock();
  }
}

IndexManager::Verdict IndexManager::DecideLocked(const IndexKey& key,
                                                 EntryPtr* entry,
                                                 std::string* doomed_image) {
  auto it = entries_.find(key);
  if (it == entries_.end()) return Verdict::kFill;
  *entry = it->second;
  if ((*entry)->building) return Verdict::kInFlight;
  if ((*entry)->table_version == catalog_->Version(key.table)) {
    return Verdict::kHit;
  }
  if (RefreshableLocked(key, **entry)) return Verdict::kRefresh;
  // Version-stamped invalidation: the base table changed destructively,
  // or grew past the refresh crossover, since the build; drop the stale
  // entry so the key refills.
  resident_bytes_ -= (*entry)->bytes;
  entries_.erase(it);
  entry->reset();
  ++counters_.invalidations;
  // A this-process image stamped before the change can never validate
  // again (the content hash now disagrees); reclaim it instead of leaving
  // a dead file for the next startup scan to carry. Scanned images keep
  // their benefit of the doubt until load time.
  auto pit = persisted_.find(key);
  if (pit != persisted_.end() && pit->second.stamp_local &&
      pit->second.catalog_stamp != catalog_->Version(key.table)) {
    *doomed_image = pit->second.path;
    persisted_.erase(pit);
    ++counters_.disk_gc;
  }
  CheckAccountingLocked();
  return Verdict::kFill;
}

Result<std::shared_ptr<const VectorIndex>> IndexManager::RunJob(
    const IndexKey& key, const Job& job, std::uint64_t* built_version) {
  std::uint64_t version = 0, hash = 0;
  // The content hash only feeds the persisted-image header; skip the
  // O(column) hashing pass entirely when persistence is off.
  std::uint64_t* hash_out = options_.persist_dir.empty() ? nullptr : &hash;
  InstallSource source = job.source;
  Result<std::shared_ptr<const VectorIndex>> made(
      Status::Internal("index job never attempted"));
  if (source == InstallSource::kRefresh) {
    made = RefreshIndex(key, job.old_index, job.old_version, &version,
                        hash_out, /*serial=*/job.deferred);
  } else if (job.try_disk) {
    made = LoadFromDisk(key, &version, &hash);
    if (made.ok()) {
      source = InstallSource::kDiskLoad;
    } else if (made.status().IsInvalidArgument() ||
               made.status().code() == StatusCode::kOutOfRange) {
      // Only a validation verdict (foreign/corrupt/truncated/stale
      // content) proves the image bad. Transient failures — the file
      // unreadable under fd pressure, the table momentarily dropped —
      // must leave a still-valid image in place for the next start.
      DropPersisted(key);
    }
  }
  if (source == InstallSource::kBuild) {
    made = BuildIndex(key, &version, hash_out, /*serial=*/job.deferred);
  }
  if (made.ok() && source != InstallSource::kDiskLoad) {
    // With a runner wired the write-through leaves the caller's latency;
    // it counts in builds_in_flight_ before this job's install uncounts.
    SchedulePersist(key, made.ValueUnsafe(), version, hash);
  }
  MutexLock lock(mu_);
  const Status status = made.ok() ? Status::OK() : made.status();
  FinishInstallLocked(key, job.entry, std::move(made), version, built_version,
                      source);
  CRE_RETURN_NOT_OK(status);
  return job.entry->index;
}

void IndexManager::FinishInstallLocked(
    const IndexKey& key, const EntryPtr& entry,
    Result<std::shared_ptr<const VectorIndex>>&& built, std::uint64_t version,
    std::uint64_t* built_version, InstallSource source) {
  entry->building = false;
  --builds_in_flight_;
  if (!built.ok()) {
    entry->build_status = built.status();
    if (source == InstallSource::kBuild) ++counters_.build_failures;
    if (source == InstallSource::kRefresh) ++counters_.invalidations;
    // Only remove our own entry (a concurrent invalidation path never
    // replaces a building entry, but stay defensive). A failed refresh
    // drops the stale entry it was renewing — its footprint leaves the
    // aggregate with it — and the caller falls back to a rebuild.
    auto it = entries_.find(key);
    if (it != entries_.end() && it->second == entry) {
      resident_bytes_ -= entry->bytes;
      entries_.erase(it);
    }
    cv_.NotifyAll();
    CheckAccountingLocked();
    return;
  }
  // Byte accounting is recomputed on every install: refreshes grow the
  // index, so a footprint captured at first build would drift under the
  // real one and the budget would silently over-admit.
  resident_bytes_ -= entry->bytes;
  entry->index = std::move(built).ValueUnsafe();
  entry->table_version = version;
  if (built_version != nullptr) *built_version = version;
  entry->bytes = entry->index->MemoryBytes();
  resident_bytes_ += entry->bytes;
  entry->lru_tick = ++tick_;
  switch (source) {
    case InstallSource::kBuild:
      ++counters_.builds;
      break;
    case InstallSource::kRefresh:
      ++counters_.refreshes;
      break;
    case InstallSource::kDiskLoad: {
      ++counters_.disk_loads;
      // The adopted image is now proven fresh for the live table at
      // `version`: localize its stamp so subsequent plausibility probes
      // and anti-rollback checks compare real (this-process) versions.
      auto pit = persisted_.find(key);
      if (pit != persisted_.end()) {
        pit->second.catalog_stamp = version;
        pit->second.stamp_local = true;
      }
      break;
    }
  }
  EvictForBudgetLocked(entry.get());
  cv_.NotifyAll();
  CheckAccountingLocked();
}

void IndexManager::EnableAsyncBuilds(TaskRunner* background_runner) {
  MutexLock lock(mu_);
  background_runner_ = background_runner;
}

void IndexManager::WaitForBuilds() {
  MutexLock lock(mu_);
  while (builds_in_flight_ != 0) cv_.Wait(lock);
}

void IndexManager::EvictForBudgetLocked(const Entry* keep) {
  while (resident_bytes_ > options_.memory_budget_bytes) {
    auto victim = entries_.end();
    for (auto it = entries_.begin(); it != entries_.end(); ++it) {
      if (it->second->building || it->second.get() == keep) continue;
      if (victim == entries_.end() ||
          it->second->lru_tick < victim->second->lru_tick) {
        victim = it;
      }
    }
    if (victim == entries_.end()) return;  // nothing evictable
    // The persisted image (write-through at install) outlives the
    // eviction, so the key degrades to kOnDisk rather than kAbsent.
    resident_bytes_ -= victim->second->bytes;
    entries_.erase(victim);
    ++counters_.evictions;
  }
}

void IndexManager::CheckAccountingLocked() const {
#ifndef NDEBUG
  std::size_t sum = 0;
  for (const auto& [key, entry] : entries_) {
    (void)key;
    sum += entry->bytes;
  }
  CRE_CHECK(sum == resident_bytes_);
#endif
}

bool IndexManager::IsResident(const IndexKey& key) const {
  return Residency(key) == IndexResidency::kResident;
}

bool IndexManager::PersistedPlausibleLocked(const IndexKey& key) const {
  // Cheap probe only (the optimizer calls this per considered strategy,
  // and the async serving path gates its synchronous warm start on it).
  // An image stamped by this process is exact: fresh iff the stamp
  // still matches, so a same-cardinality Put can't lure the serving
  // path into a doomed blocking load. A scanned image (previous run)
  // can only be row-count plausible; the content-hash proof runs at
  // load time, and a lying image is rejected there — the plan's
  // load-cost estimate was merely optimistic.
  auto it = persisted_.find(key);
  if (it == persisted_.end()) return false;
  if (it->second.stamp_local) {
    return it->second.catalog_stamp == catalog_->Version(key.table);
  }
  auto vt = catalog_->GetVersioned(key.table);
  return vt.ok() && vt.ValueOrDie().table->num_rows() == it->second.rows;
}

bool IndexManager::RefreshableLocked(const IndexKey& key,
                                     const Entry& entry) const {
  auto chain = catalog_->AppendedSince(key.table, entry.table_version);
  if (!chain.ok()) return false;  // a destructive change broke the chain
  const Catalog::AppendChain& c = chain.ValueUnsafe();
  const double total = static_cast<double>(c.table->num_rows());
  const double appended = total - static_cast<double>(c.prefix_rows);
  return appended * kRefreshCostPerRow <= total;
}

IndexResidency IndexManager::Residency(const IndexKey& key) const {
  MutexLock lock(mu_);
  auto it = entries_.find(key);
  if (it != entries_.end()) {
    if (it->second->building) return IndexResidency::kBuilding;
    if (it->second->table_version == catalog_->Version(key.table)) {
      return IndexResidency::kResident;
    }
    // Stale — but stale *by appends only* (and below the refresh-cost
    // crossover) means the next lookup renews it incrementally at a
    // fraction of a rebuild. The optimizer must see that (kRefreshable),
    // or with a conservative reuse horizon it would flip to brute force
    // after every append and planned queries would never reach the
    // refresh path at all. Past the crossover the lookup will rebuild,
    // so advertising kRefreshable would understate the cost — the entry
    // reports like any other stale entry instead.
    if (RefreshableLocked(key, *it->second)) {
      return IndexResidency::kRefreshable;
    }
  }
  if (PersistedPlausibleLocked(key)) return IndexResidency::kOnDisk;
  return IndexResidency::kAbsent;
}

void IndexManager::InvalidateTable(const std::string& table) {
  std::vector<std::string> doomed;
  {
    MutexLock lock(mu_);
    for (auto it = entries_.begin(); it != entries_.end();) {
      if (it->first.table == table && !it->second->building) {
        resident_bytes_ -= it->second->bytes;
        it = entries_.erase(it);
        ++counters_.invalidations;
      } else {
        ++it;
      }
    }
    // An explicit invalidation is a destructive signal: the persisted
    // images over this table can never validate again, so reclaim them.
    for (auto it = persisted_.begin(); it != persisted_.end();) {
      if (it->first.table == table) {
        doomed.push_back(it->second.path);
        it = persisted_.erase(it);
      } else {
        ++it;
      }
    }
    CheckAccountingLocked();
  }
  for (const auto& path : doomed) {
    std::error_code ec;
    std::filesystem::remove(path, ec);
  }
}

void IndexManager::Clear() {
  MutexLock lock(mu_);
  for (auto it = entries_.begin(); it != entries_.end();) {
    if (it->second->building) {
      ++it;
    } else {
      resident_bytes_ -= it->second->bytes;
      it = entries_.erase(it);
    }
  }
  CheckAccountingLocked();
}

IndexManager::Stats IndexManager::stats() const {
  MutexLock lock(mu_);
  Stats s = counters_;
  s.resident_bytes = resident_bytes_;
  s.resident_count = 0;
  for (const auto& [key, entry] : entries_) {
    (void)key;
    if (!entry->building) ++s.resident_count;
  }
  return s;
}

}  // namespace cre
