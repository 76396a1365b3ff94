// RegionStore: the persistent tier of the serving cache — one append-only
// RegionLog plus the RegionDirectory over it, behind one mutex.
//
// EndpointSession attaches a store via SessionOptions::store and uses it
// three ways (interpretation_engine.h documents the serving flow):
//
//   * WRITE-THROUGH on extraction/import: every region the session pays
//     for is Put() here, so the purchased queries survive both eviction
//     and process restart.
//   * RELOAD on RAM miss: CollectCandidates + Read find the regions whose
//     learned box covers the query point; the session revalidates the
//     decoded model against the validation pair it already bought and
//     installs it (a kDiskHit — 2 queries, zero extraction).
//   * REFRESH on eviction: the victim's (possibly grown) learned box is
//     Put() back, which re-appends only when the box actually grew — the
//     directory then points at the freshest record.
//
// Put deduplicates by fingerprint: a record whose fingerprint is already
// present appends ONLY when its box extends the stored one (union), so
// steady-state traffic over a warm store writes nothing. One store
// instance must be the only writer of its log file; open sessions on the
// SAME store (any number — it is thread-safe), not two stores on one
// path.
//
// Thread-safety: every method takes the internal mutex; the lock covers
// directory lookup + log read as one atomic step, so a concurrent Put can
// never leave a reader holding a stale offset into a half-written record
// (appends are framed and only become visible after the directory is
// updated, both under the lock).

#ifndef OPENAPI_STORE_REGION_STORE_H_
#define OPENAPI_STORE_REGION_STORE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "store/region_directory.h"
#include "store/region_log.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace openapi::store {

class RegionStore {
 public:
  /// Opens (creating if absent) the store at `path` for an endpoint of
  /// shape (dim, num_classes): runs the log's crash recovery, rebuilds
  /// the directory from the intact prefix, and is ready to serve.
  static Result<std::unique_ptr<RegionStore>> Open(const std::string& path,
                                                   size_t dim,
                                                   size_t num_classes);

  RegionStore(const RegionStore&) = delete;
  RegionStore& operator=(const RegionStore&) = delete;

  /// Persists `record`, deduplicating by fingerprint: appends when the
  /// fingerprint is new, its box grew beyond the stored one (directory
  /// box unioned either way), or the stored entry carries a stale drift
  /// epoch (a freshly revalidated region must become reloadable again).
  /// The appended record is stamped with max(record.epoch, current
  /// epoch). Returns true when bytes were appended.
  Result<bool> Put(const RegionRecord& record) EXCLUDES(mutex_);

  /// True when `fingerprint` has a persisted record.
  bool Contains(uint64_t fingerprint) const EXCLUDES(mutex_);

  /// Log offsets of every persisted region whose learned box contains x
  /// AND whose entry is at the current drift epoch, the `first_argmax`
  /// partition first (the session's lookup heuristic).
  void CollectCandidates(const Vec& x, size_t first_argmax,
                         std::vector<uint64_t>* offsets) const
      EXCLUDES(mutex_);

  /// Reads and validates one record by directory offset.
  Result<RegionRecord> Read(uint64_t offset) const EXCLUDES(mutex_);

  /// Flushes buffered appends to the kernel.
  Status Flush() EXCLUDES(mutex_);

  /// Distinct fingerprints in the directory.
  size_t size() const EXCLUDES(mutex_);
  /// Records appended by THIS instance (excludes recovered ones).
  uint64_t appended_records() const EXCLUDES(mutex_);
  /// Recovery outcome of the Open() that created this instance.
  RegionLog::RecoveryStats recovery_stats() const EXCLUDES(mutex_);

  /// Current drift epoch. Recovered at Open() as the max of the log
  /// header's base epoch and every replayed record's epoch, so a restart
  /// resumes where drift tracking left off.
  uint32_t current_epoch() const EXCLUDES(mutex_);
  /// Advances the drift epoch by one and returns the new value. Called by
  /// the session when its validation pair catches the endpoint serving a
  /// different model: every entry below the new epoch stops being a
  /// reload candidate (invalidated, not served). Durability is via
  /// records — the next Put stamps the new epoch — which is safe because
  /// disk reloads always revalidate against a live validation pair.
  uint32_t BumpEpoch() EXCLUDES(mutex_);

  size_t dim() const { return dim_; }
  size_t num_classes() const { return num_classes_; }
  const std::string& path() const { return path_; }

 private:
  RegionStore(std::unique_ptr<RegionLog> log, RegionDirectory directory,
              size_t dim, size_t num_classes, uint32_t epoch)
      : dim_(dim), num_classes_(num_classes), path_(log->path()),
        log_(std::move(log)), directory_(std::move(directory)),
        epoch_(epoch) {}

  const size_t dim_;
  const size_t num_classes_;
  const std::string path_;

  mutable util::Mutex mutex_;
  std::unique_ptr<RegionLog> log_ GUARDED_BY(mutex_);
  RegionDirectory directory_ GUARDED_BY(mutex_);
  uint64_t appended_records_ GUARDED_BY(mutex_) = 0;
  uint32_t epoch_ GUARDED_BY(mutex_) = 0;
};

}  // namespace openapi::store

#endif  // OPENAPI_STORE_REGION_STORE_H_
