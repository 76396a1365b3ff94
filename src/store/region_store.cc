#include "store/region_store.h"

#include <algorithm>
#include <utility>

#include "util/file_io.h"

namespace openapi::store {

Result<std::unique_ptr<RegionStore>> RegionStore::Open(
    const std::string& path, size_t dim, size_t num_classes) {
  RegionDirectory directory(dim);
  // Every frame is one record, so the file size bounds the entry count
  // (the header is smaller than a frame, so this overshoots by at most
  // one).
  if (Result<uint64_t> size = util::FileSizeOf(path); size.ok()) {
    directory.Reserve(
        static_cast<size_t>(*size / RecordFrameSize(dim, num_classes)));
  }
  uint32_t max_record_epoch = 0;
  auto log = RegionLog::Open(
      path, dim, num_classes,
      [&directory, &max_record_epoch](uint64_t offset,
                                      const RegionRecord& record) {
        // Replay order is append order, so the directory ends pointing at
        // each fingerprint's latest record with the union of every box it
        // was persisted with — identical to the directory state the
        // writing process had.
        directory.Put(record.fingerprint, offset, record.argmax, record.lo,
                      record.hi, record.epoch);
        max_record_epoch = std::max(max_record_epoch, record.epoch);
      });
  OPENAPI_RETURN_NOT_OK(log.status());
  const uint32_t epoch = std::max((*log)->base_epoch(), max_record_epoch);
  return std::unique_ptr<RegionStore>(new RegionStore(
      std::move(*log), std::move(directory), dim, num_classes, epoch));
}

Result<bool> RegionStore::Put(const RegionRecord& record) {
  util::MutexLock lock(mutex_);
  RegionRecord stamped = record;
  stamped.epoch = std::max(record.epoch, epoch_);
  Vec stored_lo, stored_hi;
  uint32_t stored_epoch = 0;
  if (directory_.Find(record.fingerprint, &stored_lo, &stored_hi,
                      &stored_epoch)) {
    bool grew = false;
    for (size_t j = 0; j < dim_; ++j) {
      grew = grew || record.lo[j] < stored_lo[j] || record.hi[j] > stored_hi[j];
      // Re-append with the UNION box so a post-restart directory (built
      // from records alone) sees everything this process learned.
      stamped.lo[j] = std::min(record.lo[j], stored_lo[j]);
      stamped.hi[j] = std::max(record.hi[j], stored_hi[j]);
    }
    // A stored entry at a stale drift epoch must be re-appended even when
    // its box already covers this one — otherwise a region re-extracted
    // (and therefore revalidated) after a drift bump would stay filtered
    // out of CollectCandidates forever.
    if (!grew && stored_epoch >= stamped.epoch) {
      return false;  // already persisted with a covering box, same epoch
    }
  }
  OPENAPI_ASSIGN_OR_RETURN(uint64_t offset, log_->Append(stamped));
  directory_.Put(stamped.fingerprint, offset, stamped.argmax, stamped.lo,
                 stamped.hi, stamped.epoch);
  ++appended_records_;
  return true;
}

bool RegionStore::Contains(uint64_t fingerprint) const {
  util::MutexLock lock(mutex_);
  return directory_.Contains(fingerprint);
}

void RegionStore::CollectCandidates(const Vec& x, size_t first_argmax,
                                    std::vector<uint64_t>* offsets) const {
  util::MutexLock lock(mutex_);
  directory_.CollectCandidates(x, first_argmax, offsets, epoch_);
}

Result<RegionRecord> RegionStore::Read(uint64_t offset) const {
  util::MutexLock lock(mutex_);
  return log_->ReadAt(offset);
}

Status RegionStore::Flush() {
  util::MutexLock lock(mutex_);
  return log_->Flush();
}

size_t RegionStore::size() const {
  util::MutexLock lock(mutex_);
  return directory_.size();
}

uint64_t RegionStore::appended_records() const {
  util::MutexLock lock(mutex_);
  return appended_records_;
}

RegionLog::RecoveryStats RegionStore::recovery_stats() const {
  util::MutexLock lock(mutex_);
  return log_->recovery_stats();
}

uint32_t RegionStore::current_epoch() const {
  util::MutexLock lock(mutex_);
  return epoch_;
}

uint32_t RegionStore::BumpEpoch() {
  util::MutexLock lock(mutex_);
  return ++epoch_;
}

}  // namespace openapi::store
