// RegionLog: the append-only on-disk half of the tiered region store.
//
// One log file is one ENDPOINT NAMESPACE: a stream of framed
// RegionRecords (region_record.h) behind a versioned header that pins the
// endpoint's (dim, num_classes). Appends only ever grow the file —
// updating a region (e.g. its learned box grew before eviction) appends a
// NEW record with the same fingerprint; the in-memory directory points at
// the latest offset and recovery replays records in order, so the last
// write wins without any in-place mutation. That is the whole crash-safety
// argument: a crash can only lose the bytes of the record being appended,
// never corrupt an earlier one.
//
// ## File layout
//
//   u8[8]  magic   "OARLOG1\n"
//   u32    version (currently 1)
//   u32    base epoch (drift epoch floor of the whole log; written as 0
//          at creation — pre-drift logs carry 0 here — and honored at
//          recovery: the store's current epoch resumes at
//          max(base epoch, every record's epoch))
//   u64    dim
//   u64    num_classes
//   ...framed records (region_record.h)
//
// ## Recovery
//
// Open() streams the file once, front to back, in chunks of whole frames
// (kReplayChunkBytes, so replay holds at most two chunks of the log in
// memory whatever the log's size: the one being replayed and the one
// being read ahead). Each chunk's frames are checked — magic, payload
// size, checksum — in parallel on util::SharedThreadPool, while a pool
// task reads the next chunk; the file is TRUNCATED at the first frame
// that fails (torn tail from a crash mid-append, or a checksum/magic/size
// mismatch from corruption), dropping that record and everything after
// it (a chunk already read ahead past it included), with a logged warning
// carrying the path, the byte count dropped, and the reason. The intact
// prefix is replayed through the caller's callback, in append order on the
// calling thread (RegionStore rebuilds its directory from it), so
// recovery costs exactly one sequential read. Called from a worker of the
// shared pool, Open reads, checks and replays each chunk in turn on that
// worker instead, since a worker must not wait on its own pool. A 0-byte
// file (a crash before the header reached disk) opens as a fresh log.
// Any other header that fails to validate is NOT silently rebuilt: the
// file is some other endpoint's log (shape mismatch) or not a log at
// all, and writing to it would destroy data the caller did not mean to
// touch.
//
// Not thread-safe: RegionStore serializes all access behind its mutex.

#ifndef OPENAPI_STORE_REGION_LOG_H_
#define OPENAPI_STORE_REGION_LOG_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>

#include "store/region_record.h"
#include "util/file_io.h"
#include "util/status.h"

namespace openapi::store {

class RegionLog {
 public:
  struct RecoveryStats {
    uint64_t records_recovered = 0;  // intact records replayed at Open
    uint64_t bytes_truncated = 0;    // torn/corrupt tail dropped at Open
  };

  /// Replay reads the log in chunks of this many bytes, rounded down to
  /// whole frames (at least one frame per chunk).
  static constexpr size_t kReplayChunkBytes = size_t{1} << 20;

  /// Opens (creating if absent or empty) the log at `path` for an
  /// endpoint of shape (dim, num_classes), runs crash recovery, and
  /// replays every intact record through `on_record` (offset, decoded
  /// record) in append order on the calling thread. The record is one
  /// buffer reused for every call: it is valid only during the call, so
  /// copy whatever must outlive it. IoError when the file is non-empty
  /// but not a v1 log of this shape.
  static Result<std::unique_ptr<RegionLog>> Open(
      const std::string& path, size_t dim, size_t num_classes,
      const std::function<void(uint64_t, const RegionRecord&)>& on_record =
          nullptr);

  RegionLog(const RegionLog&) = delete;
  RegionLog& operator=(const RegionLog&) = delete;

  /// Appends one framed record and returns the offset its frame starts
  /// at (the directory key). The record's shapes must match the log's.
  Result<uint64_t> Append(const RegionRecord& record);

  /// Reads and validates the record whose frame starts at `offset`.
  Result<RegionRecord> ReadAt(uint64_t offset) const;

  /// Pushes buffered appends to the kernel.
  Status Flush();

  const std::string& path() const { return path_; }
  size_t dim() const { return dim_; }
  size_t num_classes() const { return num_classes_; }
  uint64_t record_count() const { return record_count_; }
  const RecoveryStats& recovery_stats() const { return recovery_; }
  /// Drift-epoch floor from the file header (0 on fresh and pre-drift
  /// logs). The store's recovered epoch is the max of this and every
  /// replayed record's epoch.
  uint32_t base_epoch() const { return base_epoch_; }

 private:
  RegionLog(util::File file, std::string path, size_t dim,
            size_t num_classes)
      : file_(std::move(file)), path_(std::move(path)), dim_(dim),
        num_classes_(num_classes) {}

  util::File file_;
  std::string path_;
  size_t dim_;
  size_t num_classes_;
  uint64_t record_count_ = 0;
  uint32_t base_epoch_ = 0;
  RecoveryStats recovery_;
};

}  // namespace openapi::store

#endif  // OPENAPI_STORE_REGION_LOG_H_
