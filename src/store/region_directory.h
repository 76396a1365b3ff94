// RegionDirectory: the in-memory fingerprint -> log-offset map of the
// tiered region store. One entry per distinct region fingerprint in the
// log, pointing at that fingerprint's LATEST record (the log is
// append-only; box growth re-appends), plus the metadata a cache miss
// needs to find reload candidates WITHOUT touching disk: the region's
// argmax class and its learned bounding box.
//
// The directory is what makes an evicted region cheap to bring back: when
// the RAM cache evicts a slot it keeps (or refreshes) the victim's
// directory entry, so a later request in that region stabs the directory,
// reads one record from the log, revalidates it against the API's answer
// for the 2-query validation pair the request already paid, and installs
// it — a kDiskHit, never a re-extraction.
//
// Fingerprints resolve through a flat open-addressing table of uint32_t
// entry indices keyed through entries_[i].fingerprint: linear probing,
// power-of-two capacity, grown at load 1/2. Entries are never deleted,
// so the table needs no tombstones. Reserve (RegionStore::Open passes
// the log's frame count) sizes it once, so a restart's replay inserts
// every fingerprint without a rehash, at 4 bytes per slot (about 1 MB at
// 10^5 regions) instead of one heap node per fingerprint.
//
// CollectCandidates returns the boxes whose argmax partition matches the
// query's predicted class first, then the rest. The scan is linear over entries (the directory cannot reuse
// interpret::RegionIndex without a dependency cycle, and it sits on the
// RAM-miss path where one disk read follows anyway); the argmax partition
// keeps the common case at ~1/C of the entries.
//
// Not thread-safe: RegionStore serializes all access behind its mutex.

#ifndef OPENAPI_STORE_REGION_DIRECTORY_H_
#define OPENAPI_STORE_REGION_DIRECTORY_H_

#include <cstdint>
#include <map>
#include <vector>

#include "store/region_record.h"

namespace openapi::store {

class RegionDirectory {
 public:
  explicit RegionDirectory(size_t dim);

  /// Inserts or refreshes the entry for `fingerprint`: a new fingerprint
  /// gets a fresh entry; an existing one is repointed at `offset`, its
  /// box is UNIONED with [lo, hi] (boxes only ever grow — the invariant
  /// the learned region boxes already obey in RAM), and its epoch raised
  /// to `epoch` (epochs only ever advance: re-validating a region at the
  /// current drift epoch must never demote it to a stale one).
  void Put(uint64_t fingerprint, uint64_t offset, uint32_t argmax,
           const Vec& lo, const Vec& hi, uint32_t epoch = 0);

  /// Pre-sizes the entry storage and fingerprint table for `entries`
  /// distinct fingerprints (RegionStore::Open passes the log's frame
  /// count, so replay neither regrows nor rehashes them).
  void Reserve(size_t entries);

  bool Contains(uint64_t fingerprint) const {
    return slots_[SlotOf(fingerprint)] != 0;
  }

  /// Copies `fingerprint`'s box into *lo / *hi and its drift epoch into
  /// *epoch; false when absent.
  bool Find(uint64_t fingerprint, Vec* lo, Vec* hi, uint32_t* epoch) const;

  /// Appends the log offsets of every entry whose box contains x AND
  /// whose epoch is at least `min_epoch` (stale-epoch regions describe a
  /// model the endpoint no longer serves — they are invalidated, not
  /// offered) — entries whose argmax equals `first_argmax` first, then
  /// the remaining partitions in ascending argmax order.
  void CollectCandidates(const Vec& x, size_t first_argmax,
                         std::vector<uint64_t>* offsets,
                         uint32_t min_epoch = 0) const;

  size_t size() const { return entries_.size(); }
  size_t dim() const { return dim_; }

 private:
  struct Entry {
    uint64_t fingerprint = 0;
    uint64_t offset = 0;
    uint32_t argmax = 0;
    uint32_t epoch = 0;
  };

  /// The slot holding `fingerprint`'s entry, or the empty slot where
  /// it would go.
  size_t SlotOf(uint64_t fingerprint) const;
  /// Rebuilds the fingerprint table at `capacity` slots (a power of two).
  void Rehash(size_t capacity);

  bool BoxContains(size_t entry_index, const Vec& x) const;
  void CollectPartition(const std::vector<uint32_t>& partition, const Vec& x,
                        uint32_t min_epoch,
                        std::vector<uint64_t>* offsets) const;

  const size_t dim_;
  std::vector<Entry> entries_;
  /// entries_[i]'s box at boxes_[i * 2 * dim_]: lo, then hi.
  std::vector<double> boxes_;
  /// Fingerprint table: entry index + 1 per slot, 0 for an empty slot.
  std::vector<uint32_t> slots_;
  /// argmax -> entry indices; ordered so candidate order is deterministic.
  std::map<uint32_t, std::vector<uint32_t>> by_class_;
};

}  // namespace openapi::store

#endif  // OPENAPI_STORE_REGION_DIRECTORY_H_
