#include "store/region_directory.h"

#include <algorithm>
#include <bit>

#include "util/check.h"

namespace openapi::store {

namespace {

// The smallest fingerprint table; it doubles whenever an insert would
// take it past half full.
constexpr size_t kMinSlots = 16;
// Fibonacci hashing: the top bits of fingerprint * 2^64/phi pick the
// home slot, so fingerprints that differ only in high or low bits still
// spread.
constexpr uint64_t kFibonacciMultiplier = 0x9e3779b97f4a7c15ULL;

}  // namespace

RegionDirectory::RegionDirectory(size_t dim)
    : dim_(dim), slots_(kMinSlots, 0) {}

size_t RegionDirectory::SlotOf(uint64_t fingerprint) const {
  const size_t mask = slots_.size() - 1;
  const int shift = 64 - std::countr_zero(slots_.size());
  for (size_t slot = (fingerprint * kFibonacciMultiplier) >> shift;;
       slot = (slot + 1) & mask) {
    const uint32_t held = slots_[slot];
    if (held == 0 || entries_[held - 1].fingerprint == fingerprint) {
      return slot;
    }
  }
}

void RegionDirectory::Rehash(size_t capacity) {
  slots_.assign(capacity, 0);
  for (size_t i = 0; i < entries_.size(); ++i) {
    slots_[SlotOf(entries_[i].fingerprint)] = static_cast<uint32_t>(i + 1);
  }
}

void RegionDirectory::Put(uint64_t fingerprint, uint64_t offset,
                          uint32_t argmax, const Vec& lo, const Vec& hi,
                          uint32_t epoch) {
  OPENAPI_CHECK_EQ(lo.size(), dim_);
  OPENAPI_CHECK_EQ(hi.size(), dim_);
  size_t slot = SlotOf(fingerprint);
  if (slots_[slot] != 0) {
    const size_t index = slots_[slot] - 1;
    Entry& entry = entries_[index];
    entry.offset = offset;
    entry.epoch = std::max(entry.epoch, epoch);
    double* box_lo = boxes_.data() + index * 2 * dim_;
    double* box_hi = box_lo + dim_;
    for (size_t j = 0; j < dim_; ++j) {
      box_lo[j] = std::min(box_lo[j], lo[j]);
      box_hi[j] = std::max(box_hi[j], hi[j]);
    }
    // A refreshed entry keeps its original argmax filing even if `argmax`
    // differs (a region spanning the decision boundary can serve several
    // classes); the partition is a pruning heuristic and
    // CollectCandidates falls back to the other partitions anyway.
    return;
  }
  if (2 * (entries_.size() + 1) > slots_.size()) {
    Rehash(2 * slots_.size());
    slot = SlotOf(fingerprint);
  }
  const auto index = static_cast<uint32_t>(entries_.size());
  slots_[slot] = index + 1;
  by_class_[argmax].push_back(index);
  entries_.push_back(Entry{fingerprint, offset, argmax, epoch});
  boxes_.insert(boxes_.end(), lo.begin(), lo.end());
  boxes_.insert(boxes_.end(), hi.begin(), hi.end());
}

void RegionDirectory::Reserve(size_t entries) {
  entries_.reserve(entries);
  boxes_.reserve(entries * 2 * dim_);
  const size_t capacity = std::bit_ceil(std::max(kMinSlots, 2 * entries));
  if (capacity > slots_.size()) Rehash(capacity);
}

bool RegionDirectory::Find(uint64_t fingerprint, Vec* lo, Vec* hi,
                           uint32_t* epoch) const {
  const uint32_t held = slots_[SlotOf(fingerprint)];
  if (held == 0) return false;
  const size_t index = held - 1;
  const double* box_lo = boxes_.data() + index * 2 * dim_;
  lo->assign(box_lo, box_lo + dim_);
  hi->assign(box_lo + dim_, box_lo + 2 * dim_);
  *epoch = entries_[index].epoch;
  return true;
}

bool RegionDirectory::BoxContains(size_t entry_index, const Vec& x) const {
  const double* lo = boxes_.data() + entry_index * 2 * dim_;
  const double* hi = lo + dim_;
  for (size_t j = 0; j < dim_; ++j) {
    if (x[j] < lo[j] || x[j] > hi[j]) return false;
  }
  return true;
}

void RegionDirectory::CollectPartition(
    const std::vector<uint32_t>& partition, const Vec& x, uint32_t min_epoch,
    std::vector<uint64_t>* offsets) const {
  for (uint32_t index : partition) {
    if (entries_[index].epoch < min_epoch) continue;  // stale drift epoch
    if (BoxContains(index, x)) {
      offsets->push_back(entries_[index].offset);
    }
  }
}

void RegionDirectory::CollectCandidates(const Vec& x, size_t first_argmax,
                                        std::vector<uint64_t>* offsets,
                                        uint32_t min_epoch) const {
  OPENAPI_CHECK_EQ(x.size(), dim_);
  auto first = by_class_.find(static_cast<uint32_t>(first_argmax));
  if (first != by_class_.end()) {
    CollectPartition(first->second, x, min_epoch, offsets);
  }
  for (const auto& [argmax, partition] : by_class_) {
    if (argmax == first_argmax) continue;
    CollectPartition(partition, x, min_epoch, offsets);
  }
}

}  // namespace openapi::store
