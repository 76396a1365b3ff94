#include "store/region_directory.h"

#include <algorithm>

#include "util/check.h"

namespace openapi::store {

void RegionDirectory::Put(uint64_t fingerprint, uint64_t offset,
                          uint32_t argmax, const Vec& lo, const Vec& hi,
                          uint32_t epoch) {
  OPENAPI_CHECK_EQ(lo.size(), dim_);
  OPENAPI_CHECK_EQ(hi.size(), dim_);
  const auto [it, inserted] = by_fingerprint_.try_emplace(
      fingerprint, static_cast<uint32_t>(entries_.size()));
  if (!inserted) {
    const size_t index = it->second;
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
  by_class_[argmax].push_back(it->second);
  entries_.push_back(Entry{fingerprint, offset, argmax, epoch});
  boxes_.insert(boxes_.end(), lo.begin(), lo.end());
  boxes_.insert(boxes_.end(), hi.begin(), hi.end());
}

void RegionDirectory::Reserve(size_t entries) {
  entries_.reserve(entries);
  boxes_.reserve(entries * 2 * dim_);
  by_fingerprint_.reserve(entries);
}

bool RegionDirectory::Find(uint64_t fingerprint, Vec* lo, Vec* hi,
                           uint32_t* epoch) const {
  auto it = by_fingerprint_.find(fingerprint);
  if (it == by_fingerprint_.end()) return false;
  const double* box_lo = boxes_.data() + it->second * 2 * dim_;
  lo->assign(box_lo, box_lo + dim_);
  hi->assign(box_lo + dim_, box_lo + 2 * dim_);
  *epoch = entries_[it->second].epoch;
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
