#include "interpret/interpretation_engine.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstring>
#include <iterator>

#include "api/ground_truth.h"
#include "store/region_store.h"
#include "util/check.h"
#include "util/logging.h"
#include "util/timer.h"

namespace openapi::interpret {
namespace {

constexpr size_t kNoSlot = static_cast<size_t>(-1);

/// Bound on the point-memo keys filed under ONE region (FIFO within the
/// region): together with the region capacity this bounds the whole memo,
/// closing the "point memo grows without bound" hole.
constexpr size_t kMaxMemoPointsPerRegion = 256;

/// Estimated resident bytes of one point-memo hash-map entry: the
/// 128-bit PointKey, the slot value, and the node/bucket overhead of the
/// unordered_map. Feeds the memo_bytes gauge the byte budget bounds.
constexpr size_t kMemoMapEntryBytes =
    2 * sizeof(uint64_t) + sizeof(size_t) + 2 * sizeof(void*);

/// Resident bytes of one entry in a region's bounded per-slot key list.
constexpr size_t kMemoListEntryBytes = 2 * sizeof(uint64_t);

/// Every EngineStats field, for the one loop that copies a session's
/// counters out. The static_assert below catches a field added to
/// EngineStats but not here.
constexpr uint64_t EngineStats::* kStatFields[] = {
    &EngineStats::requests,      &EngineStats::point_memo_hits,
    &EngineStats::cache_hits,    &EngineStats::disk_hits,
    &EngineStats::cache_misses,  &EngineStats::evictions,
    &EngineStats::failures,      &EngineStats::queries,
    &EngineStats::store_appends, &EngineStats::drift_events,
    &EngineStats::stale_invalidations,
    &EngineStats::wasted_queries, &EngineStats::retries,
    &EngineStats::region_bytes,  &EngineStats::memo_bytes,
    &EngineStats::index_bytes,   &EngineStats::cache_bytes,
};
static_assert(sizeof(EngineStats) ==
              std::size(kStatFields) * sizeof(uint64_t));
static_assert(alignof(EngineStats) >=
              std::atomic_ref<uint64_t>::required_alignment);

/// Lock-free view of one field of a session's counter block.
std::atomic_ref<uint64_t> Counter(EngineStats& stats,
                                  uint64_t EngineStats::* field) {
  return std::atomic_ref<uint64_t>(stats.*field);
}

/// Core parameters of `model` for class c against every c' != c, in the
/// order Interpretation::pairs documents.
std::vector<CoreParameters> PairsFromModel(const api::LocalLinearModel& model,
                                           size_t c) {
  const size_t num_classes = model.bias.size();
  std::vector<CoreParameters> pairs;
  pairs.reserve(num_classes - 1);
  for (size_t c_prime = 0; c_prime < num_classes; ++c_prime) {
    if (c_prime == c) continue;
    pairs.push_back(api::GroundTruthCoreParameters(model, c, c_prime));
  }
  return pairs;
}

/// The region-log record of one region with learned box [lo, hi]
/// (RegionStore::Put stamps its epoch).
store::RegionRecord RecordOf(const api::LocalLinearModel& model,
                             uint64_t fingerprint, const Vec& anchor,
                             size_t argmax, Vec lo, Vec hi) {
  store::RegionRecord record;
  record.fingerprint = fingerprint;
  record.argmax = static_cast<uint32_t>(argmax);
  record.anchor = anchor;
  record.lo = std::move(lo);
  record.hi = std::move(hi);
  record.model = model;
  return record;
}

/// The answer a cache hit serves for class c, read off the cached model.
/// A hit validated by the 2-query pair carries its probe; a plain
/// point-memo hit (probe == nullptr) cost nothing.
Interpretation CachedAnswer(const api::LocalLinearModel& model, size_t c,
                            Vec* probe) {
  Interpretation out;
  out.dc = api::GroundTruthDecisionFeatures(model, c);
  out.pairs = PairsFromModel(model, c);
  out.iterations = 0;
  if (probe != nullptr) {
    out.edge_length = kValidationEdge;
    out.probes.push_back(std::move(*probe));
    out.queries = 2;
  }
  return out;
}

}  // namespace

const char* CacheOutcomeName(CacheOutcome outcome) {
  switch (outcome) {
    case CacheOutcome::kBypass:
      return "bypass";
    case CacheOutcome::kPointMemo:
      return "point-memo";
    case CacheOutcome::kMemoryHit:
      return "memory-hit";
    case CacheOutcome::kDiskHit:
      return "disk-hit";
    case CacheOutcome::kMiss:
      return "miss";
    case CacheOutcome::kEvictedRefetch:
      return "evicted-refetch";
    case CacheOutcome::kStaleRefetch:
      return "stale-refetch";
  }
  return "unknown";
}

// GCC 12 reports spurious -Wmaybe-uninitialized when a variant-backed
// Result moves out of the deque into the returned optional (the
// PR105562 family of false positives); every Item is fully constructed
// by a worker before it is queued.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#endif
std::optional<SessionStream::Item> SessionStream::Next() {
  if (shared_ == nullptr || delivered_ == total_) return std::nullopt;
  util::MutexLock lock(shared_->mutex);
  // delivered_ < total_, so an undelivered item is either queued already
  // or still running on the pool and will be queued when it finishes.
  while (shared_->completed.empty()) shared_->ready.Wait(shared_->mutex);
  std::optional<Item> item;
  item.emplace(std::move(shared_->completed.front()));
  shared_->completed.pop_front();
  ++delivered_;
  return item;
}

#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif

// ---------------------------------------------------------------------------
// EndpointSession
// ---------------------------------------------------------------------------

EndpointSession::EndpointSession(const InterpretationEngine* engine,
                                 const api::PredictionApi* api,
                                 size_t capacity, size_t byte_budget,
                                 store::RegionStore* store)
    : engine_(engine),
      api_(api),
      capacity_(capacity),
      byte_budget_(byte_budget),
      store_(store),
      index_(api->dim()) {
  if (store_ != nullptr) {
    // A shape-mismatched store would deserialize garbage models that
    // then fail validation on every reload — catch it at open time.
    OPENAPI_CHECK_EQ(store_->dim(), api_->dim());
    OPENAPI_CHECK_EQ(store_->num_classes(), api_->num_classes());
    // Resume drift tracking where the log left off: regions persisted at
    // older epochs stay invalidated across a restart.
    epoch_.store(store_->current_epoch(), std::memory_order_relaxed);
  }
}

void EndpointSession::Bump(uint64_t EngineStats::* counter,
                           uint64_t n) const {
  // A zero bump skips the atomic add: point-memo hits charge no queries.
  if (n != 0) {
    Counter(stats_, counter).fetch_add(n, std::memory_order_relaxed);
  }
}

void EndpointSession::BumpGauge(uint64_t EngineStats::* gauge,
                                int64_t delta) const {
  // Negative deltas wrap through unsigned arithmetic and cancel exactly
  // against the positive ones, so the gauge reads correct at any point
  // where its mutations are ordered (they all run under the writer lock).
  const uint64_t d = static_cast<uint64_t>(delta);
  Counter(stats_, gauge).fetch_add(d, std::memory_order_relaxed);
  Counter(stats_, &EngineStats::cache_bytes)
      .fetch_add(d, std::memory_order_relaxed);
}

size_t EndpointSession::SlotBytes(const CachedRegion& region) {
  return sizeof(CachedRegion) +
         sizeof(double) *
             (region.model.weights.rows() * region.model.weights.cols() +
              region.model.bias.size() + region.anchor.size());
}

size_t EndpointSession::CacheBytesLocked() const {
  return Counter(stats_, &EngineStats::cache_bytes)
      .load(std::memory_order_relaxed);
}

size_t EndpointSession::OccupiedLocked() const {
  return regions_.size() - free_slots_.size();
}

void EndpointSession::RefreshIndexBytesLocked() const {
  const uint64_t now = index_.memory_bytes();
  const uint64_t before = Counter(stats_, &EngineStats::index_bytes)
                              .load(std::memory_order_relaxed);
  if (now != before) {
    BumpGauge(&EngineStats::index_bytes,
              static_cast<int64_t>(now - before));
  }
}

void EndpointSession::EnforceByteBudgetLocked(
    size_t protect_slot, std::vector<store::RegionRecord>* spills) const {
  if (byte_budget_ == 0) return;
  while (CacheBytesLocked() > byte_budget_) {
    const size_t occupied = OccupiedLocked();
    if (occupied == 0) break;
    size_t guard = protect_slot;
    if (occupied == 1 && protect_slot != kNoSlot &&
        protect_slot < regions_.size() && regions_[protect_slot].occupied) {
      // Everything else is gone and the cache still exceeds the budget:
      // the protected region cannot be cached within the ceiling. Evict
      // it too (the request it served already holds its own copy).
      guard = kNoSlot;
    }
    free_slots_.push_back(EvictOneLocked(guard, spills));
  }
}

EndpointSession::PointKey EndpointSession::PointKeyOf(const Vec& x0) {
  // Two FNV-1a streams with different offsets over the raw double bits.
  uint64_t h1 = 1469598103934665603ULL;
  uint64_t h2 = 0xcbf29ce484222325ULL ^ 0x9e3779b97f4a7c15ULL;
  for (double v : x0) {
    uint64_t bits;
    std::memcpy(&bits, &v, sizeof(bits));
    h1 = (h1 ^ bits) * 1099511628211ULL;
    h2 = (h2 ^ (bits + 0x9e3779b97f4a7c15ULL)) * 0x100000001b3ULL;
  }
  h1 = (h1 ^ x0.size()) * 1099511628211ULL;
  return {h1, h2};
}

bool EndpointSession::ValidationPair::ExplainedBy(
    const api::LocalLinearModel& model) const {
  return ExplainsObservation(model, x0, at_x0, tol, &logits) &&
         ExplainsObservation(model, probe, at_probe, tol, &logits);
}

std::optional<EndpointSession::RegionMatch>
EndpointSession::FindMatchingRegion(const ValidationPair& pair) const {
  util::ReaderMutexLock lock(cache_mutex_);
  // Drift bumps invalidate the whole cache eagerly, so slots at an older
  // epoch should never be visible here; the skip is belt-and-braces so a
  // stale closed form cannot serve even mid-invalidation.
  const uint64_t current_epoch = epoch_.load(std::memory_order_relaxed);
  // Takes the region as an argument: the thread-safety analysis does not
  // carry the reader lock into a lambda body.
  auto match = [&](size_t slot,
                   const CachedRegion& region) -> std::optional<RegionMatch> {
    if (!region.occupied || region.epoch < current_epoch ||
        !pair.ExplainedBy(region.model)) {
      return std::nullopt;
    }
    return RegionMatch{slot, region.fingerprint, region.model};
  };
  // Point location: stab the learned boxes and validate each candidate
  // with the exact predicate. Boxes only cover what traffic has
  // certified, so they can admit a false candidate (validation rejects
  // it) but a validated candidate is always a hit the linear scan would
  // also have found.
  std::vector<size_t> candidates;
  index_.Collect(pair.x0, &candidates);
  for (size_t slot : candidates) {
    if (auto hit = match(slot, regions_[slot])) return hit;
  }
  // No candidate survived. A learned box UNDER-covers its region until
  // traffic teaches it, so this is not yet a miss: scan the remaining
  // regions exactly like a linear scan would (skipping the candidates
  // already rejected above). A match found here is a first visit to an
  // uncovered part of a cached region — the hit path then grows its
  // box, so the next nearby request resolves in the stab above. This
  // fallback is what makes the index decision-invisible; a true miss
  // pays it once and then pays the extraction that dwarfs it.
  std::sort(candidates.begin(), candidates.end());
  for (size_t slot = 0; slot < regions_.size(); ++slot) {
    if (std::binary_search(candidates.begin(), candidates.end(), slot)) {
      continue;
    }
    if (auto hit = match(slot, regions_[slot])) return hit;
  }
  return std::nullopt;
}

void EndpointSession::DropRegionAuxLocked(size_t slot) const {
  CachedRegion& victim = regions_[slot];
  by_fingerprint_.erase(victim.fingerprint);
  // Drop the victim's memo keys so a stale memo entry can never serve
  // the slot's next occupant (point-memo answers skip API validation).
  for (const PointKey& key : victim.points) {
    auto it = point_memo_.find(key);
    if (it != point_memo_.end() && it->second == slot) {
      point_memo_.erase(it);
      BumpGauge(&EngineStats::memo_bytes,
                -static_cast<int64_t>(kMemoMapEntryBytes));
    }
  }
  BumpGauge(&EngineStats::memo_bytes,
            -static_cast<int64_t>(victim.points.size() * kMemoListEntryBytes));
  victim.points.clear();
  index_.Remove(slot);
}

void EndpointSession::CheckAuxCoherenceLocked() const {
  OPENAPI_CHECK_EQ(index_.size(), OccupiedLocked());
}

size_t EndpointSession::EvictOneLocked(
    size_t protect_slot, std::vector<store::RegionRecord>* spills) const {
  // Second-chance clock: a region with recorded hits gets its counter
  // halved and survives the sweep; the first cold slot is the victim.
  // Halving strictly decreases positive counters, so the sweep
  // terminates (the caller guarantees at least one occupied,
  // unprotected region), and frequently hit regions take log2(hits)
  // sweeps to cool — the LFU-flavored survival the serving cache wants.
  for (;;) {
    clock_hand_ %= regions_.size();
    if (!regions_[clock_hand_].occupied || clock_hand_ == protect_slot) {
      ++clock_hand_;
      continue;
    }
    CachedRegion& region = regions_[clock_hand_];
    const uint32_t hits = region.hits.load(std::memory_order_relaxed);
    if (hits == 0) break;
    region.hits.store(hits >> 1, std::memory_order_relaxed);
    ++clock_hand_;
  }
  const size_t slot = clock_hand_++;
  CachedRegion& victim = regions_[slot];
  const uint64_t victim_fingerprint = victim.fingerprint;
  // Spill the victim's LEARNED box to the persistent tier before the
  // teardown: traffic may have grown it well past the certificate the
  // write-through persisted, and the store's Put re-appends only when
  // the box actually grew. The record is staged; the caller persists it
  // after releasing the cache lock (the store has its own mutex).
  Vec lo, hi;
  if (store_ != nullptr && spills != nullptr &&
      index_.ExportBox(slot, &lo, &hi)) {
    spills->push_back(RecordOf(victim.model, victim_fingerprint,
                               victim.anchor, victim.argmax, std::move(lo),
                               std::move(hi)));
  }
  BumpGauge(&EngineStats::region_bytes,
            -static_cast<int64_t>(SlotBytes(victim)));
  // One step removes the victim from every auxiliary structure
  // (fingerprint map, memo, index) — there is no code path that
  // can leave one of them holding the dead slot.
  DropRegionAuxLocked(slot);
  // Release the payload: the byte gauge just gave these bytes back, so
  // the memory must actually go too (the slot may sit on free_slots_
  // indefinitely).
  victim.model = api::LocalLinearModel{};
  victim.anchor = Vec{};
  victim.occupied = false;
  victim.hits.store(0, std::memory_order_relaxed);
  // Bounded classification memory, sized from the count cap or, in a
  // byte-budget-only session, from the slots the cache occupies.
  const size_t tracked = capacity_ > 0 ? capacity_ : OccupiedLocked();
  if (evicted_fingerprints_.size() > 8 * tracked + 64) {
    evicted_fingerprints_.clear();
  }
  evicted_fingerprints_.insert(victim_fingerprint);
  Bump(&EngineStats::evictions);
  RefreshIndexBytesLocked();
  return slot;
}

void EndpointSession::FilePointLocked(const PointKey& key,
                                      size_t slot) const {
  auto [it, inserted] = point_memo_.emplace(key, slot);
  if (inserted) {
    BumpGauge(&EngineStats::memo_bytes,
              static_cast<int64_t>(kMemoMapEntryBytes));
  } else {
    if (it->second == slot) return;
    it->second = slot;  // the key's old region was displaced
  }
  CachedRegion& region = regions_[slot];
  if (region.points.size() >= kMaxMemoPointsPerRegion) {
    auto oldest = point_memo_.find(region.points.front());
    if (oldest != point_memo_.end() && oldest->second == slot) {
      point_memo_.erase(oldest);
      BumpGauge(&EngineStats::memo_bytes,
                -static_cast<int64_t>(kMemoMapEntryBytes));
    }
    region.points.erase(region.points.begin());
    BumpGauge(&EngineStats::memo_bytes,
              -static_cast<int64_t>(kMemoListEntryBytes));
  }
  region.points.push_back(key);
  BumpGauge(&EngineStats::memo_bytes,
            static_cast<int64_t>(kMemoListEntryBytes));
}

size_t EndpointSession::InsertRegion(
    api::LocalLinearModel model, uint64_t fingerprint, const Vec& anchor,
    const Vec& memo_point, size_t argmax, const Vec& lo, const Vec& hi,
    CacheOutcome* outcome, std::vector<store::RegionRecord>* spills) const {
  util::WriterMutexLock lock(cache_mutex_);
  size_t slot;
  auto it = by_fingerprint_.find(fingerprint);
  if (it != by_fingerprint_.end()) {
    slot = it->second;  // another worker extracted this region first
    index_.Expand(slot, lo, hi);  // union of both certificates
  } else {
    CachedRegion incoming(std::move(model), fingerprint, anchor, argmax);
    incoming.epoch = epoch_.load(std::memory_order_relaxed);
    const size_t incoming_bytes = SlotBytes(incoming);
    if (byte_budget_ > 0 &&
        incoming_bytes + kMemoMapEntryBytes + kMemoListEntryBytes >
            byte_budget_) {
      // Bigger than the whole budget: the request is served from the
      // caller's copy, the region is never cached, the ceiling holds.
      return kNoSlot;
    }
    if (!free_slots_.empty()) {
      slot = free_slots_.back();
      free_slots_.pop_back();
      regions_[slot] = std::move(incoming);
    } else if (capacity_ > 0 && OccupiedLocked() >= capacity_) {
      slot = EvictOneLocked(kNoSlot, spills);
      regions_[slot] = std::move(incoming);
    } else {
      slot = regions_.size();
      regions_.push_back(std::move(incoming));
    }
    by_fingerprint_.emplace(fingerprint, slot);
    BumpGauge(&EngineStats::region_bytes,
              static_cast<int64_t>(SlotBytes(regions_[slot])));
    index_.Insert(slot, lo, hi);
    if (evicted_fingerprints_.erase(fingerprint) > 0 && outcome != nullptr) {
      *outcome = CacheOutcome::kEvictedRefetch;
    }
  }
  FilePointLocked(PointKeyOf(memo_point), slot);
  RefreshIndexBytesLocked();
  EnforceByteBudgetLocked(slot, spills);
  CheckAuxCoherenceLocked();
  if (!regions_[slot].occupied || regions_[slot].fingerprint != fingerprint) {
    return kNoSlot;  // the byte budget evicted the region straight away
  }
  return slot;
}

void EndpointSession::PersistSpills(
    std::vector<store::RegionRecord>* spills) const {
  if (store_ != nullptr) {
    for (const store::RegionRecord& record : *spills) {
      Result<bool> appended = store_->Put(record);
      if (!appended.ok()) {
        // Persistence is best-effort from the serving path's point of
        // view: a full disk degrades the session to RAM-only, it does
        // not fail requests.
        OPENAPI_LOG(Warning) << "region log append failed: "
                             << appended.status().message();
      } else if (*appended) {
        Bump(&EngineStats::store_appends);
      }
    }
  }
  spills->clear();
}

bool EndpointSession::ReloadFromStore(
    const ValidationPair& pair, api::LocalLinearModel* reloaded,
    std::vector<store::RegionRecord>* spills) const {
  std::vector<uint64_t> offsets;
  store_->CollectCandidates(pair.x0, pair.argmax(), &offsets);
  for (uint64_t offset : offsets) {
    Result<store::RegionRecord> record = store_->Read(offset);
    if (!record.ok()) {
      OPENAPI_LOG(Warning) << "region log read at offset " << offset
                           << " failed: " << record.status().message();
      continue;
    }
    // Same exact predicate as a RAM candidate, against the 2-query pair
    // the request already bought: a stale, corrupt, or merely
    // box-overlapping record is rejected here, never served.
    if (!pair.ExplainedBy(record->model)) continue;
    // The record's fingerprint was computed from these exact bits by the
    // session that persisted it (the log round-trips raw doubles), so a
    // later re-extraction of the same region deduplicates against this
    // slot.
    InsertRegion(api::LocalLinearModel(record->model), record->fingerprint,
                 record->anchor, pair.x0, pair.argmax(), record->lo,
                 record->hi, /*outcome=*/nullptr, spills);
    *reloaded = std::move(record->model);
    return true;
  }
  return false;
}

Result<size_t> EndpointSession::ImportRegion(api::LocalLinearModel model,
                                             const Vec& anchor,
                                             double edge_length) const {
  if (anchor.size() != api_->dim() ||
      model.bias.size() != api_->num_classes() ||
      model.weights.rows() != api_->dim() ||
      model.weights.cols() != api_->num_classes()) {
    return Status::InvalidArgument(
        "imported model/anchor shape does not match the endpoint");
  }
  // A non-finite entry or edge would file a NaN or inverted box into the
  // index and, through the write-through, into every replay of the log.
  if (!linalg::AllFinite(anchor) || !linalg::AllFinite(model.bias) ||
      !model.weights.AllFinite() ||
      !(std::isfinite(edge_length) && edge_length >= 0.0)) {
    return Status::InvalidArgument(
        "imported model, anchor and edge_length must be finite, with "
        "edge_length >= 0");
  }
  const Vec y0 = api::EvaluateLocalModel(model, anchor);
  const size_t argmax = linalg::ArgMax(y0);
  const uint64_t fingerprint =
      LocalModelFingerprint(model, engine_->config().fingerprint_resolution);
  // The certified hypercube {x : |x_j - anchor_j| <= edge_length} seeds
  // the learned box, in RAM and (write-through) on the log.
  Vec lo = anchor;
  Vec hi = anchor;
  for (size_t j = 0; j < lo.size(); ++j) {
    lo[j] -= edge_length;
    hi[j] += edge_length;
  }
  // The write-through record is staged ahead of any spill the insert
  // evicts, so the log receives them in that order.
  std::vector<store::RegionRecord> spills;
  if (store_ != nullptr) {
    spills.push_back(RecordOf(model, fingerprint, anchor, argmax, lo, hi));
  }
  const size_t slot =
      InsertRegion(std::move(model), fingerprint, anchor, anchor, argmax, lo,
                   hi, /*outcome=*/nullptr, &spills);
  PersistSpills(&spills);
  if (slot == kNoSlot) {
    return Status::FailedPrecondition(
        "region does not fit the session's cache byte budget");
  }
  return slot;
}

Result<Interpretation> EndpointSession::InterpretCached(
    const Vec& x0, size_t c, const RequestOptions& options,
    uint64_t rng_seed, RequestCost* cost, CacheOutcome* outcome) const {
  const EngineConfig& config = engine_->config();
  // 1. Point memo: an exact repeat of a previously answered x0 (any class)
  //    costs zero API queries — except every drift_check_interval-th memo
  //    hit, which falls through to the validation pair below carrying a
  //    copy of the memoized model: the pair then either re-certifies the
  //    model against the live endpoint (served as kPointMemo, 2 queries)
  //    or catches a model swap and invalidates the stale cache.
  const PointKey key = PointKeyOf(x0);
  std::optional<api::LocalLinearModel> drift_check_model;
  {
    util::ReaderMutexLock lock(cache_mutex_);
    auto it = point_memo_.find(key);
    if (it != point_memo_.end() &&
        regions_[it->second].epoch ==
            epoch_.load(std::memory_order_relaxed)) {
      // The hit bump is an atomic on a mutable container: safe under the
      // shared (reader) lock.
      CachedRegion& region = regions_[it->second];
      const uint64_t interval = config.drift_check_interval;
      if (interval > 0 &&
          (memo_hit_ticks_.fetch_add(1, std::memory_order_relaxed) + 1) %
                  interval ==
              0) {
        drift_check_model = region.model;
      } else {
        region.hits.fetch_add(1, std::memory_order_relaxed);
        Bump(&EngineStats::point_memo_hits);
        *outcome = CacheOutcome::kPointMemo;
        return CachedAnswer(region.model, c, /*probe=*/nullptr);
      }
    }
  }

  // 2. Candidate scan: one batched request (x0 + validation probe) decides
  //    every cached region at once. It costs 2 queries, so it is gated on
  //    the request's budget/deadline/cancellation first — predictively:
  //    this is the request's first endpoint traffic, so a deadline the
  //    estimated pair latency already blows rejects here with
  //    queries == 0 (a memoized repeat above still serves for free). The
  //    pair is timed into the endpoint's latency estimate like any probe
  //    chunk.
  OPENAPI_RETURN_NOT_OK(EnforceRequestOptions(
      options, cost->queries, 2, 2.0 * EffectiveRowLatency(*api_)));
  // The request's generator is first needed here, so a memo hit above
  // never seeds one.
  util::Rng rng(rng_seed);
  Vec probe =
      SampleHypercube(x0, kValidationEdge, /*count=*/1, &rng)[0];
  // The pair goes through the retry-aware dispatch path, so a transient
  // endpoint refusal is retried under the request's retry budget instead
  // of failing the request, and refused-attempt charges land in *cost —
  // accounting stays exact against api.query_count().
  std::vector<Vec> pair_points{x0, probe};
  std::vector<Vec> pair(2);
  OPENAPI_RETURN_NOT_OK(DispatchProbes(*api_, pair_points, options, cost,
                                       &pair, /*out_offset=*/0));
  const Vec& y0 = pair[0];
  const Vec& y_probe = pair[1];
  // A non-finite answer certifies nothing: it must neither validate a
  // cached model nor seed an extraction that cannot solve.
  if (!linalg::AllFinite(y0) || !linalg::AllFinite(y_probe)) {
    return Status::NumericalError(
        "endpoint answered the validation pair with non-finite "
        "probabilities");
  }
  const ValidationPair validation{x0, probe, ObservedOdds(y0),
                                  ObservedOdds(y_probe), config.match_tol, {}};
  const size_t argmax = validation.argmax();

  // 2a. Drift check resolution: the memoized model either still explains
  //     the live endpoint's answers (serve it — a kPointMemo that cost
  //     the 2-query pair) or the endpoint swapped models underneath the
  //     cache, in which case every cached/stored closed form from the
  //     old epoch is invalidated and this request re-extracts fresh (an
  //     unusable pair can tell neither, so it only misses).
  bool drift_refetch = false;
  if (drift_check_model.has_value()) {
    if (validation.ExplainedBy(*drift_check_model)) {
      Bump(&EngineStats::point_memo_hits);
      *outcome = CacheOutcome::kPointMemo;
      return CachedAnswer(*drift_check_model, c, &probe);
    }
    if (validation.usable()) {
      Bump(&EngineStats::drift_events);
      InvalidateStaleRegions();
      drift_refetch = true;
    }
  }

  // Eviction spill records staged under the writer lock on any of the
  // paths below; persisted (store mutex only) after the lock is gone.
  std::vector<store::RegionRecord> spills;
  if (std::optional<RegionMatch> hit = FindMatchingRegion(validation)) {
    {
      // Memoize the point and teach the learned box: grow it to cover
      // x0, so the next nearby request resolves in the index stab
      // instead of the fallback scan. The occupancy and fingerprint
      // checks keep a slot that a racing eviction or ClearCache emptied
      // or refilled out of the memo.
      util::WriterMutexLock lock(cache_mutex_);
      const size_t slot = hit->slot;
      if (slot < regions_.size() && regions_[slot].occupied &&
          regions_[slot].fingerprint == hit->fingerprint) {
        FilePointLocked(key, slot);
        regions_[slot].hits.fetch_add(1, std::memory_order_relaxed);
        index_.Expand(slot, x0);
        // The memo and the box grew: keep the byte ceiling while
        // protecting the slot just served.
        RefreshIndexBytesLocked();
        EnforceByteBudgetLocked(slot, &spills);
      }
    }
    PersistSpills(&spills);
    Bump(&EngineStats::cache_hits);
    *outcome = CacheOutcome::kMemoryHit;
    return CachedAnswer(hit->model, c, &probe);
  }

  // 2b. Persistent tier: RAM missed, but the region may sit on the
  //     session's region log (evicted earlier, or written by a previous
  //     process on this log). A record whose learned box covers x0 is
  //     read back and validated against the SAME 2-query pair — so a
  //     disk hit costs exactly what a RAM hit costs (2 queries) and
  //     saves the entire extraction.
  if (store_ != nullptr) {
    api::LocalLinearModel reloaded;
    if (ReloadFromStore(validation, &reloaded, &spills)) {
      PersistSpills(&spills);
      Bump(&EngineStats::disk_hits);
      *outcome = CacheOutcome::kDiskHit;
      return CachedAnswer(reloaded, c, &probe);
    }
    PersistSpills(&spills);
  }

  // 3. Miss: full closed-form extraction with reference class 0, which
  //    yields the entire canonical classifier; the requested class is then
  //    read off the cached model (gauge invariance). A saturated class 0
  //    is handled inside the solver (adaptive reference class, converted
  //    back to reference-0 pairs), so the canonical column-0-pinned gauge
  //    is preserved here either way. The solver adds the queries it
  //    actually consumed to the ledger, so stats stay exact even when it
  //    fails — and it receives the request's controls with the 2
  //    validation queries already deducted from the budget, so the
  //    request as a whole never overspends.
  Bump(&EngineStats::cache_misses);
  *outcome = drift_refetch ? CacheOutcome::kStaleRefetch : CacheOutcome::kMiss;
  OpenApiInterpreter interpreter(config.openapi);
  // The solver receives the request's ORIGINAL controls and its ledger,
  // which already holds the 2 validation queries, so its budget
  // gates — and their rejection messages — account in request totals;
  // and y0 is handed over as the anchor prediction, so a miss does not
  // bill the endpoint (or the request's budget) for x0 twice. The
  // solver's scratch comes from the engine's workspace pool: every miss
  // after a worker's first runs allocation-free inside the solver.
  InterpretationEngine::WorkspaceLease lease(*engine_);
  auto solved = interpreter.InterpretCounted(*api_, x0, 0, &rng, cost,
                                             options, &y0, lease.get());
  if (!solved.ok()) {
    return solved.status();
  }
  api::LocalLinearModel model =
      CanonicalModelFromPairs(solved->pairs, api_->dim());
  const uint64_t fingerprint =
      LocalModelFingerprint(model, config.fingerprint_resolution);
  Interpretation out;
  out.dc = api::GroundTruthDecisionFeatures(model, c);
  out.pairs = PairsFromModel(model, c);
  out.probes = std::move(solved->probes);
  out.iterations = solved->iterations;
  out.edge_length = solved->edge_length;
  out.queries = cost->queries;
  // The solver certified the model on probes drawn from the final
  // consistent hypercube [x0 - edge, x0 + edge] per dimension — the
  // region's learned box starts as exactly that certificate, in RAM and
  // (write-through, before the model is moved away) on the region log.
  Vec lo = x0;
  Vec hi = x0;
  for (size_t j = 0; j < lo.size(); ++j) {
    lo[j] -= solved->edge_length;
    hi[j] += solved->edge_length;
  }
  if (store_ != nullptr) {
    spills.push_back(RecordOf(model, fingerprint, x0, argmax, lo, hi));
  }
  // A drift refetch keeps its kStaleRefetch classification: the
  // invalidation cleared the eviction history anyway, and an eviction
  // refetch label would hide the drift event from the caller.
  InsertRegion(std::move(model), fingerprint, x0, x0, argmax, lo, hi,
               drift_refetch ? nullptr : outcome, &spills);
  PersistSpills(&spills);
  return out;
}

Result<Interpretation> EndpointSession::Serve(
    const EngineRequest& request, uint64_t seed, uint64_t stream,
    RequestCost* cost, CacheOutcome* outcome) const {
  if (request.x0.size() != api_->dim()) {
    return Status::InvalidArgument("x0 dimensionality mismatch");
  }
  // A non-finite x0 has no region: its answers are NaN, so no cached
  // model could be certified for it and no extraction could solve.
  if (!linalg::AllFinite(request.x0)) {
    return Status::InvalidArgument("x0 has a non-finite entry");
  }
  if (request.c >= api_->num_classes() || api_->num_classes() < 2) {
    return Status::InvalidArgument("bad class configuration");
  }
  // Pre-flight: a request that is already cancelled or past its deadline
  // is rejected before it touches the cache or the endpoint.
  OPENAPI_RETURN_NOT_OK(CheckRequestControls(request.options, 0, 0));
  return InterpretCached(request.x0, request.c, request.options,
                         util::Rng::MixSeed(seed, stream), cost, outcome);
}

EngineResponse EndpointSession::Interpret(const EngineRequest& request,
                                          uint64_t seed,
                                          uint64_t stream) const {
  util::Timer timer;
  Bump(&EngineStats::requests);
  RequestCost cost;
  CacheOutcome outcome = CacheOutcome::kBypass;
  Result<Interpretation> result = Serve(request, seed, stream, &cost,
                                        &outcome);
  if (!result.ok()) Bump(&EngineStats::failures);
  Bump(&EngineStats::queries, cost.queries);
  Bump(&EngineStats::wasted_queries, cost.wasted_queries);
  Bump(&EngineStats::retries, cost.retries);
  EngineResponse response{std::move(result)};
  response.queries = cost.queries;
  response.cache_outcome = outcome;
  response.shrink_iterations = cost.iterations;
  response.latency_ms = timer.ElapsedMillis();
  return response;
}

std::vector<EngineResponse> EndpointSession::InterpretAll(
    const std::vector<EngineRequest>& requests, uint64_t seed) const {
  std::vector<std::optional<EngineResponse>> scratch(requests.size());
  util::ParallelFor(engine_->pool_, requests.size(), [&](size_t i) {
    scratch[i].emplace(Interpret(requests[i], seed, /*stream=*/i));
  });
  std::vector<EngineResponse> responses;
  responses.reserve(requests.size());
  for (auto& r : scratch) responses.push_back(std::move(*r));
  return responses;
}

std::future<EngineResponse> EndpointSession::SubmitAsync(
    EngineRequest request, uint64_t seed, uint64_t stream) const {
  // packaged_task is move-only and ThreadPool::Submit takes a copyable
  // std::function, hence the shared_ptr wrapper. The task holds the
  // session alive; the engine is drained by its destructor.
  auto self = shared_from_this();
  // The queue timer starts NOW, at submission: an async response's
  // latency covers the time spent waiting for a worker too, which is
  // what a client actually observes under load.
  util::Timer queue_timer;
  auto task = std::make_shared<std::packaged_task<EngineResponse()>>(
      [self, request = std::move(request), seed, stream,
       queue_timer]() mutable {
        EngineResponse response = self->Interpret(request, seed, stream);
        response.latency_ms = queue_timer.ElapsedMillis();
        // Drop the session reference BEFORE the future is made ready
        // (packaged_task publishes the result after this returns), so a
        // caller tearing down right after get() holds the last reference
        // and the session dies on the caller's thread, not later on a
        // pool worker after the engine's destructor drain.
        self.reset();
        return response;
      });
  std::future<EngineResponse> future = task->get_future();
  const InterpretationEngine* engine = engine_;
  engine->BeginAsyncTask();
  engine->pool_->Submit([engine, task]() mutable {
    (*task)();
    task.reset();  // release task state before the drain gate opens
    engine->EndAsyncTask();
  });
  return future;
}

SessionStream EndpointSession::InterpretStream(
    std::vector<EngineRequest> requests, uint64_t seed) const {
  SessionStream stream;
  stream.total_ = requests.size();
  stream.shared_ = std::make_shared<SessionStream::Shared>();
  auto shared = stream.shared_;
  shared->requests = std::move(requests);
  auto self = shared_from_this();
  const InterpretationEngine* engine = engine_;
  util::Timer queue_timer;  // latency includes the wait for a worker
  for (size_t i = 0; i < shared->requests.size(); ++i) {
    engine->BeginAsyncTask();
    engine->pool_->Submit([self, engine, shared, seed, i,
                           queue_timer]() mutable {
      EngineResponse response =
          self->Interpret(shared->requests[i], seed, /*stream=*/i);
      response.latency_ms = queue_timer.ElapsedMillis();
      {
        util::MutexLock lock(shared->mutex);
        shared->completed.push_back(
            SessionStream::Item{i, std::move(response)});
      }
      shared->ready.NotifyAll();
      // Same ordering rule as SubmitAsync: the worker's session/stream
      // references die before EndAsyncTask opens the engine's destructor
      // drain gate.
      self.reset();
      shared.reset();
      engine->EndAsyncTask();
    });
  }
  return stream;
}

size_t EndpointSession::cache_size() const {
  util::ReaderMutexLock lock(cache_mutex_);
  return OccupiedLocked();
}

EngineStats EndpointSession::stats() const {
  EngineStats out;
  for (uint64_t EngineStats::* field : kStatFields) {
    out.*field = Counter(stats_, field).load(std::memory_order_relaxed);
  }
  return out;
}

void EndpointSession::ClearCache() const {
  util::WriterMutexLock lock(cache_mutex_);
  ClearCacheLocked();
}

void EndpointSession::InvalidateStaleRegions() const {
  // The store's epoch advances FIRST, outside the cache lock (the two
  // locks never nest): a concurrent write-through is then stamped with
  // the new epoch at worst — never an old-epoch record slipping in after
  // the invalidation.
  uint64_t next = 0;
  if (store_ != nullptr) next = store_->BumpEpoch();
  util::WriterMutexLock lock(cache_mutex_);
  if (store_ == nullptr) {
    next = epoch_.load(std::memory_order_relaxed) + 1;
  }
  // Concurrent drift events race to publish their store epochs; the max
  // guard keeps the session epoch monotonic.
  if (next > epoch_.load(std::memory_order_relaxed)) {
    epoch_.store(next, std::memory_order_relaxed);
  }
  Bump(&EngineStats::stale_invalidations, OccupiedLocked());
  ClearCacheLocked();
}

void EndpointSession::ClearCacheLocked() const {
  regions_.clear();
  by_fingerprint_.clear();
  point_memo_.clear();
  evicted_fingerprints_.clear();
  clock_hand_ = 0;
  free_slots_.clear();
  index_.Clear();
  // Gauges follow the residency to zero.
  const EngineStats now = stats();
  BumpGauge(&EngineStats::region_bytes,
            -static_cast<int64_t>(now.region_bytes));
  BumpGauge(&EngineStats::memo_bytes, -static_cast<int64_t>(now.memo_bytes));
  RefreshIndexBytesLocked();
  CheckAuxCoherenceLocked();
}

// ---------------------------------------------------------------------------
// InterpretationEngine
// ---------------------------------------------------------------------------

InterpretationEngine::InterpretationEngine(EngineConfig config)
    : config_(config) {
  if (config_.num_threads > 0) {
    owned_pool_ = std::make_unique<util::ThreadPool>(config_.num_threads);
    pool_ = owned_pool_.get();
  } else {
    pool_ = util::SharedThreadPool(util::DefaultThreadCount());
  }
}

InterpretationEngine::~InterpretationEngine() {
  // Drain async work that still references this engine. Tasks on the
  // shared pool outlive owned infrastructure, so this must come first;
  // the owned pool (if any) additionally drains in its own destructor.
  util::MutexLock lock(async_mutex_);
  while (async_outstanding_ != 0) async_idle_.Wait(async_mutex_);
}

SolverWorkspace* InterpretationEngine::AcquireWorkspace() const {
  util::MutexLock lock(workspace_mutex_);
  if (!free_workspaces_.empty()) {
    SolverWorkspace* workspace = free_workspaces_.back();
    free_workspaces_.pop_back();
    return workspace;
  }
  // First time this many requests run at once: grow the pool by one. The
  // pool size therefore converges to the engine's peak request
  // concurrency (one workspace per pool worker in steady state).
  workspaces_.push_back(std::make_unique<SolverWorkspace>());
  return workspaces_.back().get();
}

void InterpretationEngine::ReleaseWorkspace(
    SolverWorkspace* workspace) const {
  // Sizes reset, capacity kept: the next request regrows nothing.
  workspace->Clear();
  util::MutexLock lock(workspace_mutex_);
  for (SolverWorkspace* free_workspace : free_workspaces_) {
    // A workspace already on the free list being released again means
    // two requests held it concurrently — corruption, not a recoverable
    // state.
    OPENAPI_CHECK(free_workspace != workspace);
  }
  free_workspaces_.push_back(workspace);
}

size_t InterpretationEngine::workspace_pool_size() const {
  util::MutexLock lock(workspace_mutex_);
  return workspaces_.size();
}

void InterpretationEngine::BeginAsyncTask() const {
  util::MutexLock lock(async_mutex_);
  ++async_outstanding_;
}

void InterpretationEngine::EndAsyncTask() const {
  util::MutexLock lock(async_mutex_);
  if (--async_outstanding_ == 0) async_idle_.NotifyAll();
}

std::shared_ptr<EndpointSession> InterpretationEngine::OpenSession(
    const api::PredictionApi& api, size_t cache_capacity) const {
  SessionOptions options;
  options.cache_capacity = cache_capacity;
  return OpenSession(api, options);
}

std::shared_ptr<EndpointSession> InterpretationEngine::OpenSession(
    const api::PredictionApi& api, const SessionOptions& options) const {
  return std::shared_ptr<EndpointSession>(
      new EndpointSession(this, &api, options.cache_capacity,
                          options.cache_capacity_bytes, options.store));
}

}  // namespace openapi::interpret
