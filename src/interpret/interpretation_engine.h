// InterpretationEngine: the asynchronous serving layer over OpenAPI.
//
// The paper's evaluation (and any production deployment of the method)
// interprets many (x0, c) requests against one or more endpoints. The
// engine exploits two structural facts:
//   1. requests whose x0 share a locally linear region — or that repeat an
//      x0 for different classes c — are answered by one extracted canonical
//      classifier (decision features are gauge-invariant), and
//   2. the requests are independent, so they shard across a thread pool.
//
// ## Sessions: the public surface
//
// The unit of serving is an ENDPOINT SESSION. `engine.OpenSession(api)`
// binds one `api::PredictionApi` (or `api::ApiReplicaSet`) and namespaces
// the region cache, point memo, and region index to that endpoint: one
// engine serves several distinct endpoints concurrently with zero
// cross-endpoint cache traffic and no ClearCache footgun. A session
// offers four request shapes:
//   * Interpret       — one request, synchronously.
//   * InterpretAll    — synchronous batch; blocks until every result.
//   * SubmitAsync     — one request as a std::future; returns immediately.
//   * InterpretStream — a batch whose results are consumed in completion
//     order while stragglers still run.
// All four return `EngineResponse`: the Result<Interpretation> plus the
// request's exact query consumption, how the cache served it, the shrink
// iterations, and wall latency — the serving envelope a metered client
// bills against.
//
// Each `EngineRequest` carries `RequestOptions` (query budget, deadline,
// CancelToken), enforced before every probe batch down in the solver's
// shrink loop — and, for deadlined/cancellable requests, between the
// latency-sized CHUNKS each batch is split into (probe_dispatch.h): the
// chunk size comes from a per-endpoint EWMA of observed per-row latency,
// so a request stops within one chunk (not one slow batch) of its
// deadline, a request whose first chunk is already predicted past the
// deadline is rejected with zero queries, and a request with
// max_queries = Q never issues more than Q API queries. A rejected
// request reports the exact count it did consume on the BudgetExhausted
// / DeadlineExceeded / Cancelled statuses — partial chunks included.
//
// The extraction (cache-miss) path runs each request out of a pooled
// SolverWorkspace (one per concurrently running request, checked out per
// request via WorkspaceLease), so the solver's first-iteration buffer
// growth is paid once per worker, not once per miss.
//
// Session caches are BOUNDED two ways: `SessionOptions::cache_capacity`
// (or OpenSession's count argument) caps the region COUNT, and
// `SessionOptions::cache_capacity_bytes` caps the cache's measured
// RESIDENT BYTES — region model payloads + point-memo keys +
// region-index boxes, the gauges EngineStats reports. Inserts past
// either bound evict via a second-chance clock over per-region hit
// counters (hot regions survive, cold ones cycle out; evictions surface
// in EngineStats). Evicting a region also drops its point-memo keys
// and index entry, so a stale memo can never serve a dead slot.
//
// ## The persistent tier (store::RegionStore)
//
// A session opened with SessionOptions::store gets a DISK tier under the
// RAM cache: every region the session pays extraction queries for (and
// every ImportRegion) is written through to the store's append-only
// region log, and a RAM miss consults the store's directory BEFORE
// paying a fresh extraction. The reload costs only the 2-query
// validation pair the request already bought — the decoded model is
// revalidated against (x0, y0) and (probe, y_probe) exactly like a RAM
// candidate, so a stale or corrupt record can never serve. The three
// ways a cache lookup can resolve are distinct CacheOutcomes:
// kMemoryHit (RAM, 2 queries), kDiskHit (log reload, 2 queries, zero
// extraction), kMiss (full extraction). Eviction REFRESHES the store:
// the victim's learned box (grown by traffic since it was persisted) is
// put back, re-appending only when the box actually grew. Restarting a
// process on the same log therefore serves its whole region history
// without re-paying any extraction — the warm-restart contract the
// store tests pin down.
//
// By default the engine BORROWS the process-wide util::SharedThreadPool
// rather than owning workers, so any number of engines / concurrent
// callers multiplex one pool sized to the hardware; setting
// EngineConfig::num_threads > 0 gives the engine a private pool of that
// size (deterministic scheduling for tests, isolation for benches).
//
// ## The per-session region cache
//
// Each worker consults the session's cache before paying the closed-form
// solve — hash indexes guarded by a shared_mutex:
//   * a point memo (hash of x0's raw bits -> region slot): a request whose
//     exact x0 was answered before costs ZERO API queries, any class;
//   * a fingerprint index (quantized canonical-model hash -> slot) that
//     deduplicates regions extracted concurrently by different workers;
//   * the REGION INDEX (region_index.h), the one candidate search:
//     hierarchical point location over learned per-region bounding boxes,
//     one forest for every region, whatever class it predicts (a region
//     is identified by its local model). A request at a new x0 stabs the
//     boxes in O(log n)-ish time, validates the few candidates exactly,
//     and only when none survives falls back to a full scan of the cache
//     (then GROWS the matched region's box, so repeat traffic stays
//     logarithmic). The fallback keeps the index decision-invisible:
//     identical hit/miss outcomes and query counts to a linear scan on
//     every request (the parity fuzz checks it against a test oracle).
// A request at a new x0 still validates cache candidates against the API
// output (2 batched queries) — black-box point location fundamentally
// needs the candidate test — but candidates are scanned under a shared
// lock, so readers proceed in parallel and only insertions serialize.
//
// Hits validate in LOG-ODDS, the domain Theorem 2 certifies regions in:
// the RAM hit, the disk hit and the drift check all call one predicate,
// ExplainsObservation (decision_features.h), which still sees a wrong
// region when a confident endpoint's non-argmax probabilities are all
// tiny. A class that underflows (below kMinUsableProb) at either point of
// the pair validates nothing, so that request misses and extracts.
//
// Determinism: each request derives its probe RNG statelessly from
// (seed, request index) via Rng::MixSeed, so result CONTENT does not
// depend on the thread count, scheduling, or stream consumption order
// (cache-hit timing can differ, but every answer is exact either way —
// that is Theorem 2 plus gauge invariance).
//
// Query accounting is exact under concurrency and in every error path:
// each request carries one RequestCost ledger from the session down to
// the probe dispatcher, which counts every query the endpoint charged
// (success, failure, budget rejection). A session's totals are sums of
// its requests' ledgers, matching the api's atomic query_count when the
// session is the api's only client — including when `api` is an
// ApiReplicaSet, whose per-replica counters sum to the same total.
//
// Lifetimes: the engine must outlive every request on its sessions
// (sessions borrow its pool and config); stats() and the session's
// destructor touch no engine state, so a session may outlive its engine
// for those. The api must outlive its session's last request. Workers
// keep the session itself alive via shared_ptr, and the engine's
// destructor blocks until every task it submitted has finished, so
// destroying the engine after abandoning a future/stream is safe;
// destroying the API before its session's outstanding work is not.

#ifndef OPENAPI_INTERPRET_INTERPRETATION_ENGINE_H_
#define OPENAPI_INTERPRET_INTERPRETATION_ENGINE_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <future>
#include <memory>
#include <optional>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "interpret/openapi_method.h"
#include "interpret/region_index.h"
#include "interpret/request_options.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"
#include "util/thread_pool.h"

namespace openapi::store {
struct RegionRecord;
class RegionStore;
}  // namespace openapi::store

namespace openapi::interpret {

/// One unit of work: interpret the prediction at x0 for class c, under
/// the request's own budget / deadline / cancellation controls.
struct EngineRequest {
  Vec x0;
  size_t c = 0;
  /// Defaulted, so `{x0, c}` is a complete request.
  RequestOptions options = {};
};

/// Edge length of the hypercube a session draws its validation probe
/// from: the second point of the 2-query validation pair, and the
/// edge_length a validated cache hit reports.
inline constexpr double kValidationEdge = 1e-6;

/// The settable engine knobs (the validation probe's edge is the constant
/// kValidationEdge above, not a field).
struct EngineConfig {
  /// Settings of the inner closed-form solver (Algorithm 1's iteration
  /// cap, initial edge, shrink factor, and consistency tolerance).
  /// Deadlined requests served through the engine split their probe
  /// batches into chunks sized from the endpoint's observed per-row
  /// latency and re-check their controls between chunks, so deadline
  /// overshoot is bounded by one chunk (interpret/probe_dispatch.h; the
  /// dispatch's tuning is fixed there, not configured).
  OpenApiConfig openapi;
  /// Worker threads. 0 (the default) borrows the process-wide
  /// util::SharedThreadPool, sized to the hardware
  /// (util::DefaultThreadCount()) by whichever engine creates it first;
  /// > 0 gives this engine a private pool of exactly that size.
  size_t num_threads = 0;
  /// Drift detection cadence: every Nth POINT-MEMO hit re-pays the
  /// 2-query validation pair and checks the memoized model against the
  /// endpoint's live answer. 0 (the default) disables the check — memo
  /// hits stay 0-query — matching the paper's static-model setting.
  /// When a drift check (or an ordinary cache-candidate validation)
  /// catches a mismatch that no cached or stored region explains, the
  /// session bumps its drift EPOCH: every RAM region, memo entry, index
  /// entry, and store directory entry tagged with an older epoch is
  /// invalidated — stale closed forms are re-extracted, never served.
  uint64_t drift_check_interval = 0;
  /// Relative log-odds tolerance of ExplainsObservation, the one check of
  /// a cached model against the endpoint (hit, disk hit, drift check).
  double match_tol = kDefaultMatchTol;
  /// Relative quantization of the region fingerprint used for dedup.
  double fingerprint_resolution = 1e-6;
};

/// Counters and gauges describing one session; the only declaration of
/// the counter names. The first block is monotonic activity since the
/// session opened; the *_bytes fields are GAUGES of current cache
/// residency. The session keeps one EngineStats and updates every field
/// atomically; stats() returns a copy.
struct EngineStats {
  uint64_t requests = 0;
  uint64_t point_memo_hits = 0;  // answered with 0 API queries
  uint64_t cache_hits = 0;       // RAM hits: answered with 2 API queries
  uint64_t disk_hits = 0;        // region-log reloads: 2 API queries,
                                 // zero extraction
  uint64_t cache_misses = 0;     // paid (or attempted) a full extraction
  uint64_t evictions = 0;        // regions displaced by capacity/byte
                                 // pressure
  uint64_t failures = 0;         // solver failures, bad requests, and
                                 // budget/deadline/cancel rejections
  uint64_t queries = 0;          // total API queries consumed
  uint64_t store_appends = 0;    // records written through to the region
                                 // log (inserts, imports, grown-box
                                 // eviction refreshes)
  uint64_t drift_events = 0;     // validation pair caught a model swap:
                                 // the session's drift epoch was bumped
  uint64_t stale_invalidations = 0;  // cached regions invalidated by
                                     // drift-epoch bumps (not served)
  uint64_t wasted_queries = 0;   // queries charged by probe attempts that
                                 // were refused (retried or given up on)
  uint64_t retries = 0;          // probe attempts re-sent after a
                                 // retryable refusal

  uint64_t region_bytes = 0;  // gauge: cached model payloads + slots
  uint64_t memo_bytes = 0;    // gauge: point-memo map + per-region keys
  uint64_t index_bytes = 0;   // gauge: region-index nodes + learned boxes
  /// Gauge: total cache residency — the value the byte budget bounds.
  uint64_t cache_bytes = 0;   // region_bytes + memo_bytes + index_bytes
};

/// How the session cache served one request.
enum class CacheOutcome {
  kBypass,          // rejected before the candidate lookup (bad
                    // request, pre-flight control, non-finite
                    // validation answer)
  kPointMemo,       // exact x0 repeat: 0 API queries
  kMemoryHit,       // candidate scan validated a RAM region: 2 queries
  kDiskHit,         // RAM missed; a region-log record validated: 2
                    // queries, zero extraction
  kMiss,            // paid (or attempted) a full extraction
  kEvictedRefetch,  // a miss that re-extracted a previously EVICTED region
  kStaleRefetch,    // a drift check caught the endpoint serving a new
                    // model: the stale cache was invalidated and this
                    // request re-extracted at the new epoch
};

/// Stable, distinct, human-readable name of `outcome` ("memory-hit",
/// "stale-refetch", ...) for logs, examples, and bench output.
const char* CacheOutcomeName(CacheOutcome outcome);

/// The serving envelope around one request's answer: what a metered
/// client needs to bill, retry, or debug the request.
struct EngineResponse {
  /// The interpretation, or InvalidArgument / DidNotConverge /
  /// BudgetExhausted / DeadlineExceeded / Cancelled.
  Result<Interpretation> result;
  /// Exact API queries this request consumed — success or failure; never
  /// exceeds the request's max_queries.
  uint64_t queries = 0;
  CacheOutcome cache_outcome = CacheOutcome::kBypass;
  /// Hypercube-shrink iterations the solver attempted (0 on cache hits):
  /// edges visited, including edges whose round the ray screen skipped
  /// (see openapi_method.h), so queries are not iterations * (d+1).
  size_t shrink_iterations = 0;
  /// Wall-clock latency of the request inside the engine, milliseconds.
  /// For SubmitAsync/InterpretStream this is measured from SUBMISSION,
  /// so it includes time spent queued behind other work — the latency a
  /// client actually observes.
  double latency_ms = 0.0;
};

/// A batch in flight on a session: responses are pulled in COMPLETION
/// order while later requests still run, so a consumer can render/forward
/// early answers without waiting for stragglers. Item::index identifies
/// the request; content per index is deterministic in (requests, seed)
/// even though the yield order is scheduling-dependent.
class SessionStream {
 public:
  struct Item {
    size_t index;  // position in the submitted request batch
    EngineResponse response;
  };

  /// Blocks until another request finishes and returns it; nullopt once
  /// all `total()` items have been delivered. Single-consumer.
  std::optional<Item> Next();

  size_t total() const { return total_; }
  size_t delivered() const { return delivered_; }

 private:
  friend class EndpointSession;

  struct Shared {
    util::Mutex mutex;
    util::CondVar ready;
    std::deque<Item> completed GUARDED_BY(mutex);
    /// Stable storage for workers: written once by InterpretStream before
    /// any task is submitted, immutable afterwards — read lock-free.
    // analyze: unguarded(written once before any worker task is
    // submitted, immutable afterwards; Submit's queue mutex publishes it)
    std::vector<EngineRequest> requests;
  };

  std::shared_ptr<Shared> shared_;
  size_t total_ = 0;
  size_t delivered_ = 0;
};

class InterpretationEngine;

/// Per-session bounds and attachments for OpenSession. `OpenSession(api,
/// {})` behaves exactly like the plain overload.
struct SessionOptions {
  /// Region-count cap of this session's cache; 0 = unbounded. At
  /// capacity, inserts evict via a second-chance clock over per-region
  /// hit counters.
  size_t cache_capacity = 0;
  /// Byte budget of this session's cache; 0 = unbounded. The budget
  /// covers the cache's measured resident bytes — region model payloads,
  /// point-memo keys, and region-index boxes (the EngineStats gauges) —
  /// and is a hard ceiling: the same clock eviction runs until the cache
  /// fits, and a region that cannot fit even alone is served without
  /// being cached. Either bound (or both) may apply.
  size_t cache_capacity_bytes = 0;
  /// Persistent tier: the session writes every extracted/imported region
  /// through to this store and consults it on RAM misses (kDiskHit).
  /// nullptr = RAM-only session. The store must outlive the session and
  /// match the endpoint's (dim, num_classes); any number of sessions may
  /// share ONE store instance (it is thread-safe), but two stores must
  /// never be opened on the same log file.
  store::RegionStore* store = nullptr;
};

/// One endpoint's serving context: a region cache + point memo + region
/// index namespaced to a single PredictionApi, with a bounded capacity.
/// Obtained from InterpretationEngine::OpenSession; always held by
/// shared_ptr (async work keeps the session alive until it completes).
/// All methods are const and safe to call concurrently.
class EndpointSession
    : public std::enable_shared_from_this<EndpointSession> {
 public:
  EndpointSession(const EndpointSession&) = delete;
  EndpointSession& operator=(const EndpointSession&) = delete;

  /// Serves one request synchronously. `stream` disambiguates the probe
  /// RNG stream — pass distinct values for distinct requests under one
  /// seed (the batch entry points use the request index).
  EngineResponse Interpret(const EngineRequest& request, uint64_t seed,
                           uint64_t stream = 0) const;

  /// Serves every request, sharded across the engine's pool.
  /// responses[i] corresponds to requests[i] and uses RNG stream i.
  /// Deterministic in (requests, seed) regardless of thread count.
  std::vector<EngineResponse> InterpretAll(
      const std::vector<EngineRequest>& requests, uint64_t seed) const;

  /// Enqueues the request on the engine's pool and returns immediately.
  /// The response is identical to Interpret(request, seed, stream).
  std::future<EngineResponse> SubmitAsync(EngineRequest request,
                                          uint64_t seed,
                                          uint64_t stream = 0) const;

  /// Submits the whole batch and returns a stream that yields responses
  /// as they complete (request i uses RNG stream i, exactly like
  /// InterpretAll). The stream object may be dropped early; workers keep
  /// the shared state and this session alive.
  SessionStream InterpretStream(std::vector<EngineRequest> requests,
                                uint64_t seed) const;

  /// Warm-start hook: installs an already-known locally linear region —
  /// `model` valid around `anchor`, certified over the hypercube
  /// {x : |x_j - anchor_j| <= edge_length} — without paying extraction
  /// queries. This is how a tiered store (or a bench) reloads a cache of
  /// millions of regions: the model is fingerprinted, memoized for the
  /// anchor point, and filed into the region index — under the class it
  /// predicts at `anchor` — with the certified hypercube as its initial
  /// learned box. Imported models are trusted exactly like
  /// extracted ones (an anchor repeat serves from the memo with zero
  /// validation queries; any other point still pays the 2-query
  /// validation pair), so the caller must import models that match the
  /// live endpoint. Pass canonical (column-0-pinned) models if later
  /// re-extractions of the same region should deduplicate against the
  /// import. With a store attached the import is also written through to
  /// the region log, so a bulk import is how a log is seeded without
  /// endpoint traffic. Returns the region's cache slot;
  /// FailedPrecondition when the region cannot fit the session's byte
  /// budget even alone;
  /// InvalidArgument when the model/anchor shape does not match the
  /// endpoint, the anchor or model holds a non-finite entry, or
  /// edge_length is negative or non-finite — checked before anything is
  /// cached or written through. Thread-safe.
  Result<size_t> ImportRegion(api::LocalLinearModel model, const Vec& anchor,
                              double edge_length) const;

  size_t cache_size() const EXCLUDES(cache_mutex_);
  /// Region capacity of this session's cache; 0 = unbounded.
  size_t cache_capacity() const { return capacity_; }
  /// Byte budget of this session's cache; 0 = unbounded.
  size_t cache_capacity_bytes() const { return byte_budget_; }
  /// This session's counters; readable for as long as the session lives.
  EngineStats stats() const;
  /// Drops this session's cached regions, point memo, region index,
  /// and eviction bookkeeping. Safe to race with in-flight requests:
  /// they re-extract as needed.
  void ClearCache() const EXCLUDES(cache_mutex_);
  /// This session's current drift epoch (starts at the attached store's
  /// recovered epoch, or 0 without a store; bumped per drift event).
  uint64_t drift_epoch() const {
    return epoch_.load(std::memory_order_relaxed);
  }

 private:
  friend class InterpretationEngine;
  friend class EndpointSessionTestPeer;

  using PointKey = std::pair<uint64_t, uint64_t>;

  struct CachedRegion {
    api::LocalLinearModel model;
    uint64_t fingerprint = 0;
    /// A point the region is known to contain (the extraction x0 or the
    /// persisted record's anchor). Eviction spills the region with THIS
    /// anchor — a learned box's center can lie outside the true polytope,
    /// so the anchor is the only point a reloaded record may trust.
    Vec anchor;
    /// False for a slot vacated by byte-budget eviction and not yet
    /// refilled (on free_slots_): every scan/sweep skips it. The model is
    /// emptied on eviction, so a free slot holds no payload bytes.
    bool occupied = true;
    /// Hit counter feeding the second-chance eviction clock: bumped on
    /// every memo/scan hit, halved each time the clock passes. Atomic so
    /// hits under the shared (reader) lock need no writer upgrade.
    std::atomic<uint32_t> hits{0};
    /// Point-memo keys filed under this slot (bounded FIFO), removed
    /// from the memo when the region is evicted.
    std::vector<PointKey> points;
    /// Class the region predicted when it was inserted; eviction spill
    /// records carry it as the region's argmax.
    size_t argmax = 0;
    /// Drift epoch this region was extracted/validated at. Regions from
    /// an older epoch are invalidated eagerly on a drift bump; the scan
    /// paths also skip them defensively, so a stale closed form can never
    /// serve even mid-invalidation.
    uint64_t epoch = 0;

    CachedRegion(api::LocalLinearModel m, uint64_t fp, Vec anchor_point,
                 size_t argmax_class)
        : model(std::move(m)),
          fingerprint(fp),
          anchor(std::move(anchor_point)),
          argmax(argmax_class) {}
    CachedRegion(CachedRegion&& other) noexcept
        : model(std::move(other.model)),
          fingerprint(other.fingerprint),
          anchor(std::move(other.anchor)),
          occupied(other.occupied),
          hits(other.hits.load(std::memory_order_relaxed)),
          points(std::move(other.points)),
          argmax(other.argmax),
          epoch(other.epoch) {}
    CachedRegion& operator=(CachedRegion&& other) noexcept {
      model = std::move(other.model);
      fingerprint = other.fingerprint;
      anchor = std::move(other.anchor);
      occupied = other.occupied;
      hits.store(other.hits.load(std::memory_order_relaxed),
                 std::memory_order_relaxed);
      points = std::move(other.points);
      argmax = other.argmax;
      epoch = other.epoch;
      return *this;
    }
  };

  struct PairHash {
    size_t operator()(const PointKey& k) const {
      return static_cast<size_t>(k.first ^ (k.second * 0x9e3779b97f4a7c15ULL));
    }
  };

  EndpointSession(const InterpretationEngine* engine,
                  const api::PredictionApi* api, size_t capacity,
                  size_t byte_budget, store::RegionStore* store);

  /// 128-bit hash of x0's raw double bits; collision odds are negligible,
  /// so point-memo hits never revalidate against the API.
  static PointKey PointKeyOf(const Vec& x0);

  void Bump(uint64_t EngineStats::* counter, uint64_t n = 1) const;

  /// Moves a byte gauge, and cache_bytes with it, by a signed delta
  /// (two's-complement wraparound makes +/- deltas cancel exactly in the
  /// unsigned counters). Gauge mutations happen only under the writer
  /// lock.
  void BumpGauge(uint64_t EngineStats::* gauge, int64_t delta) const
      REQUIRES(cache_mutex_);

  /// Resident bytes one cached region pins: the slot struct + its model
  /// payload + its anchor (memo keys and index boxes are accounted by
  /// their own gauges).
  static size_t SlotBytes(const CachedRegion& region);

  /// The cache_bytes gauge — the value the byte budget bounds.
  size_t CacheBytesLocked() const REQUIRES(cache_mutex_);

  /// Occupied slots: regions_.size() minus the vacated free slots.
  size_t OccupiedLocked() const REQUIRES_SHARED(cache_mutex_);

  /// Re-measures the region index and moves the index_bytes gauge by the
  /// difference. Called after every index mutation under the writer lock.
  void RefreshIndexBytesLocked() const REQUIRES(cache_mutex_);

  /// Evicts (never touching `protect_slot`) until the cache fits the
  /// byte budget. If the protected slot ALONE still exceeds the budget
  /// after everything else is gone, it is evicted too — a region that
  /// cannot fit is served uncached rather than breaching the ceiling.
  void EnforceByteBudgetLocked(size_t protect_slot,
                               std::vector<store::RegionRecord>* spills)
      const REQUIRES(cache_mutex_);

  /// Validates the request (shape, class, finite x0, pre-flight
  /// controls) and serves it through InterpretCached. Everything the
  /// request spends lands in *cost; *outcome says how the cache served
  /// it (kBypass when it was rejected before the lookup).
  Result<Interpretation> Serve(const EngineRequest& request, uint64_t seed,
                               uint64_t stream, RequestCost* cost,
                               CacheOutcome* outcome) const;

  /// `rng_seed` seeds the request's generator, built only once the
  /// request gets past the point memo.
  Result<Interpretation> InterpretCached(const Vec& x0, size_t c,
                                         const RequestOptions& options,
                                         uint64_t rng_seed, RequestCost* cost,
                                         CacheOutcome* outcome) const;

  /// One request's 2-query validation pair, each answer observed once in
  /// log-odds. `logits` is the predicate's scratch for every candidate.
  struct ValidationPair {
    /// True when `model` explains both points at `tol`.
    bool ExplainedBy(const api::LocalLinearModel& model) const;
    /// False when a class underflows at either point: nothing validates.
    bool usable() const { return at_x0.usable && at_probe.usable; }
    size_t argmax() const { return at_x0.argmax; }

    const Vec& x0;
    const Vec& probe;
    const ObservedOdds at_x0;
    const ObservedOdds at_probe;
    const double tol;
    mutable Vec logits;
  };

  /// A validated RAM candidate, copied under the reader lock that
  /// validated it, so the hit serves it without validating it again.
  struct RegionMatch {
    size_t slot;
    uint64_t fingerprint;
    api::LocalLinearModel model;
  };

  /// The first cached region whose model explains `pair`, or nullopt.
  /// Takes the shared (reader) lock itself. Candidates come from the
  /// index's stabbing query and the full scan runs only when none of them
  /// validates — the hit/miss decision (and every downstream query count)
  /// is that of a linear scan over every occupied slot.
  std::optional<RegionMatch> FindMatchingRegion(
      const ValidationPair& pair) const EXCLUDES(cache_mutex_);

  /// Inserts `model` (deduplicating by fingerprint; evicting at count
  /// capacity or byte budget), memoizes memo_point -> slot, and files the
  /// slot into the region index with initial box [lo, hi] (a
  /// fingerprint-deduplicated re-insert unions its box into the existing
  /// one instead). `argmax` is kept for the slot's eviction spill record.
  /// `anchor` is the point the region is certified to contain — equal to
  /// memo_point on extraction/import, the persisted anchor on a disk
  /// reload. Exclusive (writer) lock. Flips *outcome to kEvictedRefetch
  /// when the fingerprint matches a region this session evicted earlier.
  /// Eviction spill records are appended to *spills for the caller to
  /// persist AFTER the lock is released (the store has its own mutex; no
  /// path holds both). Returns kNoSlot when the region was not cached
  /// (it alone exceeds the byte budget).
  size_t InsertRegion(api::LocalLinearModel model, uint64_t fingerprint,
                      const Vec& anchor, const Vec& memo_point,
                      size_t argmax, const Vec& lo, const Vec& hi,
                      CacheOutcome* outcome,
                      std::vector<store::RegionRecord>* spills) const
      EXCLUDES(cache_mutex_);

  /// Consults the persistent tier on a RAM miss: stabs the store's
  /// directory for records whose learned box covers x0, reads each
  /// candidate, and validates it against the 2-query pair the request
  /// already bought. A validated record is installed into the RAM cache
  /// (spills out as in InsertRegion), its model moved into *reloaded,
  /// and true returned — even when the byte budget kept it from being
  /// cached, the request is still served from it. False when nothing on
  /// disk explains the pair.
  bool ReloadFromStore(const ValidationPair& pair,
                       api::LocalLinearModel* reloaded,
                       std::vector<store::RegionRecord>* spills) const
      EXCLUDES(cache_mutex_);

  /// The session's one store-write path: Puts the staged records in
  /// order — a new region's write-through record first, then the
  /// eviction spills collected under the writer lock (grown learned
  /// boxes going back to the log) — bumping store_appends for each one
  /// that appended bytes, then clears the vector. A failed Put is logged
  /// and skipped (the session degrades to RAM-only). Never called with
  /// the cache lock held.
  void PersistSpills(std::vector<store::RegionRecord>* spills) const
      EXCLUDES(cache_mutex_);

  /// Second-chance clock sweep; evicts one occupied region (never
  /// `protect_slot`; pass kNoSlot to allow any) and returns its (now
  /// vacant, unoccupied) slot — the caller either refills it or pushes
  /// it onto free_slots_. With a store attached the victim's learned box
  /// is exported into *spills so its growth survives. Requires the
  /// writer lock and at least one evictable occupied region.
  size_t EvictOneLocked(size_t protect_slot,
                        std::vector<store::RegionRecord>* spills) const
      REQUIRES(cache_mutex_);

  /// Removes one region from EVERY auxiliary structure — fingerprint
  /// map, point-memo keys, region index — as one step,
  /// so no mutation path can leave a structure holding a dead slot.
  /// Requires the writer lock; the slot itself stays allocated for the
  /// caller to refill.
  void DropRegionAuxLocked(size_t slot) const REQUIRES(cache_mutex_);

  /// CHECKs the eviction/index coherence invariant: every OCCUPIED cache
  /// slot is present in the index (index size == occupied count). Called
  /// after every cache mutation; a violation is memory corruption in the
  /// making, so it aborts rather than degrades.
  void CheckAuxCoherenceLocked() const REQUIRES(cache_mutex_);

  /// Files `key` -> `slot` in the point memo and the slot's bounded
  /// per-region key list. Requires the writer lock.
  void FilePointLocked(const PointKey& key, size_t slot) const
      REQUIRES(cache_mutex_);

  /// ClearCache's body, for callers already holding the writer lock.
  /// Also clears evicted_fingerprints_ — after an invalidation, a
  /// re-extraction is a drift/plain refetch, not an eviction refetch.
  void ClearCacheLocked() const REQUIRES(cache_mutex_);

  /// Drift response: bumps the session epoch (mirrored into the store's
  /// when one is attached), counts every currently occupied region as a
  /// stale invalidation, and drops the whole RAM cache — a stale closed
  /// form must be re-extracted, never served. Takes the writer lock.
  void InvalidateStaleRegions() const EXCLUDES(cache_mutex_);

  const InterpretationEngine* const engine_;
  const api::PredictionApi* const api_;
  const size_t capacity_;     // region-count cap; 0 = unbounded
  const size_t byte_budget_;  // resident-byte cap; 0 = unbounded
  /// The persistent tier (nullptr = RAM-only). The pointee has its own
  /// mutex; sessions call it only OUTSIDE cache_mutex_, so the two locks
  /// never nest.
  store::RegionStore* const store_;

  mutable util::SharedMutex cache_mutex_;
  /// NOTE on shared-lock mutation: CachedRegion::hits is atomic, so the
  /// hit path bumps it under the READER lock — an access the analysis
  /// sees as a read of `regions_`, which is exactly the discipline:
  /// container shape changes only under the writer lock, per-slot atomics
  /// tick freely.
  mutable std::vector<CachedRegion> regions_ GUARDED_BY(cache_mutex_);
  mutable std::unordered_map<uint64_t, size_t> by_fingerprint_
      GUARDED_BY(cache_mutex_);
  mutable std::unordered_map<PointKey, size_t, PairHash> point_memo_
      GUARDED_BY(cache_mutex_);
  /// Fingerprints of evicted regions, kept to classify their
  /// re-extraction as kEvictedRefetch. Cleared once it holds more than
  /// 8 * (capacity_, or the occupied-slot count when capacity_ is 0) + 64
  /// entries.
  mutable std::unordered_set<uint64_t> evicted_fingerprints_
      GUARDED_BY(cache_mutex_);
  mutable size_t clock_hand_ GUARDED_BY(cache_mutex_) = 0;
  /// Slots vacated by byte-budget eviction, reused before regions_
  /// grows. A listed slot is unoccupied (occupied == false, payload
  /// emptied) and absent from every auxiliary structure.
  mutable std::vector<size_t> free_slots_ GUARDED_BY(cache_mutex_);
  /// Hierarchical point-location index over the learned per-region
  /// bounding boxes: every occupied slot, filed once. RegionIndex has no
  /// locks of its own and shares cache_mutex_ — Collect runs under the
  /// reader lock (no interior mutation), every mutator under the writer
  /// lock.
  mutable RegionIndex index_ GUARDED_BY(cache_mutex_);

  /// Current drift epoch; newly inserted regions are tagged with it.
  /// Atomic so the hot read (scan skip checks) stays under the reader
  /// lock; bumps happen inside InvalidateStaleRegions' writer section.
  mutable std::atomic<uint64_t> epoch_{0};
  /// Point-memo hit counter driving drift_check_interval cadence.
  mutable std::atomic<uint64_t> memo_hit_ticks_{0};

  // analyze: unguarded(lock-free counter block: every read and write
  // of a field goes through std::atomic_ref, in Bump, BumpGauge, stats,
  // CacheBytesLocked and RefreshIndexBytesLocked)
  mutable EngineStats stats_;
};

class InterpretationEngine {
 public:
  explicit InterpretationEngine(EngineConfig config = {});

  /// Blocks until every async task this engine submitted has finished.
  ~InterpretationEngine();

  /// Scoped checkout of a pooled per-request SolverWorkspace. The engine
  /// keeps one workspace per concurrently running request (in steady
  /// state: one per pool worker) and hands them out per request, so the
  /// solver's first-iteration buffer growth amortizes across cache
  /// misses instead of being re-paid by every request. Sessions lease on
  /// the extraction path; public so serving code built directly on the
  /// engine can amortize the same way. A leased workspace is exclusively
  /// owned until the lease dies (never shared across concurrent
  /// requests); it is Clear()ed — sizes reset, capacity kept — on
  /// release.
  class WorkspaceLease {
   public:
    explicit WorkspaceLease(const InterpretationEngine& engine)
        : engine_(&engine), workspace_(engine.AcquireWorkspace()) {}
    ~WorkspaceLease() { engine_->ReleaseWorkspace(workspace_); }
    WorkspaceLease(const WorkspaceLease&) = delete;
    WorkspaceLease& operator=(const WorkspaceLease&) = delete;

    SolverWorkspace* get() const { return workspace_; }

   private:
    const InterpretationEngine* engine_;
    SolverWorkspace* workspace_;
  };

  /// Pooled workspaces created so far: an upper bound on the engine's
  /// historical request concurrency, and the direct signal that
  /// sequential requests reuse one workspace (the size stays 1).
  size_t workspace_pool_size() const;

  /// Opens a serving session bound to `api` with its own endpoint-scoped
  /// cache of at most `cache_capacity` regions (0 = unbounded). The
  /// engine must outlive every use of the session; `api` must
  /// outlive the session's last request. Sessions are independent: open
  /// any number, on the same or distinct endpoints, from any thread.
  std::shared_ptr<EndpointSession> OpenSession(
      const api::PredictionApi& api, size_t cache_capacity = 0) const;

  /// OpenSession with the full option set: region capacity AND byte
  /// budget, plus the persistent region store to attach (see
  /// SessionOptions for lifetimes and sharing rules).
  std::shared_ptr<EndpointSession> OpenSession(
      const api::PredictionApi& api, const SessionOptions& options) const;

  const EngineConfig& config() const { return config_; }
  size_t num_threads() const { return pool_->num_threads(); }
  bool owns_pool() const { return owned_pool_ != nullptr; }

 private:
  friend class EndpointSession;

  /// Async-task bookkeeping so the destructor can drain safely.
  void BeginAsyncTask() const EXCLUDES(async_mutex_);
  void EndAsyncTask() const EXCLUDES(async_mutex_);

  /// Workspace pool backing WorkspaceLease: pops a free workspace or
  /// grows the pool by one. Release Clear()s and returns it; it CHECKs
  /// the workspace is not already free, so a double release (the only
  /// way one workspace could serve two concurrent requests) aborts
  /// rather than corrupting a request.
  SolverWorkspace* AcquireWorkspace() const EXCLUDES(workspace_mutex_);
  void ReleaseWorkspace(SolverWorkspace* workspace) const
      EXCLUDES(workspace_mutex_);

  const EngineConfig config_;
  // analyze: unguarded(set once in the constructor, before the engine is
  // visible to any other thread; immutable for the engine's lifetime)
  std::unique_ptr<util::ThreadPool> owned_pool_;  // only if num_threads > 0
  // analyze: unguarded(set once in the constructor alongside owned_pool_;
  // immutable for the engine's lifetime)
  util::ThreadPool* pool_ = nullptr;              // owned or shared

  mutable util::Mutex async_mutex_;
  mutable util::CondVar async_idle_;
  mutable size_t async_outstanding_ GUARDED_BY(async_mutex_) = 0;

  /// Declared lock order for the one class owning two locks: if a path
  /// ever needs both, the async lock comes first. No current path nests
  /// them (the analyzer's observed graph is edge-free); the declaration
  /// pins the policy for future code, and analyze_semantics.py rejects
  /// any observed nesting that contradicts or extends it undeclared.
  mutable util::Mutex workspace_mutex_ ACQUIRED_AFTER(async_mutex_);
  mutable std::vector<std::unique_ptr<SolverWorkspace>> workspaces_
      GUARDED_BY(workspace_mutex_);
  mutable std::vector<SolverWorkspace*> free_workspaces_
      GUARDED_BY(workspace_mutex_);
};

}  // namespace openapi::interpret

#endif  // OPENAPI_INTERPRET_INTERPRETATION_ENGINE_H_
