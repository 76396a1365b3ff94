// Replica sharding at the API boundary.
//
// A production deployment of the interpretation service does not probe one
// endpoint: the model is served by N replicas behind a load balancer, and
// probe traffic is spread across them (cf. Asahara & Fujimaki's
// distributed piecewise-linear serving). ApiReplicaSet reproduces that
// topology inside the repo: it IS a PredictionApi (interpreters and the
// engine use it unchanged), but every request is routed to one of N inner
// PredictionApi replicas — either homogeneous wrappers the set builds over
// one hidden model, or externally built endpoints (possibly
// FaultInjectingApi decorators) handed in, which is how the fault soak
// stands up a degraded fleet.
//
// Routing is deterministic while the fleet is healthy:
//   * Predict         — round-robin over an atomic ticket, skipping
//     quarantined replicas;
//   * TryPredictBatch — TWO-LEVEL contiguous split: the batch becomes
//     ceil(batch / kTargetShardRows) shards (never fewer than one per
//     replica while rows last), shard s served by preferred[s % P] where
//     `preferred` is the healthy replica list — the full replica list
//     whenever nothing is quarantined, so the fault-free shard shapes
//     and noise tickets are EXACTLY the pre-fault-tolerance ones. Before
//     any shard runs, the caller reserves each shard's query-count slots
//     and noise tickets IN SHARD ORDER (PredictionApi::ReserveBatch), so
//     a given batch always lands on the same replicas with the same
//     per-replica noise tickets regardless of dispatch timing. Large
//     batches dispatch their shards on the process-wide
//     util::SharedThreadPool — with a deadlock-free story: a caller that
//     IS a shared-pool worker runs its shards inline, so pool workers
//     never wait on the queue.
//
// Failure handling per shard: a refused TryPredictBatchReserved records a
// failure against its replica (consecutive failures trip the breaker —
// see ReplicaHealth below) and the shard's rows are RE-DISPATCHED to the
// next routable replica with a fresh reservation made at failure time; a
// shard only fails the whole call once every routable replica has refused
// it. Re-dispatch reservations are deterministic whenever shard execution
// is serialized (small batches, or the soak's single-threaded replay);
// under concurrent shard dispatch their ticket interleaving follows
// scheduling, like every other concurrent reservation in the system.
//
// Accounting is exact by construction: each replica keeps its own atomic
// query counter, query_count() is their sum, and every RESERVATION —
// primary or re-dispatch, served or refused-after-reserve — lands on
// exactly one replica. TryPredictBatch reports the total it reserved via
// `rows_consumed`, so callers' books always match the counters even when
// the call ultimately fails.
//
// Latency: the set inherits PredictionApi::row_latency(), the set-level
// EWMA that chunked probe dispatch plans against.

#ifndef OPENAPI_API_API_REPLICA_SET_H_
#define OPENAPI_API_API_REPLICA_SET_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "api/prediction_api.h"

namespace openapi::api {

/// Breaker / routing knobs for a replica set.
struct ReplicaRouteConfig {
  /// Consecutive shard failures that open a replica's breaker.
  uint32_t quarantine_threshold = 3;
  /// Set-level calls the breaker stays open before the replica is
  /// half-open (routable again; one more failure re-opens it, one
  /// success closes it).
  uint64_t quarantine_calls = 16;
};

class ApiReplicaSet : public PredictionApi {
 public:
  /// Builds `num_replicas` endpoints over `model` (not owned; must outlive
  /// the set). All replicas share the rounding/noise configuration but get
  /// distinct noise seeds (noise_seed + replica index): replicas of a
  /// nondeterministic serving stack jitter independently.
  explicit ApiReplicaSet(const Plm* model, size_t num_replicas,
                         int round_digits = 0, double noise_stddev = 0.0,
                         uint64_t noise_seed = 0x5eed);

  /// Adopts externally built replicas (same shape required) — the way a
  /// degraded fleet is stood up: wrap each endpoint in a
  /// FaultInjectingApi, then hand the decorators here.
  ApiReplicaSet(std::vector<std::unique_ptr<PredictionApi>> replicas,
                ReplicaRouteConfig route = ReplicaRouteConfig{});

  size_t dim() const override { return replicas_[0]->dim(); }
  size_t num_classes() const override {
    return replicas_[0]->num_classes();
  }

  Vec Predict(const Vec& x) const override;
  Result<std::vector<Vec>> TryPredictBatch(
      const std::vector<Vec>& xs,
      uint64_t* rows_consumed = nullptr) const override;

  /// Total samples reserved against the whole set: the exact sum of the
  /// per-replica counters.
  uint64_t query_count() const override;
  void ResetQueryCount() override;
  void ResetNoiseStream() override;

  size_t num_replicas() const { return replicas_.size(); }
  uint64_t replica_query_count(size_t i) const;
  const PredictionApi& replica(size_t i) const { return *replicas_[i]; }

  /// True while replica i's breaker is open at the CURRENT health tick
  /// (does not advance the tick).
  bool replica_quarantined(size_t i) const;
  uint64_t replica_failures(size_t i) const;
  uint64_t replica_successes(size_t i) const;

  /// Shards whose rows were re-dispatched to a fallback replica after a
  /// refusal (one count per fallback attempt).
  uint64_t redispatched_shards() const {
    return redispatched_.load(std::memory_order_relaxed);
  }

  const ReplicaRouteConfig& route_config() const { return route_; }

 private:
  /// Per-replica breaker state. `open_until` is a set-level health-tick
  /// horizon: the replica is quarantined while open_until > tick. All
  /// transitions are single atomic ops; the breaker is deliberately
  /// approximate under races (two racing failures may both extend the
  /// window) — it shapes routing, it does not gate correctness.
  struct ReplicaState {
    std::atomic<uint32_t> consecutive_failures{0};
    std::atomic<uint64_t> open_until{0};
    std::atomic<uint64_t> failures{0};
    std::atomic<uint64_t> successes{0};
  };

  /// Batches smaller than this are served by a sequential shard loop; the
  /// thread hand-off would cost more than the forward passes save.
  static constexpr size_t kConcurrentDispatchMin = 64;

  /// Second-level split target: a batch becomes ceil(batch / this many)
  /// shards once that exceeds num_replicas, so skewed large batches keep
  /// every pool worker busy instead of maxing out at one shard per
  /// replica.
  static constexpr size_t kTargetShardRows = 64;

  void CheckReplicaShapes() const;

  bool QuarantinedAt(size_t i, uint64_t tick) const {
    return state_[i]->open_until.load(std::memory_order_relaxed) > tick;
  }

  /// Routable (non-quarantined) replicas at `tick`, in index order;
  /// falls back to EVERY replica when all breakers are open (refusing to
  /// route at all would turn a breaker bug into an outage).
  std::vector<size_t> RoutableReplicas(uint64_t tick) const;

  /// Success closes the breaker (streak := 0); failure bumps the streak
  /// and, at the threshold, opens the breaker for quarantine_calls ticks.
  void RecordOutcome(size_t i, bool ok, uint64_t tick) const;

  /// Immutable after construction (built in the ctor, never resized):
  /// read lock-free by every routing path.
  std::vector<std::unique_ptr<PredictionApi>> replicas_;
  /// One breaker per replica; unique_ptr because atomics
  /// are immovable. Same lifetime/immutability as replicas_.
  std::vector<std::unique_ptr<ReplicaState>> state_;
  ReplicaRouteConfig route_;
  /// Lock-free routing ticket: fetch_add assigns each single-sample
  /// Predict a unique monotone ticket, so concurrent singles spread
  /// round-robin without a lock. Relaxed: routing needs no ordering,
  /// only uniqueness. Reset only by ResetNoiseStream (test replays).
  mutable std::atomic<uint64_t> round_robin_{0};
  /// Monotone set-call counter that quarantine windows are measured in
  /// (one tick per TryPredictBatch).
  mutable std::atomic<uint64_t> health_tick_{0};
  mutable std::atomic<uint64_t> redispatched_{0};
};

}  // namespace openapi::api

#endif  // OPENAPI_API_API_REPLICA_SET_H_
