#include "api/api_replica_set.h"

#include <algorithm>
#include <utility>

#include "util/check.h"
#include "util/status.h"
#include "util/thread_pool.h"

namespace openapi::api {

ApiReplicaSet::ApiReplicaSet(const Plm* model, size_t num_replicas,
                             int round_digits, double noise_stddev,
                             uint64_t noise_seed)
    : PredictionApi(model, round_digits, noise_stddev, noise_seed) {
  OPENAPI_CHECK_GE(num_replicas, 1u);
  replicas_.reserve(num_replicas);
  for (size_t i = 0; i < num_replicas; ++i) {
    replicas_.push_back(std::make_unique<PredictionApi>(
        model, round_digits, noise_stddev, noise_seed + i));
  }
  state_.reserve(num_replicas);
  for (size_t i = 0; i < num_replicas; ++i) {
    state_.push_back(std::make_unique<ReplicaState>());
  }
}

ApiReplicaSet::ApiReplicaSet(
    std::vector<std::unique_ptr<PredictionApi>> replicas,
    ReplicaRouteConfig route)
    : replicas_(std::move(replicas)), route_(route) {
  OPENAPI_CHECK_GE(replicas_.size(), 1u);
  CheckReplicaShapes();
  state_.reserve(replicas_.size());
  for (size_t i = 0; i < replicas_.size(); ++i) {
    state_.push_back(std::make_unique<ReplicaState>());
  }
}

void ApiReplicaSet::CheckReplicaShapes() const {
  for (const auto& replica : replicas_) {
    OPENAPI_CHECK(replica != nullptr);
    OPENAPI_CHECK_EQ(replica->dim(), replicas_[0]->dim());
    OPENAPI_CHECK_EQ(replica->num_classes(), replicas_[0]->num_classes());
  }
}

std::vector<size_t> ApiReplicaSet::RoutableReplicas(uint64_t tick) const {
  std::vector<size_t> routable;
  routable.reserve(replicas_.size());
  for (size_t i = 0; i < replicas_.size(); ++i) {
    if (!QuarantinedAt(i, tick)) routable.push_back(i);
  }
  if (routable.empty()) {
    // Every breaker open: refusing to route at all would turn the
    // breaker into an outage, so the whole fleet becomes half-open.
    for (size_t i = 0; i < replicas_.size(); ++i) routable.push_back(i);
  }
  return routable;
}

void ApiReplicaSet::RecordOutcome(size_t i, bool ok, uint64_t tick) const {
  ReplicaState& state = *state_[i];
  if (ok) {
    state.successes.fetch_add(1, std::memory_order_relaxed);
    // One success closes the breaker (half-open probe passed).
    state.consecutive_failures.store(0, std::memory_order_relaxed);
    return;
  }
  state.failures.fetch_add(1, std::memory_order_relaxed);
  const uint32_t streak =
      state.consecutive_failures.fetch_add(1, std::memory_order_relaxed) + 1;
  if (route_.quarantine_threshold > 0 &&
      streak >= route_.quarantine_threshold) {
    // A half-open replica that fails again lands here immediately (the
    // streak is only cleared by a success), re-opening the window.
    state.open_until.store(tick + route_.quarantine_calls,
                           std::memory_order_relaxed);
  }
}

Vec ApiReplicaSet::Predict(const Vec& x) const {
  const uint64_t ticket =
      round_robin_.fetch_add(1, std::memory_order_relaxed);
  const uint64_t tick = health_tick_.load(std::memory_order_relaxed);
  // With nothing quarantined the routable list is every replica, so this
  // is bit-for-bit the historical round robin.
  const std::vector<size_t> routable = RoutableReplicas(tick);
  return replicas_[routable[ticket % routable.size()]]->Predict(x);
}

Result<std::vector<Vec>> ApiReplicaSet::TryPredictBatch(
    const std::vector<Vec>& xs, uint64_t* rows_consumed) const {
  if (rows_consumed != nullptr) *rows_consumed = 0;
  if (xs.empty()) return std::vector<Vec>{};
  const uint64_t tick = health_tick_.fetch_add(1, std::memory_order_relaxed);
  // Two-level split: one shard per replica while rows last (preserving
  // small-batch shard shapes), but never fewer than
  // ceil(batch / kTargetShardRows) shards, so a large batch on few
  // replicas still fans out wide enough to keep every pool worker busy.
  const size_t num_shards = std::max(
      std::min(replicas_.size(), xs.size()),
      (xs.size() + kTargetShardRows - 1) / kTargetShardRows);
  const size_t block = (xs.size() + num_shards - 1) / num_shards;
  const std::vector<size_t> preferred = RoutableReplicas(tick);

  // Claim every shard's query-count slots and noise tickets up front, in
  // shard order, on this thread: shard -> replica routing AND each
  // replica's ticket sequence become pure functions of (batch size,
  // routable set), so results cannot depend on dispatch timing even when
  // one replica serves several shards concurrently. Per-replica counters
  // stay exact: each reservation adds exactly the shard's row count to
  // the replica that serves (or refuses) it.
  struct Shard {
    size_t begin;
    size_t end;
    size_t replica;
    uint64_t first_ticket;
  };
  std::vector<Shard> shards;
  shards.reserve(num_shards);
  for (size_t s = 0; s < num_shards; ++s) {
    const size_t begin = s * block;
    const size_t end = std::min(begin + block, xs.size());
    if (begin >= end) break;
    const size_t replica = preferred[s % preferred.size()];
    shards.push_back(
        {begin, end, replica, replicas_[replica]->ReserveBatch(end - begin)});
  }
  // Reservations made so far (primary) plus re-dispatch reservations the
  // shard loop adds below — the exact query_count() delta of this call.
  std::atomic<uint64_t> reserved{xs.size()};

  std::vector<Vec> out(xs.size());
  std::vector<Status> shard_status(shards.size());  // all OK
  auto run_shard = [&](size_t s) {
    const Shard& shard = shards[s];
    std::vector<Vec> rows(xs.begin() + static_cast<ptrdiff_t>(shard.begin),
                          xs.begin() + static_cast<ptrdiff_t>(shard.end));
    size_t replica = shard.replica;
    uint64_t first_ticket = shard.first_ticket;
    std::vector<char> tried(replicas_.size(), 0);
    for (;;) {
      tried[replica] = 1;
      Result<std::vector<Vec>> ys =
          replicas_[replica]->TryPredictBatchReserved(rows, first_ticket);
      const uint64_t now = health_tick_.load(std::memory_order_relaxed);
      if (ys.ok()) {
        RecordOutcome(replica, /*ok=*/true, now);
        for (size_t i = 0; i < ys->size(); ++i) {
          out[shard.begin + i] = std::move((*ys)[i]);
        }
        return;
      }
      RecordOutcome(replica, /*ok=*/false, now);
      // Re-dispatch: next routable replica this shard has not tried, in
      // index order from the one that just refused; if every routable
      // one was tried, any untried replica at all (a quarantined replica
      // beats giving up). A fresh reservation keeps that replica's
      // ticket stream exact.
      const std::vector<size_t> routable = RoutableReplicas(now);
      size_t next = replicas_.size();
      for (size_t step = 1; step < replicas_.size() + 1; ++step) {
        const size_t cand = (replica + step) % replicas_.size();
        if (tried[cand]) continue;
        if (std::find(routable.begin(), routable.end(), cand) !=
            routable.end()) {
          next = cand;
          break;
        }
      }
      if (next == replicas_.size()) {
        for (size_t step = 1; step < replicas_.size() + 1; ++step) {
          const size_t cand = (replica + step) % replicas_.size();
          if (!tried[cand]) {
            next = cand;
            break;
          }
        }
      }
      if (next == replicas_.size()) {
        // Every replica refused this shard's rows.
        shard_status[s] = ys.status();
        return;
      }
      redispatched_.fetch_add(1, std::memory_order_relaxed);
      first_ticket = replicas_[next]->ReserveBatch(rows.size());
      reserved.fetch_add(rows.size(), std::memory_order_relaxed);
      replica = next;
    }
  };

  util::ThreadPool* pool = xs.size() < kConcurrentDispatchMin
                               ? nullptr
                               : util::SharedThreadPool();
  if (pool == nullptr || pool->OnWorkerThread() || pool->num_threads() == 1) {
    // Small batches aren't worth the hand-off — and a shared-pool WORKER
    // (an interpretation task probing through the set) must never block
    // on its own pool, so it runs its shards inline. Workers therefore
    // never wait on the queue, which is what makes the dispatch below
    // safe for everyone else.
    for (size_t s = 0; s < shards.size(); ++s) run_shard(s);
  } else {
    // Concurrent dispatch on the process-wide shared pool (per-call
    // latch, so concurrent batches never wait on each other's shards).
    // Tickets were reserved above, so scheduling order is free to vary.
    util::ParallelFor(pool, shards.size(), run_shard);
  }
  if (rows_consumed != nullptr) {
    *rows_consumed = reserved.load(std::memory_order_relaxed);
  }
  for (const Status& status : shard_status) {
    // First failed shard speaks for the call: no silent partial answer.
    if (!status.ok()) return status;
  }
  return out;
}

uint64_t ApiReplicaSet::query_count() const {
  uint64_t total = 0;
  for (const auto& replica : replicas_) total += replica->query_count();
  return total;
}

void ApiReplicaSet::ResetQueryCount() {
  for (const auto& replica : replicas_) replica->ResetQueryCount();
}

void ApiReplicaSet::ResetNoiseStream() {
  for (const auto& replica : replicas_) replica->ResetNoiseStream();
  // Replaying a seeded noisy trace must also replay the ROUTING: without
  // rewinding the round-robin ticket, the same single-Predict sequence
  // would land on different replicas (different noise seeds) after a
  // reset.
  round_robin_.store(0, std::memory_order_relaxed);
}

uint64_t ApiReplicaSet::replica_query_count(size_t i) const {
  OPENAPI_CHECK_LT(i, replicas_.size());
  return replicas_[i]->query_count();
}

bool ApiReplicaSet::replica_quarantined(size_t i) const {
  OPENAPI_CHECK_LT(i, replicas_.size());
  return QuarantinedAt(i, health_tick_.load(std::memory_order_relaxed));
}

uint64_t ApiReplicaSet::replica_failures(size_t i) const {
  OPENAPI_CHECK_LT(i, replicas_.size());
  return state_[i]->failures.load(std::memory_order_relaxed);
}

uint64_t ApiReplicaSet::replica_successes(size_t i) const {
  OPENAPI_CHECK_LT(i, replicas_.size());
  return state_[i]->successes.load(std::memory_order_relaxed);
}

}  // namespace openapi::api
