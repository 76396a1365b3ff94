// OPENAPI_TEST_LABELS: concurrent
// Replica quarantine: the per-replica consecutive-failure breaker.
// Refused shards are re-dispatched to healthy replicas (the call still
// succeeds with correct values and exact accounting), the breaker opens
// at the threshold and routes primary traffic away, half-open probing
// closes it on success and re-opens it on failure, and an all-quarantined
// fleet falls back to every replica rather than refusing to route.

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <utility>
#include <vector>

#include "api/api_replica_set.h"
#include "api/plm.h"
#include "nn/plnn.h"
#include "util/rng.h"

namespace openapi::api {
namespace {

std::unique_ptr<nn::Plnn> MakeModel(uint64_t seed) {
  util::Rng rng(seed);
  // dim 4 -> two hidden layers -> 3 classes.
  return std::make_unique<nn::Plnn>(std::vector<size_t>{4, 8, 6, 3}, &rng);
}

/// A replica whose reserved-batch surface can be switched into a failing
/// mode: refuses kTransient WITHOUT serving (the reservation the set made
/// beforehand stays charged, exactly like a real endpoint dying after
/// admission). Singles and infallible paths stay healthy.
class FlakyApi : public PredictionApi {
 public:
  explicit FlakyApi(const Plm* model) : PredictionApi(model) {}

  void set_failing(bool failing) {
    failing_.store(failing, std::memory_order_relaxed);
  }
  uint64_t refusals() const {
    return refusals_.load(std::memory_order_relaxed);
  }

  Result<std::vector<Vec>> TryPredictBatchReserved(
      const std::vector<Vec>& xs, uint64_t first_ticket) const override {
    if (failing_.load(std::memory_order_relaxed)) {
      refusals_.fetch_add(1, std::memory_order_relaxed);
      return Status::Transient("flaky replica refused the shard");
    }
    return PredictionApi::TryPredictBatchReserved(xs, first_ticket);
  }

 private:
  mutable std::atomic<bool> failing_{false};
  mutable std::atomic<uint64_t> refusals_{0};
};

/// Builds a 3-replica set over `model`; returns the flaky middle replica
/// through `flaky` (owned by the set).
std::unique_ptr<ApiReplicaSet> MakeFleet(const Plm* model,
                                         ReplicaRouteConfig route,
                                         FlakyApi** flaky) {
  std::vector<std::unique_ptr<PredictionApi>> replicas;
  replicas.push_back(std::make_unique<PredictionApi>(model));
  auto owned_flaky = std::make_unique<FlakyApi>(model);
  *flaky = owned_flaky.get();
  replicas.push_back(std::move(owned_flaky));
  replicas.push_back(std::make_unique<PredictionApi>(model));
  return std::make_unique<ApiReplicaSet>(std::move(replicas), route);
}

std::vector<Vec> MakeBatch(size_t rows, uint64_t seed) {
  util::Rng rng(seed);
  std::vector<Vec> xs;
  xs.reserve(rows);
  for (size_t i = 0; i < rows; ++i) {
    xs.push_back(rng.UniformVector(4, -1.0, 1.0));
  }
  return xs;
}

/// One batched call, asserting the three invariants every call must hold:
/// values equal the hidden model's (re-dispatch is invisible), and the
/// reported consumption equals the set counter delta exactly.
void CallAndCheck(const Plm& model, const ApiReplicaSet& set,
                  const std::vector<Vec>& xs, bool expect_ok) {
  const uint64_t before = set.query_count();
  uint64_t consumed = 0;
  auto ys = set.TryPredictBatch(xs, &consumed);
  EXPECT_EQ(set.query_count(), before + consumed);
  ASSERT_EQ(ys.ok(), expect_ok) << ys.status().ToString();
  if (!expect_ok) {
    EXPECT_TRUE(ys.status().IsRetryable());
    return;
  }
  ASSERT_EQ(ys->size(), xs.size());
  for (size_t i = 0; i < xs.size(); ++i) {
    const Vec truth = model.Predict(xs[i]);
    for (size_t c = 0; c < truth.size(); ++c) {
      EXPECT_EQ((*ys)[i][c], truth[c]) << "row " << i << " class " << c;
    }
  }
}

// ---------------------------------------------------------------------------
// Threshold consecutive refusals open the breaker; while it is open the
// replica gets no primary traffic (batched shards or round-robin
// singles), yet every call succeeds via re-dispatch with exact books.
// ---------------------------------------------------------------------------
TEST(ReplicaQuarantineTest, BreakerOpensAndTrafficRoutesAround) {
  auto model = MakeModel(7);
  ReplicaRouteConfig route;
  route.quarantine_threshold = 3;
  route.quarantine_calls = 1000;  // stays open for the whole test
  FlakyApi* flaky = nullptr;
  auto set = MakeFleet(model.get(), route, &flaky);
  flaky->set_failing(true);

  // 6 rows over 3 replicas: one 2-row shard lands on the flaky replica
  // per call, so 3 calls reach the threshold.
  for (uint64_t call = 0; call < 3; ++call) {
    EXPECT_FALSE(set->replica_quarantined(1)) << "call " << call;
    CallAndCheck(*model, *set, MakeBatch(6, 100 + call), /*expect_ok=*/true);
  }
  EXPECT_TRUE(set->replica_quarantined(1));
  EXPECT_EQ(set->replica_failures(1), 3u);
  EXPECT_GE(set->redispatched_shards(), 3u);

  // Open breaker: no primary traffic. The failed shards' reservations
  // are already on the books, so the counter must now FREEZE.
  const uint64_t frozen = set->replica_query_count(1);
  for (uint64_t call = 0; call < 5; ++call) {
    CallAndCheck(*model, *set, MakeBatch(6, 200 + call), /*expect_ok=*/true);
  }
  EXPECT_EQ(set->replica_query_count(1), frozen);
  EXPECT_EQ(set->replica_failures(1), 3u);

  // Round-robin singles skip it too.
  const Vec x = MakeBatch(1, 999)[0];
  for (int i = 0; i < 6; ++i) {
    const Vec truth = model->Predict(x);
    const Vec got = set->Predict(x);
    for (size_t c = 0; c < truth.size(); ++c) EXPECT_EQ(got[c], truth[c]);
  }
  EXPECT_EQ(set->replica_query_count(1), frozen);
}

// ---------------------------------------------------------------------------
// Half-open: once the quarantine window lapses the replica is probed
// again; a success closes the breaker and traffic resumes.
// ---------------------------------------------------------------------------
TEST(ReplicaQuarantineTest, HalfOpenProbeClosesBreakerOnSuccess) {
  auto model = MakeModel(11);
  ReplicaRouteConfig route;
  route.quarantine_threshold = 2;
  route.quarantine_calls = 2;
  FlakyApi* flaky = nullptr;
  auto set = MakeFleet(model.get(), route, &flaky);

  flaky->set_failing(true);
  for (uint64_t call = 0; call < 2; ++call) {
    CallAndCheck(*model, *set, MakeBatch(6, 300 + call), /*expect_ok=*/true);
  }
  ASSERT_TRUE(set->replica_quarantined(1));

  // The replica recovers; within a few set calls the window lapses, the
  // half-open probe shard succeeds, and the breaker closes.
  flaky->set_failing(false);
  const uint64_t quarantined_count = set->replica_query_count(1);
  bool closed = false;
  for (uint64_t call = 0; call < 8 && !closed; ++call) {
    CallAndCheck(*model, *set, MakeBatch(6, 400 + call), /*expect_ok=*/true);
    closed = !set->replica_quarantined(1) &&
             set->replica_query_count(1) > quarantined_count;
  }
  EXPECT_TRUE(closed);
  EXPECT_GE(set->replica_successes(1), 1u);

  // Closed means closed: sustained traffic keeps landing on it.
  const uint64_t resumed = set->replica_query_count(1);
  for (uint64_t call = 0; call < 3; ++call) {
    CallAndCheck(*model, *set, MakeBatch(6, 500 + call), /*expect_ok=*/true);
  }
  EXPECT_GT(set->replica_query_count(1), resumed);
}

// ---------------------------------------------------------------------------
// Half-open failure re-opens the breaker: a still-broken replica costs
// one probe shard per window, not a return to full traffic.
// ---------------------------------------------------------------------------
TEST(ReplicaQuarantineTest, HalfOpenProbeFailureReopensBreaker) {
  auto model = MakeModel(13);
  ReplicaRouteConfig route;
  route.quarantine_threshold = 2;
  route.quarantine_calls = 2;
  FlakyApi* flaky = nullptr;
  auto set = MakeFleet(model.get(), route, &flaky);
  flaky->set_failing(true);

  for (uint64_t call = 0; call < 12; ++call) {
    CallAndCheck(*model, *set, MakeBatch(6, 600 + call), /*expect_ok=*/true);
  }
  // Every half-open probe failed, so the breaker must be open again at
  // the end — and the replica saw only the occasional probe (strictly
  // fewer refusals than the calls it would have served if trusted).
  EXPECT_TRUE(set->replica_quarantined(1));
  EXPECT_GT(set->replica_failures(1), 2u);
  EXPECT_LT(set->replica_failures(1), 12u);
  EXPECT_EQ(set->replica_successes(1), 0u);
}

// ---------------------------------------------------------------------------
// All breakers open: the router falls back to EVERY replica (refusing to
// route would turn a breaker bug into an outage). The call still fails
// cleanly — retryable status, books exact, no partial answer — and heals
// the moment one replica recovers.
// ---------------------------------------------------------------------------
TEST(ReplicaQuarantineTest, AllQuarantinedFallsBackAndHeals) {
  auto model = MakeModel(17);
  std::vector<std::unique_ptr<PredictionApi>> replicas;
  std::vector<FlakyApi*> flaky;
  for (int i = 0; i < 3; ++i) {
    auto replica = std::make_unique<FlakyApi>(model.get());
    replica->set_failing(true);
    flaky.push_back(replica.get());
    replicas.push_back(std::move(replica));
  }
  ReplicaRouteConfig route;
  route.quarantine_threshold = 1;
  route.quarantine_calls = 1000;
  ApiReplicaSet set(std::move(replicas), route);

  // Whole fleet refuses: the call fails gracefully (first failed shard
  // speaks for the call), never crashes, never partially answers.
  CallAndCheck(*model, set, MakeBatch(6, 700), /*expect_ok=*/false);
  for (size_t i = 0; i < 3; ++i) {
    EXPECT_TRUE(set.replica_quarantined(i)) << "replica " << i;
  }

  // Still fails — but still ROUTES (fallback ignores open breakers).
  CallAndCheck(*model, set, MakeBatch(6, 701), /*expect_ok=*/false);

  // One replica heals: re-dispatch finds it and the call succeeds even
  // though every breaker is still open.
  flaky[2]->set_failing(false);
  CallAndCheck(*model, set, MakeBatch(6, 702), /*expect_ok=*/true);
  EXPECT_GE(set.replica_successes(2), 1u);
}

}  // namespace
}  // namespace openapi::api
