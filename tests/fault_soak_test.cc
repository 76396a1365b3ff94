// OPENAPI_TEST_LABELS: fault
// The ISSUE acceptance soak: 10^3 requests against 8 endpoints, each
// served by a 4-replica set of fault-injecting decorators with 5%
// transient failures, one deterministically throttling replica, and one
// mid-run model swap. The run must finish with
//   * zero crashed or hung requests (every response is ok);
//   * every served closed form validating against the CURRENT hidden
//     model — the drifted endpoint serves no stale region after its
//     epoch bump, and at most drift_check_interval-1 stale memo hits
//     before the check fires;
//   * query accounting exact against api.query_count() on every
//     endpoint, failures, re-dispatch, and swap included;
//   * retry amplification under 1.2x;
//   * the WHOLE run bit-reproducible from the injection seed.

#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "api/api_replica_set.h"
#include "api/fault_injecting_api.h"
#include "api/ground_truth.h"
#include "api/plm.h"
#include "grid_plm.h"
#include "interpret/interpretation_engine.h"
#include "util/clock.h"
#include "util/rng.h"

namespace openapi::interpret {
namespace {

constexpr size_t kDim = 4, kClasses = 3, kGrid = 6;
constexpr size_t kEndpoints = 8, kReplicas = 4;
constexpr uint64_t kRequests = 1000, kSwapAt = 500;
constexpr size_t kSwappedEndpoint = 3;
constexpr uint64_t kDriftInterval = 4;
constexpr uint64_t kInjectionSeed = 0x50a4;

double MaxAbsDiff(const Vec& a, const Vec& b) {
  double max_diff = 0.0;
  for (size_t j = 0; j < a.size(); ++j) {
    const double diff = a[j] > b[j] ? a[j] - b[j] : b[j] - a[j];
    if (diff > max_diff) max_diff = diff;
  }
  return max_diff;
}

/// Everything one soak run produces, compared across runs for the
/// bit-reproducibility criterion. dc_hash folds the raw bit pattern of
/// every served decision-feature vector, so two runs agree only if every
/// double of every answer agrees.
struct SoakDigest {
  std::vector<int> outcomes;
  std::vector<uint64_t> queries;
  uint64_t dc_hash = 1469598103934665603ULL;  // FNV-1a offset basis
  std::vector<uint64_t> endpoint_queries;
  std::vector<uint64_t> injected_failures;
  uint64_t drift_events = 0;
  uint64_t retries = 0;
  uint64_t wasted_queries = 0;
  uint64_t stale_serves = 0;

  void FoldDc(const Vec& dc) {
    for (double v : dc) {
      uint64_t bits = 0;
      std::memcpy(&bits, &v, sizeof(bits));
      for (int shift = 0; shift < 64; shift += 8) {
        dc_hash ^= (bits >> shift) & 0xff;
        dc_hash *= 1099511628211ULL;
      }
    }
  }

  bool operator==(const SoakDigest& other) const {
    return outcomes == other.outcomes && queries == other.queries &&
           dc_hash == other.dc_hash &&
           endpoint_queries == other.endpoint_queries &&
           injected_failures == other.injected_failures &&
           drift_events == other.drift_events &&
           retries == other.retries &&
           wasted_queries == other.wasted_queries &&
           stale_serves == other.stale_serves;
  }
};

SoakDigest RunSoak(uint64_t injection_seed) {
  // The 8 hidden models, plus the retrained model the drifted endpoint
  // swaps to mid-run.
  std::vector<std::unique_ptr<GridPlm>> models;
  for (size_t e = 0; e < kEndpoints; ++e) {
    util::Rng rng(100 + e);
    models.push_back(
        std::make_unique<GridPlm>(kDim, kClasses, kGrid, &rng));
  }
  util::Rng retrained_rng(999);
  GridPlm retrained(kDim, kClasses, kGrid, &retrained_rng);

  // The degraded fleets: per endpoint, 4 replicas each wrapped in a
  // FaultInjectingApi at 5% transient; endpoint 0's replica 1 is
  // additionally a deterministic throttler. Inner endpoints (current and
  // post-swap) are owned here; decorator pointers are kept for the swap
  // and the failure digest.
  std::vector<std::unique_ptr<api::PredictionApi>> inners;
  std::vector<std::unique_ptr<api::ApiReplicaSet>> fleets;
  std::vector<std::vector<api::FaultInjectingApi*>> decorators(kEndpoints);
  for (size_t e = 0; e < kEndpoints; ++e) {
    std::vector<std::unique_ptr<api::PredictionApi>> replicas;
    for (size_t ri = 0; ri < kReplicas; ++ri) {
      inners.push_back(std::make_unique<api::PredictionApi>(models[e].get()));
      api::FaultConfig fault;
      fault.seed = injection_seed ^ (e * kReplicas + ri) * 0x9e3779b9ULL;
      fault.transient_rate = 0.05;
      if (e == 0 && ri == 1) {
        fault.throttle_period = 16;
        fault.throttle_burst = 2;
      }
      replicas.push_back(std::make_unique<api::FaultInjectingApi>(
          inners.back().get(), fault));
      decorators[e].push_back(
          static_cast<api::FaultInjectingApi*>(replicas.back().get()));
    }
    fleets.push_back(std::make_unique<api::ApiReplicaSet>(
        std::move(replicas), api::ReplicaRouteConfig{}));
  }
  std::vector<std::unique_ptr<api::PredictionApi>> retrained_inners;
  for (size_t ri = 0; ri < kReplicas; ++ri) {
    retrained_inners.push_back(
        std::make_unique<api::PredictionApi>(&retrained));
  }

  EngineConfig config;
  config.num_threads = 1;
  config.drift_check_interval = kDriftInterval;
  InterpretationEngine engine(config);
  std::vector<std::shared_ptr<EndpointSession>> sessions;
  for (size_t e = 0; e < kEndpoints; ++e) {
    sessions.push_back(engine.OpenSession(*fleets[e]));
  }

  // Backoff sleeps ride a fake clock: the soak never really sleeps, and
  // its schedule stays a pure function of the injection seed.
  util::FakeClock clock;
  RequestOptions options;
  options.clock = &clock;

  util::Rng traffic(0x7aff1c);
  SoakDigest digest;
  digest.outcomes.reserve(kRequests);
  digest.queries.reserve(kRequests);
  for (uint64_t r = 0; r < kRequests; ++r) {
    if (r == kSwapAt) {
      // The retraining event: every replica of the drifted endpoint
      // starts serving the new model at once.
      for (size_t ri = 0; ri < kReplicas; ++ri) {
        decorators[kSwappedEndpoint][ri]->SwapInner(
            retrained_inners[ri].get());
      }
    }
    const size_t e = r % kEndpoints;
    const size_t cell = traffic.Index(kGrid * kGrid);
    const Vec x = models[e]->CellPoint(cell);

    auto response = sessions[e]->Interpret({x, 0, options}, /*seed=*/7, r);
    // Zero crashed/hung requests: every one of the 10^3 must answer.
    EXPECT_TRUE(response.result.ok())
        << "request " << r << ": " << response.result.status().ToString();
    if (!response.result.ok()) continue;
    digest.outcomes.push_back(static_cast<int>(response.cache_outcome));
    digest.queries.push_back(response.queries);
    digest.FoldDc(response.result->dc);

    // Freshness: the served decision features must match the CURRENT
    // hidden model's ground truth for that cell. The drifted endpoint is
    // allowed stale answers only in the pre-detection window (memo hits
    // between the swap and the next scheduled drift check).
    const bool swapped = e == kSwappedEndpoint && r >= kSwapAt;
    const api::LocalLinearModel& current =
        swapped ? retrained.NthCellModel(cell)
                : models[e]->NthCellModel(cell);
    const double current_diff = MaxAbsDiff(
        response.result->dc, api::GroundTruthDecisionFeatures(current, 0));
    if (current_diff < 1e-6) continue;
    EXPECT_TRUE(swapped) << "request " << r << " endpoint " << e
                         << " served a wrong closed form (diff "
                         << current_diff << ")";
    if (!swapped) continue;
    // Stale — it must at least be the exact OLD model (a real answer
    // from before the swap, not garbage) ...
    const double old_diff = MaxAbsDiff(
        response.result->dc,
        api::GroundTruthDecisionFeatures(
            models[kSwappedEndpoint]->NthCellModel(cell), 0));
    EXPECT_LT(old_diff, 1e-6) << "request " << r;
    // ... and only while the epoch bump has not happened yet.
    EXPECT_EQ(sessions[e]->stats().drift_events, 0u)
        << "stale serve AFTER the epoch bump at request " << r;
    ++digest.stale_serves;
  }

  // The drifted endpoint detected the swap, and the pre-detection stale
  // window was no wider than the check cadence allows.
  EXPECT_GE(sessions[kSwappedEndpoint]->stats().drift_events, 1u);
  EXPECT_EQ(sessions[kSwappedEndpoint]->drift_epoch(),
            sessions[kSwappedEndpoint]->stats().drift_events);
  EXPECT_LT(digest.stale_serves, kDriftInterval);

  // Exact accounting on EVERY endpoint: the session's books equal the
  // fleet's counter — across failures, re-dispatch, throttling, and the
  // swap.
  uint64_t total_queries = 0, total_wasted = 0;
  for (size_t e = 0; e < kEndpoints; ++e) {
    const EngineStats stats = sessions[e]->stats();
    EXPECT_EQ(stats.queries, fleets[e]->query_count()) << "endpoint " << e;
    digest.endpoint_queries.push_back(fleets[e]->query_count());
    digest.drift_events += stats.drift_events;
    digest.retries += stats.retries;
    digest.wasted_queries += stats.wasted_queries;
    total_queries += stats.queries;
    total_wasted += stats.wasted_queries;
    for (api::FaultInjectingApi* replica : decorators[e]) {
      digest.injected_failures.push_back(replica->injected_failures());
    }
  }

  // The failure plane really was exercised: injected failures landed,
  // retries happened, the throttler throttled.
  uint64_t injected = 0;
  for (uint64_t f : digest.injected_failures) injected += f;
  EXPECT_GT(injected, 10u);
  EXPECT_GT(decorators[0][1]->injected_failures(), 0u);

  // Retry amplification: queries burned on refused attempts may add less
  // than 20% over the useful work.
  EXPECT_GT(total_queries, total_wasted);
  const double amplification =
      static_cast<double>(total_queries) /
      static_cast<double>(total_queries - total_wasted);
  EXPECT_LT(amplification, 1.2) << "amplification " << amplification;

  return digest;
}

TEST(FaultSoakTest, DegradedFleetServesExactFreshAndReproducible) {
  const SoakDigest first = RunSoak(kInjectionSeed);
  ASSERT_EQ(first.outcomes.size(), kRequests);

  // Bit-reproducible: the identical injection seed replays the identical
  // run — every outcome, every query count, every answer bit.
  const SoakDigest replay = RunSoak(kInjectionSeed);
  EXPECT_TRUE(first == replay);

  // A different injection seed draws a different failure schedule (the
  // digest differs), yet every correctness bar above held there too.
  const SoakDigest other = RunSoak(kInjectionSeed ^ 0xff);
  EXPECT_FALSE(first.injected_failures == other.injected_failures);
}

}  // namespace
}  // namespace openapi::interpret
