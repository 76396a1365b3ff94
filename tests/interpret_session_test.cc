// OPENAPI_TEST_LABELS: concurrent  (run under TSan in CI: ctest -L concurrent)
// The session-scoped serving surface: per-request budgets, deadlines and
// cancellation (enforced down in the solver's shrink loop, with exact
// consumed-query reporting), bounded per-session caches with
// second-chance eviction, and endpoint isolation between sessions.

#include <atomic>
#include <chrono>
#include <future>
#include <limits>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "data/synthetic.h"
#include "eval/exactness.h"
#include "grid_plm.h"
#include "interpret/interpretation_engine.h"
#include "lmt/lmt.h"
#include "nn/plnn.h"
#include "util/string_util.h"

namespace openapi::interpret {
namespace {

nn::Plnn MakeNet(uint64_t seed = 55) {
  util::Rng rng(seed);
  return nn::Plnn({6, 10, 8, 3}, &rng);
}

lmt::LogisticModelTree MakeTree(uint64_t seed = 1) {
  util::Rng data_rng(seed);
  data::Dataset train =
      data::GenerateGaussianBlobs(5, 3, 400, 0.08, &data_rng);
  lmt::LmtConfig config;
  config.min_split_size = 60;
  config.max_depth = 3;
  config.accuracy_threshold = 1.01;
  config.leaf_config.max_iters = 80;
  return lmt::LogisticModelTree::Fit(train, config);
}

std::vector<EngineRequest> RandomRequests(size_t n, size_t d,
                                          size_t num_classes,
                                          uint64_t seed) {
  util::Rng rng(seed);
  std::vector<EngineRequest> requests;
  requests.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    requests.push_back({rng.UniformVector(d, 0.05, 0.95), i % num_classes});
  }
  return requests;
}

// ---------------------------------------------------------------------------
// Budgets
// ---------------------------------------------------------------------------

TEST(RequestBudgetTest, NeverOverspendsAndReportsExactConsumption) {
  // The acceptance contract: a request with max_queries = Q never issues
  // more than Q API queries (verified against the endpoint's own atomic
  // counter), and a rejected request returns BudgetExhausted carrying the
  // exact count it did consume.
  nn::Plnn net = MakeNet(81);
  util::Rng rng(2);
  Vec x0 = rng.UniformVector(6, 0.2, 0.8);

  // Reference run: the request's true unlimited cost (deterministic in
  // (seed, stream), so every budgeted retry below replays it).
  uint64_t full_cost = 0;
  {
    api::PredictionApi api(&net);
    EngineConfig config;
    config.num_threads = 1;
    InterpretationEngine engine(config);
    auto session = engine.OpenSession(api);
    auto response = session->Interpret({x0, 0}, /*seed=*/91, 0);
    ASSERT_TRUE(response.result.ok());
    full_cost = response.queries;
    EXPECT_EQ(full_cost, api.query_count());
  }
  ASSERT_GT(full_cost, 3u);

  for (uint64_t budget = 1; budget < full_cost; ++budget) {
    api::PredictionApi api(&net);
    EngineConfig config;
    config.num_threads = 1;
    InterpretationEngine engine(config);
    auto session = engine.OpenSession(api);
    EngineRequest request{x0, 0, RequestOptions::WithBudget(budget)};
    auto response = session->Interpret(request, /*seed=*/91, 0);
    ASSERT_FALSE(response.result.ok()) << "budget " << budget;
    EXPECT_TRUE(response.result.status().IsBudgetExhausted())
        << "budget " << budget << ": "
        << response.result.status().ToString();
    EXPECT_LE(api.query_count(), budget) << "budget " << budget;
    EXPECT_EQ(response.queries, api.query_count()) << "budget " << budget;
    EXPECT_EQ(session->stats().queries, api.query_count());
    EXPECT_EQ(session->stats().failures, 1u);
  }

  // A budget of exactly the true cost succeeds and spends it all.
  {
    api::PredictionApi api(&net);
    EngineConfig config;
    config.num_threads = 1;
    InterpretationEngine engine(config);
    auto session = engine.OpenSession(api);
    EngineRequest request{x0, 0, RequestOptions::WithBudget(full_cost)};
    auto response = session->Interpret(request, /*seed=*/91, 0);
    ASSERT_TRUE(response.result.ok());
    EXPECT_EQ(response.queries, full_cost);
    EXPECT_EQ(api.query_count(), full_cost);
  }
}

TEST(RequestBudgetTest, PointMemoHitsServeWithinAnyBudget) {
  // A memoized repeat costs zero queries, so even a 1-query budget is
  // honoured on the hit path; the same budget is BudgetExhausted on a
  // fresh x0 (the candidate scan alone needs 2).
  nn::Plnn net = MakeNet(82);
  api::PredictionApi api(&net);
  EngineConfig config;
  config.num_threads = 1;
  InterpretationEngine engine(config);
  auto session = engine.OpenSession(api);
  util::Rng rng(3);
  Vec x0 = rng.UniformVector(6, 0.2, 0.8);
  ASSERT_TRUE(session->Interpret({x0, 0}, 5, 0).result.ok());

  EngineRequest repeat{x0, 1, RequestOptions::WithBudget(1)};
  auto hit = session->Interpret(repeat, 5, 1);
  ASSERT_TRUE(hit.result.ok());
  EXPECT_EQ(hit.cache_outcome, CacheOutcome::kPointMemo);
  EXPECT_EQ(hit.queries, 0u);

  Vec fresh = rng.UniformVector(6, 0.2, 0.8);
  EngineRequest starved{fresh, 0, RequestOptions::WithBudget(1)};
  auto rejected = session->Interpret(starved, 5, 2);
  ASSERT_FALSE(rejected.result.ok());
  EXPECT_TRUE(rejected.result.status().IsBudgetExhausted());
  EXPECT_EQ(rejected.queries, 0u);  // rejected before any endpoint traffic
  EXPECT_EQ(session->stats().queries, api.query_count());
}

TEST(RequestBudgetTest, BudgetFlowsThroughTheSaturatedTopUpPath) {
  // The adaptive saturation path issues top-up batches mid-iteration;
  // those must respect the budget too. (A 3-class saturated anchor needs
  // the masked solve — see interpret_saturation_test for the setup.)
  api::LocalLinearModel model;
  model.weights = linalg::Matrix(3, 3);
  model.weights(0, 0) = 400.0;
  model.weights(0, 1) = 1.0;
  model.weights(1, 1) = 2.0;
  model.weights(2, 1) = -1.0;
  model.weights(0, 2) = -2.0;
  model.weights(1, 2) = 0.5;
  model.weights(2, 2) = 1.0;
  model.bias = {-947.5, 0.3, -0.2};
  class OneRegionPlm : public api::Plm {
   public:
    explicit OneRegionPlm(api::LocalLinearModel m) : model_(std::move(m)) {}
    size_t dim() const override { return model_.weights.rows(); }
    size_t num_classes() const override { return model_.bias.size(); }
    Vec Predict(const Vec& x) const override {
      return api::EvaluateLocalModel(model_, x);
    }

   private:
    api::LocalLinearModel model_;
  } plm(std::move(model));
  Vec anchor = {0.5, 0.5, 0.5};

  RequestCost full_cost;
  {
    api::PredictionApi api(&plm);
    OpenApiInterpreter interpreter;
    util::Rng rng(7);
    auto result =
        interpreter.InterpretCounted(api, anchor, 1, &rng, &full_cost);
    ASSERT_TRUE(result.ok());
    EXPECT_EQ(full_cost.queries, api.query_count());
  }
  for (uint64_t budget = 1; budget < full_cost.queries; ++budget) {
    api::PredictionApi api(&plm);
    OpenApiInterpreter interpreter;
    util::Rng rng(7);
    RequestCost cost;
    auto result = interpreter.InterpretCounted(
        api, anchor, 1, &rng, &cost, RequestOptions::WithBudget(budget));
    ASSERT_FALSE(result.ok()) << "budget " << budget;
    EXPECT_TRUE(result.status().IsBudgetExhausted());
    EXPECT_LE(api.query_count(), budget);
    EXPECT_EQ(cost.queries, api.query_count());
  }
}

// ---------------------------------------------------------------------------
// Deadlines and cancellation
// ---------------------------------------------------------------------------

TEST(RequestDeadlineTest, ExpiredDeadlineRejectsBeforeAnyTraffic) {
  nn::Plnn net = MakeNet(83);
  api::PredictionApi api(&net);
  InterpretationEngine engine;
  auto session = engine.OpenSession(api);
  util::Rng rng(4);
  EngineRequest request{rng.UniformVector(6, 0.2, 0.8), 0,
                        RequestOptions::WithTimeout(
                            std::chrono::milliseconds(0))};
  auto response = session->Interpret(request, 7, 0);
  ASSERT_FALSE(response.result.ok());
  EXPECT_TRUE(response.result.status().IsDeadlineExceeded());
  EXPECT_EQ(response.queries, 0u);
  EXPECT_EQ(api.query_count(), 0u);
  EXPECT_EQ(session->stats().failures, 1u);
}

TEST(RequestCancelTest, PreCancelledTokenRejectsBeforeAnyTraffic) {
  nn::Plnn net = MakeNet(84);
  api::PredictionApi api(&net);
  InterpretationEngine engine;
  auto session = engine.OpenSession(api);
  util::CancelToken token = util::CancelToken::Cancellable();
  token.RequestCancel();
  util::Rng rng(5);
  EngineRequest request{rng.UniformVector(6, 0.2, 0.8), 0, {}};
  request.options.cancel = token;
  auto response = session->Interpret(request, 9, 0);
  ASSERT_FALSE(response.result.ok());
  EXPECT_TRUE(response.result.status().IsCancelled());
  EXPECT_EQ(response.queries, 0u);
  EXPECT_EQ(api.query_count(), 0u);
}

TEST(RequestCancelTest, MidFlightCancellationStopsFurtherBatches) {
  // A noisy endpoint can never satisfy the consistency test (the noise is
  // drawn fresh per sample, so it does not shrink away), so every request
  // grinds through its full iteration budget unless revoked. Cancel while
  // the batch is in flight: every response is either Cancelled (with its
  // true partial consumption) or DidNotConverge (finished before the
  // flag landed), and the session's totals still match the endpoint.
  nn::Plnn net = MakeNet(85);
  api::PredictionApi api(&net, /*round_digits=*/0, /*noise_stddev=*/1e-3);
  EngineConfig config;
  config.num_threads = 4;
  config.openapi.max_iterations = 200;  // long-running unless cancelled
  InterpretationEngine engine(config);
  auto session = engine.OpenSession(api);
  util::CancelToken token = util::CancelToken::Cancellable();
  std::vector<EngineRequest> requests = RandomRequests(24, 6, 3, 67);
  for (auto& request : requests) request.options.cancel = token;

  std::vector<std::future<EngineResponse>> futures;
  futures.reserve(requests.size());
  for (size_t i = 0; i < requests.size(); ++i) {
    futures.push_back(session->SubmitAsync(requests[i], /*seed=*/69, i));
  }
  // Let the first request finish (or get well into its loop), then pull
  // the plug on everything.
  (void)futures[0].wait_for(std::chrono::milliseconds(20));
  token.RequestCancel();

  uint64_t reported = 0;
  size_t cancelled = 0;
  for (size_t i = 0; i < futures.size(); ++i) {
    EngineResponse response = futures[i].get();
    reported += response.queries;
    ASSERT_FALSE(response.result.ok());  // rounding defeats the closed form
    if (response.result.status().IsCancelled()) {
      ++cancelled;
    } else {
      EXPECT_TRUE(response.result.status().IsDidNotConverge())
          << response.result.status().ToString();
    }
  }
  EXPECT_GT(cancelled, 0u);
  EXPECT_EQ(reported, api.query_count());
  EXPECT_EQ(session->stats().queries, api.query_count());
}

TEST(RequestDeadlineTest, DeadlinesRaceClearCacheAndEngineDestruction) {
  // Mixed-deadline async traffic racing ClearCache, with the engine torn
  // down while futures are still outstanding: the destructor drains, no
  // answer is wrong, and the per-response envelopes sum exactly to the
  // endpoint's counter.
  lmt::LogisticModelTree tree = MakeTree(7);
  api::PredictionApi api(&tree);
  std::vector<EngineRequest> requests = RandomRequests(60, 5, 3, 71);
  for (size_t i = 0; i < requests.size(); ++i) {
    if (i % 3 == 0) {
      requests[i].options =
          RequestOptions::WithTimeout(std::chrono::milliseconds(0));
    }
  }
  std::shared_ptr<EndpointSession> session;
  std::vector<std::future<EngineResponse>> futures;
  {
    EngineConfig config;
    config.num_threads = 4;
    InterpretationEngine engine(config);
    session = engine.OpenSession(api);
    for (size_t i = 0; i < requests.size(); ++i) {
      futures.push_back(session->SubmitAsync(requests[i], /*seed=*/73, i));
      if (i % 11 == 0) session->ClearCache();
    }
    session->ClearCache();
  }  // engine destroyed: drains every outstanding task
  uint64_t reported = 0;
  for (size_t i = 0; i < futures.size(); ++i) {
    EngineResponse response = futures[i].get();
    reported += response.queries;
    if (i % 3 == 0) {
      ASSERT_FALSE(response.result.ok()) << "request " << i;
      EXPECT_TRUE(response.result.status().IsDeadlineExceeded());
      EXPECT_EQ(response.queries, 0u);
    } else {
      ASSERT_TRUE(response.result.ok())
          << "request " << i << ": "
          << response.result.status().ToString();
      EXPECT_LT(eval::L1Dist(tree, requests[i].x0, requests[i].c,
                             response.result->dc),
                1e-6);
    }
  }
  EXPECT_EQ(reported, api.query_count());
  EXPECT_EQ(session->stats().queries, api.query_count());
}

// ---------------------------------------------------------------------------
// Bounded caches and eviction
// ---------------------------------------------------------------------------

TEST(SessionEvictionTest, CapacityIsNeverExceededAndHotRegionsSurvive) {
  const size_t d = 4, num_classes = 3, k = 4;
  util::Rng model_rng(11);
  GridPlm grid(d, num_classes, k, &model_rng);
  api::PredictionApi api(&grid);
  EngineConfig config;
  config.num_threads = 1;  // deterministic clock sweeps
  InterpretationEngine engine(config);
  auto session = engine.OpenSession(api, /*cache_capacity=*/4);
  EXPECT_EQ(session->cache_capacity(), 4u);

  uint64_t stream = 0;
  // Make cell 0 HOT: extract it, then hit it repeatedly through the
  // candidate scan (fresh raw bits each time -> memo miss, scan hit).
  Vec hot = grid.NthCellCenter(0);
  ASSERT_TRUE(session->Interpret({hot, 0}, 21, stream++).result.ok());
  for (int i = 1; i <= 32; ++i) {
    Vec nudged = hot;
    nudged[0] += 1e-10 * static_cast<double>(i);
    auto response = session->Interpret({nudged, 0}, 21, stream++);
    ASSERT_TRUE(response.result.ok());
    EXPECT_EQ(response.cache_outcome, CacheOutcome::kMemoryHit);
  }

  // Capacity pressure: 12 cold regions through a capacity-4 cache.
  for (size_t cell = 1; cell <= 12; ++cell) {
    auto response =
        session->Interpret({grid.NthCellCenter(cell), 0}, 21, stream++);
    ASSERT_TRUE(response.result.ok()) << "cell " << cell;
    EXPECT_LE(session->cache_size(), 4u) << "cell " << cell;
  }
  EngineStats stats = session->stats();
  EXPECT_GE(stats.evictions, 9u);  // 13 regions through 4 slots
  EXPECT_LE(session->cache_size(), 4u);

  // The hot region outlived the pressure: a fresh point in cell 0 is
  // still a 2-query scan hit, not a re-extraction.
  Vec probe = hot;
  probe[1] += 1e-10;
  auto still_hot = session->Interpret({probe, 1}, 21, stream++);
  ASSERT_TRUE(still_hot.result.ok());
  EXPECT_EQ(still_hot.cache_outcome, CacheOutcome::kMemoryHit);
  EXPECT_EQ(still_hot.queries, 2u);
  EXPECT_EQ(session->stats().queries, api.query_count());
}

TEST(SessionEvictionTest, ReExtractionOfEvictedRegionIsClassified) {
  const size_t d = 4, num_classes = 3, k = 4;
  util::Rng model_rng(12);
  GridPlm grid(d, num_classes, k, &model_rng);
  api::PredictionApi api(&grid);
  EngineConfig config;
  config.num_threads = 1;
  InterpretationEngine engine(config);
  auto session = engine.OpenSession(api, 2);
  EXPECT_EQ(session->cache_capacity(), 2u);

  // Fill and overflow: cell 0 is evicted by the third insert.
  uint64_t stream = 0;
  for (size_t cell = 0; cell < 4; ++cell) {
    auto response =
        session->Interpret({grid.NthCellCenter(cell), 0}, 23, stream++);
    ASSERT_TRUE(response.result.ok());
    EXPECT_EQ(response.cache_outcome, CacheOutcome::kMiss);
  }
  EXPECT_GE(session->stats().evictions, 2u);

  // Cell 0 again: the point memo entry died with the eviction, the scan
  // finds nothing, and the re-extraction is classified as the refetch of
  // an evicted region — the signal that capacity is set too low.
  auto refetch = session->Interpret({grid.NthCellCenter(0), 0}, 23, stream++);
  ASSERT_TRUE(refetch.result.ok());
  EXPECT_EQ(refetch.cache_outcome, CacheOutcome::kEvictedRefetch);
  EXPECT_EQ(session->stats().queries, api.query_count());
}

/// Imports cell 0's white-box (non-canonical) model into a session capped
/// by bytes only, pushes `cold_cells` other regions through it, then asks
/// for cell 0's anchor again. Returns the evictions the pressure caused.
uint64_t ImportEvictAndRefetch(size_t cold_cells) {
  const size_t d = 4, num_classes = 3, k = 16;
  util::Rng model_rng(19);
  GridPlm grid(d, num_classes, k, &model_rng);
  api::PredictionApi api(&grid);
  EngineConfig config;
  config.num_threads = 1;
  InterpretationEngine engine(config);

  // Size the budget from one extracted region's resident bytes: about
  // twenty regions fit.
  uint64_t region_bytes = 0;
  {
    auto sizing = engine.OpenSession(api);
    EXPECT_TRUE(sizing->Interpret({grid.NthCellCenter(1), 0}, 29, 0)
                    .result.ok());
    region_bytes = sizing->stats().cache_bytes;
  }
  SessionOptions options;
  options.cache_capacity_bytes = 20 * region_bytes;
  auto session = engine.OpenSession(api, options);
  EXPECT_EQ(session->cache_capacity(), 0u);  // no count cap

  const Vec anchor = grid.NthCellCenter(0);
  const double half_edge = 0.25 / static_cast<double>(k);
  EXPECT_TRUE(
      session->ImportRegion(grid.NthCellModel(0), anchor, half_edge).ok());
  uint64_t stream = 1;
  for (size_t cell = 1; cell <= cold_cells; ++cell) {
    auto response =
        session->Interpret({grid.NthCellCenter(cell), 0}, 29, stream++);
    EXPECT_TRUE(response.result.ok()) << "cell " << cell;
  }
  const uint64_t evictions = session->stats().evictions;

  // The imported region was evicted, so its anchor is re-extracted. The
  // extraction yields the canonical model of the same region: the
  // session must recognise the refetch...
  auto refetch = session->Interpret({anchor, 0}, 29, stream++);
  EXPECT_TRUE(refetch.result.ok());
  EXPECT_EQ(refetch.cache_outcome, CacheOutcome::kEvictedRefetch)
      << "after " << evictions << " evictions";
  // ...and importing the white-box model again must land on the slot the
  // extraction filled instead of caching the region twice.
  const size_t cached = session->cache_size();
  const uint64_t evictions_before_import = session->stats().evictions;
  EXPECT_TRUE(
      session->ImportRegion(grid.NthCellModel(0), anchor, half_edge).ok());
  EXPECT_EQ(session->cache_size(), cached);
  EXPECT_EQ(session->stats().evictions, evictions_before_import);
  return evictions;
}

TEST(SessionEvictionTest, ImportedRegionRefetchIsClassifiedUnderByteBudget) {
  const uint64_t evictions = ImportEvictAndRefetch(/*cold_cells=*/40);
  EXPECT_GT(evictions, 0u);
  EXPECT_LT(evictions, 65u);
}

TEST(SessionEvictionTest, RefetchIsClassifiedAfterManyByteBudgetEvictions) {
  // Past 8 * 0 + 64 evictions: a byte-budget-only session must bound its
  // evicted-fingerprint memory by what it holds, not by its (absent)
  // count cap.
  const uint64_t evictions = ImportEvictAndRefetch(/*cold_cells=*/180);
  EXPECT_GT(evictions, 130u);
}

TEST(SessionEvictionTest, ByteBudgetEvictionRacingRamHitsStaysExact) {
  // Regression: a slot the candidate scan returned could be evicted by
  // another worker before the hit path copied its model. Eviction leaves
  // an unoccupied slot with an empty 0 x 0 model, and validating that
  // copy aborted on a shape CHECK. A 3-region byte budget over a 9-cell
  // grid keeps four workers evicting each other's hits.
  const size_t d = 4, num_classes = 3, k = 3;
  util::Rng model_rng(31);
  GridPlm grid(d, num_classes, k, &model_rng);
  api::PredictionApi api(&grid);
  EngineConfig config;
  config.num_threads = 4;
  InterpretationEngine engine(config);

  uint64_t region_bytes = 0;
  uint64_t sizing_queries = 0;
  {
    auto sizing = engine.OpenSession(api);
    EXPECT_TRUE(sizing->Interpret({grid.NthCellCenter(0), 0}, 37, 0)
                    .result.ok());
    region_bytes = sizing->stats().cache_bytes;
    sizing_queries = sizing->stats().queries;
  }
  SessionOptions options;
  options.cache_capacity_bytes = 3 * region_bytes;
  auto session = engine.OpenSession(api, options);

  for (uint64_t round = 0; round < 400; ++round) {
    std::vector<EngineRequest> requests = RandomRequests(
        64, d, num_classes, util::Rng::MixSeed(/*seed=*/41, round));
    auto responses = session->InterpretAll(requests, /*seed=*/43 + round);
    for (size_t i = 0; i < responses.size(); ++i) {
      ASSERT_TRUE(responses[i].result.ok())
          << "round " << round << " request " << i << ": "
          << responses[i].result.status().ToString();
    }
  }
  EXPECT_GT(session->stats().evictions, 0u);
  EXPECT_GT(session->stats().cache_hits, 0u);
  // Session totals: the sizing session spent queries on the same api.
  EXPECT_EQ(sizing_queries + session->stats().queries, api.query_count());
}

// ---------------------------------------------------------------------------
// Non-finite inputs and answers
// ---------------------------------------------------------------------------

/// Forwards to a wrapped model until Break(), then answers every query
/// with NaN probabilities.
class BreakablePlm : public api::Plm {
 public:
  explicit BreakablePlm(const api::Plm* inner) : inner_(inner) {}
  size_t dim() const override { return inner_->dim(); }
  size_t num_classes() const override { return inner_->num_classes(); }
  Vec Predict(const Vec& x) const override {
    if (!broken_.load()) return inner_->Predict(x);
    return Vec(num_classes(), std::numeric_limits<double>::quiet_NaN());
  }
  void Break() { broken_.store(true); }

 private:
  const api::Plm* inner_;
  std::atomic<bool> broken_{false};
};

TEST(SessionNonFiniteTest, NonFiniteX0IsRejectedBeforeTheCache) {
  // A NaN coordinate makes every answer at x0 NaN, and a NaN answer
  // would validate against whatever region is cached (cell 0's here),
  // serving that region's closed form as a 2-query memory hit. The
  // request is rejected before it touches the cache or the endpoint.
  const size_t d = 4, num_classes = 3, k = 3;
  util::Rng model_rng(61);
  GridPlm grid(d, num_classes, k, &model_rng);
  api::PredictionApi api(&grid);
  EngineConfig config;
  config.num_threads = 1;
  InterpretationEngine engine(config);
  auto session = engine.OpenSession(api);
  ASSERT_TRUE(session->Interpret({grid.NthCellCenter(0), 0}, 67, 0)
                  .result.ok());
  const uint64_t warm_queries = api.query_count();

  uint64_t stream = 1;
  for (double bad : {std::numeric_limits<double>::quiet_NaN(),
                     std::numeric_limits<double>::infinity()}) {
    Vec x0 = grid.NthCellCenter(4);
    x0[2] = bad;
    auto response = session->Interpret({x0, 0}, 67, stream++);
    ASSERT_FALSE(response.result.ok()) << "x0[2] = " << bad;
    EXPECT_TRUE(response.result.status().IsInvalidArgument())
        << response.result.status().ToString();
    EXPECT_EQ(response.queries, 0u);
    EXPECT_EQ(response.cache_outcome, CacheOutcome::kBypass);
  }
  EXPECT_EQ(api.query_count(), warm_queries);
  EXPECT_EQ(session->stats().failures, 2u);
  EXPECT_EQ(session->stats().cache_hits, 0u);
}

TEST(SessionNonFiniteTest, NonFiniteAnswerFailsAfterTheValidationPair) {
  // A finite x0 whose endpoint answers NaN: the 2-query validation pair
  // certifies nothing, so the request fails right there — it neither
  // validates the cached region (RAM hit) nor starts an extraction
  // (empty cache) that could never solve.
  const size_t d = 4, num_classes = 3, k = 3;
  util::Rng model_rng(61);
  GridPlm grid(d, num_classes, k, &model_rng);
  BreakablePlm plm(&grid);
  api::PredictionApi api(&plm);
  EngineConfig config;
  config.num_threads = 1;
  InterpretationEngine engine(config);
  auto warm = engine.OpenSession(api);
  auto cold = engine.OpenSession(api);
  ASSERT_TRUE(warm->Interpret({grid.NthCellCenter(0), 0}, 71, 0).result.ok());
  plm.Break();

  uint64_t stream = 1;
  for (const auto& session : {warm, cold}) {
    const uint64_t before = api.query_count();
    const EngineStats stats_before = session->stats();
    auto response = session->Interpret({grid.NthCellCenter(4), 0}, 71,
                                       stream++);
    ASSERT_FALSE(response.result.ok());
    EXPECT_TRUE(response.result.status().IsNumericalError())
        << response.result.status().ToString();
    EXPECT_EQ(response.queries, 2u);
    EXPECT_EQ(response.shrink_iterations, 0u);
    EXPECT_EQ(api.query_count(), before + 2);
    const EngineStats stats = session->stats();
    EXPECT_EQ(stats.queries, api.query_count() - before +
                                 stats_before.queries);
    EXPECT_EQ(stats.cache_hits, stats_before.cache_hits);
    EXPECT_EQ(stats.cache_misses, stats_before.cache_misses);
    EXPECT_EQ(stats.failures, 1u);
  }
}

// ---------------------------------------------------------------------------
// Endpoint isolation
// ---------------------------------------------------------------------------

TEST(SessionIsolationTest, DistinctEndpointsNeverCrossContaminate) {
  // Two sessions on one engine, bound to DIFFERENT hidden models, fed
  // the SAME instances. Under the old engine-wide cache the point memo
  // would serve endpoint A's region for endpoint B's request (a wrong
  // answer with zero queries); sessions make that structurally
  // impossible: zero cross-endpoint cache hits, every answer exact for
  // its own endpoint, and per-session accounting matching each counter.
  nn::Plnn net_a = MakeNet(86);
  nn::Plnn net_b = MakeNet(87);
  api::PredictionApi api_a(&net_a);
  api::PredictionApi api_b(&net_b);
  EngineConfig config;
  config.num_threads = 2;
  InterpretationEngine engine(config);
  auto session_a = engine.OpenSession(api_a);
  auto session_b = engine.OpenSession(api_b);

  std::vector<EngineRequest> requests = RandomRequests(16, 6, 3, 77);
  auto task = std::async(std::launch::async, [&] {
    return session_a->InterpretAll(requests, /*seed=*/79);
  });
  auto responses_b = session_b->InterpretAll(requests, /*seed=*/79);
  auto responses_a = task.get();

  for (size_t i = 0; i < requests.size(); ++i) {
    ASSERT_TRUE(responses_a[i].result.ok()) << "request " << i;
    ASSERT_TRUE(responses_b[i].result.ok()) << "request " << i;
    EXPECT_LT(eval::L1Dist(net_a, requests[i].x0, requests[i].c,
                           responses_a[i].result->dc),
              1e-6)
        << "endpoint A, request " << i;
    EXPECT_LT(eval::L1Dist(net_b, requests[i].x0, requests[i].c,
                           responses_b[i].result->dc),
              1e-6)
        << "endpoint B, request " << i;
  }
  // Identical x0 streams, yet each session paid its own extractions:
  // a cross-endpoint memo hit would have shown up as a free (and wrong)
  // answer on session B.
  EXPECT_EQ(session_a->stats().queries, api_a.query_count());
  EXPECT_EQ(session_b->stats().queries, api_b.query_count());
  EXPECT_GT(session_b->stats().cache_misses, 0u);
}

// ---------------------------------------------------------------------------
// SessionStream
// ---------------------------------------------------------------------------

TEST(SessionStreamTest, YieldsEveryEnvelopeExactlyOnce) {
  lmt::LogisticModelTree tree = MakeTree(8);
  api::PredictionApi api(&tree);
  InterpretationEngine engine;
  auto session = engine.OpenSession(api);
  std::vector<EngineRequest> requests = RandomRequests(24, 5, 3, 83);
  SessionStream stream = session->InterpretStream(requests, /*seed=*/89);
  EXPECT_EQ(stream.total(), requests.size());
  std::vector<int> seen(requests.size(), 0);
  uint64_t reported = 0;
  while (auto item = stream.Next()) {
    ASSERT_LT(item->index, requests.size());
    ++seen[item->index];
    ASSERT_TRUE(item->response.result.ok())
        << item->response.result.status().ToString();
    reported += item->response.queries;
    EXPECT_LT(eval::L1Dist(tree, requests[item->index].x0,
                           requests[item->index].c,
                           item->response.result->dc),
              1e-6);
  }
  for (size_t i = 0; i < seen.size(); ++i) {
    EXPECT_EQ(seen[i], 1) << "request " << i;
  }
  EXPECT_EQ(stream.delivered(), requests.size());
  EXPECT_FALSE(stream.Next().has_value());  // drained stays drained
  EXPECT_EQ(reported, api.query_count());
  EXPECT_EQ(session->stats().queries, api.query_count());
}

// ---------------------------------------------------------------------------
// Confident endpoints
// ---------------------------------------------------------------------------

/// (d, s): a Plnn {d, 2d, d, 10} whose inputs are scaled by s. At
/// s = 100 the endpoint is confident: p_max is within ~1e-9 of 1 and the
/// other nine probabilities sit far below 1e-9, so a probability-space
/// hit test cannot tell two regions with the same argmax apart.
class ConfidentEndpointTest
    : public ::testing::TestWithParam<std::tuple<size_t, double>> {};

TEST_P(ConfidentEndpointTest, EveryServedAnswerIsTheWhiteBoxTruth) {
  const auto [d, s] = GetParam();
  util::Rng init_rng(64);
  nn::Plnn net({d, 2 * d, d, 10}, &init_rng);
  api::PredictionApi api(&net);
  InterpretationEngine engine(EngineConfig{});
  auto session = engine.OpenSession(api);

  // 2000 requests in a +-5% box around one anchor, classes cycling: many
  // requests share a region, and many neighbouring regions share an
  // argmax, so most requests are served from the RAM cache.
  util::Rng rng(65);
  const Vec anchor = rng.UniformVector(d, 0.2, 0.8);
  std::vector<EngineRequest> requests;
  requests.reserve(2000);
  for (size_t i = 0; i < 2000; ++i) {
    Vec x(d);
    for (size_t j = 0; j < d; ++j) {
      x[j] = s * anchor[j] * (1.0 + rng.Uniform(-0.05, 0.05));
    }
    requests.push_back({std::move(x), i % 10});
  }
  const std::vector<EngineResponse> responses =
      session->InterpretAll(requests, /*seed=*/66);

  size_t served = 0;
  size_t ram_hits = 0;
  for (size_t i = 0; i < requests.size(); ++i) {
    if (!responses[i].result.ok()) continue;
    ++served;
    ram_hits += responses[i].cache_outcome == CacheOutcome::kMemoryHit;
    const Vec truth = api::GroundTruthDecisionFeatures(
        net.LocalModelAt(requests[i].x0), requests[i].c);
    EXPECT_LE(eval::L1Dist(net, requests[i].x0, requests[i].c,
                           responses[i].result->dc),
              1e-6 * (1.0 + linalg::Norm1(truth)))
        << "request " << i << " ("
        << CacheOutcomeName(responses[i].cache_outcome) << ")";
  }
  // The legs must exercise the hit path, or they prove nothing.
  EXPECT_GT(served, requests.size() / 2);
  EXPECT_GT(ram_hits, served / 4);
  EXPECT_EQ(session->stats().queries, api.query_count());
}

INSTANTIATE_TEST_SUITE_P(
    ScaledPlnn, ConfidentEndpointTest,
    ::testing::Combine(::testing::Values<size_t>(8, 16),
                       ::testing::Values(1.0, 100.0)),
    [](const ::testing::TestParamInfo<std::tuple<size_t, double>>& info) {
      return util::StrFormat("d%zu_s%d", std::get<0>(info.param),
                             static_cast<int>(std::get<1>(info.param)));
    });

}  // namespace
}  // namespace openapi::interpret
