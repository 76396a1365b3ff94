// OPENAPI_TEST_LABELS: concurrent  (run under TSan in CI: ctest -L concurrent)
// The async serving layer on sessions: SubmitAsync futures and
// SessionStream must produce exactly the results of the synchronous paths
// — identical content per request index at any thread count and any
// completion order — while racing safely with ClearCache and engine
// destruction.

#include <future>
#include <vector>

#include <gtest/gtest.h>

#include "data/synthetic.h"
#include "eval/exactness.h"
#include "grid_plm.h"
#include "interpret/interpretation_engine.h"
#include "lmt/lmt.h"
#include "nn/plnn.h"

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

/// One request per cell of a k x k GridPlm: no two requests share a
/// region, so with the region cache on every request is a kMiss whose
/// content is pinned by (seed, request index) alone — whatever else the
/// session served concurrently.
std::vector<EngineRequest> OneRequestPerCell(const GridPlm& grid, size_t n) {
  std::vector<EngineRequest> requests;
  requests.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    requests.push_back({grid.NthCellCenter(i), i % grid.num_classes()});
  }
  return requests;
}

TEST(SubmitAsyncTest, BitMatchesInterpretAll) {
  // Every request misses the cache and solves on RNG stream i, so the
  // future results must be bitwise identical to InterpretAll's — the
  // async plumbing adds nothing but scheduling.
  util::Rng model_rng(61);
  GridPlm grid(/*d=*/6, /*num_classes=*/3, /*k=*/4, &model_rng);
  std::vector<EngineRequest> requests = OneRequestPerCell(grid, 16);

  InterpretationEngine sync_engine;
  api::PredictionApi sync_api(&grid);
  auto sync_session = sync_engine.OpenSession(sync_api);
  auto expected = sync_session->InterpretAll(requests, /*seed=*/43);

  InterpretationEngine async_engine;
  api::PredictionApi async_api(&grid);
  auto async_session = async_engine.OpenSession(async_api);
  std::vector<std::future<EngineResponse>> futures;
  for (size_t i = 0; i < requests.size(); ++i) {
    futures.push_back(
        async_session->SubmitAsync(requests[i], /*seed=*/43, i));
  }
  for (size_t i = 0; i < futures.size(); ++i) {
    EngineResponse got = futures[i].get();
    ASSERT_TRUE(got.result.ok()) << "request " << i;
    ASSERT_TRUE(expected[i].result.ok());
    EXPECT_EQ(got.cache_outcome, CacheOutcome::kMiss) << "request " << i;
    EXPECT_EQ(expected[i].cache_outcome, CacheOutcome::kMiss)
        << "request " << i;
    EXPECT_EQ(got.result->dc, expected[i].result->dc) << "request " << i;
    EXPECT_EQ(got.queries, expected[i].queries);
  }
  EXPECT_EQ(async_session->stats().queries, async_api.query_count());
}

TEST(SubmitAsyncTest, SharesTheSessionCacheWithSyncCalls) {
  lmt::LogisticModelTree tree = MakeTree(2);
  api::PredictionApi api(&tree);
  InterpretationEngine engine;
  auto session = engine.OpenSession(api);
  util::Rng rng(5);
  Vec x0 = rng.UniformVector(5, 0.2, 0.8);
  ASSERT_TRUE(session->Interpret({x0, 0}, /*seed=*/47, 0).result.ok());
  // The async repeat of the same instance must be a point-memo hit.
  auto future = session->SubmitAsync({x0, 1}, /*seed=*/47, 1);
  EngineResponse repeat = future.get();
  ASSERT_TRUE(repeat.result.ok());
  EXPECT_EQ(repeat.queries, 0u);
  EXPECT_EQ(repeat.cache_outcome, CacheOutcome::kPointMemo);
  EXPECT_GE(session->stats().point_memo_hits, 1u);
  EXPECT_EQ(session->stats().queries, api.query_count());
}

TEST(SubmitAsyncTest, RacingClearCacheKeepsResultsExactAndCountsAligned) {
  // Hammer the session with async submissions while clearing the cache
  // underneath them. Every answer must still be exact (cache hits
  // re-validate against the API, misses re-extract) and the session's
  // query accounting must match the endpoint's atomic counter exactly —
  // including requests that raced a ClearCache mid-flight.
  lmt::LogisticModelTree tree = MakeTree(3);
  api::PredictionApi api(&tree);
  EngineConfig config;
  config.num_threads = 4;
  InterpretationEngine engine(config);
  auto session = engine.OpenSession(api);
  std::vector<EngineRequest> requests = RandomRequests(120, 5, 3, 53);
  std::vector<std::future<EngineResponse>> futures;
  for (size_t i = 0; i < requests.size(); ++i) {
    futures.push_back(session->SubmitAsync(requests[i], /*seed=*/59, i));
    if (i % 7 == 0) session->ClearCache();
  }
  session->ClearCache();  // one more race while the tail is still running
  for (size_t i = 0; i < futures.size(); ++i) {
    EngineResponse response = futures[i].get();
    ASSERT_TRUE(response.result.ok())
        << "request " << i << ": " << response.result.status().ToString();
    EXPECT_LT(eval::L1Dist(tree, requests[i].x0, requests[i].c,
                           response.result->dc),
              1e-6)
        << "request " << i;
  }
  EXPECT_EQ(session->stats().queries, api.query_count());
  EXPECT_EQ(session->stats().failures, 0u);
}

TEST(SubmitAsyncTest, EvictionRacesAsyncTrafficSafely) {
  // Same hammer, through a capacity-2 cache: concurrent inserts must
  // evict without ever serving a stale memo entry (point-memo answers
  // skip API validation, so a live entry for a dead slot would be a
  // WRONG answer, not a slow one).
  lmt::LogisticModelTree tree = MakeTree(9);
  api::PredictionApi api(&tree);
  EngineConfig config;
  config.num_threads = 4;
  InterpretationEngine engine(config);
  auto session = engine.OpenSession(api, /*cache_capacity=*/2);
  std::vector<EngineRequest> requests = RandomRequests(120, 5, 3, 97);
  std::vector<std::future<EngineResponse>> futures;
  for (size_t i = 0; i < requests.size(); ++i) {
    futures.push_back(session->SubmitAsync(requests[i], /*seed=*/101, i));
  }
  for (size_t i = 0; i < futures.size(); ++i) {
    EngineResponse response = futures[i].get();
    ASSERT_TRUE(response.result.ok()) << "request " << i;
    EXPECT_LT(eval::L1Dist(tree, requests[i].x0, requests[i].c,
                           response.result->dc),
              1e-6)
        << "request " << i;
  }
  EXPECT_LE(session->cache_size(), 2u);
  EXPECT_EQ(session->stats().queries, api.query_count());
}

TEST(SessionStreamTest, CompletionOrderNeverChangesResultContent) {
  // Streaming yields in completion order, which is scheduling-dependent —
  // but the content for request i is pinned by (seed, i). With every
  // request a cache miss, reassembling the stream by index must
  // reproduce InterpretAll bitwise at a different thread count.
  util::Rng model_rng(62);
  GridPlm grid(/*d=*/6, /*num_classes=*/3, /*k=*/5, &model_rng);
  std::vector<EngineRequest> requests = OneRequestPerCell(grid, 18);
  EngineConfig stream_config;
  stream_config.num_threads = 4;
  InterpretationEngine stream_engine(stream_config);
  api::PredictionApi stream_api(&grid);
  auto stream_session = stream_engine.OpenSession(stream_api);
  SessionStream stream =
      stream_session->InterpretStream(requests, /*seed=*/73);

  EngineConfig sync_config;
  sync_config.num_threads = 1;
  InterpretationEngine sync_engine(sync_config);
  api::PredictionApi sync_api(&grid);
  auto sync_session = sync_engine.OpenSession(sync_api);
  auto expected = sync_session->InterpretAll(requests, /*seed=*/73);

  std::vector<std::optional<Vec>> streamed(requests.size());
  while (auto item = stream.Next()) {
    ASSERT_TRUE(item->response.result.ok());
    EXPECT_EQ(item->response.cache_outcome, CacheOutcome::kMiss)
        << "request " << item->index;
    streamed[item->index] = item->response.result->dc;
  }
  for (size_t i = 0; i < requests.size(); ++i) {
    ASSERT_TRUE(streamed[i].has_value());
    ASSERT_TRUE(expected[i].result.ok());
    EXPECT_EQ(expected[i].cache_outcome, CacheOutcome::kMiss)
        << "request " << i;
    EXPECT_EQ(*streamed[i], expected[i].result->dc) << "request " << i;
  }
}

TEST(SessionStreamTest, EmptyBatchDrainsImmediately) {
  nn::Plnn net = MakeNet(63);
  api::PredictionApi api(&net);
  InterpretationEngine engine;
  auto session = engine.OpenSession(api);
  SessionStream stream = session->InterpretStream({}, 1);
  EXPECT_EQ(stream.total(), 0u);
  EXPECT_FALSE(stream.Next().has_value());
}

TEST(SessionStreamTest, SurvivesEngineAndSessionDestruction) {
  // The engine destructor drains its async tasks and workers hold the
  // session via shared_ptr, so a stream may be consumed after BOTH the
  // engine and the caller's session handle are gone: every item is
  // already queued in the shared state by then.
  nn::Plnn net = MakeNet(64);
  api::PredictionApi api(&net);
  std::vector<EngineRequest> requests = RandomRequests(8, 6, 3, 79);
  SessionStream stream;
  {
    InterpretationEngine engine;
    auto session = engine.OpenSession(api);
    stream = session->InterpretStream(requests, /*seed=*/83);
  }  // blocks until all 8 results are queued; session handle dropped
  size_t count = 0;
  while (auto item = stream.Next()) {
    ASSERT_TRUE(item->response.result.ok());
    ++count;
  }
  EXPECT_EQ(count, requests.size());
}

TEST(SessionStreamTest, StreamQueriesMatchEndpointCounter) {
  // The session stream's accounting contract (previously covered through
  // the removed free-standing shim): session queries equal the
  // endpoint's own counter after a full stream drains.
  lmt::LogisticModelTree tree = MakeTree(6);
  api::PredictionApi api(&tree);
  InterpretationEngine engine;
  auto session = engine.OpenSession(api);
  std::vector<EngineRequest> requests = RandomRequests(12, 5, 3, 107);
  SessionStream stream = session->InterpretStream(requests, /*seed=*/109);
  EXPECT_EQ(stream.total(), requests.size());
  size_t count = 0;
  while (auto item = stream.Next()) {
    ASSERT_TRUE(item->response.result.ok());
    ++count;
  }
  EXPECT_EQ(count, requests.size());
  EXPECT_EQ(session->stats().queries, api.query_count());
}

TEST(SharedPoolTest, EnginesBorrowTheProcessPoolByDefault) {
  EngineConfig borrowed;
  InterpretationEngine a(borrowed);
  InterpretationEngine b(borrowed);
  EXPECT_FALSE(a.owns_pool());
  EXPECT_FALSE(b.owns_pool());
  EXPECT_EQ(a.num_threads(), b.num_threads());
  EXPECT_EQ(a.num_threads(), util::SharedThreadPool()->num_threads());

  EngineConfig owned;
  owned.num_threads = 2;
  InterpretationEngine c(owned);
  EXPECT_TRUE(c.owns_pool());
  EXPECT_EQ(c.num_threads(), 2u);
}

TEST(SharedPoolTest, ConcurrentInterpretAllCallsShareOnePool) {
  // Two sessions on the shared pool running batches concurrently: the
  // per-call latch in ParallelFor must keep their completions separate.
  lmt::LogisticModelTree tree = MakeTree(5);
  api::PredictionApi api_a(&tree);
  api::PredictionApi api_b(&tree);
  InterpretationEngine engine_a;
  InterpretationEngine engine_b;
  auto session_a = engine_a.OpenSession(api_a);
  auto session_b = engine_b.OpenSession(api_b);
  std::vector<EngineRequest> requests = RandomRequests(20, 5, 3, 89);
  auto task = std::async(std::launch::async, [&] {
    return session_a->InterpretAll(requests, /*seed=*/97);
  });
  auto responses_b = session_b->InterpretAll(requests, /*seed=*/97);
  auto responses_a = task.get();
  for (size_t i = 0; i < requests.size(); ++i) {
    ASSERT_TRUE(responses_a[i].result.ok());
    ASSERT_TRUE(responses_b[i].result.ok());
    EXPECT_LT(linalg::L1Distance(responses_a[i].result->dc,
                                 responses_b[i].result->dc),
              1e-6);
  }
  EXPECT_EQ(session_a->stats().queries, api_a.query_count());
  EXPECT_EQ(session_b->stats().queries, api_b.query_count());
}

// Teardown race: a caller that get()s its future and immediately
// destroys session + engine + endpoint must never lose them under a
// pool worker still unwinding the submitted task. The workers' session
// references are released before EndAsyncTask opens the engine
// destructor's drain gate, so the last ~EndpointSession always runs
// against a live engine. (This leaked as a rare ~1% use-after-scope
// crash before the ordering fix; the tight loop makes it reproducible.)
TEST(SubmitAsyncTest, TeardownRightAfterGetRacesNoWorker) {
  lmt::LogisticModelTree tree = MakeTree(2);
  for (int round = 0; round < 200; ++round) {
    api::PredictionApi api(&tree);
    InterpretationEngine engine;
    auto session = engine.OpenSession(api);
    util::Rng rng(static_cast<uint64_t>(round) + 1);
    Vec x0 = rng.UniformVector(5, 0.2, 0.8);
    auto future = session->SubmitAsync({x0, 0}, /*seed=*/23, 0);
    ASSERT_TRUE(future.get().result.ok());
  }  // session, engine, api all die here, racing the worker's unwind
}

}  // namespace
}  // namespace openapi::interpret
