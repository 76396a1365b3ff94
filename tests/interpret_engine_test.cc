// OPENAPI_TEST_LABELS: concurrent  (run under TSan in CI: ctest -L concurrent)
// InterpretationEngine + EndpointSession: the concurrent pipeline must
// deliver the same exact answers as the sequential path, with
// deterministic probe streams, correctly namespaced per-endpoint region
// caches, and exact query accounting in the EngineResponse envelope.

#include "interpret/interpretation_engine.h"

#include <gtest/gtest.h>

#include <set>
#include <string>

#include "api/ground_truth.h"
#include "data/synthetic.h"
#include "eval/exactness.h"
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

TEST(EndpointSessionTest, RecoversExactFeaturesForAllRequests) {
  nn::Plnn net = MakeNet();
  api::PredictionApi api(&net);
  InterpretationEngine engine;
  auto session = engine.OpenSession(api);
  std::vector<EngineRequest> requests = RandomRequests(30, 6, 3, 7);
  auto responses = session->InterpretAll(requests, /*seed=*/11);
  ASSERT_EQ(responses.size(), requests.size());
  for (size_t i = 0; i < responses.size(); ++i) {
    ASSERT_TRUE(responses[i].result.ok())
        << responses[i].result.status().ToString();
    EXPECT_LT(eval::L1Dist(net, requests[i].x0, requests[i].c,
                           responses[i].result->dc),
              1e-6)
        << "request " << i;
    EXPECT_GE(responses[i].latency_ms, 0.0);
  }
  EngineStats stats = session->stats();
  EXPECT_EQ(stats.requests, 30u);
  EXPECT_EQ(stats.failures, 0u);
}

TEST(EndpointSessionTest, RepeatedInstanceHitsPointMemoWithZeroQueries) {
  nn::Plnn net = MakeNet(56);
  api::PredictionApi api(&net);
  // One worker: with several threads, identical-x0 requests can race past
  // the empty memo and each pay an extraction (deduplicated at insert),
  // which would make the exact hit/miss counts below scheduling-dependent.
  EngineConfig config;
  config.num_threads = 1;
  InterpretationEngine engine(config);
  auto session = engine.OpenSession(api);
  util::Rng rng(3);
  Vec x0 = rng.UniformVector(6, 0.2, 0.8);
  // The full-audit workload: every class of one instance.
  std::vector<EngineRequest> requests = {{x0, 0}, {x0, 1}, {x0, 2}};
  auto responses = session->InterpretAll(requests, 13);
  for (const auto& r : responses) ASSERT_TRUE(r.result.ok());
  EngineStats stats = session->stats();
  EXPECT_EQ(stats.cache_misses, 1u);
  EXPECT_EQ(stats.point_memo_hits, 2u);
  EXPECT_EQ(session->cache_size(), 1u);
  // The memo answers cost zero queries, and session accounting is exact.
  EXPECT_EQ(stats.queries, api.query_count());
  EXPECT_EQ(responses[0].cache_outcome, CacheOutcome::kMiss);
  EXPECT_EQ(responses[1].cache_outcome, CacheOutcome::kPointMemo);
  EXPECT_EQ(responses[1].queries, 0u);
  EXPECT_EQ(responses[2].cache_outcome, CacheOutcome::kPointMemo);
  // All three answers agree with white-box ground truth.
  for (size_t c = 0; c < 3; ++c) {
    EXPECT_LT(eval::L1Dist(net, x0, c, responses[c].result->dc), 1e-6);
  }
}

TEST(EndpointSessionTest, ScanHitCostsExactlyTwoQueries) {
  // A DISTINCT x0 in an already-extracted region misses the point memo
  // but validates against the cached region: exactly 2 API queries and a
  // kHit outcome (ported from the deleted extract::CachedInterpreter
  // coverage, which pinned the 2-query hit contract).
  lmt::LogisticModelTree tree = MakeTree(3);
  api::PredictionApi api(&tree);
  EngineConfig config;
  config.num_threads = 1;
  InterpretationEngine engine(config);
  auto session = engine.OpenSession(api);
  util::Rng rng(4);
  Vec x0 = rng.UniformVector(5, 0.2, 0.8);
  auto miss = session->Interpret({x0, 0}, /*seed=*/17, 0);
  ASSERT_TRUE(miss.result.ok());
  EXPECT_EQ(miss.cache_outcome, CacheOutcome::kMiss);
  EXPECT_GT(miss.queries, 2u);  // full extraction
  Vec nudged = x0;
  nudged[0] += 1e-9;  // same leaf region, different raw bits
  auto hit = session->Interpret({nudged, 0}, /*seed=*/17, 1);
  ASSERT_TRUE(hit.result.ok());
  EXPECT_EQ(hit.cache_outcome, CacheOutcome::kMemoryHit);
  EXPECT_EQ(hit.queries, 2u);
  EXPECT_EQ(hit.shrink_iterations, 0u);
  EXPECT_LT(linalg::L1Distance(miss.result->dc, hit.result->dc), 1e-9);
  EXPECT_EQ(session->stats().queries, api.query_count());
}

TEST(EndpointSessionTest, SharesRegionsAcrossInstancesOnLmt) {
  lmt::LogisticModelTree tree = MakeTree();
  api::PredictionApi api(&tree);
  InterpretationEngine engine;
  auto session = engine.OpenSession(api);
  std::vector<EngineRequest> requests = RandomRequests(40, 5, 3, 17);
  auto responses = session->InterpretAll(requests, 19);
  for (size_t i = 0; i < responses.size(); ++i) {
    ASSERT_TRUE(responses[i].result.ok())
        << responses[i].result.status().ToString();
    EXPECT_LT(eval::L1Dist(tree, requests[i].x0, requests[i].c,
                           responses[i].result->dc),
              1e-6);
  }
  // 40 random instances land in <= num_leaves regions: the cache must
  // have been shared across distinct instances.
  EngineStats stats = session->stats();
  EXPECT_LE(session->cache_size(), tree.num_leaves());
  EXPECT_GT(stats.cache_hits, 0u);
  EXPECT_EQ(stats.queries, api.query_count());
}

TEST(EndpointSessionTest, DeterministicAcrossThreadCounts) {
  // The probe RNG is derived from (seed, request index), never from the
  // shard layout, so any thread count produces exact answers from the
  // same streams.
  lmt::LogisticModelTree tree = MakeTree(4);
  std::vector<EngineRequest> requests = RandomRequests(24, 5, 3, 23);

  EngineConfig one_thread;
  one_thread.num_threads = 1;
  InterpretationEngine sequential(one_thread);
  api::PredictionApi api_seq(&tree);
  auto session_seq = sequential.OpenSession(api_seq);
  auto seq_responses = session_seq->InterpretAll(requests, 29);

  EngineConfig four_threads;
  four_threads.num_threads = 4;
  InterpretationEngine concurrent(four_threads);
  api::PredictionApi api_conc(&tree);
  auto session_conc = concurrent.OpenSession(api_conc);
  auto conc_responses = session_conc->InterpretAll(requests, 29);

  for (size_t i = 0; i < requests.size(); ++i) {
    ASSERT_TRUE(seq_responses[i].result.ok());
    ASSERT_TRUE(conc_responses[i].result.ok());
    // Both are exact; cache-hit timing may differ between runs, so compare
    // through ground truth rather than bitwise.
    EXPECT_LT(linalg::L1Distance(seq_responses[i].result->dc,
                                 conc_responses[i].result->dc),
              1e-6)
        << "request " << i;
  }
  EXPECT_EQ(session_seq->stats().queries, api_seq.query_count());
  EXPECT_EQ(session_conc->stats().queries, api_conc.query_count());
}

TEST(EndpointSessionTest, PairsMatchGroundTruthCoreParameters) {
  nn::Plnn net = MakeNet(58);
  api::PredictionApi api(&net);
  InterpretationEngine engine;
  auto session = engine.OpenSession(api);
  util::Rng rng(5);
  Vec x0 = rng.UniformVector(6, 0.1, 0.9);
  const size_t c = 1;
  auto response = session->Interpret({x0, c}, /*seed=*/41);
  ASSERT_TRUE(response.result.ok());
  ASSERT_EQ(response.result->pairs.size(), 2u);
  api::LocalLinearModel local = net.LocalModelAt(x0);
  size_t pair_idx = 0;
  for (size_t c_prime = 0; c_prime < 3; ++c_prime) {
    if (c_prime == c) continue;
    api::CoreParameters truth =
        api::GroundTruthCoreParameters(local, c, c_prime);
    EXPECT_LT(
        linalg::L1Distance(response.result->pairs[pair_idx].d, truth.d),
        1e-6);
    EXPECT_NEAR(response.result->pairs[pair_idx].b, truth.b, 1e-6);
    ++pair_idx;
  }
}

TEST(EndpointSessionTest, RejectsBadRequestsAndCountsFailures) {
  nn::Plnn net = MakeNet(59);
  api::PredictionApi api(&net);
  InterpretationEngine engine;
  auto session = engine.OpenSession(api);
  auto bad_dim = session->Interpret({{0.5}, 0}, 1);
  EXPECT_TRUE(bad_dim.result.status().IsInvalidArgument());
  EXPECT_EQ(bad_dim.queries, 0u);
  util::Rng rng(6);
  auto bad_class = session->Interpret({rng.UniformVector(6, 0, 1), 9}, 1);
  EXPECT_TRUE(bad_class.result.status().IsInvalidArgument());
  EXPECT_EQ(session->stats().failures, 2u);
  EXPECT_EQ(api.query_count(), 0u);
}

TEST(EndpointSessionTest, ErrorPathAccountingMatchesApiCounter) {
  // A rounding endpoint makes the closed form unreachable: every miss
  // burns its full probe budget and fails. The failed requests consumed
  // real queries (2 for the candidate-scan pair fetch plus the solver's
  // probes), and the session's totals must match the endpoint's atomic
  // counter exactly.
  nn::Plnn net = MakeNet(61);
  api::PredictionApi api(&net, /*round_digits=*/2);
  EngineConfig config;
  config.num_threads = 1;
  config.openapi.max_iterations = 4;  // fail fast
  InterpretationEngine engine(config);
  auto session = engine.OpenSession(api);
  std::vector<EngineRequest> requests = RandomRequests(6, 6, 3, 43);
  auto responses = session->InterpretAll(requests, /*seed=*/47);
  size_t failures = 0;
  uint64_t reported = 0;
  for (const auto& r : responses) {
    reported += r.queries;
    if (!r.result.ok()) {
      EXPECT_TRUE(r.result.status().IsDidNotConverge());
      ++failures;
    }
  }
  EXPECT_GT(failures, 0u);
  EngineStats stats = session->stats();
  EXPECT_EQ(stats.failures, failures);
  EXPECT_EQ(stats.queries, api.query_count());
  // Per-response envelopes sum to the endpoint's counter too.
  EXPECT_EQ(reported, api.query_count());
}

TEST(CacheOutcomeNameTest, EveryOutcomeHasADistinctName) {
  const CacheOutcome outcomes[] = {
      CacheOutcome::kBypass,         CacheOutcome::kPointMemo,
      CacheOutcome::kMemoryHit,      CacheOutcome::kDiskHit,
      CacheOutcome::kMiss,           CacheOutcome::kEvictedRefetch,
      CacheOutcome::kStaleRefetch};
  std::set<std::string> names;
  for (CacheOutcome outcome : outcomes) {
    const std::string name = CacheOutcomeName(outcome);
    EXPECT_FALSE(name.empty());
    EXPECT_TRUE(names.insert(name).second) << "duplicate name " << name;
  }
  EXPECT_EQ(names.size(), std::size(outcomes));
}

TEST(EndpointSessionTest, ClearCacheForcesReExtraction) {
  nn::Plnn net = MakeNet(60);
  api::PredictionApi api(&net);
  InterpretationEngine engine;
  auto session = engine.OpenSession(api);
  util::Rng rng(8);
  Vec x0 = rng.UniformVector(6, 0.2, 0.8);
  ASSERT_TRUE(session->Interpret({x0, 0}, 43, 0).result.ok());
  EXPECT_EQ(session->cache_size(), 1u);
  session->ClearCache();
  EXPECT_EQ(session->cache_size(), 0u);
  ASSERT_TRUE(session->Interpret({x0, 0}, 43, 1).result.ok());
  EXPECT_EQ(session->stats().cache_misses, 2u);
}

TEST(EngineAggregateTest, StatsSumAcrossSessionsOnDistinctEndpoints) {
  // One engine, two endpoints, two sessions: answers are exact per
  // endpoint (no cross-contamination at a shared x0) and the two
  // sessions' counters sum to what both endpoints served. This
  // is the multi-endpoint coverage the removed free-standing shims used
  // to exercise, now through the only remaining surface: sessions.
  nn::Plnn net_a = MakeNet(65);
  nn::Plnn net_b = MakeNet(66);
  api::PredictionApi api_a(&net_a);
  api::PredictionApi api_b(&net_b);
  EngineConfig config;
  config.num_threads = 1;
  InterpretationEngine engine(config);
  auto session_a = engine.OpenSession(api_a);
  auto session_b = engine.OpenSession(api_b);
  util::Rng rng(9);
  Vec x0 = rng.UniformVector(6, 0.2, 0.8);
  auto via_a = session_a->Interpret({x0, 0}, /*seed=*/71, 0);
  ASSERT_TRUE(via_a.result.ok());
  EXPECT_LT(eval::L1Dist(net_a, x0, 0, via_a.result->dc), 1e-6);
  // Same x0 on a DIFFERENT endpoint through the same engine: session
  // isolation keeps the point memo from serving net_a's region, so the
  // answer is exact for net_b.
  auto via_b = session_b->Interpret({x0, 0}, /*seed=*/71, 1);
  ASSERT_TRUE(via_b.result.ok());
  EXPECT_LT(eval::L1Dist(net_b, x0, 0, via_b.result->dc), 1e-6);
  EXPECT_EQ(session_a->cache_size() + session_b->cache_size(), 2u);
  EXPECT_EQ(session_a->stats().queries + session_b->stats().queries,
            api_a.query_count() + api_b.query_count());
  EXPECT_EQ(session_a->stats().requests + session_b->stats().requests, 2u);
}

// --- Ported from the deleted extract_cached_test.cc: interpretation
// --- behaviour against noisy endpoints is independent of the cache.

TEST(NoisyApiTest, NoiseBreaksExactInterpretationDetectably) {
  // A nondeterministic endpoint cannot satisfy the consistency test, so
  // OpenAPI reports DidNotConverge rather than returning a wrong answer.
  util::Rng init(12);
  nn::Plnn net({5, 8, 3}, &init);
  api::PredictionApi noisy(&net, /*round_digits=*/0,
                           /*noise_stddev=*/1e-3);
  OpenApiConfig config;
  config.max_iterations = 15;
  OpenApiInterpreter interpreter(config);
  util::Rng rng(13);
  size_t failures = 0;
  for (int trial = 0; trial < 10; ++trial) {
    Vec x0 = rng.UniformVector(5, 0.2, 0.8);
    auto result = interpreter.Interpret(noisy, x0, 0, &rng);
    if (!result.ok()) {
      EXPECT_TRUE(result.status().IsDidNotConverge());
      ++failures;
    }
  }
  EXPECT_EQ(failures, 10u);
}

TEST(NoisyApiTest, NoisyPredictionsStayValidDistributions) {
  util::Rng init(14);
  nn::Plnn net({4, 6, 3}, &init);
  api::PredictionApi noisy(&net, 0, /*noise_stddev=*/0.5);
  util::Rng rng(15);
  for (int t = 0; t < 50; ++t) {
    Vec y = noisy.Predict(rng.UniformVector(4, 0, 1));
    double sum = 0;
    for (double p : y) {
      EXPECT_GT(p, 0.0);
      sum += p;
    }
    EXPECT_NEAR(sum, 1.0, 1e-12);
  }
}

TEST(NoisyApiTest, ZeroNoiseIsExactPassThrough) {
  util::Rng init(16);
  nn::Plnn net({4, 6, 3}, &init);
  api::PredictionApi api(&net, 0, 0.0);
  util::Rng rng(17);
  Vec x = rng.UniformVector(4, 0, 1);
  EXPECT_EQ(api.Predict(x), net.Predict(x));
}

}  // namespace
}  // namespace openapi::interpret
