// OPENAPI_TEST_LABELS: fault
// FaultInjectingApi contracts: refusals are zero-charge and injected
// BEFORE the inner endpoint is touched, the schedule is a pure function
// of (seed, call contents, attempt) so runs replay bit-identically, the
// consecutive-failure cap forces a key through so bounded retry loops
// terminate, throttling windows follow the call counter, latency spikes
// ride the injected clock, and SwapInner keeps exact accounting across
// endpoints. Then the dispatch layer on top: the engine absorbs
// transient refusals with backoff retries (exact books, retries
// surfaced in EngineStats) and degrades to Unavailable — never a crash
// or a silent partial answer — when the endpoint refuses past the
// attempt cap.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "api/fault_injecting_api.h"
#include "api/plm.h"
#include "interpret/interpretation_engine.h"
#include "nn/plnn.h"
#include "util/clock.h"
#include "util/rng.h"

namespace openapi::api {
namespace {

std::unique_ptr<nn::Plnn> MakeModel(uint64_t seed) {
  util::Rng rng(seed);
  return std::make_unique<nn::Plnn>(std::vector<size_t>{3, 6, 2}, &rng);
}

std::vector<Vec> MakeBatch(size_t rows, uint64_t seed) {
  util::Rng rng(seed);
  std::vector<Vec> xs;
  xs.reserve(rows);
  for (size_t i = 0; i < rows; ++i) {
    xs.push_back(rng.UniformVector(3, -1.0, 1.0));
  }
  return xs;
}

// ---------------------------------------------------------------------------
// A refused call consumes NOTHING: no queries, no noise tickets, zero
// rows_consumed — injection happens before the wrapped endpoint exists
// as far as the call is concerned.
// ---------------------------------------------------------------------------
TEST(FaultInjectionTest, RefusalsAreZeroCharge) {
  auto model = MakeModel(3);
  PredictionApi inner(model.get());
  FaultConfig config;
  config.transient_rate = 1.0;
  config.max_consecutive_failures = 2;
  FaultInjectingApi api(&inner, config);

  const std::vector<Vec> xs = MakeBatch(4, 50);
  uint64_t consumed = 123;  // must be overwritten to 0
  auto ys = api.TryPredictBatch(xs, &consumed);
  ASSERT_FALSE(ys.ok());
  EXPECT_TRUE(ys.status().IsTransient());
  EXPECT_EQ(consumed, 0u);
  EXPECT_EQ(inner.query_count(), 0u);
  EXPECT_EQ(api.query_count(), 0u);
  EXPECT_EQ(api.injected_failures(), 1u);
}

// ---------------------------------------------------------------------------
// The consecutive-failure cap: with rate 1.0 and cap 2, attempts 1 and 2
// at the same rows are refused and attempt 3 is FORCED THROUGH, serving
// the inner endpoint's exact answer — so a capped retry loop always
// terminates against pure-rate injection.
// ---------------------------------------------------------------------------
TEST(FaultInjectionTest, ForcedThroughAfterConsecutiveFailureCap) {
  auto model = MakeModel(3);
  PredictionApi inner(model.get());
  FaultConfig config;
  config.transient_rate = 1.0;
  config.max_consecutive_failures = 2;
  FaultInjectingApi api(&inner, config);

  const std::vector<Vec> xs = MakeBatch(4, 51);
  EXPECT_FALSE(api.TryPredictBatch(xs).ok());
  EXPECT_FALSE(api.TryPredictBatch(xs).ok());
  uint64_t consumed = 0;
  auto ys = api.TryPredictBatch(xs, &consumed);
  ASSERT_TRUE(ys.ok()) << ys.status().ToString();
  EXPECT_EQ(consumed, xs.size());
  EXPECT_EQ(api.query_count(), xs.size());
  ASSERT_EQ(ys->size(), xs.size());
  for (size_t i = 0; i < xs.size(); ++i) {
    const Vec truth = model->Predict(xs[i]);
    for (size_t c = 0; c < truth.size(); ++c) {
      EXPECT_EQ((*ys)[i][c], truth[c]);
    }
  }
  // The forced-through pass resets the streak: the next attempt draws
  // fresh (and at rate 1.0, fails again) — no permanent immunity.
  EXPECT_FALSE(api.TryPredictBatch(xs).ok());
}

// ---------------------------------------------------------------------------
// Determinism: two fresh decorators with the same seed over the same
// call sequence inject the identical failure pattern; a different seed
// draws a different schedule. (Keyed on content + attempt, not wall
// clock or allocation order.)
// ---------------------------------------------------------------------------
TEST(FaultInjectionTest, ScheduleIsAPureFunctionOfSeedAndContents) {
  auto model = MakeModel(3);
  auto run = [&](uint64_t seed) {
    PredictionApi inner(model.get());
    FaultConfig config;
    config.seed = seed;
    config.transient_rate = 0.4;
    FaultInjectingApi api(&inner, config);
    std::vector<bool> pattern;
    for (uint64_t call = 0; call < 40; ++call) {
      pattern.push_back(api.TryPredictBatch(MakeBatch(3, call)).ok());
    }
    return pattern;
  };
  const std::vector<bool> first = run(0xabc);
  const std::vector<bool> replay = run(0xabc);
  EXPECT_EQ(first, replay);
  EXPECT_NE(first, run(0xdef));
  // Rate 0.4 over 40 draws: both outcomes must actually occur.
  EXPECT_NE(std::count(first.begin(), first.end(), true), 0);
  EXPECT_NE(std::count(first.begin(), first.end(), false), 0);
}

// ---------------------------------------------------------------------------
// Throttling windows: with period P and burst B, calls [nP, nP+B) are
// refused kThrottled by arrival index — a deterministic rate limiter
// when calls are serialized.
// ---------------------------------------------------------------------------
TEST(FaultInjectionTest, ThrottleWindowsFollowTheCallCounter) {
  auto model = MakeModel(3);
  PredictionApi inner(model.get());
  FaultConfig config;
  config.throttle_period = 4;
  config.throttle_burst = 2;
  FaultInjectingApi api(&inner, config);

  for (uint64_t call = 0; call < 12; ++call) {
    auto ys = api.TryPredictBatch(MakeBatch(2, 900 + call));
    const bool throttled = call % 4 < 2;
    EXPECT_EQ(ys.ok(), !throttled) << "call " << call;
    if (throttled) {
      EXPECT_TRUE(ys.status().IsThrottled());
    }
  }
  EXPECT_EQ(api.injected_failures(), 6u);
}

// ---------------------------------------------------------------------------
// Latency spikes sleep on the INJECTED clock before serving — a fake
// clock makes the spike visible without making the test slow.
// ---------------------------------------------------------------------------
TEST(FaultInjectionTest, LatencySpikesRideTheInjectedClock) {
  auto model = MakeModel(3);
  PredictionApi inner(model.get());
  util::FakeClock clock;
  FaultConfig config;
  config.spike_rate = 1.0;
  config.latency_spike_seconds = 0.25;
  config.clock = &clock;
  FaultInjectingApi api(&inner, config);

  auto ys = api.TryPredictBatch(MakeBatch(2, 77));
  ASSERT_TRUE(ys.ok()) << ys.status().ToString();
  EXPECT_EQ(clock.ElapsedSeconds(), 0.25);
  EXPECT_EQ(api.injected_spikes(), 1u);
  EXPECT_EQ(api.injected_failures(), 0u);
}

// ---------------------------------------------------------------------------
// SwapInner (the drift event): traffic atomically redirects to the new
// endpoint, and query_count() keeps summing EVERY endpoint the decorator
// ever fronted, so exact-accounting invariants survive the swap.
// ---------------------------------------------------------------------------
TEST(FaultInjectionTest, SwapInnerRedirectsTrafficAndSumsAccounting) {
  auto model_a = MakeModel(5);
  auto model_b = MakeModel(6);
  PredictionApi inner_a(model_a.get());
  PredictionApi inner_b(model_b.get());
  FaultInjectingApi api(&inner_a, FaultConfig{});

  const std::vector<Vec> xs = MakeBatch(3, 60);
  auto before = api.TryPredictBatch(xs);
  ASSERT_TRUE(before.ok());
  api.SwapInner(&inner_b);
  auto after = api.TryPredictBatch(xs);
  ASSERT_TRUE(after.ok());

  for (size_t i = 0; i < xs.size(); ++i) {
    const Vec ya = model_a->Predict(xs[i]);
    const Vec yb = model_b->Predict(xs[i]);
    for (size_t c = 0; c < ya.size(); ++c) {
      EXPECT_EQ((*before)[i][c], ya[c]);
      EXPECT_EQ((*after)[i][c], yb[c]);
    }
  }
  EXPECT_EQ(inner_a.query_count(), xs.size());
  EXPECT_EQ(inner_b.query_count(), xs.size());
  EXPECT_EQ(api.query_count(), 2 * xs.size());  // sum across the swap
}

// ---------------------------------------------------------------------------
// The infallible single-sample path bypasses injection entirely: the
// failing surface is TryPredictBatch, which is what retry-aware
// dispatchers use.
// ---------------------------------------------------------------------------
TEST(FaultInjectionTest, InfalliblePathsBypassInjection) {
  auto model = MakeModel(3);
  PredictionApi inner(model.get());
  FaultConfig config;
  config.transient_rate = 1.0;
  config.max_consecutive_failures = 1000;
  FaultInjectingApi api(&inner, config);

  const Vec x = MakeBatch(1, 42)[0];
  const Vec truth = model->Predict(x);
  const Vec got = api.Predict(x);
  for (size_t c = 0; c < truth.size(); ++c) EXPECT_EQ(got[c], truth[c]);
  EXPECT_EQ(api.query_count(), 1u);
  EXPECT_EQ(api.injected_failures(), 0u);
}

}  // namespace
}  // namespace openapi::api

namespace openapi::interpret {
namespace {

// ---------------------------------------------------------------------------
// Dispatch-layer integration: the engine's probe dispatch retries
// transient refusals with capped backoff (on the injected clock, so the
// test is instantaneous), the request succeeds, EngineStats surfaces the
// retries, and the books match the decorator's counter exactly.
// ---------------------------------------------------------------------------
TEST(FaultInjectionDispatchTest, EngineAbsorbsTransientRefusals) {
  util::Rng rng(91);
  nn::Plnn net(std::vector<size_t>{3, 6, 2}, &rng);
  api::PredictionApi inner(&net);
  api::FaultConfig fault;
  fault.transient_rate = 0.5;
  fault.max_consecutive_failures = 2;
  api::FaultInjectingApi api(&inner, fault);

  EngineConfig config;
  config.num_threads = 1;
  InterpretationEngine engine(config);
  auto session = engine.OpenSession(api);

  util::FakeClock clock;
  RequestOptions options;
  options.clock = &clock;  // backoff sleeps advance this, not the wall
  uint64_t failures_seen = 0;
  for (uint64_t r = 0; r < 20; ++r) {
    Vec x = rng.UniformVector(3, -1.0, 1.0);
    auto response = session->Interpret({x, 0, options}, /*seed=*/1, r);
    ASSERT_TRUE(response.result.ok()) << response.result.status().ToString();
    failures_seen = api.injected_failures();
  }
  EXPECT_GT(failures_seen, 0u);
  const EngineStats stats = session->stats();
  EXPECT_GT(stats.retries, 0u);
  // A simple endpoint refuses BEFORE consuming, so retries waste time,
  // not queries — and the books balance to the decorator exactly.
  EXPECT_EQ(stats.wasted_queries, 0u);
  EXPECT_EQ(stats.queries, api.query_count());
}

// ---------------------------------------------------------------------------
// Retry exhaustion degrades to Unavailable with exact consumed counts —
// never a crash, never a silent partial answer.
// ---------------------------------------------------------------------------
TEST(FaultInjectionDispatchTest, ExhaustedRetriesDegradeToUnavailable) {
  util::Rng rng(93);
  nn::Plnn net(std::vector<size_t>{3, 6, 2}, &rng);
  api::PredictionApi inner(&net);
  api::FaultConfig fault;
  fault.transient_rate = 1.0;
  fault.max_consecutive_failures = 1000;  // beyond any retry budget
  api::FaultInjectingApi api(&inner, fault);

  EngineConfig config;
  config.num_threads = 1;
  InterpretationEngine engine(config);
  auto session = engine.OpenSession(api);

  util::FakeClock clock;
  RequestOptions options;
  options.clock = &clock;
  Vec x = rng.UniformVector(3, -1.0, 1.0);
  auto response = session->Interpret({x, 0, options}, /*seed=*/2, 0);
  ASSERT_FALSE(response.result.ok());
  EXPECT_TRUE(response.result.status().IsUnavailable())
      << response.result.status().ToString();
  // Nothing was ever admitted, so nothing may be charged.
  EXPECT_EQ(response.queries, 0u);
  EXPECT_EQ(api.query_count(), 0u);
  EXPECT_EQ(session->stats().queries, 0u);
  EXPECT_GT(session->stats().retries, 0u);
}

}  // namespace
}  // namespace openapi::interpret
