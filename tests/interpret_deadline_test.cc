// OPENAPI_TEST_LABELS: concurrent  (run under TSan in CI: ctest -L concurrent)
// Tight deadlines through the chunked probe dispatch: overshoot bounded
// by one latency-sized chunk (previously one arbitrarily slow batch),
// predictive rejection of requests whose first chunk already blows the
// deadline (queries == 0), cancellation stopping at a chunk boundary
// mid-batch with exact consumed counts, and bit-parity of a chunked
// (deadlined) request with the same request sent unconstrained. The
// timing tests run on an injected util::FakeClock — the slow endpoint
// advances the same clock the dispatch plans and measures against, so
// every elapsed-time assertion is deterministic: no real sleeps, no CI
// flakes. Runs in the CI ThreadSanitizer job: the replica-set test
// exercises concurrent deadlined traffic against the shared per-endpoint
// latency EWMA.

#include <atomic>
#include <chrono>
#include <vector>

#include <gtest/gtest.h>

#include "api/api_replica_set.h"
#include "interpret/interpretation_engine.h"
#include "nn/plnn.h"
#include "util/clock.h"

namespace openapi::interpret {
namespace {

using std::chrono::milliseconds;

/// Endpoint test double with configurable per-row latency on an injected
/// clock: every row — single or batched — advances the clock by
/// `per_row` before the model runs, the way a remote endpoint's serving
/// stack costs wall time per sample. Against a util::FakeClock the cost
/// is simulated, not slept, so the tests run instantly AND
/// deterministically. All the real PredictionApi machinery (query
/// counter, noise tickets) still runs, so accounting assertions stay
/// exact. Latency lives on the failing surface (TryPredictBatch) — the
/// single entry point retry-aware dispatch actually uses.
class SlowPredictionApi : public api::PredictionApi {
 public:
  SlowPredictionApi(const api::Plm* model, const util::Clock* clock,
                    milliseconds per_row, double noise_stddev = 0.0)
      : PredictionApi(model, /*round_digits=*/0, noise_stddev),
        clock_(clock),
        per_row_seconds_(static_cast<double>(per_row.count()) * 1e-3) {}

  Vec Predict(const Vec& x) const override {
    clock_->SleepFor(per_row_seconds_);
    return PredictionApi::Predict(x);
  }

  Result<std::vector<Vec>> TryPredictBatch(
      const std::vector<Vec>& xs, uint64_t* rows_consumed) const override {
    clock_->SleepFor(per_row_seconds_ * static_cast<double>(xs.size()));
    auto result = PredictionApi::TryPredictBatch(xs, rows_consumed);
    const uint64_t served =
        rows_served_.fetch_add(xs.size(), std::memory_order_relaxed) +
        xs.size();
    if (cancel_at_ > 0 && served >= cancel_at_) cancel_.RequestCancel();
    return result;
  }

  /// Arms cooperative cancellation: the batch that brings the total rows
  /// served to `after_rows` (or past it) fires `token` right after it is
  /// served, so the NEXT chunk boundary observes the cancellation — the
  /// deterministic stand-in for "a client gives up mid-request".
  void CancelAfter(uint64_t after_rows, util::CancelToken token) {
    cancel_at_ = after_rows;
    cancel_ = std::move(token);
  }

 private:
  const util::Clock* clock_;
  double per_row_seconds_;
  uint64_t cancel_at_ = 0;
  util::CancelToken cancel_;
  mutable std::atomic<uint64_t> rows_served_{0};
};

nn::Plnn MakeNet(size_t d, uint64_t seed) {
  util::Rng rng(seed);
  return nn::Plnn({d, 16, 8, 3}, &rng);
}

TEST(ChunkedDeadlineTest, OvershootIsBoundedByOneChunk) {
  // A 5 ms/row endpoint, a 50 ms deadline, and a noisy model the closed
  // form can never certify (so the request runs until stopped). One
  // unchunked d+1 = 25-probe batch costs 125 ms: the old between-batch
  // check would overshoot the deadline by ~80 ms. Chunked dispatch sizes
  // chunks from the endpoint's EWMA (warmed by the 5 ms anchor), so the
  // request stops within one small chunk of the deadline.
  const size_t d = 24;
  nn::Plnn net = MakeNet(d, 11);
  util::FakeClock clock;
  SlowPredictionApi api(&net, &clock, milliseconds(5), /*noise_stddev=*/1e-3);
  OpenApiInterpreter interpreter;
  util::Rng rng(13);
  Vec x0 = rng.UniformVector(d, 0.2, 0.8);

  RequestCost cost;
  auto result = interpreter.InterpretCounted(
      api, x0, 0, &rng, &cost,
      RequestOptions::WithTimeout(milliseconds(50), &clock));
  const double elapsed_ms = clock.ElapsedSeconds() * 1e3;

  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsDeadlineExceeded())
      << result.status().ToString();
  // Partial-chunk consumption is exact against the endpoint's counter.
  EXPECT_EQ(cost.queries, api.query_count());
  // Some chunks were dispatched (the deadline was not pre-blown)...
  EXPECT_GE(cost.queries, 1u);
  // ...but the request never finished even its first 25-probe batch.
  EXPECT_LT(cost.queries, 1u + d + 1);
  // The tightness claim: with the EWMA at exactly 5 ms/row on the fake
  // clock, every chunk targets <= 25% of the remaining window
  // (<= ~12.5 ms), so the overshoot is a fraction of what one full batch
  // (125 ms) would have cost — and deterministic, failing hard if
  // dispatch ever regresses to whole batches (>= 130 ms).
  EXPECT_LT(elapsed_ms, 95.0);
}

TEST(ChunkedDeadlineTest, FirstChunkPredictedPastDeadlineRejectsAtZeroQueries) {
  // The pre-flight boundary case: the deadline is still in the future,
  // but the conservative cold-endpoint prior (10 ms/row) already predicts
  // the first row past it. The request must fail DeadlineExceeded with
  // ZERO queries — before the anchor, before any probe — instead of
  // dispatching traffic it cannot finish.
  const size_t d = 6;
  nn::Plnn net = MakeNet(d, 17);
  util::FakeClock clock;
  SlowPredictionApi api(&net, &clock, milliseconds(5));
  OpenApiInterpreter interpreter;
  util::Rng rng(19);
  Vec x0 = rng.UniformVector(d, 0.2, 0.8);

  RequestCost cost;
  auto result = interpreter.InterpretCounted(
      api, x0, 0, &rng, &cost,
      RequestOptions::WithTimeout(milliseconds(5), &clock));
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsDeadlineExceeded())
      << result.status().ToString();
  EXPECT_EQ(cost.queries, 0u);
  EXPECT_EQ(api.query_count(), 0u);
}

TEST(ChunkedDeadlineTest, EngineRejectsPreBlownFirstChunkBeforeValidation) {
  // Same boundary case through the serving layer: the session's
  // validation pair is the request's first traffic, so the predictive
  // gate fires there and the envelope reports queries == 0.
  const size_t d = 6;
  nn::Plnn net = MakeNet(d, 23);
  util::FakeClock clock;
  SlowPredictionApi api(&net, &clock, milliseconds(5));
  EngineConfig config;
  config.num_threads = 1;
  InterpretationEngine engine(config);
  auto session = engine.OpenSession(api);
  util::Rng rng(29);
  EngineRequest request{rng.UniformVector(d, 0.2, 0.8), 0,
                        RequestOptions::WithTimeout(milliseconds(5), &clock)};
  auto response = session->Interpret(request, /*seed=*/31, 0);
  ASSERT_FALSE(response.result.ok());
  EXPECT_TRUE(response.result.status().IsDeadlineExceeded())
      << response.result.status().ToString();
  EXPECT_EQ(response.queries, 0u);
  EXPECT_EQ(api.query_count(), 0u);
  EXPECT_EQ(session->stats().failures, 1u);
}

TEST(ChunkedDeadlineTest, CancellationStopsAtAChunkBoundaryMidBatch) {
  // Cancellation fired by the endpoint itself once 5 rows have been
  // served — i.e. while the first 17-probe batch is in flight. The old
  // dispatch would have finished the whole batch before noticing;
  // chunked dispatch reacts at the next chunk boundary
  // (kCancelChunkSeconds bounds the reaction), and the consumed count
  // covers exactly the chunks that ran. Fully deterministic: the fake
  // clock replaces the old real-sleep + racing-thread arrangement.
  const size_t d = 16;
  nn::Plnn net = MakeNet(d, 37);
  util::FakeClock clock;
  SlowPredictionApi api(&net, &clock, milliseconds(5), /*noise_stddev=*/1e-3);
  OpenApiInterpreter interpreter;
  util::CancelToken token = util::CancelToken::Cancellable();
  api.CancelAfter(/*after_rows=*/5, token);
  // A roomy deadline alongside the token: cancellation must keep its
  // kCancelChunkSeconds reaction bound, not inherit the deadline's
  // whole-batch-sized chunks.
  RequestOptions options =
      RequestOptions::WithTimeout(std::chrono::seconds(10), &clock);
  options.cancel = token;
  util::Rng rng(41);
  Vec x0 = rng.UniformVector(d, 0.2, 0.8);

  RequestCost cost;
  auto result =
      interpreter.InterpretCounted(api, x0, 0, &rng, &cost, options);
  const double elapsed_ms = clock.ElapsedSeconds() * 1e3;

  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsCancelled()) << result.status().ToString();
  // Exact partial consumption: anchor plus the chunks that completed.
  EXPECT_EQ(cost.queries, api.query_count());
  // The cancel fired at 5 rows, so at least those were served...
  EXPECT_GE(cost.queries, 5u);
  // ...but the request must NOT have consumed the full 17-probe batch
  // the old dispatch would have finished.
  EXPECT_LT(cost.queries, 1u + d + 1);
  // Reaction bound: with the EWMA at 5 ms/row each chunk targets
  // kCancelChunkSeconds (10 ms) => the request returns well before the
  // 90 ms the unchunked anchor + batch would have cost.
  EXPECT_LT(elapsed_ms, 70.0);
}

TEST(ChunkedDispatchParityTest, ChunkingIsBitInvisibleOnFastEndpoints) {
  // Chunks run sequentially in row order, so query counts and noise
  // tickets replay exactly: a deadlined (hence chunked) request on a
  // fast endpoint must produce bit-identical results, probes, and counts
  // to the same interpreter's request with no deadline, which goes out
  // as one whole-batch chunk — noise on, to pin the ticket streams too.
  const size_t d = 6;
  nn::Plnn net = MakeNet(d, 43);
  util::Rng seed_rng(47);
  Vec x0 = seed_rng.UniformVector(d, 0.2, 0.8);

  // Noise far below consistency_tol: the solve still certifies, but any
  // chunking-induced shift in the ticket stream would change the bits.
  api::PredictionApi chunked_api(&net, 0, /*noise_stddev=*/1e-13);
  api::PredictionApi plain_api(&net, 0, /*noise_stddev=*/1e-13);
  OpenApiInterpreter interpreter;

  util::Rng rng_a(53), rng_b(53);
  RequestCost cost_a, cost_b;
  auto a = interpreter.InterpretCounted(
      chunked_api, x0, 0, &rng_a, &cost_a,
      RequestOptions::WithTimeout(std::chrono::seconds(30)));
  auto b = interpreter.InterpretCounted(plain_api, x0, 0, &rng_b, &cost_b);
  ASSERT_TRUE(a.ok()) << a.status().ToString();
  ASSERT_TRUE(b.ok()) << b.status().ToString();
  EXPECT_EQ(a->dc, b->dc);
  EXPECT_EQ(a->probes, b->probes);
  EXPECT_EQ(a->iterations, b->iterations);
  EXPECT_EQ(cost_a.queries, cost_b.queries);
  EXPECT_EQ(chunked_api.query_count(), plain_api.query_count());
  // The chunked run kept the endpoint's latency estimate warm.
  EXPECT_GT(chunked_api.row_latency().samples(), 0u);
}

TEST(ChunkedDeadlineTest, ReplicaSetAccountingStaysExactUnderMixedDeadlines) {
  // Concurrent deadlined / budgeted / unconstrained traffic against a
  // replica set: every chunk is a real PredictBatch against the set, so
  // the per-replica counters still sum exactly to the envelopes — and
  // the shared set-level latency EWMA takes concurrent recordings
  // (TSan-checked in CI).
  const size_t d = 6;
  nn::Plnn net = MakeNet(d, 59);
  api::ApiReplicaSet endpoint(&net, /*num_replicas=*/3);
  EngineConfig config;
  config.num_threads = 4;
  InterpretationEngine engine(config);
  auto session = engine.OpenSession(endpoint);
  util::Rng rng(61);
  std::vector<EngineRequest> requests;
  for (size_t i = 0; i < 24; ++i) {
    EngineRequest request{rng.UniformVector(d, 0.2, 0.8), i % 3};
    if (i % 4 == 1) {
      request.options = RequestOptions::WithTimeout(milliseconds(0));
    } else if (i % 4 == 2) {
      request.options = RequestOptions::WithBudget(1 + i);
    } else if (i % 4 == 3) {
      request.options = RequestOptions::WithTimeout(std::chrono::seconds(30));
    }
    requests.push_back(std::move(request));
  }
  auto responses = session->InterpretAll(requests, /*seed=*/67);
  uint64_t reported = 0;
  for (size_t i = 0; i < responses.size(); ++i) {
    reported += responses[i].queries;
    if (i % 4 == 1) {
      EXPECT_TRUE(responses[i].result.status().IsDeadlineExceeded())
          << "request " << i;
      EXPECT_EQ(responses[i].queries, 0u);
    }
  }
  EXPECT_EQ(reported, endpoint.query_count());
  EXPECT_EQ(session->stats().queries, endpoint.query_count());
  uint64_t replica_sum = 0;
  for (size_t r = 0; r < endpoint.num_replicas(); ++r) {
    replica_sum += endpoint.replica_query_count(r);
  }
  EXPECT_EQ(replica_sum, endpoint.query_count());
}

}  // namespace
}  // namespace openapi::interpret
