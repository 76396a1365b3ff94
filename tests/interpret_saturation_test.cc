// OPENAPI_TEST_LABELS: concurrent  (run under TSan in CI: ctest -L concurrent)
// Regression tests for the saturating-reference-class failure (ROADMAP:
// "Engine currently extracts with reference class 0; a saturating class 0
// fails requests that a smarter reference-class choice would answer").
//
// The endpoint here is a single-region linear classifier whose class-0
// logit sits ~750 below the leader at x0: softmax underflows and the API
// returns y0[0] == 0.0 exactly, so every reference-0 log-ratio at the x0
// row is non-finite and no amount of hypercube shrinking can fix it —
// the seed implementation burned its full iteration budget and returned
// DidNotConverge. The class-0 logit has a steep slope, so probes on one
// side of x0 report small positive probabilities: the information is
// recoverable, and the solver now recovers it by switching its reference
// to argmax(y0), masking the non-finite rows, and converting the pairs
// back. These tests pin that behavior end to end: raw solver, extractor
// (column-0-pinned gauge), and engine (including exact accounting).

#include <limits>

#include <gtest/gtest.h>

#include "api/ground_truth.h"
#include "extract/local_model_extractor.h"
#include "interpret/interpretation_engine.h"
#include "interpret/openapi_method.h"

namespace openapi::interpret {
namespace {

/// A Plm that IS one locally linear region: softmax(W^T x + b) everywhere.
class LinearPlm : public api::Plm {
 public:
  explicit LinearPlm(api::LocalLinearModel model)
      : model_(std::move(model)) {}

  size_t dim() const override { return model_.weights.rows(); }
  size_t num_classes() const override { return model_.bias.size(); }
  Vec Predict(const Vec& x) const override {
    return api::EvaluateLocalModel(model_, x);
  }

  const api::LocalLinearModel& model() const { return model_; }

 private:
  api::LocalLinearModel model_;
};

/// d=3, C=3. Class 0's logit is ~750 under the leader at x0 = (.5,.5,.5)
/// (softmax underflow -> exactly 0.0 from the API) but climbs steeply
/// along x[0], so probes with x[0] > x0[0] + ~0.01 report positive
/// probabilities again.
api::LocalLinearModel SaturatingModel() {
  api::LocalLinearModel model;
  model.weights = linalg::Matrix(3, 3);
  // column 0: steep recovery direction.
  model.weights(0, 0) = 400.0;
  model.weights(1, 0) = 0.0;
  model.weights(2, 0) = 0.0;
  // columns 1, 2: ordinary classifiers.
  model.weights(0, 1) = 1.0;
  model.weights(1, 1) = 2.0;
  model.weights(2, 1) = -1.0;
  model.weights(0, 2) = -2.0;
  model.weights(1, 2) = 0.5;
  model.weights(2, 2) = 1.0;
  model.bias = {-947.5, 0.3, -0.2};
  return model;
}

Vec SaturatedAnchor() { return {0.5, 0.5, 0.5}; }

TEST(SaturationRegressionTest, EndpointSaturatesClassZeroAtAnchor) {
  LinearPlm plm(SaturatingModel());
  api::PredictionApi api(&plm);
  Vec y0 = api.Predict(SaturatedAnchor());
  // The precondition of the whole file: exact underflow at the endpoint.
  EXPECT_EQ(y0[0], 0.0);
  EXPECT_GT(y0[1], 0.0);
  EXPECT_GT(y0[2], 0.0);
  EXPECT_EQ(linalg::ArgMax(y0), 1u);
}

TEST(SaturationRegressionTest, SolverRecoversEveryClassExactly) {
  LinearPlm plm(SaturatingModel());
  api::PredictionApi api(&plm);
  OpenApiInterpreter interpreter;
  util::Rng rng(71);
  for (size_t c = 0; c < 3; ++c) {
    auto result = interpreter.Interpret(api, SaturatedAnchor(), c, &rng);
    ASSERT_TRUE(result.ok())
        << "class " << c << ": " << result.status().ToString();
    Vec truth = api::GroundTruthDecisionFeatures(plm.model(), c);
    // The recovered features carry the steep class-0 column (entries of
    // magnitude ~400); scale the tolerance accordingly.
    EXPECT_LT(linalg::L1Distance(result->dc, truth), 1e-6)
        << "class " << c;
  }
}

TEST(SaturationRegressionTest, ConvertedPairsMatchGroundTruthCoreParams) {
  LinearPlm plm(SaturatingModel());
  api::PredictionApi api(&plm);
  OpenApiInterpreter interpreter;
  util::Rng rng(72);
  const size_t c = 2;
  auto result = interpreter.Interpret(api, SaturatedAnchor(), c, &rng);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(result->pairs.size(), 2u);
  size_t pair_idx = 0;
  for (size_t c_prime = 0; c_prime < 3; ++c_prime) {
    if (c_prime == c) continue;
    api::CoreParameters truth =
        api::GroundTruthCoreParameters(plm.model(), c, c_prime);
    EXPECT_LT(linalg::L1Distance(result->pairs[pair_idx].d, truth.d), 1e-6)
        << "pair vs class " << c_prime;
    EXPECT_NEAR(result->pairs[pair_idx].b, truth.b, 1e-6);
    ++pair_idx;
  }
}

TEST(SaturationRegressionTest, QueryAccountingStaysExactUnderSaturation) {
  // The saturation path tops up the probe budget ADAPTIVELY — each
  // iteration draws the base d+1 probes, then exactly the worst pair's
  // usable-row deficit (re-checked per top-up, capped at d+1 extra) —
  // instead of doubling the whole budget uniformly. The reported count
  // must match the endpoint's counter exactly, and per iteration the
  // cost must sit between the base draw and the old uniform doubling.
  LinearPlm plm(SaturatingModel());
  api::PredictionApi api(&plm);
  OpenApiInterpreter interpreter;
  util::Rng rng(73);
  RequestCost cost;
  auto result = interpreter.InterpretCounted(api, SaturatedAnchor(), 1,
                                             &rng, &cost);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->queries, cost.queries);
  EXPECT_EQ(cost.queries, api.query_count());
  // 1 anchor query, then per iteration at least the d+1 = 4 base probes
  // and at most the old uniform doubling's 2*(d+1) = 8.
  EXPECT_GE(cost.queries, 1 + result->iterations * 4);
  EXPECT_LE(cost.queries, 1 + result->iterations * 8);
  // The adaptive top-up must actually beat the uniform doubling on this
  // workload (the saturated pair recovers most of its rows per draw).
  EXPECT_LT(cost.queries, 1 + result->iterations * 8);
}

TEST(SaturationRegressionTest, SaturatedSolveIsBitIdenticalAcrossWorkspaces) {
  // The masked-row path (per-pair QR over the usable rows + adaptive
  // top-ups) must be exactly equal with a request-local workspace or a
  // caller workspace whose buffers an earlier request of a different
  // shape already grew — the saturated branch exercises the
  // Resize/Refactor reuse cycle the fast path never touches.
  LinearPlm plm(SaturatingModel());
  api::PredictionApi api(&plm);
  OpenApiInterpreter interpreter;
  // Grow the caller workspace on an unsaturated request with d = 5,
  // C = 4, so the probe, prediction, QR and pair buffers the saturated
  // d = 3, C = 3 solve below reuses hold stale rows of another shape.
  SolverWorkspace used_workspace;
  {
    util::Rng model_rng(79);
    api::LocalLinearModel other;
    other.weights = linalg::Matrix(5, 4);
    for (double& w : other.weights.mutable_data()) {
      w = model_rng.Uniform(-1.0, 1.0);
    }
    other.bias = model_rng.UniformVector(4, -0.5, 0.5);
    LinearPlm other_plm(std::move(other));
    api::PredictionApi other_api(&other_plm);
    util::Rng rng(78);
    RequestCost cost;
    ASSERT_TRUE(interpreter
                    .InterpretCounted(other_api, Vec(5, 0.5), 2, &rng,
                                      &cost, {}, nullptr,
                                      &used_workspace)
                    .ok());
  }
  // nullptr: request-local.
  SolverWorkspace* const workspaces[] = {nullptr, &used_workspace};
  std::optional<Interpretation> baseline;
  uint64_t baseline_consumed = 0;
  for (SolverWorkspace* workspace : workspaces) {
    util::Rng rng(77);
    RequestCost cost;
    auto result = interpreter.InterpretCounted(
        api, SaturatedAnchor(), 0, &rng, &cost, {}, nullptr, workspace);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    if (!baseline.has_value()) {
      baseline = std::move(*result);
      baseline_consumed = cost.queries;
      continue;
    }
    EXPECT_EQ(result->dc, baseline->dc);
    EXPECT_EQ(result->probes, baseline->probes);
    EXPECT_EQ(result->iterations, baseline->iterations);
    EXPECT_EQ(cost.queries, baseline_consumed);
  }
}

TEST(SaturationRegressionTest, ExtractorReturnsColumnZeroPinnedGauge) {
  // The extractor pins its reference to class 0 — exactly the class that
  // saturates. The solver's internal reference switch must be invisible:
  // Extract succeeds and still returns the column-0-pinned canonical
  // model, which reproduces the API output bit-for-bit, including the
  // underflowed zero.
  LinearPlm plm(SaturatingModel());
  api::PredictionApi api(&plm);
  extract::LocalModelExtractor extractor;
  util::Rng rng(74);
  auto extracted = extractor.Extract(api, SaturatedAnchor(), &rng);
  ASSERT_TRUE(extracted.ok()) << extracted.status().ToString();
  // Canonical gauge: column 0 identically zero.
  for (size_t j = 0; j < 3; ++j) {
    EXPECT_EQ(extracted->model.weights(j, 0), 0.0);
  }
  EXPECT_EQ(extracted->model.bias[0], 0.0);
  // Canonical column c' must equal W_c' - W_0 of the hidden model.
  const api::LocalLinearModel& truth = plm.model();
  for (size_t c_prime = 1; c_prime < 3; ++c_prime) {
    for (size_t j = 0; j < 3; ++j) {
      EXPECT_NEAR(extracted->model.weights(j, c_prime),
                  truth.weights(j, c_prime) - truth.weights(j, 0), 1e-6);
    }
    EXPECT_NEAR(extracted->model.bias[c_prime],
                truth.bias[c_prime] - truth.bias[0], 1e-6);
  }
  // And the gauge is observationally exact: same softmax output at x0,
  // underflowed zero included.
  Vec reproduced =
      extract::PredictWithLocalModel(extracted->model, SaturatedAnchor());
  Vec expected = api.Predict(SaturatedAnchor());
  EXPECT_EQ(reproduced[0], 0.0);
  for (size_t k = 0; k < 3; ++k) {
    EXPECT_NEAR(reproduced[k], expected[k], 1e-12);
  }
}

TEST(SaturationRegressionTest, EngineMissPathInheritsTheFix) {
  // The engine extracts misses with reference class 0 and reads every
  // requested class off the cached canonical model; a saturated class 0
  // previously failed the whole request. Repeats of the anchor must also
  // hit the point memo, proving the saturated region caches like any
  // other, with engine accounting matching the endpoint exactly.
  LinearPlm plm(SaturatingModel());
  api::PredictionApi api(&plm);
  EngineConfig config;
  config.num_threads = 1;  // deterministic hit/miss counts
  InterpretationEngine engine(config);
  auto session = engine.OpenSession(api);
  std::vector<EngineRequest> requests = {{SaturatedAnchor(), 1},
                                         {SaturatedAnchor(), 0},
                                         {SaturatedAnchor(), 2}};
  auto responses = session->InterpretAll(requests, /*seed=*/75);
  for (size_t i = 0; i < responses.size(); ++i) {
    ASSERT_TRUE(responses[i].result.ok())
        << "request " << i << ": "
        << responses[i].result.status().ToString();
    Vec truth =
        api::GroundTruthDecisionFeatures(plm.model(), requests[i].c);
    EXPECT_LT(linalg::L1Distance(responses[i].result->dc, truth), 1e-6);
  }
  EngineStats stats = session->stats();
  EXPECT_EQ(stats.cache_misses, 1u);
  EXPECT_EQ(stats.point_memo_hits, 2u);
  EXPECT_EQ(stats.failures, 0u);
  EXPECT_EQ(stats.queries, api.query_count());
}

TEST(SaturationRegressionTest, SaturatedPairValidatesNothingAndIsNotDrift) {
  // A point where class 0 underflows leaves no log-odds to check a cached
  // model against: a nearby request misses instead of hitting, and a drift
  // check there falls through to the miss without reporting drift. Every
  // answer is still the saturated path's exact extraction.
  LinearPlm plm(SaturatingModel());
  api::PredictionApi api(&plm);
  EngineConfig config;
  config.num_threads = 1;
  config.drift_check_interval = 1;  // every memo hit pays the pair
  InterpretationEngine engine(config);
  auto session = engine.OpenSession(api);
  Vec nudged = SaturatedAnchor();
  nudged[1] += 1e-9;
  const std::vector<Vec> points = {SaturatedAnchor(), nudged,
                                   SaturatedAnchor()};
  for (size_t i = 0; i < points.size(); ++i) {
    auto response = session->Interpret({points[i], 2}, /*seed=*/76, i);
    ASSERT_TRUE(response.result.ok())
        << "request " << i << ": " << response.result.status().ToString();
    EXPECT_EQ(response.cache_outcome, CacheOutcome::kMiss) << "request " << i;
    EXPECT_LT(linalg::L1Distance(response.result->dc,
                                 api::GroundTruthDecisionFeatures(
                                     plm.model(), 2)),
              1e-6)
        << "request " << i;
  }
  EngineStats stats = session->stats();
  EXPECT_EQ(stats.drift_events, 0u);
  EXPECT_EQ(session->drift_epoch(), 0u);
  EXPECT_EQ(stats.queries, api.query_count());
}

TEST(SaturationRegressionTest, SubnormalProbabilityAlsoTakesRecoveryPath) {
  // A subnormal y0[0] (here ~1e-318: logit gap ~ -733, above the exp
  // underflow cutoff but below DBL_MIN) is just as unshrinkable as an
  // exact zero: its log carries quantization error far beyond the
  // consistency tolerance, so the x0 row poisons every reference-0
  // system. The saturation detector must classify subnormals as
  // saturated and recover through the same masked path.
  api::LocalLinearModel model = SaturatingModel();
  model.bias[0] = -932.2;  // z_0 - z_max ~ -733.5 at x0: subnormal, not 0
  LinearPlm plm(model);
  api::PredictionApi api(&plm);
  Vec y0 = api.Predict(SaturatedAnchor());
  ASSERT_GT(y0[0], 0.0);
  ASSERT_LT(y0[0], std::numeric_limits<double>::min());  // subnormal
  OpenApiInterpreter interpreter;
  util::Rng rng(77);
  for (size_t c = 0; c < 3; ++c) {
    auto result = interpreter.Interpret(api, SaturatedAnchor(), c, &rng);
    ASSERT_TRUE(result.ok())
        << "class " << c << ": " << result.status().ToString();
    Vec truth = api::GroundTruthDecisionFeatures(plm.model(), c);
    EXPECT_LT(linalg::L1Distance(result->dc, truth), 1e-6) << "class " << c;
  }
}

TEST(SaturationRegressionTest, UnrecoverableSaturationFailsWithExactCount) {
  // A flat class-0 logit 900 below the leader saturates the ENTIRE
  // neighborhood: no probe ever sees a positive probability and the
  // information is genuinely gone. The solver must fail cleanly
  // (DidNotConverge, not a hang or a wrong answer) and the engine's
  // accounting must still match the endpoint — the error path consumed
  // real queries.
  api::LocalLinearModel model = SaturatingModel();
  for (size_t j = 0; j < 3; ++j) model.weights(j, 0) = 0.0;
  model.bias[0] = -900.0;
  LinearPlm plm(model);
  api::PredictionApi api(&plm);
  EngineConfig config;
  config.num_threads = 1;
  config.openapi.max_iterations = 5;  // fail fast
  InterpretationEngine engine(config);
  auto session = engine.OpenSession(api);
  EngineResponse response =
      session->Interpret({SaturatedAnchor(), 1}, /*seed=*/76);
  ASSERT_FALSE(response.result.ok());
  EXPECT_TRUE(response.result.status().IsDidNotConverge());
  EngineStats stats = session->stats();
  EXPECT_EQ(stats.failures, 1u);
  EXPECT_EQ(stats.queries, api.query_count());
  // The envelope reports the failed request's true consumption too.
  EXPECT_EQ(response.queries, api.query_count());
  EXPECT_EQ(response.cache_outcome, CacheOutcome::kMiss);
  EXPECT_EQ(response.shrink_iterations, 5u);
}

}  // namespace
}  // namespace openapi::interpret
