// Tests for PredictionApi, ProbabilityGradient, and the ground-truth
// helpers.

#include <gtest/gtest.h>

#include "api/ground_truth.h"
#include "api/prediction_api.h"
#include "nn/plnn.h"

namespace openapi::api {
namespace {

nn::Plnn MakeNet(uint64_t seed = 1) {
  util::Rng rng(seed);
  return nn::Plnn({4, 6, 3}, &rng);
}

TEST(PredictionApiTest, ForwardsPredictions) {
  nn::Plnn net = MakeNet();
  PredictionApi api(&net);
  Vec x = {0.1, 0.2, 0.3, 0.4};
  EXPECT_EQ(api.Predict(x), net.Predict(x));
  EXPECT_EQ(api.dim(), 4u);
  EXPECT_EQ(api.num_classes(), 3u);
}

TEST(PredictionApiTest, CountsQueries) {
  nn::Plnn net = MakeNet();
  PredictionApi api(&net);
  EXPECT_EQ(api.query_count(), 0u);
  Vec x = {0.1, 0.2, 0.3, 0.4};
  api.Predict(x);
  api.Predict(x);
  EXPECT_EQ(api.query_count(), 2u);
  api.ResetQueryCount();
  EXPECT_EQ(api.query_count(), 0u);
}

TEST(PredictionApiTest, RoundingTruncatesProbabilities) {
  nn::Plnn net = MakeNet();
  PredictionApi exact(&net);
  PredictionApi rounded(&net, /*round_digits=*/2);
  Vec x = {0.7, 0.1, 0.9, 0.2};
  Vec y_exact = exact.Predict(x);
  Vec y_rounded = rounded.Predict(x);
  for (size_t c = 0; c < 3; ++c) {
    EXPECT_NEAR(y_rounded[c], y_exact[c], 0.005 + 1e-12);
    // Every rounded value is a multiple of 0.01.
    double scaled = y_rounded[c] * 100.0;
    EXPECT_NEAR(scaled, std::round(scaled), 1e-9);
  }
}

TEST(GroundTruthTest, CoreParametersAreColumnDifferences) {
  LocalLinearModel local;
  local.weights = linalg::Matrix{{1, 4, 7}, {2, 5, 8}};  // d=2, C=3
  local.bias = {0.5, 1.5, 3.5};
  CoreParameters p = GroundTruthCoreParameters(local, 0, 2);
  EXPECT_EQ(p.d, (Vec{1.0 - 7.0, 2.0 - 8.0}));
  EXPECT_DOUBLE_EQ(p.b, 0.5 - 3.5);
  // Antisymmetry.
  CoreParameters q = GroundTruthCoreParameters(local, 2, 0);
  EXPECT_EQ(q.d, (Vec{6.0, 6.0}));
  EXPECT_DOUBLE_EQ(q.b, 3.0);
}

TEST(GroundTruthTest, DecisionFeaturesAreAveragedDifferences) {
  LocalLinearModel local;
  local.weights = linalg::Matrix{{1, 4, 7}, {2, 5, 8}};
  local.bias = {0, 0, 0};
  // D_0 = ((W0-W1) + (W0-W2)) / 2 = ((-3,-3) + (-6,-6)) / 2 = (-4.5,-4.5).
  Vec d0 = GroundTruthDecisionFeatures(local, 0);
  EXPECT_DOUBLE_EQ(d0[0], -4.5);
  EXPECT_DOUBLE_EQ(d0[1], -4.5);
  // Sum over classes of D_c is zero (each pair cancels).
  Vec d1 = GroundTruthDecisionFeatures(local, 1);
  Vec d2 = GroundTruthDecisionFeatures(local, 2);
  for (size_t j = 0; j < 2; ++j) {
    EXPECT_NEAR(d0[j] + d1[j] + d2[j], 0.0, 1e-12);
  }
}

TEST(GroundTruthTest, BinaryClassDecisionFeaturesAreExactlyDcc) {
  LocalLinearModel local;
  local.weights = linalg::Matrix{{1, 3}, {-2, 5}};
  local.bias = {0, 0};
  Vec d0 = GroundTruthDecisionFeatures(local, 0);
  CoreParameters p = GroundTruthCoreParameters(local, 0, 1);
  EXPECT_EQ(d0, p.d);
}

TEST(GroundTruthTest, RegionDifferenceDetectsForeignProbe) {
  nn::Plnn net = MakeNet(7);
  util::Rng rng(8);
  Vec x0 = rng.UniformVector(4, 0.2, 0.8);
  // Probes glued to x0: same region.
  std::vector<Vec> close;
  for (int i = 0; i < 5; ++i) {
    Vec p = x0;
    for (double& v : p) v += rng.Uniform(-1e-12, 1e-12);
    close.push_back(p);
  }
  EXPECT_EQ(RegionDifference(net, x0, close), 0);

  // Find a probe in a different region; at distance ~1 one almost surely
  // exists for a random ReLU net.
  std::vector<Vec> far = close;
  bool found = false;
  for (int i = 0; i < 200 && !found; ++i) {
    Vec p = rng.UniformVector(4, 0, 1);
    if (net.RegionId(p) != net.RegionId(x0)) {
      far.push_back(p);
      found = true;
    }
  }
  ASSERT_TRUE(found);
  EXPECT_EQ(RegionDifference(net, x0, far), 1);
}

TEST(ProbabilityGradientTest, SumsToZeroAcrossClasses) {
  // sum_c dy_c/dx = d(1)/dx = 0.
  nn::Plnn net = MakeNet(9);
  util::Rng rng(10);
  Vec x = rng.UniformVector(4, 0, 1);
  LocalLinearModel local = net.LocalModelAt(x);
  Vec total(4, 0.0);
  for (size_t c = 0; c < 3; ++c) {
    linalg::Axpy(1.0, ProbabilityGradient(local, x, c), &total);
  }
  for (double v : total) EXPECT_NEAR(v, 0.0, 1e-12);
}

}  // namespace
}  // namespace openapi::api
