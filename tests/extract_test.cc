// Tests for the reverse-engineering extension (src/extract): local model
// extraction, fingerprinting, boundary probing, and the surrogate clone.

#include <algorithm>
#include <cmath>

#include <gtest/gtest.h>

#include "extract/boundary.h"
#include "extract/local_model_extractor.h"
#include "extract/surrogate.h"
#include "lmt/lmt.h"
#include "data/synthetic.h"
#include "nn/plnn.h"

namespace openapi::extract {
namespace {

nn::Plnn MakeNet(uint64_t seed = 1) {
  util::Rng rng(seed);
  return nn::Plnn({5, 8, 3}, &rng);
}

TEST(ExtractorTest, CanonicalModelMatchesApiAtAnchor) {
  nn::Plnn net = MakeNet();
  api::PredictionApi api(&net);
  LocalModelExtractor extractor;
  util::Rng rng(2);
  for (int trial = 0; trial < 10; ++trial) {
    Vec x0 = rng.UniformVector(5, 0.1, 0.9);
    auto extracted = extractor.Extract(api, x0, &rng);
    ASSERT_TRUE(extracted.ok()) << extracted.status().ToString();
    Vec from_model = PredictWithLocalModel(extracted->model, x0);
    Vec from_api = net.Predict(x0);
    for (size_t c = 0; c < 3; ++c) {
      EXPECT_NEAR(from_model[c], from_api[c], 1e-9);
    }
  }
}

TEST(ExtractorTest, CanonicalModelMatchesApiThroughoutRegion) {
  nn::Plnn net = MakeNet(3);
  api::PredictionApi api(&net);
  LocalModelExtractor extractor;
  util::Rng rng(4);
  Vec x0 = rng.UniformVector(5, 0.2, 0.8);
  auto extracted = extractor.Extract(api, x0, &rng);
  ASSERT_TRUE(extracted.ok());
  uint64_t region0 = net.RegionId(x0);
  int checked = 0;
  for (int t = 0; t < 300 && checked < 30; ++t) {
    Vec x = x0;
    for (double& v : x) v += rng.Uniform(-0.05, 0.05);
    if (net.RegionId(x) != region0) continue;
    ++checked;
    Vec from_model = PredictWithLocalModel(extracted->model, x);
    Vec from_api = net.Predict(x);
    for (size_t c = 0; c < 3; ++c) {
      EXPECT_NEAR(from_model[c], from_api[c], 1e-8);
    }
  }
  EXPECT_GE(checked, 10);
}

TEST(ExtractorTest, CanonicalGaugeIsPinned) {
  nn::Plnn net = MakeNet(5);
  api::PredictionApi api(&net);
  LocalModelExtractor extractor;
  util::Rng rng(6);
  Vec x0 = rng.UniformVector(5, 0.2, 0.8);
  auto extracted = extractor.Extract(api, x0, &rng);
  ASSERT_TRUE(extracted.ok());
  // Column 0 of the canonical weights and bias[0] are identically zero.
  for (size_t j = 0; j < 5; ++j) {
    EXPECT_DOUBLE_EQ(extracted->model.weights(j, 0), 0.0);
  }
  EXPECT_DOUBLE_EQ(extracted->model.bias[0], 0.0);
}

TEST(ExtractorTest, CanonicalModelMatchesGaugedGroundTruth) {
  // The extracted columns must equal W_c - W_0 and b_c - b_0 of the true
  // local model (the canonical gauge of the hidden parameters).
  nn::Plnn net = MakeNet(7);
  api::PredictionApi api(&net);
  LocalModelExtractor extractor;
  util::Rng rng(8);
  Vec x0 = rng.UniformVector(5, 0.2, 0.8);
  auto extracted = extractor.Extract(api, x0, &rng);
  ASSERT_TRUE(extracted.ok());
  api::LocalLinearModel truth = net.LocalModelAt(x0);
  for (size_t c = 0; c < 3; ++c) {
    for (size_t j = 0; j < 5; ++j) {
      double expected = truth.weights(j, c) - truth.weights(j, 0);
      EXPECT_NEAR(extracted->model.weights(j, c), expected, 1e-7);
    }
    EXPECT_NEAR(extracted->model.bias[c], truth.bias[c] - truth.bias[0],
                1e-7);
  }
}

TEST(FingerprintTest, StableWithinRegionDistinctAcrossRegions) {
  nn::Plnn net = MakeNet(9);
  api::PredictionApi api(&net);
  LocalModelExtractor extractor;
  util::Rng rng(10);
  // Two extractions anchored at different points of the same region must
  // agree; extractions from different regions must differ.
  Vec x0 = rng.UniformVector(5, 0.2, 0.8);
  Vec x_same = x0;
  for (double& v : x_same) v += rng.Uniform(-1e-9, 1e-9);
  if (net.RegionId(x0) == net.RegionId(x_same)) {
    auto a = extractor.Extract(api, x0, &rng);
    auto b = extractor.Extract(api, x_same, &rng);
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok());
    EXPECT_EQ(a->fingerprint, b->fingerprint);
  }
  for (int t = 0; t < 200; ++t) {
    Vec x_other = rng.UniformVector(5, 0, 1);
    if (net.RegionId(x_other) == net.RegionId(x0)) continue;
    auto a = extractor.Extract(api, x0, &rng);
    auto b = extractor.Extract(api, x_other, &rng);
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok());
    EXPECT_NE(a->fingerprint, b->fingerprint);
    return;
  }
  FAIL() << "no foreign region found";
}

TEST(FingerprintTest, QuantizationAbsorbsSolverNoise) {
  LocalLinearModel model;
  model.weights = linalg::Matrix{{1.0, 2.0}, {3.0, 4.0}};
  model.bias = {0.5, -0.5};
  LocalLinearModel noisy = model;
  noisy.weights(0, 0) += 1e-12;
  EXPECT_EQ(Fingerprint(model, 1e-6), Fingerprint(noisy, 1e-6));
  LocalLinearModel different = model;
  different.weights(0, 0) += 0.1;
  EXPECT_NE(Fingerprint(model, 1e-6), Fingerprint(different, 1e-6));
}

/// Raw-entry hash: every stored entry quantized against the model's own
/// scale, with no gauge pinning. Region logs hold fingerprints of
/// canonical models, so a canonical model must hash exactly this way.
uint64_t RawEntryFingerprint(const LocalLinearModel& model,
                             double resolution) {
  double scale =
      std::max(model.weights.MaxAbs(), linalg::NormInf(model.bias));
  if (scale == 0.0) scale = 1.0;
  const double quantum = scale * resolution;
  uint64_t h = 1469598103934665603ULL;
  auto mix = [&h](int64_t v) {
    h ^= static_cast<uint64_t>(v);
    h *= 1099511628211ULL;
  };
  for (double w : model.weights.data()) {
    mix(static_cast<int64_t>(std::llround(w / quantum)));
  }
  for (double b : model.bias) {
    mix(static_cast<int64_t>(std::llround(b / quantum)));
  }
  mix(static_cast<int64_t>(model.weights.rows()));
  mix(static_cast<int64_t>(model.weights.cols()));
  return h;
}

TEST(FingerprintTest, CanonicalModelsHashBitIdenticallyToRawEntries) {
  util::Rng rng(31);
  for (int trial = 0; trial < 50; ++trial) {
    const size_t d = 1 + rng.Index(8);
    const size_t num_classes = 2 + rng.Index(6);
    std::vector<api::CoreParameters> pairs(num_classes - 1);
    for (api::CoreParameters& pair : pairs) {
      pair.d = rng.UniformVector(d, -3.0, 3.0);
      pair.b = rng.Uniform(-3.0, 3.0);
    }
    const LocalLinearModel canonical =
        interpret::CanonicalModelFromPairs(pairs, d);
    for (double resolution : {1e-6, 1e-3}) {
      EXPECT_EQ(Fingerprint(canonical, resolution),
                RawEntryFingerprint(canonical, resolution))
          << "trial " << trial;
    }
  }
}

TEST(FingerprintTest, GaugeShiftedModelHashesLikeItsCanonicalForm) {
  // softmax(W^T x + b) does not change when one vector is added to every
  // weight column and one scalar to every bias entry, so a white-box
  // model and its canonical form are one region and must hash alike.
  util::Rng rng(32);
  for (int trial = 0; trial < 50; ++trial) {
    const size_t d = 1 + rng.Index(8);
    const size_t num_classes = 2 + rng.Index(6);
    LocalLinearModel model;
    model.weights = linalg::Matrix(d, num_classes);
    for (size_t j = 0; j < d; ++j) {
      for (size_t c = 0; c < num_classes; ++c) {
        model.weights(j, c) = rng.Uniform(-2.0, 2.0);
      }
    }
    model.bias = rng.UniformVector(num_classes, -2.0, 2.0);
    LocalLinearModel canonical = model;
    for (size_t j = 0; j < d; ++j) {
      for (size_t c = 0; c < num_classes; ++c) {
        canonical.weights(j, c) = model.weights(j, c) - model.weights(j, 0);
      }
    }
    for (size_t c = 0; c < num_classes; ++c) {
      canonical.bias[c] = model.bias[c] - model.bias[0];
    }
    EXPECT_EQ(Fingerprint(model, 1e-6), Fingerprint(canonical, 1e-6))
        << "trial " << trial;
  }
}

TEST(BoundaryTest, FindsBoundaryCrossedByRay) {
  nn::Plnn net = MakeNet(11);
  api::PredictionApi api(&net);
  LocalModelExtractor extractor;
  util::Rng rng(12);
  // Find an anchor and a direction that crosses a boundary within 2.0.
  for (int attempt = 0; attempt < 50; ++attempt) {
    Vec x0 = rng.UniformVector(5, 0.3, 0.7);
    Vec direction = rng.GaussianVector(5, 0, 1);
    double norm = linalg::Norm2(direction);
    for (double& v : direction) v /= norm;
    Vec far = x0;
    linalg::Axpy(2.0, direction, &far);
    if (net.RegionId(far) == net.RegionId(x0)) continue;

    auto extracted = extractor.Extract(api, x0, &rng);
    ASSERT_TRUE(extracted.ok());
    BoundaryProbeConfig config;
    auto probe = ProbeBoundary(api, extracted->model, x0, direction, config);
    ASSERT_TRUE(probe.ok()) << probe.status().ToString();
    ASSERT_TRUE(probe->found);
    EXPECT_GT(probe->outside_distance, probe->inside_distance);
    EXPECT_LE(probe->outside_distance - probe->inside_distance,
              2 * config.distance_tol + 1e-12);
    // Verify against the white-box region oracle: inside point shares the
    // region, outside point does not (up to the bisection tolerance).
    Vec inside = x0;
    linalg::Axpy(probe->inside_distance * 0.999, direction, &inside);
    EXPECT_EQ(net.RegionId(inside), net.RegionId(x0));
    return;
  }
  FAIL() << "no boundary-crossing ray found";
}

TEST(BoundaryTest, ReportsNoBoundaryWhenRayStaysInside) {
  nn::Plnn net = MakeNet(13);
  api::PredictionApi api(&net);
  LocalModelExtractor extractor;
  util::Rng rng(14);
  for (int attempt = 0; attempt < 100; ++attempt) {
    Vec x0 = rng.UniformVector(5, 0.3, 0.7);
    Vec direction = rng.GaussianVector(5, 0, 1);
    double norm = linalg::Norm2(direction);
    for (double& v : direction) v /= norm;
    BoundaryProbeConfig config;
    config.max_distance = 1e-6;  // so short it almost surely stays inside
    Vec far = x0;
    linalg::Axpy(config.max_distance, direction, &far);
    if (net.RegionId(far) != net.RegionId(x0)) continue;
    auto extracted = extractor.Extract(api, x0, &rng);
    ASSERT_TRUE(extracted.ok());
    auto probe = ProbeBoundary(api, extracted->model, x0, direction, config);
    ASSERT_TRUE(probe.ok());
    EXPECT_FALSE(probe->found);
    return;
  }
  FAIL() << "could not construct an inside ray";
}

TEST(BoundaryTest, MatchesWhiteBoxBisectionOnConfidentEndpoint) {
  // Inputs scaled by 100 make the endpoint confident: p_max is within
  // ~1e-9 of 1, so the non-argmax probabilities on both sides of a
  // boundary differ by less than any absolute probability tolerance.
  // The log-odds match still sees the boundary where the white-box
  // activation pattern changes.
  const size_t d = 16;
  const double s = 100.0;
  util::Rng init_rng(64);
  nn::Plnn net({d, 2 * d, d, 10}, &init_rng);
  api::PredictionApi api(&net);
  LocalModelExtractor extractor;
  util::Rng rng(65);
  BoundaryProbeConfig config;
  auto at = [](const Vec& x0, const Vec& direction, double t) {
    Vec x = x0;
    linalg::Axpy(t, direction, &x);
    return x;
  };
  size_t rays = 0;
  for (int attempt = 0; attempt < 200 && rays < 20; ++attempt) {
    Vec x0 = rng.UniformVector(d, 0.2, 0.8);
    for (double& v : x0) v *= s;
    Vec direction = rng.GaussianVector(d, 0, 1);
    const double norm = linalg::Norm2(direction);
    for (double& v : direction) v /= norm;
    const uint64_t region = net.RegionId(x0);
    if (net.RegionId(at(x0, direction, config.max_distance)) == region) {
      continue;
    }
    // White-box bisection: the region is convex, so along the ray it is
    // one interval [0, t*].
    double lo = 0.0, hi = config.max_distance;
    while (hi - lo > 1e-13) {
      const double mid = 0.5 * (lo + hi);
      (net.RegionId(at(x0, direction, mid)) == region ? lo : hi) = mid;
    }
    auto extracted = extractor.Extract(api, x0, &rng);
    ASSERT_TRUE(extracted.ok()) << extracted.status().ToString();
    auto probe = ProbeBoundary(api, extracted->model, x0, direction, config);
    ASSERT_TRUE(probe.ok()) << probe.status().ToString();
    ASSERT_TRUE(probe->found) << "ray " << rays;
    // Within 1e-6 relative. The match's resolution along a ray is
    // absolute (a relative log-odds tolerance over the logit slope past
    // the boundary), so the scale is floored at 0.1 for boundaries
    // close to x0.
    EXPECT_NEAR(probe->inside_distance, lo, 1e-6 * std::max(lo, 0.1))
        << "ray " << rays;
    ++rays;
  }
  EXPECT_EQ(rays, 20u);
}

/// An endpoint shared with another client: every Predict first serves
/// one query of someone else's traffic at an unrelated point.
class SharedEndpointApi : public api::PredictionApi {
 public:
  using api::PredictionApi::PredictionApi;
  Vec Predict(const Vec& x) const override {
    (void)api::PredictionApi::Predict(Vec(x.size(), 0.0));
    return api::PredictionApi::Predict(x);
  }
};

TEST(BoundaryTest, CountsOnlyItsOwnQueriesOnASharedEndpoint) {
  nn::Plnn net = MakeNet(11);
  api::PredictionApi api(&net);
  SharedEndpointApi shared(&net);
  LocalModelExtractor extractor;
  util::Rng rng(12);
  for (int attempt = 0; attempt < 50; ++attempt) {
    Vec x0 = rng.UniformVector(5, 0.3, 0.7);
    Vec direction = rng.GaussianVector(5, 0, 1);
    const double norm = linalg::Norm2(direction);
    for (double& v : direction) v /= norm;
    Vec far = x0;
    linalg::Axpy(2.0, direction, &far);
    if (net.RegionId(far) == net.RegionId(x0)) continue;
    auto extracted = extractor.Extract(api, x0, &rng);
    ASSERT_TRUE(extracted.ok());
    BoundaryProbeConfig config;
    auto plain = ProbeBoundary(api, extracted->model, x0, direction, config);
    ASSERT_TRUE(plain.ok() && plain->found);
    // The default budget, then one the plain probe uses up exactly: the
    // other client's queries must neither be billed to the probe nor
    // shorten its bisection.
    for (uint64_t budget : {uint64_t{config.max_queries}, plain->queries}) {
      config.max_queries = budget;
      const uint64_t before = shared.query_count();
      auto probe =
          ProbeBoundary(shared, extracted->model, x0, direction, config);
      ASSERT_TRUE(probe.ok() && probe->found);
      EXPECT_EQ(probe->queries, plain->queries);
      EXPECT_EQ(shared.query_count() - before, 2 * plain->queries);
      EXPECT_EQ(probe->inside_distance, plain->inside_distance);
      EXPECT_EQ(probe->outside_distance, plain->outside_distance);
    }
    return;
  }
  FAIL() << "no boundary-crossing ray found";
}

TEST(BoundaryTest, RejectsBadArguments) {
  nn::Plnn net = MakeNet(15);
  api::PredictionApi api(&net);
  LocalModelExtractor extractor;
  util::Rng rng(16);
  Vec x0 = rng.UniformVector(5, 0.2, 0.8);
  auto extracted = extractor.Extract(api, x0, &rng);
  ASSERT_TRUE(extracted.ok());
  BoundaryProbeConfig config;
  EXPECT_TRUE(ProbeBoundary(api, extracted->model, x0, Vec{1.0}, config)
                  .status()
                  .IsInvalidArgument());
  EXPECT_TRUE(ProbeBoundary(api, extracted->model, x0, Vec(5, 0.0), config)
                  .status()
                  .IsInvalidArgument());
}

TEST(SurrogateTest, ExactInsideAbsorbedRegions) {
  nn::Plnn net = MakeNet(17);
  api::PredictionApi api(&net);
  LocalModelExtractor extractor;
  SurrogatePlm surrogate(5, 3);
  util::Rng rng(18);

  Vec x0 = rng.UniformVector(5, 0.3, 0.7);
  auto added = surrogate.AbsorbRegionAt(api, x0, extractor, &rng);
  ASSERT_TRUE(added.ok());
  EXPECT_TRUE(*added);
  EXPECT_EQ(surrogate.num_regions(), 1u);
  EXPECT_GT(surrogate.total_build_queries(), 0u);

  // Points in x0's region are predicted exactly.
  uint64_t region0 = net.RegionId(x0);
  int checked = 0;
  for (int t = 0; t < 300 && checked < 20; ++t) {
    Vec x = x0;
    for (double& v : x) v += rng.Uniform(-0.03, 0.03);
    if (net.RegionId(x) != region0) continue;
    ++checked;
    Vec from_surrogate = surrogate.Predict(x);
    Vec from_api = net.Predict(x);
    for (size_t c = 0; c < 3; ++c) {
      EXPECT_NEAR(from_surrogate[c], from_api[c], 1e-8);
    }
  }
  EXPECT_GE(checked, 10);
}

TEST(SurrogateTest, DeduplicatesByFingerprint) {
  nn::Plnn net = MakeNet(19);
  api::PredictionApi api(&net);
  LocalModelExtractor extractor;
  SurrogatePlm surrogate(5, 3);
  util::Rng rng(20);
  Vec x0 = rng.UniformVector(5, 0.3, 0.7);
  auto first = surrogate.AbsorbRegionAt(api, x0, extractor, &rng);
  ASSERT_TRUE(first.ok());
  EXPECT_TRUE(*first);
  auto second = surrogate.AbsorbRegionAt(api, x0, extractor, &rng);
  ASSERT_TRUE(second.ok());
  EXPECT_FALSE(*second);  // same region, not re-added
  EXPECT_EQ(surrogate.num_regions(), 1u);
}

TEST(SurrogateTest, FidelityImprovesWithCoverage) {
  util::Rng data_rng(21);
  data::Dataset points =
      data::GenerateGaussianBlobs(5, 3, 120, 0.15, &data_rng);
  nn::Plnn net = MakeNet(22);
  api::PredictionApi api(&net);
  LocalModelExtractor extractor;
  SurrogatePlm surrogate(5, 3);
  util::Rng rng(23);

  std::vector<Vec> probes;
  for (size_t i = 60; i < 120; ++i) probes.push_back(points.x(i));

  // One region only.
  ASSERT_TRUE(surrogate.AbsorbRegionAt(api, points.x(0), extractor, &rng).ok());
  FidelityReport sparse = MeasureFidelity(surrogate, api, probes);

  // Absorb many more regions.
  for (size_t i = 1; i < 60; ++i) {
    (void)surrogate.AbsorbRegionAt(api, points.x(i), extractor, &rng);
  }
  FidelityReport dense = MeasureFidelity(surrogate, api, probes);
  EXPECT_GT(surrogate.num_regions(), 1u);
  // Label agreement is the quantity nearest-anchor routing improves
  // monotonically in practice; per-probe probability gaps can move either
  // way as new anchors re-route borderline probes, so only bound them.
  EXPECT_GE(dense.label_agreement, sparse.label_agreement);
  EXPECT_GT(dense.label_agreement, 0.85);
  EXPECT_LT(dense.mean_prob_gap, 0.1);
}

TEST(SurrogateTest, WorksOnLmtToo) {
  util::Rng data_rng(24);
  data::Dataset train =
      data::GenerateGaussianBlobs(4, 3, 400, 0.08, &data_rng);
  lmt::LmtConfig config;
  config.min_split_size = 60;
  config.max_depth = 3;
  config.accuracy_threshold = 1.01;
  lmt::LogisticModelTree tree = lmt::LogisticModelTree::Fit(train, config);
  api::PredictionApi api(&tree);
  LocalModelExtractor extractor;
  SurrogatePlm surrogate(4, 3);
  util::Rng rng(25);
  for (size_t i = 0; i < 40; ++i) {
    (void)surrogate.AbsorbRegionAt(api, train.x(i), extractor, &rng);
  }
  // The surrogate discovers at most num_leaves distinct regions.
  EXPECT_LE(surrogate.num_regions(), tree.num_leaves());
  EXPECT_GE(surrogate.num_regions(), 1u);
}

}  // namespace
}  // namespace openapi::extract
