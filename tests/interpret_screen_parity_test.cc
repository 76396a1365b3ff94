// OPENAPI_TEST_LABELS: fault
// The ray screen in front of the shrink loop's rounds (openapi_method.h)
// changes what an extraction spends and nothing else. Over PLNN (d = 6
// and d = 64), MaxOut, LMT and grid endpoints, every request runs twice
// on equal seeds: screened through the solver, and unscreened through
// the test-side oracle (unscreened_shrink_oracle.h). The two must agree
// bit for bit on the decision features, pairs, probes, edge and
// iteration count. The screened run must spend exactly what the endpoint
// counted, and at most the oracle's queries plus the screen's two far
// probes. Further cases: a pair whose probabilities saturate along a
// screened ray never skips a round, a max_queries sweep never
// overspends, and injected refusals of screen chunks keep the books
// exact.

#include <gtest/gtest.h>

#include <cstring>
#include <functional>
#include <limits>

#include "api/fault_injecting_api.h"
#include "data/synthetic.h"
#include "grid_plm.h"
#include "interpret/openapi_method.h"
#include "lmt/lmt.h"
#include "nn/maxout.h"
#include "nn/plnn.h"
#include "unscreened_shrink_oracle.h"
#include "util/clock.h"

namespace openapi::interpret {
namespace {

/// Rays the solver's screen probes per edge (kScreenRays in
/// openapi_method.cc).
constexpr size_t kScreenRays = 2;

bool SameBits(const Vec& a, const Vec& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

/// Expects the accepted rounds of two runs to be the same bits.
void ExpectSameAnswer(const Interpretation& got, const Interpretation& want,
                      size_t request) {
  EXPECT_TRUE(SameBits(got.dc, want.dc)) << "request " << request;
  ASSERT_EQ(got.pairs.size(), want.pairs.size()) << "request " << request;
  for (size_t k = 0; k < got.pairs.size(); ++k) {
    EXPECT_TRUE(SameBits(got.pairs[k].d, want.pairs[k].d))
        << "request " << request << " pair " << k;
    EXPECT_TRUE(SameBits(got.pairs[k].b, want.pairs[k].b))
        << "request " << request << " pair " << k;
  }
  ASSERT_EQ(got.probes.size(), want.probes.size()) << "request " << request;
  for (size_t i = 0; i < got.probes.size(); ++i) {
    EXPECT_TRUE(SameBits(got.probes[i], want.probes[i]))
        << "request " << request << " probe " << i;
  }
  EXPECT_TRUE(SameBits(got.edge_length, want.edge_length))
      << "request " << request;
  EXPECT_EQ(got.iterations, want.iterations) << "request " << request;
}

struct ParityTotals {
  size_t compared = 0;
  size_t saturated_anchors = 0;
  size_t requests_with_skips = 0;
  uint64_t screened_queries = 0;
  uint64_t oracle_queries = 0;
};

/// Runs screened-vs-oracle parity on `requests` anchors whose classes
/// are not saturated, drawn by `draw_x0`, adding into *totals. A
/// saturated anchor takes the unchanged saturated path and is counted,
/// not compared.
void RunParity(const api::Plm& plm, size_t requests, uint64_t seed,
               const std::function<Vec(util::Rng*)>& draw_x0,
               ParityTotals* out) {
  api::PredictionApi api(&plm);
  OpenApiInterpreter interpreter;
  SolverWorkspace ws;
  util::Rng inputs(seed);
  const size_t d = plm.dim();
  const size_t row_cost = d + 1 - kScreenRays;
  ParityTotals& totals = *out;
  for (size_t i = 0; totals.compared < requests && i < 2 * requests; ++i) {
    const Vec x0 = draw_x0(&inputs);
    const size_t c = inputs.Index(plm.num_classes());
    const uint64_t request_seed = util::Rng::MixSeed(seed, i);
    util::Rng oracle_rng(request_seed);
    RequestCost oracle_cost;
    auto want = oracle::UnscreenedInterpret(OpenApiConfig{}, api, x0, c,
                                            &oracle_rng, &oracle_cost);
    if (!want.ok() && want.status().IsFailedPrecondition()) {
      ++totals.saturated_anchors;
      continue;
    }
    ++totals.compared;
    util::Rng rng(request_seed);
    RequestCost cost;
    api.ResetQueryCount();
    auto got = interpreter.InterpretCounted(api, x0, c, &rng, &cost, {},
                                            nullptr, &ws);
    EXPECT_EQ(cost.queries, api.query_count()) << "request " << i;
    EXPECT_EQ(cost.iterations, oracle_cost.iterations) << "request " << i;
    // At every edge the screen's k near probes stand for k rows of the
    // next round, which the oracle pays within its d+1. On top, the
    // screen pays the k far probes once, and each round it skips saves
    // that round's d+1-k unscreened rows: screened = oracle + k -
    // (d+1-k) * skipped rounds.
    EXPECT_LE(cost.queries, oracle_cost.queries + kScreenRays)
        << "request " << i;
    const uint64_t saved = oracle_cost.queries + kScreenRays - cost.queries;
    EXPECT_EQ(saved % row_cost, 0u) << "request " << i;
    if (saved > 0) ++totals.requests_with_skips;
    totals.screened_queries += cost.queries;
    totals.oracle_queries += oracle_cost.queries;
    ASSERT_EQ(got.ok(), want.ok())
        << "request " << i << ": " << got.status().ToString() << " vs "
        << want.status().ToString();
    if (got.ok()) {
      EXPECT_EQ(got->queries, cost.queries) << "request " << i;
      ExpectSameAnswer(*got, *want, i);
    }
  }
  EXPECT_GE(totals.compared, requests);
  EXPECT_GT(totals.requests_with_skips, 0u);
  EXPECT_LE(totals.screened_queries, totals.oracle_queries);
}

Vec UniformIn(util::Rng* rng, size_t d, double lo, double hi) {
  return rng->UniformVector(d, lo, hi);
}

TEST(ScreenParityTest, PlnnSmallDimension) {
  util::Rng init(55);
  nn::Plnn net({6, 10, 8, 3}, &init);
  ParityTotals totals;
  RunParity(
      net, 300, 1,
      [](util::Rng* rng) { return UniformIn(rng, 6, 0.05, 0.95); }, &totals);
}

TEST(ScreenParityTest, PlnnDimension64SpendsUnderTwoFifths) {
  // The servebench cold-extraction network: about eleven edges per
  // extraction, nearly all of whose rounds the screen rejects.
  util::Rng init(64);
  nn::Plnn net({64, 128, 64, 10}, &init);
  ParityTotals totals;
  RunParity(
      net, 300, 2, [](util::Rng* rng) { return UniformIn(rng, 64, 0.0, 1.0); },
      &totals);
  EXPECT_LE(static_cast<double>(totals.screened_queries),
            0.4 * static_cast<double>(totals.oracle_queries));
}

TEST(ScreenParityTest, Maxout) {
  util::Rng init(3);
  nn::MaxoutPlnn net({8, 12, 10, 4}, /*pieces=*/3, &init);
  ParityTotals totals;
  RunParity(
      net, 300, 3, [](util::Rng* rng) { return UniformIn(rng, 8, 0.0, 1.0); },
      &totals);
}

TEST(ScreenParityTest, LogisticModelTree) {
  util::Rng data_rng(7);
  data::Dataset train =
      data::GenerateGaussianBlobs(5, 3, 400, 0.08, &data_rng);
  lmt::LmtConfig config;
  config.min_split_size = 60;
  config.max_depth = 3;
  config.accuracy_threshold = 1.01;  // force real splits
  config.leaf_config.max_iters = 80;
  lmt::LogisticModelTree tree = lmt::LogisticModelTree::Fit(train, config);
  ASSERT_GT(tree.num_leaves(), 1u);
  ParityTotals totals;
  RunParity(
      tree, 300, 4,
      [&train](util::Rng* rng) { return train.x(rng->Index(train.size())); },
      &totals);
}

TEST(ScreenParityTest, Grid) {
  util::Rng init(8);
  GridPlm grid(8, 10, /*k=*/12, &init);
  ParityTotals totals;
  RunParity(
      grid, 300, 5, [](util::Rng* rng) { return UniformIn(rng, 8, 0.0, 1.0); },
      &totals);
}

/// One linear region everywhere. Classes 0 and 1 have zero logits;
/// class 2's logit is -700 at the origin and falls or rises by 25 per
/// unit along every axis, so along about half the rays through an anchor
/// near the origin its probability drops from a normal double (~1e-304)
/// into the subnormals and to zero within the first edges.
class SteepClassPlm : public api::Plm {
 public:
  SteepClassPlm() {
    model_.weights = linalg::Matrix(kDim, 3);
    for (size_t j = 0; j < kDim; ++j) model_.weights(j, 2) = 25.0;
    model_.bias = {0.0, 0.0, -700.0};
  }
  size_t dim() const override { return kDim; }
  size_t num_classes() const override { return 3; }
  Vec Predict(const Vec& x) const override {
    return api::EvaluateLocalModel(model_, x);
  }

  static constexpr size_t kDim = 4;

 private:
  api::LocalLinearModel model_;
};

TEST(ScreenSaturationTest, SaturatedPairNeverSkipsARound) {
  // No ray through one linear region bends, so no round may be skipped:
  // every edge's round goes out, queries = 1 + k + (d+1)*E. What this
  // pins is the inconclusive rule. A subnormal class-2 probability on a
  // screened ray carries a log far less precise than the residual
  // tolerance; read as a conclusive pair it would fake a bend and skip
  // a round. The test counts the requests whose screened rays pass a
  // subnormal probability at one of their edges, so it knows it has
  // exercised that rule.
  SteepClassPlm plm;
  api::PredictionApi api(&plm);
  OpenApiInterpreter interpreter;
  const size_t d = SteepClassPlm::kDim;
  const double s = OpenApiConfig{}.shrink_factor;
  util::Rng inputs(12);
  size_t saturated_screens = 0;
  for (size_t i = 0; i < 300; ++i) {
    const Vec x0 = inputs.UniformVector(d, -0.01, 0.01);
    const uint64_t seed = util::Rng::MixSeed(12, i);
    // The screened rays are the first k rows of the request's U: replay
    // the draw and look at the points the screen probes.
    util::Rng replay(seed);
    std::vector<Vec> rays(kScreenRays, Vec(d));
    for (Vec& u : rays) {
      for (double& v : u) v = replay.Uniform(-1.0, 1.0);
    }
    util::Rng oracle_rng(seed);
    RequestCost oracle_cost;
    auto want = oracle::UnscreenedInterpret(OpenApiConfig{}, api, x0, 0,
                                            &oracle_rng, &oracle_cost);
    ASSERT_FALSE(!want.ok() && want.status().IsFailedPrecondition());
    util::Rng rng(seed);
    RequestCost cost;
    api.ResetQueryCount();
    auto got = interpreter.InterpretCounted(api, x0, 0, &rng, &cost);
    ASSERT_EQ(got.ok(), want.ok()) << "request " << i;
    EXPECT_EQ(cost.queries, api.query_count());
    EXPECT_EQ(cost.queries, 1 + kScreenRays + (d + 1) * cost.iterations)
        << "request " << i;
    if (got.ok()) ExpectSameAnswer(*got, *want, i);

    bool saw_subnormal = false;
    double r = 1.0;
    for (size_t edge = 0; edge <= cost.iterations; ++edge, r *= s) {
      for (const Vec& u : rays) {
        Vec x = x0;
        for (size_t j = 0; j < d; ++j) x[j] += r * u[j];
        const double p = plm.Predict(x)[2];
        saw_subnormal = saw_subnormal ||
                        (p > 0.0 && p < std::numeric_limits<double>::min());
      }
    }
    if (saw_subnormal) ++saturated_screens;
  }
  EXPECT_GE(saturated_screens, 30u);
}

TEST(ScreenBudgetTest, MaxQueriesSweepNeverOverspends) {
  // The first edge gates the far probes on top of a full round, every
  // later edge a full round: a budget at or above the unbudgeted cost
  // buys the same answer, and any smaller budget fails with
  // BudgetExhausted having spent at most the budget.
  util::Rng init(55);
  nn::Plnn net({6, 10, 8, 3}, &init);
  api::PredictionApi api(&net);
  OpenApiInterpreter interpreter;
  util::Rng inputs(21);
  for (int trial = 0; trial < 6; ++trial) {
    const Vec x0 = inputs.UniformVector(6, 0.05, 0.95);
    const size_t c = static_cast<size_t>(trial) % 3;
    const uint64_t seed = 100 + static_cast<uint64_t>(trial);
    util::Rng free_rng(seed);
    RequestCost free_cost;
    auto unbudgeted =
        interpreter.InterpretCounted(api, x0, c, &free_rng, &free_cost);
    ASSERT_TRUE(unbudgeted.ok());
    const uint64_t full = free_cost.queries;
    for (uint64_t budget = 1; budget <= full + 2; ++budget) {
      util::Rng rng(seed);
      RequestCost cost;
      api.ResetQueryCount();
      auto result = interpreter.InterpretCounted(
          api, x0, c, &rng, &cost, RequestOptions::WithBudget(budget));
      EXPECT_LE(cost.queries, budget) << "budget " << budget;
      EXPECT_EQ(cost.queries, api.query_count()) << "budget " << budget;
      ASSERT_EQ(result.ok(), budget >= full) << "budget " << budget;
      if (result.ok()) {
        EXPECT_EQ(cost.queries, full);
        ExpectSameAnswer(*result, *unbudgeted, trial);
      } else {
        EXPECT_TRUE(result.status().IsBudgetExhausted())
            << result.status().ToString();
      }
    }
  }
}

TEST(ScreenFaultTest, RefusedScreenChunksKeepTheBooksExact) {
  // Screen probes travel as their own small chunks through the
  // retry-aware dispatch. With 40% of attempts refused, screen and round
  // chunks alike get retried; refusals are zero-charge, so every request
  // still spends exactly what the endpoint counted and answers exactly
  // what it answers without faults.
  util::Rng init(16);
  nn::Plnn net({16, 24, 16, 4}, &init);
  api::PredictionApi inner(&net);
  api::FaultConfig fault;
  fault.transient_rate = 0.4;
  fault.max_consecutive_failures = 2;
  api::FaultInjectingApi api(&inner, fault);
  api::PredictionApi clean(&net);
  util::FakeClock clock;
  RequestOptions options;
  options.clock = &clock;  // backoff sleeps advance this, not the wall
  OpenApiInterpreter interpreter;
  util::Rng inputs(17);
  uint64_t retries = 0;
  for (size_t i = 0; i < 40; ++i) {
    const Vec x0 = inputs.UniformVector(16, 0.0, 1.0);
    const size_t c = i % 4;
    util::Rng clean_rng(500 + i);
    RequestCost clean_cost;
    auto want = interpreter.InterpretCounted(clean, x0, c, &clean_rng,
                                             &clean_cost);
    util::Rng rng(500 + i);
    RequestCost cost;
    api.ResetQueryCount();
    auto got = interpreter.InterpretCounted(api, x0, c, &rng, &cost, options);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    ASSERT_TRUE(want.ok());
    EXPECT_EQ(cost.queries, api.query_count()) << "request " << i;
    EXPECT_EQ(cost.queries, clean_cost.queries) << "request " << i;
    EXPECT_EQ(cost.wasted_queries, 0u);
    ExpectSameAnswer(*got, *want, i);
    retries += cost.retries;
  }
  EXPECT_GT(retries, 0u);
  EXPECT_EQ(retries, api.injected_failures());
}

}  // namespace
}  // namespace openapi::interpret
