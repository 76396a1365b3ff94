// End-to-end correctness of Algorithm 1: OpenAPI must recover the exact
// ground-truth decision features through the API alone, on both PLM
// families, for every class, across random instances.

#include "interpret/openapi_method.h"

#include <gtest/gtest.h>

#include <cmath>
#include <random>
#include <sstream>

#include "api/ground_truth.h"
#include "data/synthetic.h"
#include "eval/exactness.h"
#include "linalg/least_squares.h"
#include "lmt/lmt.h"
#include "nn/plnn.h"

namespace openapi::interpret {
namespace {

class OpenApiPlnnTest : public ::testing::Test {
 protected:
  OpenApiPlnnTest() : rng_(101), net_(MakeNet()), api_(&net_) {}

  static nn::Plnn MakeNet() {
    util::Rng rng(55);
    return nn::Plnn({6, 10, 8, 3}, &rng);
  }

  util::Rng rng_;
  nn::Plnn net_;
  api::PredictionApi api_;
};

TEST_F(OpenApiPlnnTest, RecoversExactDecisionFeatures) {
  OpenApiInterpreter interpreter;
  for (int trial = 0; trial < 25; ++trial) {
    Vec x0 = rng_.UniformVector(6, 0.05, 0.95);
    for (size_t c = 0; c < 3; ++c) {
      auto result = interpreter.Interpret(api_, x0, c, &rng_);
      ASSERT_TRUE(result.ok()) << result.status().ToString();
      Vec truth =
          api::GroundTruthDecisionFeatures(net_.LocalModelAt(x0), c);
      EXPECT_LT(linalg::L1Distance(result->dc, truth), 1e-6)
          << "trial " << trial << " class " << c;
    }
  }
}

TEST_F(OpenApiPlnnTest, WorkspaceReuseDoesNotChangeResults) {
  // The workspace only changes WHERE the solver's scratch lives: an
  // externally supplied workspace serving several requests in a row must
  // give bit-identical results, probe draws, and query counts to a
  // request-local workspace, without one request contaminating the next.
  OpenApiInterpreter interpreter;
  SolverWorkspace shared_workspace;
  util::Rng rng_a(401);
  util::Rng rng_b(401);
  for (int trial = 0; trial < 5; ++trial) {
    Vec x0 = rng_.UniformVector(6, 0.05, 0.95);
    RequestCost cost_a, cost_b;
    auto with_reuse =
        interpreter.InterpretCounted(api_, x0, 0, &rng_a, &cost_a, {},
                                     nullptr, &shared_workspace);
    auto without = interpreter.InterpretCounted(
        api_, x0, 0, &rng_b, &cost_b, {}, nullptr,
        /*workspace=*/nullptr);
    ASSERT_TRUE(with_reuse.ok());
    ASSERT_TRUE(without.ok());
    EXPECT_EQ(with_reuse->dc, without->dc) << "trial " << trial;
    EXPECT_EQ(with_reuse->probes, without->probes) << "trial " << trial;
    EXPECT_EQ(cost_a.queries, cost_b.queries) << "trial " << trial;
  }
}

TEST_F(OpenApiPlnnTest, PairEstimatesMatchGroundTruthCoreParameters) {
  OpenApiInterpreter interpreter;
  Vec x0 = rng_.UniformVector(6, 0.1, 0.9);
  const size_t c = 1;
  auto result = interpreter.Interpret(api_, x0, c, &rng_);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->pairs.size(), 2u);  // C-1
  api::LocalLinearModel local = net_.LocalModelAt(x0);
  size_t pair_idx = 0;
  for (size_t c_prime = 0; c_prime < 3; ++c_prime) {
    if (c_prime == c) continue;
    api::CoreParameters truth =
        api::GroundTruthCoreParameters(local, c, c_prime);
    EXPECT_LT(linalg::L1Distance(result->pairs[pair_idx].d, truth.d), 1e-6);
    EXPECT_NEAR(result->pairs[pair_idx].b, truth.b, 1e-6);
    ++pair_idx;
  }
}

TEST_F(OpenApiPlnnTest, AcceptedProbesShareTheRegion) {
  // Theorem 2's contrapositive in practice: when OpenAPI accepts a probe
  // set, those probes lie in x0's locally linear region (up to the
  // probability-0 exceptions).
  OpenApiInterpreter interpreter;
  for (int trial = 0; trial < 10; ++trial) {
    Vec x0 = rng_.UniformVector(6, 0.1, 0.9);
    auto result = interpreter.Interpret(api_, x0, 0, &rng_);
    ASSERT_TRUE(result.ok());
    EXPECT_EQ(api::RegionDifference(net_, x0, result->probes), 0);
  }
}

/// Rays the solver's screen probes per edge (kScreenRays in
/// openapi_method.cc).
constexpr size_t kScreenRays = 2;

/// The number of rounds R a request with `screened_edges` = E
/// non-degenerate edges sent, from the screened cost formula
/// queries = 1 + k + k*E + (d+1-k)*R. Fails the test when `queries` fits
/// no whole R in [1, E].
size_t RoundsSent(uint64_t queries, size_t screened_edges, size_t d) {
  const uint64_t screen = 1 + kScreenRays + kScreenRays * screened_edges;
  EXPECT_GE(queries, screen);
  const uint64_t tail = queries - screen;
  const size_t row_cost = d + 1 - kScreenRays;
  EXPECT_EQ(tail % row_cost, 0u) << "queries " << queries;
  const size_t rounds = static_cast<size_t>(tail / row_cost);
  EXPECT_GE(rounds, 1u);
  EXPECT_LE(rounds, screened_edges);
  return rounds;
}

TEST_F(OpenApiPlnnTest, ReportsQueriesAndIterations) {
  OpenApiInterpreter interpreter;
  Vec x0 = rng_.UniformVector(6, 0.1, 0.9);
  api_.ResetQueryCount();
  auto result = interpreter.Interpret(api_, x0, 0, &rng_);
  ASSERT_TRUE(result.ok());
  EXPECT_GE(result->iterations, 1u);
  EXPECT_LE(result->iterations, 100u);
  // The x0 query, the screen's 2 far probes, its 2 near probes at every
  // edge, and the d+1-2 unscreened rows of each round it let through —
  // at most the unscreened loop's d+1 per edge plus the 2 far probes.
  RoundsSent(result->queries, result->iterations, 6);
  EXPECT_LE(result->queries, result->iterations * 7 + 1 + kScreenRays);
  EXPECT_EQ(api_.query_count(), result->queries);
  EXPECT_EQ(result->probes.size(), 7u);
  // Edge length follows the halving schedule.
  EXPECT_NEAR(result->edge_length,
              std::pow(0.5, static_cast<double>(result->iterations - 1)),
              1e-12);
}

TEST_F(OpenApiPlnnTest, TerminatesWellWithinPaperBound) {
  // The paper reports always terminating in < 20 iterations.
  OpenApiInterpreter interpreter;
  size_t max_iterations = 0;
  for (int trial = 0; trial < 30; ++trial) {
    Vec x0 = rng_.UniformVector(6, 0.05, 0.95);
    auto result = interpreter.Interpret(api_, x0, trial % 3, &rng_);
    ASSERT_TRUE(result.ok());
    max_iterations = std::max(max_iterations, result->iterations);
  }
  EXPECT_LT(max_iterations, 20u);
}

TEST_F(OpenApiPlnnTest, RejectsBadArguments) {
  OpenApiInterpreter interpreter;
  Vec wrong_dim = {0.1, 0.2};
  EXPECT_TRUE(interpreter.Interpret(api_, wrong_dim, 0, &rng_)
                  .status()
                  .IsInvalidArgument());
  Vec x0 = rng_.UniformVector(6, 0, 1);
  EXPECT_TRUE(interpreter.Interpret(api_, x0, 99, &rng_)
                  .status()
                  .IsInvalidArgument());
}

TEST_F(OpenApiPlnnTest, RoundedApiCannotProduceExactFeatures) {
  // Rounding breaks the exact linear identity, so at useful edge lengths
  // every probe set is inconsistent. Two legal outcomes, both of which the
  // caller can detect: DidNotConverge, or — once r has shrunk so far that
  // the rounded predictions are constant across the probe set — a
  // degenerate near-zero D_c. What must NOT happen is a "successful"
  // answer close to the truth with a wrong probe set.
  api::PredictionApi rounded(&net_, /*round_digits=*/3);
  OpenApiConfig config;
  config.max_iterations = 60;
  OpenApiInterpreter interpreter(config);
  Vec x0 = rng_.UniformVector(6, 0.2, 0.8);
  Vec truth = api::GroundTruthDecisionFeatures(net_.LocalModelAt(x0), 0);
  auto result = interpreter.Interpret(rounded, x0, 0, &rng_);
  if (result.ok()) {
    EXPECT_LT(linalg::Norm2(result->dc), 0.01 * linalg::Norm2(truth));
  } else {
    EXPECT_TRUE(result.status().IsDidNotConverge());
  }
}

TEST_F(OpenApiPlnnTest, UnsaturatedRequestFactorsOnce) {
  // The unsaturated path factors its direction matrix once per request,
  // however many edges the shrink loop tries.
  OpenApiInterpreter interpreter;
  SolverWorkspace ws;
  size_t multi_iteration_requests = 0;
  for (int trial = 0; trial < 20; ++trial) {
    Vec x0 = rng_.UniformVector(6, 0.05, 0.95);
    RequestCost cost;
    auto result = interpreter.InterpretCounted(api_, x0, trial % 3, &rng_,
                                               &cost, {}, nullptr, &ws);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_EQ(ws.factorizations, 1u) << "trial " << trial;
    if (result->iterations >= 3) ++multi_iteration_requests;
  }
  EXPECT_GE(multi_iteration_requests, 5u);
}

/// Undoes y = x ^ ((x >> shift) & mask) (shift > 0) or
/// y = x ^ ((x << -shift) & mask) (shift < 0), one of the invertible
/// steps of the Mersenne Twister's output tempering.
uint64_t UndoXorShift(uint64_t y, int shift, uint64_t mask) {
  uint64_t x = y;
  for (int i = 0; i < 64; ++i) {
    x = y ^ ((shift > 0 ? x >> shift : x << -shift) & mask);
  }
  return x;
}

/// Loads `rng` with a std::mt19937_64 state whose next `count` outputs
/// are 2^63 — Uniform(-1, 1) then returns exactly 0.0 — and whose later
/// outputs are ordinary pseudo-random words. Uses libstdc++'s textual
/// engine state: the 312 state words, then the next output's position.
void RigZeroDraws(size_t count, util::Rng* rng) {
  uint64_t word = uint64_t{1} << 63;  // untemper 2^63
  word = UndoXorShift(word, 43, ~uint64_t{0});
  word = UndoXorShift(word, -37, 0xfff7eee000000000ULL);
  word = UndoXorShift(word, -17, 0x71d67fffeda60000ULL);
  word = UndoXorShift(word, 29, 0x5555555555555555ULL);
  std::mt19937_64 filler(77);
  std::ostringstream state;
  for (size_t i = 0; i < std::mt19937_64::state_size; ++i) {
    state << (i < count ? word : filler()) << ' ';
  }
  state << 0;
  std::istringstream in(state.str());
  in >> rng->engine();
}

TEST_F(OpenApiPlnnTest, DegenerateDirectionDrawShrinksAndRedraws) {
#ifndef __GLIBCXX__
  GTEST_SKIP() << "rigs the engine through libstdc++'s state format";
#else
  // All-zero directions make [1|U] rank-deficient. The request must not
  // fail: that iteration sends no probes, shrinks, and the next one
  // redraws.
  const size_t d = 6;
  util::Rng rigged(1);
  RigZeroDraws(d * (d + 1), &rigged);
  {
    util::Rng check = rigged;
    for (size_t i = 0; i < d * (d + 1); ++i) {
      ASSERT_EQ(check.Uniform(-1.0, 1.0), 0.0) << "draw " << i;
    }
    ASSERT_NE(check.Uniform(-1.0, 1.0), 0.0);
  }
  OpenApiInterpreter interpreter;
  SolverWorkspace ws;
  Vec x0 = rng_.UniformVector(d, 0.1, 0.9);
  api_.ResetQueryCount();
  RequestCost cost;
  auto result = interpreter.InterpretCounted(api_, x0, 0, &rigged, &cost,
                                             {}, nullptr, &ws);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(ws.factorizations, 2u);
  EXPECT_GE(result->iterations, 2u);
  EXPECT_EQ(cost.iterations, result->iterations);
  EXPECT_LE(result->edge_length, 0.5);
  // The degenerate iteration cost no probes: the screen starts at the
  // redrawn edge, so only the later edges pay for it.
  RoundsSent(cost.queries, result->iterations - 1, d);
  EXPECT_EQ(api_.query_count(), cost.queries);
  Vec truth = api::GroundTruthDecisionFeatures(net_.LocalModelAt(x0), 0);
  EXPECT_LT(linalg::L1Distance(result->dc, truth), 1e-6);
#endif
}

TEST(OpenApiDirectionSolveTest, MatchesFreshFactorizationAtEveryEdge) {
  // One QR of [1|U] answers the system of every edge r: against a fresh
  // QR of [1 | x0 + r*U] it gives the same pair and the same consistency
  // verdict, down to r = 1e-6.
  const size_t d = 8;
  const double tol = OpenApiConfig{}.consistency_tol;
  util::Rng rng(61);
  for (int trial = 0; trial < 5; ++trial) {
    Vec x0 = rng.UniformVector(d, 0.05, 0.95);
    Matrix directions(d + 2, d + 1);
    directions(0, 0) = 1.0;
    for (size_t i = 1; i < d + 2; ++i) {
      directions(i, 0) = 1.0;
      for (size_t j = 0; j < d; ++j) {
        directions(i, j + 1) = rng.Uniform(-1.0, 1.0);
      }
    }
    auto direction_qr = linalg::QrDecomposition::Factor(directions);
    ASSERT_TRUE(direction_qr.ok());
    const Vec true_d = rng.UniformVector(d, -2.0, 2.0);
    const double true_b = rng.Uniform(-2.0, 2.0);
    for (double r : {1.0, 1e-2, 1e-4, 1e-6}) {
      std::vector<Vec> probes(d + 1, x0);
      for (size_t i = 0; i < d + 1; ++i) {
        for (size_t j = 0; j < d; ++j) {
          probes[i][j] += r * directions(i + 1, j + 1);
        }
      }
      auto fresh_qr =
          linalg::QrDecomposition::Factor(BuildCoefficientMatrix(x0, probes));
      ASSERT_TRUE(fresh_qr.ok());
      Vec consistent(d + 2);
      consistent[0] = true_b + linalg::Dot(true_d, x0);
      for (size_t i = 0; i < d + 1; ++i) {
        consistent[i + 1] = true_b + linalg::Dot(true_d, probes[i]);
      }
      Vec inconsistent = consistent;
      inconsistent[3] += 1e-4 * (1.0 + std::fabs(inconsistent[3]));
      for (const Vec* rhs : {&consistent, &inconsistent}) {
        const bool want_consistent = rhs == &consistent;
        linalg::LeastSquaresSolution fresh = fresh_qr->Solve(*rhs);
        EXPECT_EQ(linalg::IsConsistent(fresh, *rhs, tol), want_consistent)
            << "fresh QR, r=" << r;
        linalg::QrDecomposition::Scratch scratch;
        linalg::LeastSquaresSolution solution;
        CoreParameters pair;
        EXPECT_EQ(SolvePairAlongDirections(*direction_qr, x0, r, *rhs, tol,
                                           &scratch, &solution, &pair),
                  want_consistent)
            << "directions QR, r=" << r;
        if (!want_consistent) continue;
        const Vec fresh_d(fresh.x.begin() + 1, fresh.x.end());
        const double scale_d = linalg::NormInf(fresh_d);
        ASSERT_EQ(pair.d.size(), d);
        for (size_t j = 0; j < d; ++j) {
          EXPECT_NEAR(pair.d[j], fresh_d[j], 1e-8 * scale_d)
              << "r=" << r << " j=" << j;
        }
        EXPECT_NEAR(pair.b, fresh.x[0], 1e-8 * (1.0 + std::fabs(fresh.x[0])))
            << "r=" << r;
      }
    }
  }
}

TEST(OpenApiLmtTest, RecoversLeafClassifierFeatures) {
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

  api::PredictionApi api(&tree);
  OpenApiInterpreter interpreter;
  util::Rng rng(8);
  for (int trial = 0; trial < 15; ++trial) {
    const Vec& x0 = train.x(rng.Index(train.size()));
    size_t c = rng.Index(3);
    auto result = interpreter.Interpret(api, x0, c, &rng);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_LT(eval::L1Dist(tree, x0, c, result->dc), 1e-6);
  }
}

TEST(OpenApiBinaryTest, WorksWithTwoClasses) {
  // Binary classification: C-1 = 1 system; D_c = D_{c,c'} exactly.
  util::Rng init(9);
  nn::Plnn net({4, 6, 2}, &init);
  api::PredictionApi api(&net);
  OpenApiInterpreter interpreter;
  util::Rng rng(10);
  for (int trial = 0; trial < 10; ++trial) {
    Vec x0 = rng.UniformVector(4, 0.1, 0.9);
    auto result = interpreter.Interpret(api, x0, 1, &rng);
    ASSERT_TRUE(result.ok());
    Vec truth = api::GroundTruthDecisionFeatures(net.LocalModelAt(x0), 1);
    EXPECT_LT(linalg::L1Distance(result->dc, truth), 1e-7);
  }
}

TEST(OpenApiConfigTest, ValidatesParameters) {
  OpenApiConfig bad;
  bad.shrink_factor = 1.5;
  EXPECT_DEATH(OpenApiInterpreter{bad}, "shrink_factor");
}

}  // namespace
}  // namespace openapi::interpret
