// Parameterized property tests on the paper's central invariants, swept
// across input dimensionalities, class counts, and network depths:
//
//   P1 (Theorem 2): whenever OpenAPI succeeds, its D_c equals the oracle's
//      ground truth to numerical precision.
//   P2 (Lemma 1):  the probe coefficient matrix is full rank — QR never
//      reports rank deficiency for uniform hypercube probes.
//   P3 (consistency): two runs with different probe randomness produce the
//      same D_c for the same x0.
//   P4 (region invariance): D_c is constant across a locally linear region.

#include <gtest/gtest.h>

#include "openapi/openapi.h"
#include "util/string_util.h"

namespace openapi {
namespace {

using linalg::Vec;

struct NetSpec {
  size_t dim;
  size_t num_classes;
  std::vector<size_t> hidden;

  std::vector<size_t> LayerSizes() const {
    std::vector<size_t> sizes;
    sizes.push_back(dim);
    sizes.insert(sizes.end(), hidden.begin(), hidden.end());
    sizes.push_back(num_classes);
    return sizes;
  }
};

std::string SpecName(const ::testing::TestParamInfo<NetSpec>& info) {
  // StrFormat, not "d" + std::to_string(...): GCC 12 reports a false
  // -Wrestrict inside libstdc++ for a literal + std::string&&.
  std::string name = util::StrFormat("d%zuc%zuh", info.param.dim,
                                     info.param.num_classes);
  for (size_t h : info.param.hidden) name += std::to_string(h) + "_";
  if (info.param.hidden.empty()) name += "0_";
  name.pop_back();
  return name;
}

class OpenApiPropertyTest : public ::testing::TestWithParam<NetSpec> {};

TEST_P(OpenApiPropertyTest, P1_ExactnessAcrossArchitectures) {
  const NetSpec& spec = GetParam();
  util::Rng init(1000 + spec.dim * 31 + spec.num_classes);
  nn::Plnn net(spec.LayerSizes(), &init);
  api::PredictionApi api(&net);
  interpret::OpenApiInterpreter interpreter;
  util::Rng rng(2000 + spec.dim);
  for (int trial = 0; trial < 8; ++trial) {
    Vec x0 = rng.UniformVector(spec.dim, 0.05, 0.95);
    size_t c = rng.Index(spec.num_classes);
    auto result = interpreter.Interpret(api, x0, c, &rng);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    double err = eval::L1Dist(net, x0, c, result->dc);
    EXPECT_LT(err, 1e-6) << "trial " << trial;
  }
}

TEST_P(OpenApiPropertyTest, P2_ProbeMatrixAlwaysFullRank) {
  const NetSpec& spec = GetParam();
  util::Rng rng(3000 + spec.dim);
  for (int trial = 0; trial < 10; ++trial) {
    Vec x0 = rng.UniformVector(spec.dim, 0, 1);
    double r = std::pow(0.5, static_cast<double>(trial % 8));
    auto probes = interpret::SampleHypercube(x0, r, spec.dim + 1, &rng);
    linalg::Matrix a = interpret::BuildCoefficientMatrix(x0, probes);
    auto qr = linalg::QrDecomposition::Factor(a);
    EXPECT_TRUE(qr.ok()) << "r=" << r;
  }
}

TEST_P(OpenApiPropertyTest, P3_DeterministicAnswerDespiteRandomProbes) {
  const NetSpec& spec = GetParam();
  util::Rng init(4000 + spec.dim);
  nn::Plnn net(spec.LayerSizes(), &init);
  api::PredictionApi api(&net);
  interpret::OpenApiInterpreter interpreter;
  util::Rng rng_a(1), rng_b(99999);  // totally different probe streams
  Vec x0 = util::Rng(5000 + spec.dim).UniformVector(spec.dim, 0.1, 0.9);
  size_t c = spec.num_classes - 1;
  auto a = interpreter.Interpret(api, x0, c, &rng_a);
  auto b = interpreter.Interpret(api, x0, c, &rng_b);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_LT(linalg::L1Distance(a->dc, b->dc), 1e-6);
}

TEST_P(OpenApiPropertyTest, P4_ConstantWithinRegion) {
  const NetSpec& spec = GetParam();
  util::Rng init(6000 + spec.dim);
  nn::Plnn net(spec.LayerSizes(), &init);
  api::PredictionApi api(&net);
  interpret::OpenApiInterpreter interpreter;
  util::Rng rng(7000 + spec.dim);
  int pairs = 0;
  for (int trial = 0; trial < 40 && pairs < 4; ++trial) {
    Vec x0 = rng.UniformVector(spec.dim, 0.1, 0.9);
    Vec x1 = x0;
    for (double& v : x1) v += rng.Uniform(-1e-10, 1e-10);
    if (net.RegionId(x0) != net.RegionId(x1)) continue;
    ++pairs;
    size_t c = 0;
    auto r0 = interpreter.Interpret(api, x0, c, &rng);
    auto r1 = interpreter.Interpret(api, x1, c, &rng);
    ASSERT_TRUE(r0.ok());
    ASSERT_TRUE(r1.ok());
    EXPECT_LT(linalg::L1Distance(r0->dc, r1->dc), 1e-6);
  }
  EXPECT_GE(pairs, 4);
}

INSTANTIATE_TEST_SUITE_P(
    Architectures, OpenApiPropertyTest,
    ::testing::Values(NetSpec{2, 2, {4}},          // minimal binary
                      NetSpec{3, 3, {}},           // pure softmax regression
                      NetSpec{4, 2, {6, 5}},       // deep binary
                      NetSpec{6, 3, {10, 8}},      // mid-size
                      NetSpec{8, 5, {12}},         // more classes
                      NetSpec{12, 4, {16, 10}},    // wider input
                      NetSpec{20, 10, {24}}),      // 10-class like the paper
    SpecName);

// Theorem 1's sweep: across dimensions, the naive method at a large h has
// strictly worse worst-case error than OpenAPI on the same instances.
class NaiveVsOpenApiTest : public ::testing::TestWithParam<size_t> {};

TEST_P(NaiveVsOpenApiTest, OpenApiDominatesWorstCase) {
  const size_t d = GetParam();
  util::Rng init(8000 + d);
  nn::Plnn net({d, 2 * d, 3}, &init);
  api::PredictionApi api(&net);
  interpret::OpenApiInterpreter openapi_method;
  interpret::NaiveConfig naive_config;
  naive_config.perturbation_distance = 0.25;
  interpret::NaiveInterpreter naive(naive_config);
  util::Rng rng(9000 + d);
  double worst_openapi = 0.0, worst_naive = 0.0;
  for (int trial = 0; trial < 10; ++trial) {
    Vec x0 = rng.UniformVector(d, 0.2, 0.8);
    auto oa = openapi_method.Interpret(api, x0, 0, &rng);
    auto nv = naive.Interpret(api, x0, 0, &rng);
    ASSERT_TRUE(oa.ok());
    if (!nv.ok()) continue;
    worst_openapi =
        std::max(worst_openapi, eval::L1Dist(net, x0, 0, oa->dc));
    worst_naive = std::max(worst_naive, eval::L1Dist(net, x0, 0, nv->dc));
  }
  EXPECT_LT(worst_openapi, 1e-6);
  EXPECT_GT(worst_naive, worst_openapi);
}

INSTANTIATE_TEST_SUITE_P(Dims, NaiveVsOpenApiTest,
                         ::testing::Values(4, 6, 8, 12));

}  // namespace
}  // namespace openapi
