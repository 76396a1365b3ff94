// Test-side oracle of the unscreened shrink loop.
//
// The solver's unsaturated path screens each edge with two rays before
// it sends the edge's round (openapi_method.h). The screen may change
// only what a request spends: the round it accepts must be the round
// this loop accepts. This loop is plain Algorithm 1 over one direction
// draw: it sends all d+1 probes x0 + r*U at every edge. It uses the rng
// exactly as the solver does (one draw of U per request, a redraw after
// a degenerate draw), so a screened request and an oracle request on
// equal seeds can be compared bit for bit: decision features, pairs,
// probes, edge length and iterations. It covers anchors without a
// saturated class only. The saturated path draws fresh probes at every
// edge and has no screen, so the oracle refuses such anchors with
// FailedPrecondition.

#ifndef OPENAPI_TESTS_UNSCREENED_SHRINK_ORACLE_H_
#define OPENAPI_TESTS_UNSCREENED_SHRINK_ORACLE_H_

#include <limits>
#include <optional>
#include <utility>
#include <vector>

#include "interpret/openapi_method.h"
#include "linalg/qr.h"

namespace openapi::interpret::oracle {

/// Algorithm 1 without the ray screen. `cost->queries` ends as 1 +
/// (d+1) per non-degenerate edge visited; `cost->iterations` counts every
/// edge visited.
inline Result<Interpretation> UnscreenedInterpret(
    const OpenApiConfig& config, const api::PredictionApi& api, const Vec& x0,
    size_t c, util::Rng* rng, RequestCost* cost) {
  const size_t d = api.dim();
  const RequestOptions unlimited;
  std::vector<Vec> rows(1, x0);
  std::vector<Vec> predictions(1);
  OPENAPI_RETURN_NOT_OK(DispatchProbes(api, rows, unlimited, cost,
                                       &predictions, /*out_offset=*/0));
  const Vec y0 = predictions[0];
  for (double p : y0) {
    if (p < std::numeric_limits<double>::min()) {
      return Status::FailedPrecondition(
          "saturated anchor: the oracle covers the unsaturated path only");
    }
  }
  Matrix directions;  // [1|U], as the solver lays it out
  std::optional<linalg::QrDecomposition> qr;
  std::vector<Vec> probes(d + 1, Vec(d));
  double r = config.initial_edge;
  for (size_t iter = 0; iter < config.max_iterations; ++iter) {
    cost->iterations = iter + 1;
    if (!qr.has_value()) {
      directions = Matrix(d + 2, d + 1);
      directions(0, 0) = 1.0;
      for (size_t i = 1; i < d + 2; ++i) {
        directions(i, 0) = 1.0;
        for (size_t j = 0; j < d; ++j) {
          directions(i, j + 1) = rng->Uniform(-1.0, 1.0);
        }
      }
      Result<linalg::QrDecomposition> factored =
          linalg::QrDecomposition::Factor(directions);
      if (!factored.ok()) {
        r *= config.shrink_factor;
        continue;
      }
      qr = std::move(*factored);
    }
    for (size_t i = 0; i < d + 1; ++i) {
      for (size_t j = 0; j < d; ++j) {
        probes[i][j] = x0[j] + r * directions(i + 1, j + 1);
      }
    }
    predictions.assign(1, y0);
    predictions.resize(d + 2);
    OPENAPI_RETURN_NOT_OK(DispatchProbes(api, probes, unlimited, cost,
                                         &predictions, /*out_offset=*/1));
    std::vector<CoreParameters> pairs;
    bool consistent = true;
    for (size_t c_prime = 0; c_prime < api.num_classes() && consistent;
         ++c_prime) {
      if (c_prime == c) continue;
      Vec rhs;
      CoreParameters pair;
      linalg::QrDecomposition::Scratch scratch;
      linalg::LeastSquaresSolution solution;
      consistent = BuildLogOddsRhs(predictions, c, c_prime, &rhs).ok() &&
                   SolvePairAlongDirections(*qr, x0, r, rhs,
                                            config.consistency_tol, &scratch,
                                            &solution, &pair);
      pairs.push_back(std::move(pair));
    }
    if (!consistent) {
      r *= config.shrink_factor;
      continue;
    }
    Interpretation out;
    out.dc = CombinePairEstimates(pairs);
    out.pairs = std::move(pairs);
    out.probes = probes;
    out.iterations = iter + 1;
    out.edge_length = r;
    out.queries = cost->queries;
    return out;
  }
  return Status::DidNotConverge("no consistent probe set");
}

}  // namespace openapi::interpret::oracle

#endif  // OPENAPI_TESTS_UNSCREENED_SHRINK_ORACLE_H_
