#include "extract/boundary.h"

namespace openapi::extract {

bool MatchesLocalModel(const api::PredictionApi& api,
                       const LocalLinearModel& model, const linalg::Vec& x) {
  // analyze: direct-probe(exact-predicate validation probe: one point,
  // one query, checked against the local model in log-odds — the 2-query
  // accounting of the paper's Theorem 1 counts it explicitly)
  const interpret::ObservedOdds observed(api.Predict(x));
  linalg::Vec logits;
  return interpret::ExplainsObservation(model, x, observed,
                                       interpret::kDefaultMatchTol, &logits);
}

Result<BoundaryProbeResult> ProbeBoundary(
    const api::PredictionApi& api, const LocalLinearModel& model,
    const linalg::Vec& x0, const linalg::Vec& direction,
    const BoundaryProbeConfig& config) {
  if (direction.size() != x0.size()) {
    return Status::InvalidArgument("direction dimensionality mismatch");
  }
  if (linalg::Norm2(direction) == 0.0) {
    return Status::InvalidArgument("direction must be non-zero");
  }
  BoundaryProbeResult result;

  // Counts the probe's own queries, one per match: the endpoint's shared
  // query_count() would also bill (and budget) a concurrent caller's.
  auto matches = [&](double t) {
    linalg::Vec x = x0;
    linalg::Axpy(t, direction, &x);
    ++result.queries;
    return MatchesLocalModel(api, model, x);
  };

  if (!matches(0.0)) {
    return Status::InvalidArgument(
        "x0 does not match the extracted model; extract at x0 first");
  }

  // Exponential march outward to bracket the first mismatch.
  double lo = 0.0;
  double hi = std::min(config.max_distance, 1e-3 * config.max_distance);
  if (hi <= 0.0) hi = config.max_distance;
  bool bracketed = false;
  while (result.queries < config.max_queries) {
    if (!matches(hi)) {
      bracketed = true;
      break;
    }
    lo = hi;
    if (hi >= config.max_distance) break;
    hi = std::min(config.max_distance, hi * 4.0);
  }
  if (!bracketed) {
    result.found = false;
    result.inside_distance = lo;
    return result;
  }

  // Bisection inside (lo, hi].
  while (hi - lo > config.distance_tol &&
         result.queries < config.max_queries) {
    double mid = 0.5 * (lo + hi);
    if (matches(mid)) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  result.found = true;
  result.inside_distance = lo;
  result.outside_distance = hi;
  return result;
}

}  // namespace openapi::extract
