// Black-box region-boundary probing.
//
// Once a locally linear classifier has been extracted at x0, the extracted
// model predicts the API's output exactly while x stays in x0's region and
// diverges the moment a boundary is crossed. That turns boundary location
// into a one-dimensional bisection along any ray: find the largest t such
// that the API still matches the extracted model at x0 + t * direction.
//
// This is the geometric primitive behind the paper's Fig. 1 discussion
// (how close an instance sits to its region boundary determines every
// fixed-h method's fate) and a building block for full reverse
// engineering: walking boundaries enumerates neighboring regions.

#ifndef OPENAPI_EXTRACT_BOUNDARY_H_
#define OPENAPI_EXTRACT_BOUNDARY_H_

#include "extract/local_model_extractor.h"

namespace openapi::extract {

struct BoundaryProbeConfig {
  double max_distance = 2.0;    // furthest t examined along the ray
  double distance_tol = 1e-9;   // bisection stops at this interval width
  size_t max_queries = 200;     // API query budget for one probe
};

/// [inside_distance, outside_distance] brackets the t where the match
/// predicate flips, which is not exactly the region boundary t*. Past t*
/// the endpoint's logit gaps leave the model's at a finite slope, and
/// the predicate accepts gaps within kDefaultMatchTol * (1 + |L|), so the
/// flip can lie up to about kDefaultMatchTol * (1 + |L|) /
/// |d(logit gap)/dt| beyond t* (6.6e-8 observed at d = 16 on inputs
/// scaled by 100, inside a bracket 1e-9 wide). outside - inside is the
/// bisection width, not the boundary's precision.
struct BoundaryProbeResult {
  /// True if a boundary was found within max_distance.
  bool found = false;
  /// Largest t still matching the extracted model (lower bisection bound).
  double inside_distance = 0.0;
  /// Smallest examined t that no longer matches (upper bound); only
  /// meaningful when found.
  double outside_distance = 0.0;
  /// API queries the probe spent: one per match evaluated, whatever
  /// else the endpoint serves meanwhile.
  uint64_t queries = 0;
};

/// Spends one query at x: true iff `model` explains the API's answer there
/// (interpret::ExplainsObservation at interpret::kDefaultMatchTol).
bool MatchesLocalModel(const api::PredictionApi& api,
                       const LocalLinearModel& model, const linalg::Vec& x);

/// Bisection along x0 + t * direction, t in (0, max_distance].
/// `direction` need not be normalized; distances are in units of its norm.
/// Requires x0 itself to match `model` (returns InvalidArgument if not).
Result<BoundaryProbeResult> ProbeBoundary(const api::PredictionApi& api,
                                          const LocalLinearModel& model,
                                          const linalg::Vec& x0,
                                          const linalg::Vec& direction,
                                          const BoundaryProbeConfig& config);

}  // namespace openapi::extract

#endif  // OPENAPI_EXTRACT_BOUNDARY_H_
