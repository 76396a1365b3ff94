#include "interpret/openapi_method.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "linalg/least_squares.h"
#include "linalg/qr.h"
#include "util/string_util.h"
#include "util/timer.h"

namespace openapi::interpret {
namespace {

/// Rays of the request's direction draw the unsaturated path screens
/// before sending a round: rows 0..kScreenRays-1 of U. On a d = 64 PLNN,
/// 1, 2 and 4 rays cut an extraction from about 690 queries to about
/// 236, 200 and 180. At small d, 2 rays stay within about a query of 1,
/// and 4 rays cost 5-15 queries more.
constexpr size_t kScreenRays = 2;

/// Sizes ws->ref_pairs for num_classes - 1 pairs. Each pair's
/// coefficient buffer is reused by the assign() at the solve sites,
/// which sets its size itself.
void EnsurePairShapes(SolverWorkspace* ws, size_t num_classes) {
  ws->ref_pairs.resize(num_classes - 1);
}

/// Draws the request's d+1 probe directions u_i uniformly from [-1,1]^d
/// into *directions as [1|U]: row 0 = [1, 0^T] (the x0 row), row i+1 =
/// [1, u_i^T].
void DrawDirections(size_t d, util::Rng* rng, Matrix* directions) {
  directions->Resize(d + 2, d + 1);
  (*directions)(0, 0) = 1.0;
  for (size_t j = 0; j < d; ++j) (*directions)(0, j + 1) = 0.0;
  for (size_t i = 1; i < d + 2; ++i) {
    (*directions)(i, 0) = 1.0;
    for (size_t j = 0; j < d; ++j) {
      (*directions)(i, j + 1) = rng->Uniform(-1.0, 1.0);
    }
  }
}

/// The probes x0 + r*u_i for directions i = first .. first+count-1 into
/// *probes (rows reused). Every probe point of the unsaturated path —
/// screen rays, round tails, the accepted round — comes from this one
/// expression, so a screen point and the round row it stands for are the
/// same bits.
void ProbesAlongDirections(const Vec& x0, double r, const Matrix& directions,
                           size_t first, size_t count,
                           std::vector<Vec>* probes) {
  const size_t d = x0.size();
  probes->resize(count);
  for (size_t i = 0; i < count; ++i) {
    Vec& p = (*probes)[i];
    p.resize(d);
    const double* u = directions.RowPtr(first + i + 1) + 1;
    for (size_t j = 0; j < d; ++j) p[j] = x0[j] + r * u[j];
  }
}

/// The ray screen's verdict: true when some screened ray j provably left
/// x0's region, i.e. the log-odds of some pair against `ref` at t = 0
/// (y0), t = s (near[j]) and t = 1 (far[j]) along x0 + t*r*u_j are not
/// collinear: |L(s) - ((1-s)*L(0) + s*L(1))| > tol * (1 + max|L|). A pair
/// with a probability below kMinUsableProb at any of the three points is
/// inconclusive and never bends, and so is a NaN residual: only a
/// conclusive bend may skip a round.
bool AnyRayBends(const Vec& y0, const std::vector<Vec>& near,
                 const std::vector<Vec>& far, size_t ref, size_t num_classes,
                 double s, double tol) {
  for (size_t j = 0; j < far.size(); ++j) {
    const Vec* points[3] = {&y0, &near[j], &far[j]};
    for (size_t c_prime = 0; c_prime < num_classes; ++c_prime) {
      if (c_prime == ref) continue;
      bool usable = true;
      for (const Vec* y : points) {
        usable = usable && (*y)[ref] >= kMinUsableProb &&
                 (*y)[c_prime] >= kMinUsableProb;
      }
      if (!usable) continue;
      double odds[3];
      for (size_t t = 0; t < 3; ++t) {
        const Vec& y = *points[t];
        odds[t] = std::log(y[ref]) - std::log(y[c_prime]);
      }
      const double scale =
          1.0 + std::max({std::fabs(odds[0]), std::fabs(odds[1]),
                          std::fabs(odds[2])});
      const double bend = odds[1] - ((1.0 - s) * odds[0] + s * odds[2]);
      if (std::fabs(bend) > tol * scale) return true;
    }
  }
  return false;
}

/// Unsaturated path: all C-1 systems against the request's one direction
/// factorization (ws->qr). On success the solved pairs sit in
/// ws->ref_pairs. Returns false when a probe saturated or any pair is
/// inconsistent — both mean "shrink".
bool SolvePairsAlongDirections(const Vec& x0, double r, size_t ref,
                               size_t num_classes, double tol,
                               SolverWorkspace* ws) {
  EnsurePairShapes(ws, num_classes);
  size_t out = 0;
  for (size_t c_prime = 0; c_prime < num_classes; ++c_prime) {
    if (c_prime == ref) continue;
    if (!BuildLogOddsRhs(ws->predictions, ref, c_prime, &ws->rhs).ok()) {
      return false;  // probe saturation: shrink, retry
    }
    if (!SolvePairAlongDirections(ws->qr, x0, r, ws->rhs, tol,
                                  &ws->qr_scratch, &ws->solution,
                                  &ws->ref_pairs[out++])) {
      return false;
    }
  }
  return true;
}

/// Outcome of the saturation path's attempt. The distinction matters for
/// the retry policy: an inconsistent system is the boundary-crossing
/// signal and wants a SMALLER hypercube, while "too few usable rows" means
/// the probe draw landed mostly on the saturated side — a halfspace
/// through x0 that shrinking can never escape — and wants a plain redraw
/// at the SAME edge.
enum class MaskedOutcome { kOk, kTooFewRows, kShrink };

/// Saturation path: some y0[k] underflowed to 0, so rows of a pair's
/// system can be non-finite no matter how small the hypercube gets. Each
/// pair keeps only the rows where both of its probabilities have full
/// double precision (subnormals are treated as saturated: their log would
/// carry quantization error far above consistency_tol and poison the
/// residual test); the caller compensates with adaptive top-up draws so
/// the surviving system stays overdetermined (>= d+2 rows), preserving
/// the consistency certificate of Theorem 2. Pairs get their own QR
/// (ws->qr, refactored per pair) because their row masks differ; the
/// masked matrix, rhs, and row-index scratch also live in the workspace.
MaskedOutcome SolvePairsMaskedRows(const Vec& x0, size_t ref,
                                   size_t num_classes, double tol,
                                   SolverWorkspace* ws) {
  const size_t d = x0.size();
  const std::vector<Vec>& probes = ws->probes;
  const std::vector<Vec>& predictions = ws->predictions;
  EnsurePairShapes(ws, num_classes);
  size_t out = 0;
  for (size_t c_prime = 0; c_prime < num_classes; ++c_prime) {
    if (c_prime == ref) continue;
    // Row 0 is x0; row i+1 is probes[i].
    std::vector<size_t>& rows = ws->masked_rows;
    rows.clear();
    for (size_t row = 0; row < predictions.size(); ++row) {
      if (predictions[row][ref] >= kMinUsableProb &&
          predictions[row][c_prime] >= kMinUsableProb) {
        rows.push_back(row);
      }
    }
    if (rows.size() < d + 2) return MaskedOutcome::kTooFewRows;
    Matrix& a = ws->masked_coefficients;
    Vec& rhs = ws->masked_rhs;
    a.Resize(rows.size(), d + 1);
    rhs.resize(rows.size());
    for (size_t k = 0; k < rows.size(); ++k) {
      const Vec& point = rows[k] == 0 ? x0 : probes[rows[k] - 1];
      a(k, 0) = 1.0;
      for (size_t j = 0; j < d; ++j) a(k, j + 1) = point[j];
      auto odds = LogOdds(predictions[rows[k]], ref, c_prime);
      OPENAPI_CHECK(odds.ok());  // finite by the mask above
      rhs[k] = *odds;
    }
    ++ws->factorizations;
    if (!ws->qr.Refactor(a).ok()) return MaskedOutcome::kShrink;
    ws->qr.Solve(rhs, &ws->qr_scratch, &ws->solution);
    if (!linalg::IsConsistent(ws->solution, rhs, tol)) {
      return MaskedOutcome::kShrink;
    }
    CoreParameters& pair = ws->ref_pairs[out++];
    pair.b = ws->solution.x[0];
    pair.d.assign(ws->solution.x.begin() + 1, ws->solution.x.end());
  }
  return MaskedOutcome::kOk;
}

/// Worst usable-row deficit across all pairs against `ref`: how many more
/// usable rows the neediest pair requires to reach the overdetermined
/// d+2. Zero means every pair's masked system is solvable. Drives the
/// saturated path's adaptive top-up draws.
size_t MaxPairRowDeficit(const std::vector<Vec>& predictions, size_t ref,
                         size_t num_classes, size_t d) {
  size_t worst = 0;
  for (size_t c_prime = 0; c_prime < num_classes; ++c_prime) {
    if (c_prime == ref) continue;
    size_t usable = 0;
    for (const Vec& y : predictions) {
      if (y[ref] >= kMinUsableProb && y[c_prime] >= kMinUsableProb) {
        ++usable;
      }
    }
    const size_t needed = d + 2;
    worst = std::max(worst, usable < needed ? needed - usable : size_t{0});
  }
  return worst;
}

}  // namespace

bool SolvePairAlongDirections(const linalg::QrDecomposition& direction_qr,
                              const Vec& x0, double r, const Vec& rhs,
                              double tol,
                              linalg::QrDecomposition::Scratch* scratch,
                              linalg::LeastSquaresSolution* solution,
                              CoreParameters* pair) {
  const size_t d = x0.size();
  OPENAPI_CHECK_EQ(direction_qr.cols(), d + 1);
  direction_qr.Solve(rhs, scratch, solution);
  if (!linalg::IsConsistent(*solution, rhs, tol)) return false;
  // phi = T_r * theta with T_r = [[1, x0^T], [0, r*I]]: undo it.
  const Vec& phi = solution->x;
  pair->d.resize(d);
  double b = phi[0];
  for (size_t j = 0; j < d; ++j) {
    pair->d[j] = phi[j + 1] / r;
    b -= x0[j] * pair->d[j];
  }
  pair->b = b;
  return true;
}

void SolverWorkspace::Clear() {
  // Empty each row IN PLACE: vector::clear() on the outer vectors would
  // destroy the row Vecs and free their buffers, defeating the reuse.
  // The next request resizes rows back within their kept capacity, so a
  // Cleared workspace regrows nothing at its old shapes.
  for (Vec& p : probes) p.clear();
  for (Vec& y : predictions) y.clear();
  for (CoreParameters& pair : ref_pairs) pair.d.clear();
  for (std::vector<Vec>* rows :
       {&screen_points, &screen_far, &screen_near, &round_tail}) {
    for (Vec& row : *rows) row.clear();
  }
  rhs.clear();
  solution.x.clear();
  qr_scratch.qtb.clear();
  qr_scratch.ax.clear();
  masked_rows.clear();
  masked_rhs.clear();
  // Matrix::Resize keeps the data vector's capacity. `directions` and
  // `qr` are request state (see the header) and stay as they are.
  masked_coefficients.Resize(0, 0);
}

OpenApiInterpreter::OpenApiInterpreter(OpenApiConfig config)
    : config_(config) {
  OPENAPI_CHECK_GT(config_.max_iterations, 0u);
  OPENAPI_CHECK_GT(config_.initial_edge, 0.0);
  OPENAPI_CHECK(config_.shrink_factor > 0.0 && config_.shrink_factor < 1.0);
}

Result<Interpretation> OpenApiInterpreter::Interpret(
    const api::PredictionApi& api, const Vec& x0, size_t c,
    util::Rng* rng) const {
  RequestCost cost;
  return InterpretCounted(api, x0, c, rng, &cost);
}

Result<Interpretation> OpenApiInterpreter::InterpretCounted(
    const api::PredictionApi& api, const Vec& x0, size_t c, util::Rng* rng,
    RequestCost* cost, const RequestOptions& options, const Vec* y0_hint,
    SolverWorkspace* workspace) const {
  const size_t d = api.dim();
  const size_t num_classes = api.num_classes();
  if (x0.size() != d) {
    return Status::InvalidArgument("x0 dimensionality mismatch");
  }
  if (c >= num_classes) {
    return Status::InvalidArgument("class index out of range");
  }
  if (num_classes < 2) {
    return Status::InvalidArgument("need at least two classes");
  }
  SolverWorkspace local_workspace;
  SolverWorkspace* ws = workspace != nullptr ? workspace : &local_workspace;

  Vec y0;
  if (y0_hint != nullptr) {
    y0 = *y0_hint;  // anchor prediction already paid for by the caller
  } else {
    // The anchor is the request's first endpoint traffic: gate it
    // predictively (a deadline the estimated anchor latency already
    // blows rejects with zero queries), then route it through the same
    // retry-aware dispatch as every probe chunk — a transiently failing
    // endpoint costs the anchor a retry, never the request.
    OPENAPI_RETURN_NOT_OK(EnforceRequestOptions(options, cost->queries, 1,
                                                EffectiveRowLatency(api)));
    std::vector<Vec> anchor(1, x0);
    std::vector<Vec> anchor_prediction(1);
    OPENAPI_RETURN_NOT_OK(DispatchProbes(api, anchor, options, cost,
                                         &anchor_prediction,
                                         /*out_offset=*/0));
    y0 = std::move(anchor_prediction[0]);
  }

  // Saturation analysis at the anchor. A class whose probability
  // underflows at x0 (zero or subnormal) makes that class's log-ratios
  // non-finite or hopelessly imprecise in the x0 row of every iteration —
  // shrinking can never fix it. Solve against
  // a reference that cannot saturate (argmax(y0) >= 1/C) and with per-pair
  // row masking; adaptive top-up draws keep masked systems
  // overdetermined. The requested class's pairs are recovered from the
  // reference pairs by ConvertReferencePairs.
  bool x0_saturated = false;
  for (double p : y0) x0_saturated = x0_saturated || p < kMinUsableProb;
  const size_t ref = y0[c] >= kMinUsableProb ? c : linalg::ArgMax(y0);
  const size_t probes_per_iter = d + 1;

  // Grow the probe/prediction buffers to the request's worst case once:
  // base draw plus the saturated path's top-up cap (d+1 extra), plus the
  // prepended y0 row.
  ws->probes.reserve(2 * probes_per_iter);
  ws->predictions.reserve(2 * probes_per_iter + 1);

  ws->factorizations = 0;
  // Unsaturated path: whether ws->directions holds this request's draw
  // and ws->qr its factorization, and whether ws->screen_far holds the
  // screened rays' predictions at the current edge r.
  bool directions_factored = false;
  bool have_far = false;
  const size_t screen_rays = std::min(kScreenRays, probes_per_iter);
  double r = config_.initial_edge;
  for (size_t iter = 0; iter < config_.max_iterations; ++iter) {
    // The controls gate comes first: a request rejected here never
    // started this edge, so it is not counted in cost->iterations. The
    // gate covers everything the edge can spend — a full round (the
    // screen's near probes plus the round's unscreened rows, or the
    // saturated path's base draw), and at the first screened edge the
    // far probes too — since an edge the budget cannot finish is never
    // started: a partial probe set can't certify consistency. It is
    // deliberately NOT predictive for the deadline: the EWMA is an
    // estimate, and refusing whole edges on it would spuriously fail
    // feasible requests. The per-chunk gates inside DispatchProbes bound
    // the optimism to one chunk.
    const size_t far_probes = x0_saturated || have_far ? 0 : screen_rays;
    OPENAPI_RETURN_NOT_OK(CheckRequestControls(
        options, cost->queries, probes_per_iter + far_probes));
    cost->iterations = iter + 1;
    if (!x0_saturated) {
      if (!directions_factored) {
        // Draw and factor [1|U] before any probe is sent: a degenerate
        // draw (probability 0) costs no queries; it shrinks like an
        // inconsistent system and the next edge redraws.
        DrawDirections(d, rng, &ws->directions);
        ++ws->factorizations;
        if (!ws->qr.Refactor(ws->directions).ok()) {
          r *= config_.shrink_factor;
          continue;
        }
        directions_factored = true;
      }
      // The ray screen (see the header): the first screened edge probes
      // each screened ray at x0 + r*u_j, and every edge probes it at
      // x0 + s*r*u_j — row j of the next edge's round. All screen probes
      // go through the chunked dispatch like any round.
      if (!have_far) {
        ProbesAlongDirections(x0, r, ws->directions, 0, screen_rays,
                              &ws->screen_points);
        ws->screen_far.resize(screen_rays);
        OPENAPI_RETURN_NOT_OK(DispatchProbes(api, ws->screen_points, options,
                                             cost, &ws->screen_far,
                                             /*out_offset=*/0));
        have_far = true;
      }
      const double next_r = r * config_.shrink_factor;
      ProbesAlongDirections(x0, next_r, ws->directions, 0, screen_rays,
                            &ws->screen_points);
      ws->screen_near.resize(screen_rays);
      OPENAPI_RETURN_NOT_OK(DispatchProbes(api, ws->screen_points, options,
                                           cost, &ws->screen_near,
                                           /*out_offset=*/0));
      // A conclusive bend proves the round at r would fail: skip it
      // without sending its unscreened rows. Otherwise the round goes
      // out with only those rows; the screened rows reuse the far
      // predictions, and the solve is the unscreened loop's.
      const bool bent = AnyRayBends(y0, ws->screen_near, ws->screen_far, ref,
                                    num_classes, config_.shrink_factor,
                                    config_.consistency_tol);
      bool solved = false;
      if (!bent) {
        ProbesAlongDirections(x0, r, ws->directions, screen_rays,
                              probes_per_iter - screen_rays, &ws->round_tail);
        ws->predictions.resize(probes_per_iter + 1);
        ws->predictions[0].assign(y0.begin(), y0.end());
        for (size_t j = 0; j < screen_rays; ++j) {
          ws->predictions[j + 1].assign(ws->screen_far[j].begin(),
                                        ws->screen_far[j].end());
        }
        OPENAPI_RETURN_NOT_OK(DispatchProbes(api, ws->round_tail, options,
                                             cost, &ws->predictions,
                                             /*out_offset=*/1 + screen_rays));
        solved = SolvePairsAlongDirections(x0, r, ref, num_classes,
                                           config_.consistency_tol, ws);
      }
      if (!solved) {
        // The near predictions are the next edge's far ones.
        r = next_r;
        std::swap(ws->screen_far, ws->screen_near);
        continue;
      }
      ProbesAlongDirections(x0, r, ws->directions, 0, probes_per_iter,
                            &ws->probes);
    } else {
      // The saturated path draws fresh probes at every edge and sends
      // them in one round ({y0, probe predictions...} land in the
      // workspace's stable row buffers).
      SampleHypercube(x0, r, probes_per_iter, rng, &ws->probes);
      ws->predictions.resize(ws->probes.size() + 1);
      ws->predictions[0].assign(y0.begin(), y0.end());
      OPENAPI_RETURN_NOT_OK(DispatchProbes(api, ws->probes, options, cost,
                                           &ws->predictions,
                                           /*out_offset=*/1));
      // Adaptive top-up: instead of doubling the whole budget upfront,
      // draw exactly the worst pair's usable-row deficit, re-check, and
      // repeat — capped at d+1 extra probes so an iteration never costs
      // more than the old uniform doubling. A pair that lost its x0 row
      // needs at least one top-up (d+2 probe rows > the d+1 base), but
      // when saturation is confined to near-x0 the deficit is 1 and the
      // iteration costs d+2 instead of 2(d+1).
      size_t top_up_cap = probes_per_iter;
      bool too_few_rows = false;
      for (;;) {
        const size_t deficit =
            MaxPairRowDeficit(ws->predictions, ref, num_classes, d);
        if (deficit == 0) break;
        if (top_up_cap == 0) {
          too_few_rows = true;
          break;
        }
        const size_t draw = std::min(deficit, top_up_cap);
        OPENAPI_RETURN_NOT_OK(
            CheckRequestControls(options, cost->queries, draw));
        std::vector<Vec> extra = SampleHypercube(x0, r, draw, rng);
        std::vector<Vec> extra_predictions(draw);
        OPENAPI_RETURN_NOT_OK(DispatchProbes(api, extra, options, cost,
                                             &extra_predictions,
                                             /*out_offset=*/0));
        top_up_cap -= draw;
        for (size_t k = 0; k < extra.size(); ++k) {
          ws->probes.push_back(std::move(extra[k]));
          ws->predictions.push_back(std::move(extra_predictions[k]));
        }
      }
      if (too_few_rows) {
        // The draws landed mostly on the saturated halfspace; shrinking
        // cannot change which side a symmetric hypercube covers, so
        // redraw at the same edge.
        continue;
      }
      switch (SolvePairsMaskedRows(x0, ref, num_classes,
                                   config_.consistency_tol, ws)) {
        case MaskedOutcome::kOk:
          break;
        case MaskedOutcome::kTooFewRows:
          continue;  // unreachable given the deficit loop; kept as a guard
        case MaskedOutcome::kShrink:
          r *= config_.shrink_factor;
          continue;
      }
    }

    std::vector<CoreParameters> pairs =
        ConvertReferencePairs(ws->ref_pairs, ref, c);
    Interpretation out;
    out.dc = CombinePairEstimates(pairs);
    out.pairs = std::move(pairs);
    // The workspace keeps its grown probe buffers for the next request;
    // the response gets a copy (what buys a pooled workspace its
    // zero-allocation steady state).
    out.probes = ws->probes;
    out.iterations = iter + 1;
    out.edge_length = r;
    // The request's own ledger (the anchor, screen probes and rounds it
    // sent) instead of a query-counter delta, which would also pick up
    // concurrent callers' queries when the api is shared across the
    // interpretation engine.
    out.queries = cost->queries;
    return out;
  }
  return Status::DidNotConverge(util::StrFormat(
      "no consistent probe set within %zu iterations (final r=%.3g%s)",
      config_.max_iterations, r,
      x0_saturated ? ", saturated class at x0" : ""));
}

}  // namespace openapi::interpret
