// OpenAPI (Sec. IV-C, Algorithm 1): the paper's contribution.
//
// For each opposing class c', the method builds the overdetermined system
// Ω_{d+2} from x0 plus d+1 probes drawn uniformly from the hypercube of
// edge length r around x0, and solves it in closed form. Theorem 2: if
// Ω_{d+2} is consistent, its unique solution equals the true core
// parameters (D_{c,c'}, B_{c,c'}) with probability 1. If any pair's system
// is inconsistent — the numerical signal that a probe crossed a region
// boundary — the hypercube is halved and the probes are re-drawn, up to
// `max_iterations` times (this implementation rescales one per-request
// draw instead; see the first note below).
//
// Implementation notes beyond the paper's pseudocode:
//  * Directions are drawn once per request, not once per iteration. The
//    paper resamples d+1 probes at every shrink step; here the request
//    draws d+1 directions U in [-1,1]^d once and probes x0 + r*U at every
//    edge r. The coefficient matrix of Ω at edge r is then
//    A_r = [1|U]·T_r with T_r = [[1, x0^T], [0, r*I]] upper-triangular
//    and invertible, so every A_r has the column space of [1|U] (row 0,
//    the x0 row, is [1, 0^T]). [1|U] is factored ONCE per request by
//    Householder QR; each iteration solves its C-1 log-odds systems
//    [1|U]*phi = rhs against that one factorization with the same
//    exact-residual consistency test (the residual [1|U]*phi - rhs equals
//    A_r*theta - rhs), and maps back through T_r: D = phi[1:]/r and
//    b = phi[0] - x0·D. Per request this is one O((d+2)(d+1)^2)
//    factorization plus O(C (d+2)(d+1)) per iteration, instead of a
//    factorization per iteration. Exactness holds: at every edge
//    r the probe set x0 + r*U is one continuous uniform draw from that
//    r's hypercube, so Theorem 2's probability-0 argument holds at each
//    of the countably many edges the loop tries. A degenerate direction
//    draw (rank-deficient [1|U], probability 0) is detected before any
//    probe is sent; the iteration shrinks the edge and the next one
//    redraws. The saturated path below does not use the directions: it
//    draws fresh probes every iteration and factors each pair's masked
//    rows.
//  * Rounds are screened before they are sent. Theorem 2 says a round
//    fails once any of its probes leaves x0's linear region, and most
//    rounds of a cold extraction do. The linear regions of every PLM
//    served here (PLNN, MaxOut, LMT leaves, grids) are convex polytopes,
//    so if x0 + r*u lies in x0's region, so does x0 + s*r*u (s =
//    shrink_factor), and along that ray the log-odds of every pair are
//    affine in t: L(s) = (1-s)*L(0) + s*L(1). The screen probes the first
//    kScreenRays = 2 rows u_j of U at x0 + r*u_j (once, at the first
//    edge) and at x0 + s*r*u_j (at every edge — that point is row j of
//    the next edge's round), and tests each pair against the reference:
//    the ray bends when |L(s) - ((1-s)*L(0) + s*L(1))| >
//    consistency_tol * (1 + max|L|). A pair with a probability below the
//    usable threshold at any of the three points is inconclusive. Only a
//    conclusive bend — a proof that x0 + r*u_j left the region — skips
//    the round: r <- s*r, and the near predictions become the next
//    edge's far ones. Otherwise the round goes out with only its d+1-k
//    unscreened rows; the screened rows reuse their predictions and the
//    solve runs as without the screen. The accepted round therefore has
//    the same U, edge, probes and predictions as the unscreened loop,
//    so the decision features, pairs, probes, edge length and iteration
//    count (edges visited, screened or sent) are bit-identical to it;
//    only the query count and the time change. A request that visits E
//    edges with non-degenerate directions and sends R of their rounds
//    costs 1 + k + k*E + (d+1-k)*R queries (k = 2) instead of
//    1 + (d+1)*E: about 3.5x fewer at d = 64. Screen probes go through
//    the same chunked dispatch and request controls as any round. The
//    saturated path below is unchanged: it draws fresh probes every
//    iteration, so there are no rays to reuse.
//  * "Ω_{d+2} has a solution" becomes a residual test: the least-squares
//    residual must satisfy ||A beta - rhs||_inf <= tol * (1 + ||rhs||_inf).
//  * Softmax saturation at a probe (some probability underflowing to 0 away
//    from x0) is reported as an inconsistent attempt, triggering the same
//    shrink.
//  * Softmax saturation at x0 itself — y0[k] == 0 for some class k — can
//    never be shrunk away, so it gets a dedicated recovery path instead of
//    burning the full iteration budget: the solve switches its reference
//    class to argmax(y0) (whose probability is >= 1/C, never saturated),
//    drops each pair's unusable rows — zero or subnormal probabilities,
//    whose logs would poison the residual test — while topping up the
//    probe set so every masked system stays overdetermined and the
//    consistency certificate survives, and converts the recovered pairs
//    back to the requested class algebraically (ConvertReferencePairs). A draw that
//    leaves too few usable rows is retried at the same edge (the
//    saturated halfspace through x0 does not shrink away); only a genuine
//    inconsistency still halves the hypercube. Extraction callers that
//    pin the reference to class 0 inherit the fix: the converted pairs are
//    reference-0 pairs, re-canonicalized to the column-0-pinned gauge by
//    CanonicalModelFromPairs as usual.
//  * The saturated path's probe budget is ADAPTIVE: each iteration draws
//    the usual d+1 probes, then tops up with exactly the worst pair's
//    usable-row deficit (re-checked after each top-up batch, capped at
//    d+1 extra so an iteration never exceeds the old uniform 2(d+1)
//    doubling). When saturation is confined to the x0 row this costs
//    d+2 probes instead of 2(d+1) — roughly half.
//  * Per-request controls (RequestOptions: query budget, deadline,
//    cancellation) are checked before the anchor query and before every
//    edge (for the whole of what the edge can spend: d+1 queries, plus
//    the k far screen probes at the first screened edge) and every
//    top-up batch, so a request with max_queries = Q never issues more
//    than Q queries; on rejection the consumed count reported through
//    InterpretCounted's RequestCost is exact. Probe batches are
//    additionally routed through the latency-aware chunked dispatch
//    (probe_dispatch.h): when a deadline or cancel token is set, each
//    batch is split into chunks sized from the endpoint's per-row
//    latency EWMA and the controls are re-checked (predictively, for the
//    deadline) between chunks — a slow endpoint overshoots its deadline
//    by at most one chunk, not one batch, and partial-chunk consumption
//    stays exact against api.query_count().
//  * The shrink loop runs out of a per-request SolverWorkspace (probe
//    set, prediction buffer, screen and round-tail rows, direction
//    matrix, QR storage + scratch, masked-row scratch) reused across
//    iterations and across the saturated top-up path: after the first
//    round the solver itself allocates nothing — probe rescales,
//    redraws, refactorizations, and solves all overwrite the same
//    buffers. A caller that passes no
//    workspace gets a request-local one; either way the result copies
//    its probes out, so results are bit-identical.

#ifndef OPENAPI_INTERPRET_OPENAPI_METHOD_H_
#define OPENAPI_INTERPRET_OPENAPI_METHOD_H_

#include "interpret/decision_features.h"
#include "interpret/probe_dispatch.h"
#include "interpret/request_options.h"
#include "linalg/qr.h"

namespace openapi::interpret {

struct OpenApiConfig {
  // Paper's system parameter m: edges visited, whether the ray screen
  // skipped the edge's round or sent it.
  size_t max_iterations = 100;
  double initial_edge = 1.0;     // paper initializes r = 1.0
  double shrink_factor = 0.5;    // paper halves r each failed iteration
  // Residual tolerance for the consistency test. Genuinely consistent
  // systems solve to residuals near machine precision (backward-stable QR
  // on O(1)-scaled rows), while a probe crossing a region boundary leaves
  // a kink-sized residual; 1e-9 cleanly separates the two. bench_ablation
  // sweeps this knob.
  double consistency_tol = 1e-9;
};

/// Scratch buffers of one interpretation request, reused across the
/// shrink loop's iterations and the saturated path's top-up draws. Every
/// buffer grows to the request's largest shape on the first screen and
/// the first round sent, and is only overwritten afterwards, so
/// steady-state shrink iterations perform ZERO heap allocations inside
/// the solver — the remaining
/// per-iteration allocations are the endpoint's own response vectors in
/// PredictionApi::PredictBatch. Callers normally pass nullptr and let
/// InterpretCounted keep a request-local workspace; a caller serving many
/// requests may hold one and amortize the first-iteration growth across
/// requests too — the interpretation engine does exactly that with a
/// pool of per-worker workspaces checked out per request. A workspace
/// KEEPS its probe buffers on success (the response gets a copy), so the
/// second request onward performs zero solver allocations. Not
/// thread-safe; one workspace per concurrent request.
struct SolverWorkspace {
  std::vector<Vec> probes;       // iteration's probe points
  std::vector<Vec> predictions;  // {y0, probe predictions...}
  // Ray screen of the unsaturated path: the screened rays' probe points
  // of the current dispatch, their predictions at the current edge r
  // (`screen_far`) and at the next edge s*r (`screen_near`), and the
  // round's unscreened probe rows (`round_tail`).
  std::vector<Vec> screen_points;
  std::vector<Vec> screen_far;
  std::vector<Vec> screen_near;
  std::vector<Vec> round_tail;
  // Request state of the unsaturated path: [1|U], row 0 = [1, 0^T] for
  // x0 and row i+1 = [1, u_i^T] for probe direction u_i, drawn once per
  // request; `qr` holds its factorization for the whole request.
  Matrix directions;
  Vec rhs;                       // per-pair log-odds right-hand side
  linalg::QrDecomposition qr;    // factorization storage
  linalg::QrDecomposition::Scratch qr_scratch;
  linalg::LeastSquaresSolution solution;
  std::vector<CoreParameters> ref_pairs;  // pairs vs the reference class
  // Saturated path: per-pair row masking.
  std::vector<size_t> masked_rows;  // usable-row index scratch
  Matrix masked_coefficients;
  Vec masked_rhs;
  // QR factorizations the current request has performed (every
  // Refactor, both paths); reset when a request starts.
  size_t factorizations = 0;

  /// Resets logical sizes while keeping every heap block — including each
  /// probe/prediction/screen/round-tail ROW's buffer, which clearing the
  /// outer vectors would free. A Cleared workspace behaves like a fresh one but regrows
  /// nothing at its old shapes; the engine's workspace pool Clears
  /// between requests. The request state (`directions`, `qr`,
  /// `factorizations`) is left alone: every request redraws and refactors
  /// it when it starts.
  void Clear();
};

/// Solves one log-odds system of the unsaturated shrink loop against the
/// request's direction factorization. `direction_qr` factors [1|U] (see
/// SolverWorkspace::directions); `rhs` holds the log-odds at the rows
/// {x0, x0 + r*u_1, ...}. Solves [1|U]*phi = rhs, applies the
/// exact-residual consistency test (linalg::IsConsistent with `tol`),
/// and on success writes the pair in input coordinates, D = phi[1:]/r and
/// b = phi[0] - x0·D, to *pair and returns true. Returns false (and
/// leaves *pair unspecified) when the system is inconsistent. `scratch`
/// and `solution` are reused buffers.
bool SolvePairAlongDirections(const linalg::QrDecomposition& direction_qr,
                              const Vec& x0, double r, const Vec& rhs,
                              double tol,
                              linalg::QrDecomposition::Scratch* scratch,
                              linalg::LeastSquaresSolution* solution,
                              CoreParameters* pair);

class OpenApiInterpreter : public BlackBoxInterpreter {
 public:
  explicit OpenApiInterpreter(OpenApiConfig config = {});

  const char* name() const override { return "OpenAPI"; }

  /// Runs Algorithm 1. On success the returned Interpretation carries the
  /// exact D_c, the final probe set, per-pair core parameters, and the
  /// number of shrink iterations (edges visited). Fails with
  /// DidNotConverge only if no consistent probe set was found within
  /// max_iterations (probability-0
  /// boundary case, an API that rounds its probabilities, or a class that
  /// saturates throughout the probed neighborhood).
  Result<Interpretation> Interpret(const api::PredictionApi& api,
                                   const Vec& x0, size_t c,
                                   util::Rng* rng) const override;

  /// Interpret with exact cost reporting on every path. `cost` is the
  /// request's ledger (required) and is IN/OUT: cost->queries enters as
  /// the queries the caller already spent on this request (counted
  /// against `options`, so budget rejections report the request's true
  /// consumption) and leaves as the request's total, success or failure —
  /// a failed solve still consumed its probes. cost->iterations reports
  /// the shrink iterations attempted (edges visited, including edges
  /// whose round the ray screen skipped); cost->wasted_queries / retries
  /// accumulate the request's failed endpoint attempts (every endpoint
  /// touch, the anchor included, goes through the retry-aware dispatch,
  /// so a transiently failing endpoint costs retries, not the request).
  /// `options` carries the per-request budget/deadline/cancel controls,
  /// enforced before every probe batch (default: unlimited). `y0_hint`
  /// (if non-null) is the endpoint's prediction at x0, already paid for
  /// by the caller — the solver then skips its own anchor query, so a
  /// cache miss in the engine does not bill x0 twice against the
  /// request's budget. `workspace` (if non-null) supplies the request's
  /// solver scratch, letting a per-thread caller amortize buffer growth
  /// across requests; nullptr uses a request-local workspace. Interpret()
  /// above is InterpretCounted with a local ledger and default controls.
  Result<Interpretation> InterpretCounted(
      const api::PredictionApi& api, const Vec& x0, size_t c, util::Rng* rng,
      RequestCost* cost, const RequestOptions& options = {},
      const Vec* y0_hint = nullptr,
      SolverWorkspace* workspace = nullptr) const;

  const OpenApiConfig& config() const { return config_; }

 private:
  OpenApiConfig config_;
};

}  // namespace openapi::interpret

#endif  // OPENAPI_INTERPRET_OPENAPI_METHOD_H_
