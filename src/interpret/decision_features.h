// Shared vocabulary of the interpretation methods.
//
// Every method ultimately produces the decision features D_c of Eq. 1 for
// an input x0 and class c. Black-box methods additionally expose the probe
// instances they consumed so the evaluation harness can score probe quality
// (the RD / WD metrics of Figs. 5-6) without re-deriving them.

#ifndef OPENAPI_INTERPRET_DECISION_FEATURES_H_
#define OPENAPI_INTERPRET_DECISION_FEATURES_H_

#include <limits>
#include <vector>

#include "api/ground_truth.h"
#include "api/prediction_api.h"
#include "linalg/matrix.h"
#include "linalg/vector_ops.h"
#include "util/rng.h"
#include "util/status.h"

namespace openapi::interpret {

using api::CoreParameters;
using linalg::Matrix;
using linalg::Vec;

/// The output of an interpretation method for one (x0, c) query.
struct Interpretation {
  Vec dc;  // decision features D_c (Eq. 1), length d

  /// Estimated core parameters per opposing class, indexed by c' in
  /// increasing order skipping c (size C-1). Empty for gradient methods,
  /// which do not go through core parameters.
  std::vector<CoreParameters> pairs;

  /// Probe instances the method queried (excluding x0 itself). Empty for
  /// gradient methods.
  std::vector<Vec> probes;

  /// Number of hypercube-shrinking iterations (OpenAPI: edges visited,
  /// screened or sent; 1 otherwise).
  size_t iterations = 1;

  /// Final hypercube edge length / perturbation distance used.
  double edge_length = 0.0;

  /// API queries consumed by this call.
  uint64_t queries = 0;
};

/// Interface implemented by all black-box methods (OpenAPI, naive, ZOO,
/// LIME). Gradient-based baselines have a separate entry point in
/// gradient_methods.h because they require white-box access.
class BlackBoxInterpreter {
 public:
  virtual ~BlackBoxInterpreter() = default;

  /// Name used in benchmark tables ("OpenAPI", "ZOO", ...).
  virtual const char* name() const = 0;

  /// Interprets the prediction of `api`'s model on x0 for class c.
  virtual Result<Interpretation> Interpret(const api::PredictionApi& api,
                                           const Vec& x0, size_t c,
                                           util::Rng* rng) const = 0;
};

/// Combines per-pair estimates into D_c by Eq. 1:
/// D_c = (1/(C-1)) * sum_{c' != c} D_{c,c'}. `pairs` must hold C-1 entries.
Vec CombinePairEstimates(const std::vector<CoreParameters>& pairs);

/// Uniformly samples `count` instances from the hypercube
/// {p : |p_i - x0_i| <= r} (the paper's neighborhood definition).
std::vector<Vec> SampleHypercube(const Vec& x0, double r, size_t count,
                                 util::Rng* rng);

/// SampleHypercube's write-into sibling: overwrites *out with the same
/// draws (identical rng consumption order), reusing its buffers — the
/// saturated shrink loop's allocation-free probe redraw.
void SampleHypercube(const Vec& x0, double r, size_t count, util::Rng* rng,
                     std::vector<Vec>* out);

/// Builds the coefficient matrix A of the linear systems in Sec. IV:
/// one row [1, p^T] per point, in the order {x0, probes...}. Shape:
/// (probes.size()+1) x (d+1); column 0 carries the bias coefficient.
Matrix BuildCoefficientMatrix(const Vec& x0, const std::vector<Vec>& probes);

/// ln(y_c / y_{c'}) for one prediction vector. Fails with NumericalError if
/// either probability is non-positive (softmax underflow at the API).
Result<double> LogOdds(const Vec& y, size_t c, size_t c_prime);

/// Smallest probability whose log still has full double precision: zero
/// AND subnormal probabilities count as saturated (a subnormal's log is
/// as useless as log(0)). The solver and ExplainsObservation share it.
inline constexpr double kMinUsableProb = std::numeric_limits<double>::min();

/// EngineConfig::match_tol's default and the boundary prober's bound.
inline constexpr double kDefaultMatchTol = 1e-9;

/// An observed prediction y in log-odds, computed once per point:
/// a = argmax(y) and L_k = ln(y_k / y_a). Not `usable` (validates no
/// model) when some y_k is below kMinUsableProb or not finite.
struct ObservedOdds {
  explicit ObservedOdds(const Vec& y);

  size_t argmax = 0;
  Vec log_odds;
  bool usable = true;
};

/// "Local model M explains observed prediction y at x", in the log-odds
/// domain Theorem 2 certifies regions in: with z = W^T x + b (W^T x
/// written into *logits), true iff |(z_k - z_a) - L_k| <= tol*(1 + |L_k|)
/// for every k != a. No softmax; a NaN fails, an unusable y never passes.
bool ExplainsObservation(const api::LocalLinearModel& model, const Vec& x,
                         const ObservedOdds& observed, double tol,
                         Vec* logits);

/// Right-hand side vector ln(y_c/y_{c'}) for each prediction in
/// {y0, probe predictions...}, matching BuildCoefficientMatrix's row order.
Result<Vec> BuildLogOddsRhs(const std::vector<Vec>& predictions, size_t c,
                            size_t c_prime);

/// BuildLogOddsRhs's write-into sibling, reusing *rhs's buffer.
Status BuildLogOddsRhs(const std::vector<Vec>& predictions, size_t c,
                       size_t c_prime, Vec* rhs);

/// Re-expresses core-parameter pairs solved against reference class `ref`
/// as the pairs of class `c`: D_{c,c'} = D_{ref,c'} - D_{ref,c} and
/// D_{c,ref} = -D_{ref,c} (identically for the offsets B), since all pairs
/// are differences of the same hidden (W, b). Input is indexed by c' in
/// increasing order skipping `ref`; output by c' in increasing order
/// skipping `c`. `ref == c` returns the input unchanged. This is how the
/// solver answers requests whose reference class saturates at x0 (softmax
/// underflow): solve against a non-saturated reference, then change the
/// reference algebraically.
std::vector<CoreParameters> ConvertReferencePairs(
    const std::vector<CoreParameters>& ref_pairs, size_t ref, size_t c);

/// Assembles the canonical locally linear classifier from the C-1 core
/// parameter pairs of an interpretation run with reference class c = 0:
/// weights column c' is D_{c',0} = -D_{0,c'} (column 0 pinned to zero) and
/// bias c' is -B_{0,c'}. softmax(W^T x + b) of the canonical model equals
/// the hidden model's output throughout the region (softmax gauge freedom).
/// Shared by extract::LocalModelExtractor and the interpretation engine.
api::LocalLinearModel CanonicalModelFromPairs(
    const std::vector<CoreParameters>& pairs, size_t d);

/// Quantized FNV hash of a model's canonical form. The softmax gauge is
/// pinned inside the hash (weight column 0 and bias[0] are subtracted
/// from every column and bias entry, without materializing the canonical
/// model), so any model and its canonical form — an imported white-box
/// model and an extraction of the same region — hash alike. A canonical
/// input's entries enter the hash bit-unchanged, so fingerprints already
/// persisted in a region log keep matching.
/// Quantization is relative to the model's own scale, so the fingerprint
/// is stable under ~1e-10 solver noise but distinguishes real regions;
/// two extractions of one region fingerprint identically, enabling
/// black-box region deduplication.
uint64_t LocalModelFingerprint(const api::LocalLinearModel& model,
                               double resolution);

}  // namespace openapi::interpret

#endif  // OPENAPI_INTERPRET_DECISION_FEATURES_H_
