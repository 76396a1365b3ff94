// Core model abstractions.
//
// `Plm` is a piecewise linear model as defined in Sec. III of the paper:
// a classifier F : R^d -> R^C that is softmax(W_k^T x + b_k) inside each
// locally linear region X_k. Both concrete models in this repo (the ReLU
// network in nn/ and the logistic model tree in lmt/) implement it.
//
// `PlmOracle` is *privileged, white-box* access to the same model: the
// region identity at x and the effective locally linear classifier (W, b)
// of that region. In the paper this corresponds to OpenBox [8] for PLNNs
// and to reading the leaf classifier for LMTs. It exists solely so the
// evaluation harness can measure exactness (Fig. 5-7) and so the
// gradient-based baselines — which the paper explicitly grants parameter
// access (Sec. V) — can compute their gradients. The interpretation method
// under study (OpenAPI) never touches it; it sees only PredictionApi.

#ifndef OPENAPI_API_PLM_H_
#define OPENAPI_API_PLM_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "linalg/matrix.h"
#include "linalg/vector_ops.h"

namespace openapi::api {

using linalg::Matrix;
using linalg::Vec;

/// The effective locally linear classifier at some input:
/// y = softmax(weights^T x + bias) with weights d x C, bias length C.
struct LocalLinearModel {
  Matrix weights;  // d x C (column c = W_c, the weight vector of class c)
  Vec bias;        // length C
};

/// Black-box piecewise linear classifier.
class Plm {
 public:
  virtual ~Plm() = default;

  /// Input dimensionality d.
  virtual size_t dim() const = 0;

  /// Number of classes C.
  virtual size_t num_classes() const = 0;

  /// Class probabilities (softmax output), length C.
  virtual Vec Predict(const Vec& x) const = 0;

  /// Class probabilities for a batch of inputs (xs[i] -> result[i]).
  /// The contract is bit-exact agreement with per-sample Predict; the
  /// default implementation is the per-sample loop, and concrete models
  /// override it with matrix-matrix forwards (see nn::Plnn::LogitsBatch)
  /// that additionally split large batches into row blocks across the
  /// process-wide thread pool (ParallelForwardRowBlocks below).
  virtual std::vector<Vec> PredictBatch(const std::vector<Vec>& xs) const;
};

/// Crossover batch size at which a model forward splits into row blocks
/// dispatched on util::SharedThreadPool. Below it the thread hand-off
/// costs more than the forward saves (measured by bench_kernels'
/// ParallelForward sweep: one row block of this size runs ~100us of GEMM
/// on the paper-scale nets, comfortably above the pool's dispatch+latch
/// overhead).
inline constexpr size_t kParallelForwardMinBatch = 256;

/// Runs fn(begin, end) over contiguous row blocks covering [0, n). Blocks
/// are dispatched on util::SharedThreadPool::ParallelFor when n >=
/// kParallelForwardMinBatch and the calling thread is not itself a pool
/// worker (a worker — e.g. an interpretation task probing through the
/// engine — runs inline rather than blocking on its own pool's queue,
/// the same deadlock-free rule as ApiReplicaSet). Every row belongs to
/// exactly one block and per-row results must not depend on the split, so
/// parallel and inline execution are bit-identical; per-sample noise-RNG
/// forks at the api layer keep that true even for noisy endpoints.
void ParallelForwardRowBlocks(
    size_t n, const std::function<void(size_t, size_t)>& fn);

/// Evaluates a locally linear classifier: softmax(weights^T x + bias).
/// Shared by the extraction module (extract::PredictWithLocalModel
/// delegates here) and the session's ImportRegion.
Vec EvaluateLocalModel(const LocalLinearModel& model, const Vec& x);

/// Privileged white-box view of a Plm (evaluation only; see file comment).
class PlmOracle {
 public:
  virtual ~PlmOracle() = default;

  /// Identifier of the locally linear region containing x. Two inputs with
  /// equal ids are classified by the same locally linear classifier. For
  /// the ReLU network this is a hash of the activation pattern; for the
  /// LMT it is the leaf index.
  virtual uint64_t RegionId(const Vec& x) const = 0;

  /// The effective (W, b) of the locally linear classifier at x. This is
  /// the ground truth that OpenAPI recovers through the API.
  virtual LocalLinearModel LocalModelAt(const Vec& x) const = 0;
};

/// Gradient of the softmax probability y_c with respect to x, computed from
/// the region's locally linear classifier:
///   d y_c / d x = y_c * (W_c - sum_k y_k W_k).
/// This is the exact input gradient of any PLM off region boundaries, and is
/// what the Saliency / Gradient*Input / IntegratedGradients baselines use.
Vec ProbabilityGradient(const LocalLinearModel& local, const Vec& x,
                        size_t c);

}  // namespace openapi::api

#endif  // OPENAPI_API_PLM_H_
