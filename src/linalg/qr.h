// Householder QR factorization for rectangular systems.
//
// OpenAPI's core operation is solving the overdetermined (d+2)x(d+1) system
// Ω_{d+2} and deciding whether it is *consistent* (Theorem 2: consistency
// certifies that the solution equals the true core parameters with
// probability 1). QR gives both in one pass: the least-squares minimizer
// and, from the residual, the consistency verdict. The solver factors
// once per request and reuses the factorization for all C-1 right-hand
// sides of every shrink iteration (interpret/openapi_method.h).

#ifndef OPENAPI_LINALG_QR_H_
#define OPENAPI_LINALG_QR_H_

#include <vector>

#include "linalg/matrix.h"
#include "linalg/vector_ops.h"
#include "util/status.h"

namespace openapi::linalg {

/// Result of a least-squares solve: the minimizer and residual diagnostics.
struct LeastSquaresSolution {
  Vec x;                    // argmin ||A x - b||_2
  double residual_norm2;    // ||A x - b||_2 at the minimizer
  double residual_norminf;  // max_i |(A x - b)_i|
};

/// A = QR via Householder reflections; requires rows >= cols.
class QrDecomposition {
 public:
  /// Reusable scratch for the allocation-free Solve overload.
  struct Scratch {
    Vec qtb;  // Q^T b workspace
    Vec ax;   // A x workspace for the exact residual
  };

  /// An empty decomposition; Refactor before use. Exists so a solver
  /// workspace can hold one QR object whose storage is reused across
  /// shrink iterations.
  QrDecomposition() = default;

  /// Factors `a` (m x n with m >= n). Rank deficiency to working precision
  /// is reported as NumericalError (the paper's Lemma 1 says random probes
  /// make A full column rank with probability 1, so hitting this means the
  /// probe set was degenerate and should be re-sampled).
  static Result<QrDecomposition> Factor(const Matrix& a);

  /// Factor's allocation-free sibling: factors `a` into THIS object,
  /// reusing its existing storage whenever the capacities suffice (always,
  /// after the first call at a given shape). Same errors as Factor; after
  /// a failure the decomposition is unusable until the next successful
  /// Refactor.
  Status Refactor(const Matrix& a);

  /// Least-squares solve min_x ||A x - b||_2 with residual diagnostics.
  LeastSquaresSolution Solve(const Vec& b) const;

  /// Solve's allocation-free sibling: writes the minimizer into
  /// solution->x and works out of *scratch, reusing both buffers' storage
  /// across calls.
  void Solve(const Vec& b, Scratch* scratch,
             LeastSquaresSolution* solution) const;

  /// Applies Q^T to a vector of length m (exposed for tests).
  Vec ApplyQTransposed(const Vec& v) const;

  size_t rows() const { return qr_.rows(); }
  size_t cols() const { return qr_.cols(); }

  /// min diag |R| / max diag |R| — cheap rank-quality proxy.
  double ReciprocalPivotRatio() const;

 private:
  /// In-place Q^T y over a length-m buffer.
  void ApplyQTransposedInPlace(Vec* y) const;

  // Original matrix, kept to report exact residuals (A x - b) in the input
  // coordinates; cheap at OpenAPI's (d+2) x (d+1) sizes.
  Matrix a_;
  // Householder vectors stored below R's diagonal; tau_ holds the scalar
  // factors. Standard LAPACK-style compact representation.
  Matrix qr_;
  Vec tau_;
};

}  // namespace openapi::linalg

#endif  // OPENAPI_LINALG_QR_H_
