#include "linalg/qr.h"

#include <cmath>

#include "linalg/simd.h"
#include "util/string_util.h"

namespace openapi::linalg {
namespace {

/// Applies the reflection (I - tau v v^T) to trailing columns [k+1, n) of
/// qr, with v = (1, qr(k+1..m-1, k)). The j (column) loop widens into
/// vector lanes: each column's dot product still accumulates over rows in
/// i order and each element's update is the same mul-then-subtract, so
/// the result is bit-identical to the plain scalar column loop. This is
/// the O(m n) inner heart of the factorization — the solver spends a
/// third of a shrink iteration here at paper-scale d.
void ApplyReflection(Matrix& qr, size_t k, double tau_k) {
  const size_t m = qr.rows();
  const size_t n = qr.cols();
  const simd::D8 tau8 = simd::D8::Broadcast(tau_k);
  size_t j = k + 1;
  for (; j + 8 <= n; j += 8) {
    simd::D8 dot = simd::D8::Load(qr.RowPtr(k) + j);
    for (size_t i = k + 1; i < m; ++i) {
      dot = simd::MulAdd(simd::D8::Broadcast(qr(i, k)),
                         simd::D8::Load(qr.RowPtr(i) + j), dot);
    }
    const simd::D8 scale = tau8 * dot;
    (simd::D8::Load(qr.RowPtr(k) + j) - scale).Store(qr.RowPtr(k) + j);
    for (size_t i = k + 1; i < m; ++i) {
      (simd::D8::Load(qr.RowPtr(i) + j) -
       scale * simd::D8::Broadcast(qr(i, k)))
          .Store(qr.RowPtr(i) + j);
    }
  }
  for (; j < n; ++j) {
    double dot = qr(k, j);  // v[0] = 1
    for (size_t i = k + 1; i < m; ++i) dot += qr(i, k) * qr(i, j);
    double scale = tau_k * dot;
    qr(k, j) -= scale;
    for (size_t i = k + 1; i < m; ++i) qr(i, j) -= scale * qr(i, k);
  }
}

}  // namespace

Result<QrDecomposition> QrDecomposition::Factor(const Matrix& a) {
  QrDecomposition out;
  OPENAPI_RETURN_NOT_OK(out.Refactor(a));
  return out;
}

Status QrDecomposition::Refactor(const Matrix& a) {
  const size_t m = a.rows();
  const size_t n = a.cols();
  if (m < n || n == 0) {
    return Status::InvalidArgument(util::StrFormat(
        "QR requires rows >= cols >= 1; got %zux%zu", m, n));
  }
  // Copy assignments reuse this object's buffers once their capacity has
  // grown to the request's largest shape — the allocation-free property
  // the solver's per-request workspace depends on.
  a_ = a;
  qr_ = a;
  tau_.assign(n, 0.0);
  Matrix& qr = qr_;
  Vec& tau = tau_;

  for (size_t k = 0; k < n; ++k) {
    // Householder vector for column k, rows k..m-1.
    double norm_sq = 0.0;
    for (size_t i = k; i < m; ++i) norm_sq += qr(i, k) * qr(i, k);
    double norm = std::sqrt(norm_sq);
    if (norm == 0.0 || !std::isfinite(norm)) {
      return Status::NumericalError(
          util::StrFormat("rank-deficient matrix at column %zu", k));
    }
    double alpha = qr(k, k) >= 0.0 ? -norm : norm;
    double v0 = qr(k, k) - alpha;
    // tau = 2 / (v^T v) with v = (v0, a_{k+1,k}, ..., a_{m-1,k}).
    double v_norm_sq = v0 * v0;
    for (size_t i = k + 1; i < m; ++i) v_norm_sq += qr(i, k) * qr(i, k);
    if (v_norm_sq == 0.0) {
      // Column already zero below the diagonal; reflection is the identity.
      tau[k] = 0.0;
      qr(k, k) = alpha;
      continue;
    }
    tau[k] = 2.0 / v_norm_sq;
    // Store v normalized so that v[0] = v0 stays explicit: we keep v0 in a
    // scratch and the subdiagonal entries as-is, applying reflections with
    // the (v0, sub) pair. To keep the compact format self-describing we
    // scale v so v[0] = 1 and fold the scaling into tau.
    for (size_t i = k + 1; i < m; ++i) qr(i, k) /= v0;
    tau[k] *= v0 * v0;
    qr(k, k) = alpha;

    // Apply (I - tau v v^T) to the trailing columns (vector lanes across
    // j, bit-identical to the scalar column loop).
    ApplyReflection(qr, k, tau[k]);
  }

  // Detect rank deficiency from R's diagonal.
  double max_diag = 0.0;
  for (size_t k = 0; k < n; ++k) {
    max_diag = std::max(max_diag, std::fabs(qr(k, k)));
  }
  constexpr double kRankTol = 1e-13;
  for (size_t k = 0; k < n; ++k) {
    if (std::fabs(qr(k, k)) <= kRankTol * max_diag) {
      return Status::NumericalError(util::StrFormat(
          "rank-deficient matrix: |R[%zu,%zu]| below tolerance", k, k));
    }
  }
  return Status::OK();
}

void QrDecomposition::ApplyQTransposedInPlace(Vec* y) const {
  const size_t m = qr_.rows();
  const size_t n = qr_.cols();
  OPENAPI_CHECK_EQ(y->size(), m);
  for (size_t k = 0; k < n; ++k) {
    if (tau_[k] == 0.0) continue;
    double dot = (*y)[k];  // v[0] = 1
    for (size_t i = k + 1; i < m; ++i) dot += qr_(i, k) * (*y)[i];
    double scale = tau_[k] * dot;
    (*y)[k] -= scale;
    for (size_t i = k + 1; i < m; ++i) (*y)[i] -= scale * qr_(i, k);
  }
}

Vec QrDecomposition::ApplyQTransposed(const Vec& v) const {
  Vec y = v;
  ApplyQTransposedInPlace(&y);
  return y;
}

LeastSquaresSolution QrDecomposition::Solve(const Vec& b) const {
  Scratch scratch;
  LeastSquaresSolution solution;
  Solve(b, &scratch, &solution);
  return solution;
}

void QrDecomposition::Solve(const Vec& b, Scratch* scratch,
                            LeastSquaresSolution* solution) const {
  const size_t m = qr_.rows();
  const size_t n = qr_.cols();
  OPENAPI_CHECK_EQ(b.size(), m);

  Vec& qtb = scratch->qtb;
  qtb.assign(b.begin(), b.end());
  ApplyQTransposedInPlace(&qtb);

  // Back substitution: R x = qtb[0..n-1].
  Vec& x = solution->x;
  x.resize(n);
  for (size_t ii = n; ii-- > 0;) {
    double sum = qtb[ii];
    const double* row = qr_.RowPtr(ii);
    for (size_t j = ii + 1; j < n; ++j) sum -= row[j] * x[j];
    x[ii] = sum / row[ii];
  }

  // Exact residual in the original coordinates.
  a_.Multiply(x, &scratch->ax);
  double norm2_sq = 0.0;
  double norminf = 0.0;
  for (size_t i = 0; i < m; ++i) {
    double r = scratch->ax[i] - b[i];
    norm2_sq += r * r;
    norminf = std::max(norminf, std::fabs(r));
  }
  solution->residual_norm2 = std::sqrt(norm2_sq);
  solution->residual_norminf = norminf;
}

double QrDecomposition::ReciprocalPivotRatio() const {
  const size_t n = qr_.cols();
  double min_p = std::fabs(qr_(0, 0));
  double max_p = min_p;
  for (size_t k = 1; k < n; ++k) {
    double p = std::fabs(qr_(k, k));
    min_p = std::min(min_p, p);
    max_p = std::max(max_p, p);
  }
  if (max_p == 0.0) return 0.0;
  return min_p / max_p;
}

}  // namespace openapi::linalg
