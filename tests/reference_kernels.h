// Scalar oracle for the vectorized linalg kernels.
//
// Each function here is the plain left-to-right loop its library kernel
// must reproduce bit for bit: the library widens only the output-column
// loop into vector lanes, so every output element still accumulates over
// the contraction index in exactly this order. linalg_simd_test compares
// library output to these loops by bit pattern. They are test code only;
// the library has one implementation per operation.

#ifndef OPENAPI_TESTS_REFERENCE_KERNELS_H_
#define OPENAPI_TESTS_REFERENCE_KERNELS_H_

#include <algorithm>
#include <cmath>

#include "linalg/matrix.h"

namespace openapi::linalg::reference {

/// A * B as a plain i-k-j loop. An exact-zero a_ik is skipped, as in the
/// library kernel, so 0 * inf never turns an output into NaN.
inline Matrix Multiply(const Matrix& a, const Matrix& b) {
  Matrix out(a.rows(), b.cols());
  for (size_t i = 0; i < a.rows(); ++i) {
    for (size_t k = 0; k < a.cols(); ++k) {
      const double a_ik = a(i, k);
      if (a_ik == 0.0) continue;
      for (size_t j = 0; j < b.cols(); ++j) out(i, j) += a_ik * b(k, j);
    }
  }
  return out;
}

/// A * B^T: out(i, j) is the left-to-right dot of row i of A and row j
/// of B.
inline Matrix MultiplyABt(const Matrix& a, const Matrix& b) {
  Matrix out(a.rows(), b.rows());
  for (size_t i = 0; i < a.rows(); ++i) {
    for (size_t j = 0; j < b.rows(); ++j) {
      double sum = 0.0;
      for (size_t t = 0; t < a.cols(); ++t) sum += a(i, t) * b(j, t);
      out(i, j) = sum;
    }
  }
  return out;
}

/// A^T x, accumulated row by row.
inline Vec MultiplyTransposed(const Matrix& a, const Vec& x) {
  Vec out(a.cols(), 0.0);
  for (size_t r = 0; r < a.rows(); ++r) {
    for (size_t c = 0; c < a.cols(); ++c) out[c] += a(r, c) * x[r];
  }
  return out;
}

/// Adds `row` to every row of *m.
inline void AddRowInPlace(const Vec& row, Matrix* m) {
  for (size_t r = 0; r < m->rows(); ++r) {
    for (size_t c = 0; c < m->cols(); ++c) (*m)(r, c) += row[c];
  }
}

/// Max scan, exp-sum, then one divide per element.
inline Vec Softmax(const Vec& logits) {
  double max_logit = logits[0];
  for (double x : logits) max_logit = std::max(max_logit, x);
  Vec out(logits.size());
  double sum = 0.0;
  for (size_t i = 0; i < logits.size(); ++i) {
    out[i] = std::exp(logits[i] - max_logit);
    sum += out[i];
  }
  for (double& p : out) p /= sum;
  return out;
}

/// Householder QR in the library's compact format (v[0] = 1 implicit,
/// tau scaled to match), with every reflection applied one column at a
/// time.
struct Qr {
  Matrix a, qr;
  Vec tau;

  /// False where the library reports a rank-deficient matrix.
  bool Factor(const Matrix& input) {
    a = input;
    qr = input;
    const size_t m = qr.rows();
    const size_t n = qr.cols();
    tau.assign(n, 0.0);
    for (size_t k = 0; k < n; ++k) {
      double norm_sq = 0.0;
      for (size_t i = k; i < m; ++i) norm_sq += qr(i, k) * qr(i, k);
      const double norm = std::sqrt(norm_sq);
      if (norm == 0.0 || !std::isfinite(norm)) return false;
      const double alpha = qr(k, k) >= 0.0 ? -norm : norm;
      const double v0 = qr(k, k) - alpha;
      double v_norm_sq = v0 * v0;
      for (size_t i = k + 1; i < m; ++i) v_norm_sq += qr(i, k) * qr(i, k);
      if (v_norm_sq == 0.0) {
        tau[k] = 0.0;
        qr(k, k) = alpha;
        continue;
      }
      tau[k] = 2.0 / v_norm_sq;
      for (size_t i = k + 1; i < m; ++i) qr(i, k) /= v0;
      tau[k] *= v0 * v0;
      qr(k, k) = alpha;
      for (size_t j = k + 1; j < n; ++j) {
        double dot = qr(k, j);
        for (size_t i = k + 1; i < m; ++i) dot += qr(i, k) * qr(i, j);
        const double scale = tau[k] * dot;
        qr(k, j) -= scale;
        for (size_t i = k + 1; i < m; ++i) qr(i, j) -= scale * qr(i, k);
      }
    }
    double max_diag = 0.0;
    for (size_t k = 0; k < n; ++k) {
      max_diag = std::max(max_diag, std::fabs(qr(k, k)));
    }
    for (size_t k = 0; k < n; ++k) {
      if (std::fabs(qr(k, k)) <= 1e-13 * max_diag) return false;
    }
    return true;
  }

  /// Least-squares x for A x ~= b, plus the residual norms of A x - b.
  void Solve(const Vec& b, Vec* x, double* residual_norm2,
             double* residual_norminf) const {
    const size_t m = qr.rows();
    const size_t n = qr.cols();
    Vec y = b;
    for (size_t k = 0; k < n; ++k) {
      if (tau[k] == 0.0) continue;
      double dot = y[k];
      for (size_t i = k + 1; i < m; ++i) dot += qr(i, k) * y[i];
      const double scale = tau[k] * dot;
      y[k] -= scale;
      for (size_t i = k + 1; i < m; ++i) y[i] -= scale * qr(i, k);
    }
    x->assign(n, 0.0);
    for (size_t ii = n; ii-- > 0;) {
      double sum = y[ii];
      for (size_t j = ii + 1; j < n; ++j) sum -= qr(ii, j) * (*x)[j];
      (*x)[ii] = sum / qr(ii, ii);
    }
    double norm2_sq = 0.0;
    double norminf = 0.0;
    for (size_t i = 0; i < m; ++i) {
      double ax = 0.0;
      for (size_t j = 0; j < n; ++j) ax += a(i, j) * (*x)[j];
      const double r = ax - b[i];
      norm2_sq += r * r;
      norminf = std::max(norminf, std::fabs(r));
    }
    *residual_norm2 = std::sqrt(norm2_sq);
    *residual_norminf = norminf;
  }
};

}  // namespace openapi::linalg::reference

#endif  // OPENAPI_TESTS_REFERENCE_KERNELS_H_
