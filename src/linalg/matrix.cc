#include "linalg/matrix.h"

#include <cmath>

#include "linalg/simd.h"

namespace openapi::linalg {

Matrix::Matrix(std::initializer_list<std::initializer_list<double>> rows)
    : rows_(rows.size()), cols_(rows.size() ? rows.begin()->size() : 0) {
  data_.reserve(rows_ * cols_);
  for (const auto& row : rows) {
    OPENAPI_CHECK_EQ(row.size(), cols_);
    data_.insert(data_.end(), row.begin(), row.end());
  }
}

Matrix Matrix::Identity(size_t n) {
  Matrix m(n, n);
  for (size_t i = 0; i < n; ++i) m(i, i) = 1.0;
  return m;
}

Matrix Matrix::FromRows(const std::vector<Vec>& rows) {
  OPENAPI_CHECK(!rows.empty());
  Matrix m(rows.size(), rows[0].size());
  for (size_t r = 0; r < rows.size(); ++r) m.SetRow(r, rows[r]);
  return m;
}

void Matrix::Resize(size_t rows, size_t cols) {
  rows_ = rows;
  cols_ = cols;
  data_.resize(rows * cols);
}

Vec Matrix::Row(size_t r) const {
  OPENAPI_CHECK_LT(r, rows_);
  return Vec(RowPtr(r), RowPtr(r) + cols_);
}

Vec Matrix::Col(size_t c) const {
  OPENAPI_CHECK_LT(c, cols_);
  Vec out(rows_);
  for (size_t r = 0; r < rows_; ++r) out[r] = (*this)(r, c);
  return out;
}

void Matrix::SetRow(size_t r, const Vec& values) {
  OPENAPI_CHECK_LT(r, rows_);
  OPENAPI_CHECK_EQ(values.size(), cols_);
  std::copy(values.begin(), values.end(), RowPtr(r));
}

void Matrix::SetCol(size_t c, const Vec& values) {
  OPENAPI_CHECK_LT(c, cols_);
  OPENAPI_CHECK_EQ(values.size(), rows_);
  for (size_t r = 0; r < rows_; ++r) (*this)(r, c) = values[r];
}

Vec Matrix::Multiply(const Vec& x) const {
  Vec out;
  Multiply(x, &out);
  return out;
}

void Matrix::Multiply(const Vec& x, Vec* out) const {
  OPENAPI_CHECK_EQ(x.size(), cols_);
  out->resize(rows_);
  // Deliberately scalar: this single left-to-right dot is the
  // accumulation order all batch kernels reproduce per element — the
  // anchor of the batch/single parity contract.
  for (size_t r = 0; r < rows_; ++r) {
    const double* row = RowPtr(r);
    double sum = 0.0;
    for (size_t c = 0; c < cols_; ++c) sum += row[c] * x[c];
    (*out)[r] = sum;
  }
}

Vec Matrix::MultiplyTransposed(const Vec& x) const {
  Vec out;
  MultiplyTransposed(x, &out);
  return out;
}

void Matrix::MultiplyTransposed(const Vec& x, Vec* out_vec) const {
  OPENAPI_CHECK_EQ(x.size(), rows_);
  Vec& out = *out_vec;
  out.assign(cols_, 0.0);
  // Widen the output-column loop. Element c still accumulates row-by-row
  // in r order, so each out[c] is bit-identical to the scalar loop.
  for (size_t r = 0; r < rows_; ++r) {
    const double* row = RowPtr(r);
    const simd::D8 xr8 = simd::D8::Broadcast(x[r]);
    const simd::D4 xr4 = simd::D4::Broadcast(x[r]);
    size_t c = 0;
    for (; c + 8 <= cols_; c += 8) {
      simd::MulAdd(xr8, simd::D8::Load(row + c), simd::D8::Load(&out[c]))
          .Store(&out[c]);
    }
    for (; c + 4 <= cols_; c += 4) {
      simd::MulAdd(xr4, simd::D4::Load(row + c), simd::D4::Load(&out[c]))
          .Store(&out[c]);
    }
    const double xr = x[r];
    for (; c < cols_; ++c) out[c] += row[c] * xr;
  }
}

Matrix Matrix::Multiply(const Matrix& other) const {
  OPENAPI_CHECK_EQ(cols_, other.rows_);
  Matrix out(rows_, other.cols_);
  // Cache-blocked i-k-j: within each (ii, kk, jj) tile the inner loop
  // streams contiguous rows of B and out, and the B tile (kBlock x kBlock
  // doubles = 32 KiB) stays L1/L2-resident while every row of the A tile
  // reuses it. For matrices smaller than one tile this degenerates to the
  // plain i-k-j loop with identical accumulation order. The innermost j
  // loop runs in vector lanes; out[i][j] still accumulates a_ik * b_kj in
  // the same k order, bit-identical to the scalar i-k-j loop.
  constexpr size_t kBlock = 64;
  const size_t n = other.cols_;
  for (size_t ii = 0; ii < rows_; ii += kBlock) {
    const size_t i_end = std::min(ii + kBlock, rows_);
    for (size_t kk = 0; kk < cols_; kk += kBlock) {
      const size_t k_end = std::min(kk + kBlock, cols_);
      for (size_t jj = 0; jj < n; jj += kBlock) {
        const size_t j_end = std::min(jj + kBlock, n);
        for (size_t i = ii; i < i_end; ++i) {
          const double* a_row = RowPtr(i);
          double* out_row = out.RowPtr(i);
          for (size_t k = kk; k < k_end; ++k) {
            const double a_ik = a_row[k];
            // Skipping exact zeros is profitable on the masked affine
            // maps LocalModelAt composes, and it is part of the kernel's
            // contract: 0 * inf never turns an output into NaN.
            if (a_ik == 0.0) continue;
            const double* b_row = other.RowPtr(k);
            const simd::D8 a8 = simd::D8::Broadcast(a_ik);
            size_t j = jj;
            for (; j + 8 <= j_end; j += 8) {
              simd::MulAdd(a8, simd::D8::Load(b_row + j),
                           simd::D8::Load(out_row + j))
                  .Store(out_row + j);
            }
            for (; j < j_end; ++j) {
              out_row[j] += a_ik * b_row[j];
            }
          }
        }
      }
    }
  }
  return out;
}

namespace {

/// A·Bᵀ. The j (output-column = B-row) loop widens into 8 lanes; to
/// feed it with one vector load per step instead of an 8-element gather,
/// B is first PACKED into 8-row column panels (the BLIS/GotoBLAS trick):
/// panel p stores B rows [8p, 8p+8) column-major, so offset 8t holds the
/// column-t slice across the panel's rows. Packing costs O(nk) once and
/// is reused by every row of A. The i loop blocks by 4, so each t feeds
/// four broadcast-multiply-add chains — 32 outputs in flight. Every lane
/// is its own accumulator advancing in t order, bit-identical to the
/// scalar dot of the corresponding (i, j), so each output row equals
/// Multiply(Vec) on that row (the batch/single parity contract). The
/// final panel is padded with zero rows; its pad lanes are computed and
/// discarded.
void MultiplyABtPanels(const Matrix& lhs, const Matrix& rhs, Matrix* out) {
  constexpr size_t kPanel = simd::D8::kWidth;
  const size_t k = lhs.cols();
  const size_t n = rhs.rows();
  const size_t m = lhs.rows();
  if (k == 0 || n == 0 || m == 0) return;

  const size_t num_panels = (n + kPanel - 1) / kPanel;
  AlignedBuffer packed(num_panels * k * kPanel, 0.0);
  for (size_t j = 0; j < n; ++j) {
    const double* b = rhs.RowPtr(j);
    double* panel = packed.data() + (j / kPanel) * k * kPanel + j % kPanel;
    for (size_t t = 0; t < k; ++t) panel[t * kPanel] = b[t];
  }

  for (size_t p = 0; p < num_panels; ++p) {
    const double* panel = packed.data() + p * k * kPanel;
    const size_t j0 = p * kPanel;
    const size_t lanes = std::min(kPanel, n - j0);
    size_t i = 0;
    for (; i + 4 <= m; i += 4) {
      const double* a0 = lhs.RowPtr(i);
      const double* a1 = lhs.RowPtr(i + 1);
      const double* a2 = lhs.RowPtr(i + 2);
      const double* a3 = lhs.RowPtr(i + 3);
      simd::D8 s0 = simd::D8::Zero();
      simd::D8 s1 = simd::D8::Zero();
      simd::D8 s2 = simd::D8::Zero();
      simd::D8 s3 = simd::D8::Zero();
      for (size_t t = 0; t < k; ++t) {
        const simd::D8 bt = simd::D8::Load(panel + t * kPanel);
        s0 = simd::MulAdd(simd::D8::Broadcast(a0[t]), bt, s0);
        s1 = simd::MulAdd(simd::D8::Broadcast(a1[t]), bt, s1);
        s2 = simd::MulAdd(simd::D8::Broadcast(a2[t]), bt, s2);
        s3 = simd::MulAdd(simd::D8::Broadcast(a3[t]), bt, s3);
      }
      if (lanes == kPanel) {
        s0.Store(out->RowPtr(i) + j0);
        s1.Store(out->RowPtr(i + 1) + j0);
        s2.Store(out->RowPtr(i + 2) + j0);
        s3.Store(out->RowPtr(i + 3) + j0);
      } else {
        for (size_t l = 0; l < lanes; ++l) {
          out->RowPtr(i)[j0 + l] = s0[l];
          out->RowPtr(i + 1)[j0 + l] = s1[l];
          out->RowPtr(i + 2)[j0 + l] = s2[l];
          out->RowPtr(i + 3)[j0 + l] = s3[l];
        }
      }
    }
    for (; i < m; ++i) {
      const double* a = lhs.RowPtr(i);
      simd::D8 s = simd::D8::Zero();
      for (size_t t = 0; t < k; ++t) {
        s = simd::MulAdd(simd::D8::Broadcast(a[t]),
                         simd::D8::Load(panel + t * kPanel), s);
      }
      if (lanes == kPanel) {
        s.Store(out->RowPtr(i) + j0);
      } else {
        for (size_t l = 0; l < lanes; ++l) out->RowPtr(i)[j0 + l] = s[l];
      }
    }
  }
}

}  // namespace

Matrix Matrix::MultiplyABt(const Matrix& other) const {
  OPENAPI_CHECK_EQ(cols_, other.cols_);
  Matrix out(rows_, other.rows_);
  MultiplyABtPanels(*this, other, &out);
  return out;
}

void Matrix::AddRowInPlace(const Vec& row) {
  OPENAPI_CHECK_EQ(row.size(), cols_);
  for (size_t r = 0; r < rows_; ++r) {
    double* out_row = RowPtr(r);
    size_t c = 0;
    for (; c + 8 <= cols_; c += 8) {
      (simd::D8::Load(out_row + c) + simd::D8::Load(&row[c]))
          .Store(out_row + c);
    }
    for (; c < cols_; ++c) out_row[c] += row[c];
  }
}

Matrix Matrix::Transposed() const {
  Matrix out(cols_, rows_);
  for (size_t r = 0; r < rows_; ++r) {
    const double* row = RowPtr(r);
    for (size_t c = 0; c < cols_; ++c) out(c, r) = row[c];
  }
  return out;
}

Matrix Matrix::Add(const Matrix& other) const {
  OPENAPI_CHECK_EQ(rows_, other.rows_);
  OPENAPI_CHECK_EQ(cols_, other.cols_);
  Matrix out = *this;
  for (size_t i = 0; i < data_.size(); ++i) {
    out.data_[i] += other.data_[i];
  }
  return out;
}

Matrix Matrix::Sub(const Matrix& other) const {
  OPENAPI_CHECK_EQ(rows_, other.rows_);
  OPENAPI_CHECK_EQ(cols_, other.cols_);
  Matrix out = *this;
  for (size_t i = 0; i < data_.size(); ++i) {
    out.data_[i] -= other.data_[i];
  }
  return out;
}

void Matrix::ScaleInPlace(double s) {
  for (double& x : data_) x *= s;
}

double Matrix::FrobeniusNorm() const {
  double sum = 0.0;
  for (double x : data_) sum += x * x;
  return std::sqrt(sum);
}

double Matrix::MaxAbs() const {
  double best = 0.0;
  for (double x : data_) best = std::max(best, std::fabs(x));
  return best;
}

bool Matrix::AllFinite() const {
  for (double x : data_) {
    if (!std::isfinite(x)) return false;
  }
  return true;
}

}  // namespace openapi::linalg
