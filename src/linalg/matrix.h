// Dense row-major double matrix.
//
// This is the library's workhorse container: locally linear classifier
// coefficient matrices W (d x C), probe coefficient matrices A
// ((d+2) x (d+1)), and network layer weights all use it. It deliberately
// stays small — just storage, element access, and the handful of products
// the solvers and models need. Factorizations live in lu.h / qr.h /
// cholesky.h.
//
// The product kernels widen their innermost output-column loop into
// vector lanes (simd.h) but accumulate every output element over the
// contraction index in the same left-to-right order as a plain scalar
// loop, so each result is BIT-IDENTICAL to that loop on every input.
// linalg_simd_test checks this against the scalar oracle in
// tests/reference_kernels.h. Storage is 64-byte aligned (aligned_alloc.h)
// so vector loads on row 0 and on power-of-two row lengths are aligned.

#ifndef OPENAPI_LINALG_MATRIX_H_
#define OPENAPI_LINALG_MATRIX_H_

#include <cstddef>
#include <initializer_list>
#include <vector>

#include "linalg/aligned_alloc.h"
#include "linalg/vector_ops.h"
#include "util/check.h"

namespace openapi::linalg {

class Matrix {
 public:
  /// An empty 0x0 matrix.
  Matrix() : rows_(0), cols_(0) {}

  /// rows x cols matrix of zeros.
  Matrix(size_t rows, size_t cols)
      : rows_(rows), cols_(cols), data_(rows * cols, 0.0) {}

  /// rows x cols matrix filled with `fill`.
  Matrix(size_t rows, size_t cols, double fill)
      : rows_(rows), cols_(cols), data_(rows * cols, fill) {}

  /// Construction from nested braces: Matrix{{1,2},{3,4}}.
  Matrix(std::initializer_list<std::initializer_list<double>> rows);

  /// The n x n identity.
  static Matrix Identity(size_t n);

  /// Builds a matrix whose i-th row is rows[i]. All rows must have equal
  /// length; `rows` must be non-empty.
  static Matrix FromRows(const std::vector<Vec>& rows);

  size_t rows() const { return rows_; }
  size_t cols() const { return cols_; }
  size_t size() const { return data_.size(); }
  bool empty() const { return data_.empty(); }

  /// Reshapes to rows x cols, reusing the existing allocation whenever it
  /// is large enough (the workspace-reuse primitive of the solver's
  /// shrink loop). Element CONTENTS are unspecified afterwards — callers
  /// are expected to overwrite every entry.
  void Resize(size_t rows, size_t cols);

  double& operator()(size_t r, size_t c) {
    OPENAPI_DCHECK(r < rows_ && c < cols_);
    return data_[r * cols_ + c];
  }
  double operator()(size_t r, size_t c) const {
    OPENAPI_DCHECK(r < rows_ && c < cols_);
    return data_[r * cols_ + c];
  }

  /// Raw row pointer (row-major contiguous storage).
  double* RowPtr(size_t r) { return data_.data() + r * cols_; }
  const double* RowPtr(size_t r) const { return data_.data() + r * cols_; }

  /// Copies of a row / column.
  Vec Row(size_t r) const;
  Vec Col(size_t c) const;

  void SetRow(size_t r, const Vec& values);
  void SetCol(size_t c, const Vec& values);

  /// Matrix-vector product (rows x cols) * (cols) -> (rows).
  Vec Multiply(const Vec& x) const;

  /// Matrix-vector product written into *out (resized to rows()); no
  /// allocation when out's capacity suffices. out must not alias x.
  void Multiply(const Vec& x, Vec* out) const;

  /// Transposed matrix-vector product A^T x: (cols) result.
  Vec MultiplyTransposed(const Vec& x) const;

  /// A^T x written into *out (resized to cols()); no allocation when
  /// out's capacity suffices. out must not alias x. The returning form
  /// wraps this one, so both give the same bits.
  void MultiplyTransposed(const Vec& x, Vec* out) const;

  /// Matrix-matrix product; this->cols() must equal other.rows().
  /// Cache-blocked (i-k-j inside square tiles) so large products — batched
  /// forward passes, per-region affine-map composition — stream each tile
  /// of B through cache once per tile of A instead of once per row.
  Matrix Multiply(const Matrix& other) const;

  /// A * B^T with B given row-major: this (m x k) * other^T (k x n) for
  /// other (n x k). Every output entry is a dot product of two contiguous
  /// rows, making this the cache-friendly kernel for batched layer
  /// forwards Z = X W^T (X rows = samples, W rows = output units). Each
  /// output's dot accumulates left to right in its own vector lane,
  /// bit-matching Multiply(const Vec&) on each row — the batch/single
  /// parity contract.
  Matrix MultiplyABt(const Matrix& other) const;

  /// Adds `row` to every row in place (bias broadcast; row.size() == cols).
  void AddRowInPlace(const Vec& row);

  /// A^T (cols x rows).
  Matrix Transposed() const;

  /// Element-wise sum / difference; shapes must match.
  Matrix Add(const Matrix& other) const;
  Matrix Sub(const Matrix& other) const;

  /// Scales every element by s in place.
  void ScaleInPlace(double s);

  /// Frobenius norm.
  double FrobeniusNorm() const;

  /// Max |a_ij|.
  double MaxAbs() const;

  /// True iff every entry is finite.
  bool AllFinite() const;

  /// Flat row-major data access (for serialization and tests). The
  /// buffer is a std::vector with a 64-byte-aligned allocator; element
  /// access and iteration are identical to std::vector<double>.
  const AlignedBuffer& data() const { return data_; }
  AlignedBuffer& mutable_data() { return data_; }

  bool operator==(const Matrix& other) const = default;

 private:
  size_t rows_;
  size_t cols_;
  AlignedBuffer data_;
};

}  // namespace openapi::linalg

#endif  // OPENAPI_LINALG_MATRIX_H_
