// Bit-exactness of the SIMD kernels against the scalar oracle.
//
// The vectorized kernels widen only the output-column loop, so each
// output element accumulates over the contraction index in the order of
// the plain scalar loops in reference_kernels.h, and the doubles must be
// IDENTICAL on every input. These tests diff library output against the
// oracle element-for-element (bit patterns, no tolerance) across odd
// shapes, tail columns, and unaligned row starts — the cases where a
// lane kernel's main loop, tail loop, and alignment handling can
// silently diverge.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <limits>
#include <vector>

#include "linalg/matrix.h"
#include "linalg/qr.h"
#include "linalg/vector_ops.h"
#include "reference_kernels.h"
#include "util/rng.h"

namespace openapi::linalg {
namespace {

Matrix RandomMatrix(size_t rows, size_t cols, util::Rng* rng) {
  Matrix m(rows, cols);
  for (double& x : m.mutable_data()) x = rng->Uniform(-2.0, 2.0);
  return m;
}

Vec RandomVec(size_t n, util::Rng* rng) {
  return rng->UniformVector(n, -2.0, 2.0);
}

/// Requires bitwise-equal results: NaN-safe, and catches the -0.0 vs
/// +0.0 slips a value comparison would miss.
template <typename Expected, typename Actual>
void ExpectBitIdentical(const Expected& expected, const Actual& actual,
                        const char* label) {
  ASSERT_EQ(expected.size(), actual.size()) << label;
  for (size_t i = 0; i < expected.size(); ++i) {
    int64_t expected_bits, actual_bits;
    static_assert(sizeof(double) == sizeof(int64_t));
    std::memcpy(&expected_bits, &expected[i], sizeof(double));
    std::memcpy(&actual_bits, &actual[i], sizeof(double));
    ASSERT_EQ(expected_bits, actual_bits)
        << label << " diverges at flat index " << i << ": " << expected[i]
        << " vs " << actual[i];
  }
}

// Shapes chosen to hit every tail path: < one lane, exactly one lane,
// lane + remainder (1, 2, 3 over), multiple lanes of both widths, and
// shapes whose odd column counts force every row past the first to start
// misaligned within the 64-byte-aligned buffer.
struct Shape {
  size_t m, k, n;
};
const Shape kShapes[] = {
    {1, 1, 1},   {2, 3, 2},    {3, 5, 7},   {4, 4, 4},   {5, 9, 6},
    {7, 3, 13},  {8, 16, 8},   {9, 17, 11}, {12, 31, 5}, {16, 64, 16},
    {17, 65, 19}, {33, 129, 37}, {64, 64, 64}, {70, 100, 66},
};

TEST(SimdParityTest, MultiplyMatrixMatchesReference) {
  util::Rng rng(101);
  for (const Shape& s : kShapes) {
    Matrix a = RandomMatrix(s.m, s.k, &rng);
    Matrix b = RandomMatrix(s.k, s.n, &rng);
    ExpectBitIdentical(reference::Multiply(a, b).data(), a.Multiply(b).data(),
                       "Multiply");
  }
}

TEST(SimdParityTest, MultiplyABtMatchesReference) {
  util::Rng rng(102);
  for (const Shape& s : kShapes) {
    Matrix a = RandomMatrix(s.m, s.k, &rng);
    Matrix b = RandomMatrix(s.n, s.k, &rng);
    ExpectBitIdentical(reference::MultiplyABt(a, b).data(),
                       a.MultiplyABt(b).data(), "MultiplyABt");
  }
}

TEST(SimdParityTest, MultiplyABtMatchesMatrixVectorRowByRow) {
  // The deeper contract: each batched output row equals the scalar
  // matrix-vector product exactly — the batch/single parity the forward
  // passes rely on (Layer::ForwardBatch vs Layer::Forward).
  util::Rng rng(103);
  for (const Shape& s : kShapes) {
    Matrix x = RandomMatrix(s.m, s.k, &rng);
    Matrix w = RandomMatrix(s.n, s.k, &rng);
    Matrix z = x.MultiplyABt(w);
    for (size_t i = 0; i < s.m; ++i) {
      Vec zi = w.Multiply(x.Row(i));
      for (size_t j = 0; j < s.n; ++j) {
        ASSERT_EQ(z(i, j), zi[j]) << "row " << i << " col " << j;
      }
    }
  }
}

TEST(SimdParityTest, MultiplyTransposedMatchesReference) {
  util::Rng rng(104);
  for (const Shape& s : kShapes) {
    Matrix a = RandomMatrix(s.m, s.k, &rng);
    Vec x = RandomVec(s.m, &rng);
    ExpectBitIdentical(reference::MultiplyTransposed(a, x),
                       a.MultiplyTransposed(x), "MultiplyTransposed");
    // The write-into form overwrites a reused buffer of any old size
    // with the same bits.
    Vec out(s.k + 3, 7.0);
    a.MultiplyTransposed(x, &out);
    ExpectBitIdentical(reference::MultiplyTransposed(a, x), out,
                       "MultiplyTransposed into");
  }
}

TEST(SimdParityTest, AddRowInPlaceMatchesReference) {
  util::Rng rng(105);
  for (const Shape& s : kShapes) {
    Matrix base = RandomMatrix(s.m, s.n, &rng);
    Vec row = RandomVec(s.n, &rng);
    Matrix expected = base;
    reference::AddRowInPlace(row, &expected);
    Matrix actual = base;
    actual.AddRowInPlace(row);
    ExpectBitIdentical(expected.data(), actual.data(), "AddRowInPlace");
  }
}

TEST(SimdParityTest, SoftmaxMatchesReference) {
  util::Rng rng(106);
  for (size_t n : {1u, 2u, 3u, 4u, 5u, 7u, 8u, 9u, 15u, 100u}) {
    Vec logits = RandomVec(n, &rng);
    ExpectBitIdentical(reference::Softmax(logits), Softmax(logits),
                       "Softmax");
  }
}

TEST(SimdParityTest, SoftmaxIntoMatchesSoftmax) {
  util::Rng rng(107);
  for (size_t n : {1u, 3u, 8u, 13u}) {
    Vec logits = RandomVec(n, &rng);
    Vec out(n, -1.0);
    SoftmaxInto(logits.data(), n, out.data());
    ExpectBitIdentical(reference::Softmax(logits), out, "SoftmaxInto");
  }
}

TEST(SimdParityTest, ZeroEntriesSkipIdentically) {
  // The blocked GEMM skips exact-zero a_ik like the oracle; a SIMD path
  // that multiplied through instead would turn 0 * inf into NaN.
  Matrix a{{0.0, 1.0}, {2.0, 0.0}};
  Matrix b(2, 9);
  for (double& x : b.mutable_data()) x = 3.0;
  b(0, 0) = std::numeric_limits<double>::infinity();
  ExpectBitIdentical(reference::Multiply(a, b).data(), a.Multiply(b).data(),
                     "Multiply with zero-row skip");
}

TEST(SimdParityTest, UnalignedViewsThroughOddLeadingRows) {
  // Row r of a (rows x 5) matrix starts at offset 5r doubles: rows 1..7
  // cover every misalignment of a 64-byte line. The kernel must match the
  // oracle on each row regardless of where it starts.
  util::Rng rng(108);
  Matrix a = RandomMatrix(8, 5, &rng);
  Matrix b = RandomMatrix(9, 5, &rng);
  ExpectBitIdentical(reference::MultiplyABt(a, b).data(),
                     a.MultiplyABt(b).data(), "MultiplyABt odd-stride rows");
}

TEST(SimdParityTest, QrFactorAndSolveMatchReference) {
  // The Householder trailing-column update widens over j; factorization
  // and least-squares solutions must be bit-identical to the scalar
  // oracle, including the residual diagnostics the consistency test
  // reads. Both factorizations must succeed: a kernel change that broke
  // factoring must not pass as two equal failures.
  util::Rng rng(109);
  for (const Shape& s : kShapes) {
    if (s.m < s.k) continue;  // QR needs rows >= cols
    Matrix a = RandomMatrix(s.m, s.k, &rng);
    Vec b = RandomVec(s.m, &rng);
    auto qr = QrDecomposition::Factor(a);
    ASSERT_TRUE(qr.ok()) << qr.status().ToString();
    reference::Qr oracle;
    ASSERT_TRUE(oracle.Factor(a)) << s.m << "x" << s.k;
    LeastSquaresSolution solution = qr->Solve(b);
    Vec x;
    double norm2 = 0.0, norminf = 0.0;
    oracle.Solve(b, &x, &norm2, &norminf);
    ExpectBitIdentical(x, solution.x, "QR solution");
    ExpectBitIdentical(Vec{norm2, norminf},
                       Vec{solution.residual_norm2, solution.residual_norminf},
                       "QR residual norms");
  }
}

TEST(AlignedStorageTest, MatrixBufferIsCacheLineAligned) {
  for (size_t rows : {1u, 3u, 17u}) {
    Matrix m(rows, 7);
    EXPECT_EQ(reinterpret_cast<uintptr_t>(m.data().data()) % 64, 0u);
  }
}

}  // namespace
}  // namespace openapi::linalg
