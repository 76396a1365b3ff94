// Free functions over dense vectors (std::vector<double>).
//
// The library standardizes on `linalg::Vec` (a std::vector<double> alias)
// for feature vectors, probability vectors, and decision-feature vectors.
// Operations that the paper's math uses directly — dot products, L1/L2/inf
// norms, cosine similarity (Fig. 4's consistency metric) — live here.

#ifndef OPENAPI_LINALG_VECTOR_OPS_H_
#define OPENAPI_LINALG_VECTOR_OPS_H_

#include <cstddef>
#include <vector>

namespace openapi::linalg {

using Vec = std::vector<double>;

/// Dot product. Sizes must match.
double Dot(const Vec& a, const Vec& b);

/// Sum of |a_i| (L1 norm).
double Norm1(const Vec& a);

/// Euclidean norm.
double Norm2(const Vec& a);

/// Max |a_i| (infinity norm). Returns 0 for empty vectors.
double NormInf(const Vec& a);

/// ||a - b||_1. Sizes must match.
double L1Distance(const Vec& a, const Vec& b);

/// ||a - b||_2. Sizes must match.
double L2Distance(const Vec& a, const Vec& b);

/// Cosine similarity a.b / (||a|| ||b||); 0 if either vector is all-zero.
double CosineSimilarity(const Vec& a, const Vec& b);

/// Element-wise a + b.
Vec Add(const Vec& a, const Vec& b);

/// Element-wise a - b.
Vec Sub(const Vec& a, const Vec& b);

/// s * a.
Vec Scale(const Vec& a, double s);

/// Element-wise product.
Vec Hadamard(const Vec& a, const Vec& b);

/// y += alpha * x (BLAS axpy). Sizes must match.
void Axpy(double alpha, const Vec& x, Vec* y);

/// Index of the maximum entry; ties broken toward the lowest index.
/// Vector must be non-empty.
size_t ArgMax(const Vec& a);

/// True iff every entry is finite.
bool AllFinite(const Vec& a);

/// Numerically stable softmax of `logits`. The max scan and exp-sum are
/// scalar left-to-right loops; the final normalization divides in vector
/// lanes, bit-identical to a scalar divide loop.
Vec Softmax(const Vec& logits);

/// Softmax of logits[0..n) written into out[0..n) (may not alias). The
/// raw-pointer form lets batch forwards softmax one matrix row directly
/// into a reusable output buffer — no row copy, no allocation. Identical
/// arithmetic to Softmax (same max, same summation order).
void SoftmaxInto(const double* logits, size_t n, double* out);

/// Numerically stable log-softmax of `logits`.
Vec LogSoftmax(const Vec& logits);

}  // namespace openapi::linalg

#endif  // OPENAPI_LINALG_VECTOR_OPS_H_
