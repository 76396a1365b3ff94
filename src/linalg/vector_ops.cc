#include "linalg/vector_ops.h"

#include <algorithm>
#include <cmath>

#include "linalg/simd.h"
#include "util/check.h"

namespace openapi::linalg {

double Dot(const Vec& a, const Vec& b) {
  OPENAPI_CHECK_EQ(a.size(), b.size());
  double sum = 0.0;
  for (size_t i = 0; i < a.size(); ++i) sum += a[i] * b[i];
  return sum;
}

double Norm1(const Vec& a) {
  double sum = 0.0;
  for (double x : a) sum += std::fabs(x);
  return sum;
}

double Norm2(const Vec& a) { return std::sqrt(Dot(a, a)); }

double NormInf(const Vec& a) {
  double best = 0.0;
  for (double x : a) best = std::max(best, std::fabs(x));
  return best;
}

double L1Distance(const Vec& a, const Vec& b) {
  OPENAPI_CHECK_EQ(a.size(), b.size());
  double sum = 0.0;
  for (size_t i = 0; i < a.size(); ++i) sum += std::fabs(a[i] - b[i]);
  return sum;
}

double L2Distance(const Vec& a, const Vec& b) {
  OPENAPI_CHECK_EQ(a.size(), b.size());
  double sum = 0.0;
  for (size_t i = 0; i < a.size(); ++i) {
    double diff = a[i] - b[i];
    sum += diff * diff;
  }
  return std::sqrt(sum);
}

double CosineSimilarity(const Vec& a, const Vec& b) {
  double na = Norm2(a);
  double nb = Norm2(b);
  if (na == 0.0 || nb == 0.0) return 0.0;
  return Dot(a, b) / (na * nb);
}

Vec Add(const Vec& a, const Vec& b) {
  OPENAPI_CHECK_EQ(a.size(), b.size());
  Vec out(a.size());
  for (size_t i = 0; i < a.size(); ++i) out[i] = a[i] + b[i];
  return out;
}

Vec Sub(const Vec& a, const Vec& b) {
  OPENAPI_CHECK_EQ(a.size(), b.size());
  Vec out(a.size());
  for (size_t i = 0; i < a.size(); ++i) out[i] = a[i] - b[i];
  return out;
}

Vec Scale(const Vec& a, double s) {
  Vec out(a.size());
  for (size_t i = 0; i < a.size(); ++i) out[i] = a[i] * s;
  return out;
}

Vec Hadamard(const Vec& a, const Vec& b) {
  OPENAPI_CHECK_EQ(a.size(), b.size());
  Vec out(a.size());
  for (size_t i = 0; i < a.size(); ++i) out[i] = a[i] * b[i];
  return out;
}

void Axpy(double alpha, const Vec& x, Vec* y) {
  OPENAPI_CHECK_EQ(x.size(), y->size());
  for (size_t i = 0; i < x.size(); ++i) (*y)[i] += alpha * x[i];
}

size_t ArgMax(const Vec& a) {
  OPENAPI_CHECK(!a.empty());
  size_t best = 0;
  for (size_t i = 1; i < a.size(); ++i) {
    if (a[i] > a[best]) best = i;
  }
  return best;
}

bool AllFinite(const Vec& a) {
  for (double x : a) {
    if (!std::isfinite(x)) return false;
  }
  return true;
}

Vec Softmax(const Vec& logits) {
  OPENAPI_CHECK(!logits.empty());
  Vec out(logits.size());
  SoftmaxInto(logits.data(), logits.size(), out.data());
  return out;
}

void SoftmaxInto(const double* logits, size_t n, double* out) {
  OPENAPI_CHECK_GT(n, 0u);
  // Max scan and exp-sum stay scalar: the sum is a reduction whose order
  // fixes the result, and exp is a libm call. Only the element-wise
  // normalization widens — division is per-element, so the lanes are
  // bit-identical to a scalar divide loop.
  double max_logit = logits[0];
  for (size_t i = 1; i < n; ++i) max_logit = std::max(max_logit, logits[i]);
  double sum = 0.0;
  for (size_t i = 0; i < n; ++i) {
    out[i] = std::exp(logits[i] - max_logit);
    sum += out[i];
  }
  const simd::D4 sum4 = simd::D4::Broadcast(sum);
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    (simd::D4::Load(out + i) / sum4).Store(out + i);
  }
  for (; i < n; ++i) out[i] /= sum;
}

Vec LogSoftmax(const Vec& logits) {
  OPENAPI_CHECK(!logits.empty());
  double max_logit = *std::max_element(logits.begin(), logits.end());
  double sum = 0.0;
  for (double x : logits) sum += std::exp(x - max_logit);
  double log_sum = max_logit + std::log(sum);
  Vec out(logits.size());
  for (size_t i = 0; i < logits.size(); ++i) out[i] = logits[i] - log_sum;
  return out;
}

}  // namespace openapi::linalg
