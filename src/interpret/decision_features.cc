#include "interpret/decision_features.h"

#include <cmath>

#include "util/string_util.h"

namespace openapi::interpret {

Vec CombinePairEstimates(const std::vector<CoreParameters>& pairs) {
  OPENAPI_CHECK(!pairs.empty());
  const size_t d = pairs[0].d.size();
  Vec dc(d, 0.0);
  for (const CoreParameters& pair : pairs) {
    OPENAPI_CHECK_EQ(pair.d.size(), d);
    linalg::Axpy(1.0, pair.d, &dc);
  }
  const double scale = 1.0 / static_cast<double>(pairs.size());
  for (double& v : dc) v *= scale;
  return dc;
}

std::vector<Vec> SampleHypercube(const Vec& x0, double r, size_t count,
                                 util::Rng* rng) {
  std::vector<Vec> probes;
  SampleHypercube(x0, r, count, rng, &probes);
  return probes;
}

void SampleHypercube(const Vec& x0, double r, size_t count, util::Rng* rng,
                     std::vector<Vec>* out) {
  out->resize(count);
  for (size_t i = 0; i < count; ++i) {
    Vec& p = (*out)[i];
    p.resize(x0.size());
    for (size_t j = 0; j < x0.size(); ++j) {
      p[j] = x0[j] + rng->Uniform(-r, r);
    }
  }
}

Matrix BuildCoefficientMatrix(const Vec& x0,
                              const std::vector<Vec>& probes) {
  const size_t d = x0.size();
  Matrix a(probes.size() + 1, d + 1);
  a(0, 0) = 1.0;
  for (size_t j = 0; j < d; ++j) a(0, j + 1) = x0[j];
  for (size_t i = 0; i < probes.size(); ++i) {
    OPENAPI_CHECK_EQ(probes[i].size(), d);
    a(i + 1, 0) = 1.0;
    for (size_t j = 0; j < d; ++j) a(i + 1, j + 1) = probes[i][j];
  }
  return a;
}

Result<double> LogOdds(const Vec& y, size_t c, size_t c_prime) {
  OPENAPI_CHECK_LT(c, y.size());
  OPENAPI_CHECK_LT(c_prime, y.size());
  if (y[c] <= 0.0 || y[c_prime] <= 0.0) {
    return Status::NumericalError(util::StrFormat(
        "softmax saturation: y[%zu]=%g y[%zu]=%g", c, y[c], c_prime,
        y[c_prime]));
  }
  return std::log(y[c]) - std::log(y[c_prime]);
}

ObservedOdds::ObservedOdds(const Vec& y)
    : argmax(linalg::ArgMax(y)), log_odds(y.size()) {
  for (double p : y) usable = usable && p >= kMinUsableProb && std::isfinite(p);
  if (!usable) return;
  const double log_a = std::log(y[argmax]);
  for (size_t k = 0; k < y.size(); ++k) log_odds[k] = std::log(y[k]) - log_a;
}

bool ExplainsObservation(const api::LocalLinearModel& model, const Vec& x,
                         const ObservedOdds& observed, double tol,
                         Vec* logits) {
  if (!observed.usable) return false;
  model.weights.MultiplyTransposed(x, logits);
  const Vec& z = *logits;
  const double z_a = z[observed.argmax] + model.bias[observed.argmax];
  for (size_t k = 0; k < z.size(); ++k) {  // k == a checks z_a is finite
    const double l_k = observed.log_odds[k];
    // Negated so a NaN fails too.
    if (!(std::fabs((z[k] + model.bias[k] - z_a) - l_k) <=
          tol * (1.0 + std::fabs(l_k)))) {
      return false;
    }
  }
  return true;
}

Result<Vec> BuildLogOddsRhs(const std::vector<Vec>& predictions, size_t c,
                            size_t c_prime) {
  Vec rhs;
  OPENAPI_RETURN_NOT_OK(BuildLogOddsRhs(predictions, c, c_prime, &rhs));
  return rhs;
}

Status BuildLogOddsRhs(const std::vector<Vec>& predictions, size_t c,
                       size_t c_prime, Vec* rhs) {
  rhs->resize(predictions.size());
  for (size_t i = 0; i < predictions.size(); ++i) {
    OPENAPI_ASSIGN_OR_RETURN((*rhs)[i], LogOdds(predictions[i], c, c_prime));
  }
  return Status::OK();
}

std::vector<CoreParameters> ConvertReferencePairs(
    const std::vector<CoreParameters>& ref_pairs, size_t ref, size_t c) {
  const size_t num_classes = ref_pairs.size() + 1;
  OPENAPI_CHECK_LT(ref, num_classes);
  OPENAPI_CHECK_LT(c, num_classes);
  if (ref == c) return ref_pairs;
  // Pair (ref, k) sits at index k (k < ref) or k-1 (k > ref).
  auto pair_of = [&](size_t k) -> const CoreParameters& {
    return ref_pairs[k < ref ? k : k - 1];
  };
  const CoreParameters& ref_c = pair_of(c);  // (D_{ref,c}, B_{ref,c})
  const size_t d = ref_c.d.size();
  std::vector<CoreParameters> out;
  out.reserve(num_classes - 1);
  for (size_t k = 0; k < num_classes; ++k) {
    if (k == c) continue;
    CoreParameters pair;
    pair.d.resize(d);
    if (k == ref) {
      for (size_t j = 0; j < d; ++j) pair.d[j] = -ref_c.d[j];
      pair.b = -ref_c.b;
    } else {
      const CoreParameters& ref_k = pair_of(k);
      OPENAPI_CHECK_EQ(ref_k.d.size(), d);
      for (size_t j = 0; j < d; ++j) pair.d[j] = ref_k.d[j] - ref_c.d[j];
      pair.b = ref_k.b - ref_c.b;
    }
    out.push_back(std::move(pair));
  }
  return out;
}

api::LocalLinearModel CanonicalModelFromPairs(
    const std::vector<CoreParameters>& pairs, size_t d) {
  const size_t num_classes = pairs.size() + 1;
  api::LocalLinearModel model;
  model.weights = Matrix(d, num_classes);
  model.bias.assign(num_classes, 0.0);
  for (size_t c = 1; c < num_classes; ++c) {
    const CoreParameters& pair = pairs[c - 1];
    OPENAPI_CHECK_EQ(pair.d.size(), d);
    for (size_t j = 0; j < d; ++j) {
      model.weights(j, c) = -pair.d[j];
    }
    model.bias[c] = -pair.b;
  }
  return model;
}

uint64_t LocalModelFingerprint(const api::LocalLinearModel& model,
                               double resolution) {
  OPENAPI_CHECK_GT(resolution, 0.0);
  const Matrix& w = model.weights;
  const size_t rows = w.rows();
  const size_t cols = w.cols();
  // Pin the softmax gauge in place: hash W - W(:,0) 1^T and b - b[0], the
  // canonical form of the model. A canonical input has a zero column 0
  // and bias[0] == 0, so its entries pass through bit-unchanged.
  const double b0 = model.bias.empty() ? 0.0 : model.bias[0];
  double scale = 0.0;
  for (size_t j = 0; j < rows; ++j) {
    const double* row = w.RowPtr(j);
    for (size_t c = 0; c < cols; ++c) {
      scale = std::max(scale, std::fabs(row[c] - row[0]));
    }
  }
  for (double b : model.bias) scale = std::max(scale, std::fabs(b - b0));
  if (scale == 0.0) scale = 1.0;
  const double quantum = scale * resolution;
  uint64_t h = 1469598103934665603ULL;
  auto mix = [&h](int64_t v) {
    h ^= static_cast<uint64_t>(v);
    h *= 1099511628211ULL;
  };
  for (size_t j = 0; j < rows; ++j) {
    const double* row = w.RowPtr(j);
    for (size_t c = 0; c < cols; ++c) {
      mix(static_cast<int64_t>(std::llround((row[c] - row[0]) / quantum)));
    }
  }
  for (double b : model.bias) {
    mix(static_cast<int64_t>(std::llround((b - b0) / quantum)));
  }
  mix(static_cast<int64_t>(rows));
  mix(static_cast<int64_t>(cols));
  return h;
}

}  // namespace openapi::interpret
