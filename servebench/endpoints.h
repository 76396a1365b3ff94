// Endpoints the serving benchmark drives, plus the decorators its traced
// run puts between the engine and the model.
//
//   * GridEndpoint: [0,1]^2 x R^(d-2) cut into k x k cells, each its own
//     locally linear region with a random model (the shape of
//     bench_scaling's GridPlm), with a white-box oracle for checking
//     answers. It lets a run hold 10^5 regions whose answers are cheap.
//   * TracedApi / TracedPlm: forward the whole virtual surface of
//     api::PredictionApi / api::Plm and record an "api" / "nn" span around
//     each call. TracedApi also tags the calling thread with the request
//     whose x0 opens a call, which ties spans on engine pool threads to
//     requests.

#ifndef OPENAPI_SERVEBENCH_ENDPOINTS_H_
#define OPENAPI_SERVEBENCH_ENDPOINTS_H_

#include <atomic>
#include <cstdint>
#include <cstring>
#include <unordered_map>
#include <vector>

#include "api/plm.h"
#include "api/prediction_api.h"
#include "harness.h"
#include "util/rng.h"

namespace openapi::servebench {

using linalg::Vec;

class GridEndpoint : public api::Plm, public api::PlmOracle {
 public:
  GridEndpoint(size_t d, size_t num_classes, size_t k, util::Rng* rng)
      : d_(d), num_classes_(num_classes), k_(k) {
    cells_.reserve(k * k);
    for (size_t cell = 0; cell < k * k; ++cell) {
      api::LocalLinearModel model;
      model.weights = linalg::Matrix(d, num_classes);
      for (size_t j = 0; j < d; ++j) {
        for (size_t c = 0; c < num_classes; ++c) {
          model.weights(j, c) = rng->Uniform(-0.5, 0.5);
        }
      }
      model.bias = rng->UniformVector(num_classes, -0.5, 0.5);
      // The dominant class cycles through all C classes, so every argmax
      // partition of the caches holds about n / C regions.
      model.bias[cell % num_classes] += 4.0;
      cells_.push_back(std::move(model));
    }
  }

  size_t dim() const override { return d_; }
  size_t num_classes() const override { return num_classes_; }
  Vec Predict(const Vec& x) const override {
    return api::EvaluateLocalModel(cells_[CellOf(x)], x);
  }

  uint64_t RegionId(const Vec& x) const override { return CellOf(x); }
  api::LocalLinearModel LocalModelAt(const Vec& x) const override {
    return cells_[CellOf(x)];
  }

  size_t num_cells() const { return cells_.size(); }
  const api::LocalLinearModel& CellModel(size_t cell) const {
    return cells_[cell];
  }
  /// Centre of a cell: 0.5 on every axis the cells do not split.
  Vec CellCenter(size_t cell) const { return CellCenter(cell, d_, k_); }
  double HalfEdge() const { return HalfEdge(k_); }

  /// Geometry without a model, so inputs can be made before set-up.
  static Vec CellCenter(size_t cell, size_t d, size_t k) {
    Vec x(d, 0.5);
    x[0] = (static_cast<double>(cell / k) + 0.5) / static_cast<double>(k);
    x[1] = (static_cast<double>(cell % k) + 0.5) / static_cast<double>(k);
    return x;
  }
  static double HalfEdge(size_t k) { return 0.5 / static_cast<double>(k); }

  /// A uniform point of the cube of half-edge 0.98 * HalfEdge around the
  /// cell centre: inside the cell on the split axes and inside the
  /// certificate box ImportRegion files for the cell, with a margin that
  /// keeps the engine's 1e-6 validation probe inside the cell too.
  static Vec PointIn(size_t cell, size_t d, size_t k, util::Rng* rng) {
    Vec x = CellCenter(cell, d, k);
    const double h = 0.98 * HalfEdge(k);
    for (double& v : x) v += rng->Uniform(-h, h);
    return x;
  }

 private:
  size_t CellOf(const Vec& x) const {
    auto axis = [this](double v) {
      double scaled = v * static_cast<double>(k_);
      if (scaled < 0.0) scaled = 0.0;
      const size_t idx = static_cast<size_t>(scaled);
      return idx >= k_ ? k_ - 1 : idx;
    };
    return axis(x[0]) * k_ + axis(x[1]);
  }

  size_t d_, num_classes_, k_;
  std::vector<api::LocalLinearModel> cells_;
};

/// 64-bit FNV-1a over a point's raw double bits.
inline uint64_t PointHash(const Vec& x) {
  uint64_t h = 1469598103934665603ULL;
  for (double v : x) {
    uint64_t bits;
    std::memcpy(&bits, &v, sizeof(bits));
    h = (h ^ bits) * 1099511628211ULL;
  }
  return h;
}

/// x0 -> request id of every request of a run, built before the clock
/// starts. A repeated x0 keeps its first id.
using RequestKeys = std::unordered_map<uint64_t, int64_t>;

class TracedPlm : public api::Plm {
 public:
  explicit TracedPlm(const api::Plm* inner) : inner_(inner) {}

  size_t dim() const override { return inner_->dim(); }
  size_t num_classes() const override { return inner_->num_classes(); }
  Vec Predict(const Vec& x) const override {
    ScopedSpan span("nn");
    span.set_count(1);
    return inner_->Predict(x);
  }
  std::vector<Vec> PredictBatch(const std::vector<Vec>& xs) const override {
    ScopedSpan span("nn");
    span.set_count(xs.size());
    return inner_->PredictBatch(xs);
  }

 private:
  const api::Plm* inner_;
};

class TracedApi : public api::PredictionApi {
 public:
  /// Decorates `inner` (not owned). `keys` (not owned) maps request x0s
  /// to ids; a call whose first row is a known x0 re-tags the thread.
  TracedApi(api::PredictionApi* inner, const RequestKeys* keys)
      : inner_(inner), keys_(keys) {}

  size_t dim() const override { return inner_->dim(); }
  size_t num_classes() const override { return inner_->num_classes(); }

  Vec Predict(const Vec& x) const override {
    Tag(x);
    ScopedSpan span("api");
    span.set_count(1);
    return inner_->Predict(x);
  }

  Result<std::vector<Vec>> TryPredictBatch(
      const std::vector<Vec>& xs,
      uint64_t* rows_consumed = nullptr) const override {
    if (!xs.empty()) Tag(xs[0]);
    ScopedSpan span("api");
    span.set_count(xs.size());
    Result<std::vector<Vec>> rows = inner_->TryPredictBatch(xs, rows_consumed);
    if (!rows.ok()) refusals_.fetch_add(1, std::memory_order_relaxed);
    return rows;
  }

  uint64_t ReserveBatch(size_t count) const override {
    return inner_->ReserveBatch(count);
  }
  std::vector<Vec> PredictBatchReserved(const std::vector<Vec>& xs,
                                        uint64_t first_ticket) const override {
    if (!xs.empty()) Tag(xs[0]);
    ScopedSpan span("api");
    span.set_count(xs.size());
    return inner_->PredictBatchReserved(xs, first_ticket);
  }
  Result<std::vector<Vec>> TryPredictBatchReserved(
      const std::vector<Vec>& xs, uint64_t first_ticket) const override {
    if (!xs.empty()) Tag(xs[0]);
    ScopedSpan span("api");
    span.set_count(xs.size());
    Result<std::vector<Vec>> rows =
        inner_->TryPredictBatchReserved(xs, first_ticket);
    if (!rows.ok()) refusals_.fetch_add(1, std::memory_order_relaxed);
    return rows;
  }

  uint64_t query_count() const override { return inner_->query_count(); }
  void ResetQueryCount() override { inner_->ResetQueryCount(); }
  void ResetNoiseStream() override { inner_->ResetNoiseStream(); }

  /// Calls the endpoint refused.
  uint64_t refusals() const {
    return refusals_.load(std::memory_order_relaxed);
  }

 private:
  void Tag(const Vec& x) const {
    Tracer* tracer = Tracer::Current();
    if (tracer == nullptr || keys_ == nullptr) return;
    auto it = keys_->find(PointHash(x));
    if (it != keys_->end()) tracer->SetRequest(it->second);
  }

  api::PredictionApi* inner_;
  const RequestKeys* keys_;
  mutable std::atomic<uint64_t> refusals_{0};
};

}  // namespace openapi::servebench

#endif  // OPENAPI_SERVEBENCH_ENDPOINTS_H_
