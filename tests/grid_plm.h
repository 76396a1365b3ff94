// The shared synthetic endpoint of the serving tests: [0,1]^2 x R^(d-2)
// split into a k x k grid of axis-aligned cells over dims 0 and 1, each
// its own locally linear region. Every cell is a genuine region whose
// exact local model a test can hand to ImportRegion or compare an
// extraction against, and every cell center is a guaranteed distinct
// region — the backend for capacity pressure, warm restarts, drift and
// one-request-per-region (always-miss) tests.

#ifndef OPENAPI_TESTS_GRID_PLM_H_
#define OPENAPI_TESTS_GRID_PLM_H_

#include <utility>
#include <vector>

#include "api/plm.h"
#include "util/rng.h"

namespace openapi::interpret {

using linalg::Vec;

class GridPlm : public api::Plm {
 public:
  /// Cell models are drawn from `rng` in row-major cell order; cell n's
  /// bias leans +4 toward class n % num_classes, so argmax classes are
  /// balanced across the grid.
  GridPlm(size_t d, size_t num_classes, size_t k, util::Rng* rng)
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
      model.bias[cell % num_classes] += 4.0;
      cells_.push_back(std::move(model));
    }
  }

  size_t dim() const override { return d_; }
  size_t num_classes() const override { return num_classes_; }
  Vec Predict(const Vec& x) const override {
    return api::EvaluateLocalModel(cells_[CellOf(x)], x);
  }

  /// The hidden model of cell (i, j), as the white box holds it: column 0
  /// of the weights and bias[0] are not zero, so it is NOT canonical.
  const api::LocalLinearModel& CellModel(size_t i, size_t j) const {
    return cells_[i * k_ + j];
  }
  /// Center of cell (i, j), region-interior by construction.
  Vec CellCenter(size_t i, size_t j) const {
    Vec x(d_, 0.5);
    x[0] = (static_cast<double>(i) + 0.5) / static_cast<double>(k_);
    x[1] = (static_cast<double>(j) + 0.5) / static_cast<double>(k_);
    return x;
  }
  /// Half the edge of a cell along dims 0 and 1.
  double CellHalfEdge() const { return 0.5 / static_cast<double>(k_); }

  /// Cells numbered row-major: cell n is (n / k, n % k).
  Vec NthCellCenter(size_t n) const { return CellCenter(n / k_, n % k_); }
  const api::LocalLinearModel& NthCellModel(size_t n) const {
    return cells_[n];
  }
  /// An interior point of cell n that is NOT its center (offset along
  /// dims 0 and 1, x[2] moved off 0.5; needs d >= 3), for tests that
  /// must not coincide with a center-anchored memo entry.
  Vec CellPoint(size_t n) const {
    const size_t i = n / k_, j = n % k_;
    Vec x(d_, 0.5);
    x[0] = (static_cast<double>(i) + 0.55) / static_cast<double>(k_);
    x[1] = (static_cast<double>(j) + 0.45) / static_cast<double>(k_);
    x[2] = 0.3;
    return x;
  }

 private:
  size_t CellOf(const Vec& x) const {
    auto axis = [this](double v) {
      double scaled = v * static_cast<double>(k_);
      if (scaled < 0.0) scaled = 0.0;
      size_t idx = static_cast<size_t>(scaled);
      return idx >= k_ ? k_ - 1 : idx;
    };
    return axis(x[0]) * k_ + axis(x[1]);
  }

  size_t d_, num_classes_, k_;
  std::vector<api::LocalLinearModel> cells_;
};

}  // namespace openapi::interpret

#endif  // OPENAPI_TESTS_GRID_PLM_H_
