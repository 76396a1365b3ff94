#include "api/plm.h"

#include <algorithm>

#include "util/thread_pool.h"

namespace openapi::api {

std::vector<Vec> Plm::PredictBatch(const std::vector<Vec>& xs) const {
  std::vector<Vec> out;
  out.reserve(xs.size());
  for (const Vec& x : xs) out.push_back(Predict(x));
  return out;
}

void ParallelForwardRowBlocks(
    size_t n, const std::function<void(size_t, size_t)>& fn) {
  if (n == 0) return;
  util::ThreadPool* pool =
      n >= kParallelForwardMinBatch ? util::SharedThreadPool() : nullptr;
  if (pool == nullptr || pool->OnWorkerThread() || pool->num_threads() == 1) {
    fn(0, n);
    return;
  }
  // One block per worker, but never smaller than half the crossover
  // batch: a sliver block would pay the hand-off for less GEMM than it
  // amortizes. Block boundaries depend only on (n, num_threads), and
  // per-row results do not depend on the split at all.
  const size_t min_block = kParallelForwardMinBatch / 2;
  const size_t num_blocks =
      std::min(pool->num_threads(), std::max<size_t>(1, n / min_block));
  const size_t block = (n + num_blocks - 1) / num_blocks;
  util::ParallelFor(pool, num_blocks, [&](size_t b) {
    const size_t begin = b * block;
    const size_t end = std::min(begin + block, n);
    if (begin < end) fn(begin, end);
  });
}

Vec EvaluateLocalModel(const LocalLinearModel& model, const Vec& x) {
  Vec logits = model.weights.MultiplyTransposed(x);
  for (size_t c = 0; c < logits.size(); ++c) logits[c] += model.bias[c];
  return linalg::Softmax(logits);
}

}  // namespace openapi::api
