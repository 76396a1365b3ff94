// Kernel-level microbenchmarks for the numeric hot path (google-benchmark;
// CI keeps the rows via --benchmark_out=BENCH_kernels.json):
//
//   * GemmABt, GemmABtForward        — the panel-packed A·Bᵀ kernel at
//     solver probe-batch shapes ((d+1) x d times 2d x d, the first layer
//     of an iteration's probe forward) and at the paper-scale layer
//     forward.
//   * GemmMultiply                   — the blocked i-k-j GEMM at LMT
//     leaf-group and affine-composition shapes.
//   * LmtRoute{Walk,LevelOrder}      — per-sample pointer walk vs the
//     level-order SoA routing pass over a whole batch.
//   * PlnnForwardBatch               — PredictBatch throughput across the
//     pool-parallel crossover (batch 32 .. 2048); the crossover threshold
//     api::kParallelForwardMinBatch was picked from this sweep.
//   * InterpretWorkspace{Pooled,PerRequest} — one full closed-form
//     interpretation per iteration (fresh x0, no engine cache) with the
//     SolverWorkspace held across REQUESTS (the engine workspace pool's
//     steady state: zero solver allocations after the first request) vs
//     a request-local workspace that regrows every request (the old
//     engine miss path). Pooled is the headline end-to-end number: the
//     shipped default straight through OpenApiInterpreter.
//   * InterpretDispatchChunked       — a deadlined request (far
//     deadline, so every batch passes through the chunk planner and the
//     predictive gates); compare with InterpretWorkspacePooled, the same
//     request without a deadline (one PredictBatch per batch). Chunk
//     planning must be in the noise on fast endpoints.

#include <benchmark/benchmark.h>

#include "bench_common.h"

namespace openapi::bench {
namespace {

linalg::Matrix RandomMatrix(size_t rows, size_t cols, util::Rng* rng) {
  linalg::Matrix m(rows, cols);
  for (double& x : m.mutable_data()) x = rng->Uniform(-1.0, 1.0);
  return m;
}

// --- A·Bᵀ: solver probe-batch shape (d+1) x d times 2d x d. ---

void GemmABt(benchmark::State& state) {
  const size_t d = static_cast<size_t>(state.range(0));
  util::Rng rng(kBenchSeed);
  linalg::Matrix x = RandomMatrix(d + 1, d, &rng);
  linalg::Matrix w = RandomMatrix(2 * d, d, &rng);
  for (auto _ : state) {
    linalg::Matrix z = x.MultiplyABt(w);
    benchmark::DoNotOptimize(z.data().data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
  state.counters["flops_per_iter"] =
      static_cast<double>(2 * (d + 1) * d * 2 * d);
}
BENCHMARK(GemmABt)->Arg(16)->Arg(64)->Arg(256);

// --- A·Bᵀ: paper-scale layer forward, batch 256 through 784 -> 256. ---

void GemmABtForward(benchmark::State& state) {
  util::Rng rng(kBenchSeed + 1);
  linalg::Matrix x = RandomMatrix(256, 784, &rng);
  linalg::Matrix w = RandomMatrix(256, 784, &rng);
  for (auto _ : state) {
    linalg::Matrix z = x.MultiplyABt(w);
    benchmark::DoNotOptimize(z.data().data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(GemmABtForward);

// --- Blocked i-k-j GEMM: LMT leaf-group shape (n x d) * (d x C). ---

void GemmMultiply(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  util::Rng rng(kBenchSeed + 2);
  linalg::Matrix group = RandomMatrix(n, 64, &rng);
  linalg::Matrix weights = RandomMatrix(64, 10, &rng);
  for (auto _ : state) {
    linalg::Matrix logits = group.Multiply(weights);
    benchmark::DoNotOptimize(logits.data().data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(GemmMultiply)->Arg(64)->Arg(512);

// --- LMT routing: pointer walk vs level-order SoA pass. ---

lmt::LogisticModelTree& BenchTree() {
  static lmt::LogisticModelTree* tree = [] {
    util::Rng rng(kBenchSeed + 3);
    data::Dataset train = data::GenerateGaussianBlobs(8, 4, 1200, 0.1, &rng);
    lmt::LmtConfig config;
    config.min_split_size = 40;
    config.max_depth = 6;
    config.accuracy_threshold = 1.01;
    config.leaf_config.max_iters = 40;
    return new lmt::LogisticModelTree(
        lmt::LogisticModelTree::Fit(train, config));
  }();
  return *tree;
}

std::vector<Vec> RoutingBatch(size_t count) {
  util::Rng rng(kBenchSeed + 4);
  std::vector<Vec> xs;
  xs.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    xs.push_back(rng.UniformVector(8, -1.5, 1.5));
  }
  return xs;
}

void LmtRouteWalk(benchmark::State& state) {
  const lmt::LogisticModelTree& tree = BenchTree();
  std::vector<Vec> xs = RoutingBatch(static_cast<size_t>(state.range(0)));
  std::vector<size_t> leaf_of(xs.size());
  for (auto _ : state) {
    for (size_t i = 0; i < xs.size(); ++i) {
      leaf_of[i] = tree.LeafIndexAt(xs[i]);
    }
    benchmark::DoNotOptimize(leaf_of.data());
  }
  state.SetItemsProcessed(
      static_cast<int64_t>(state.iterations() * xs.size()));
}
void LmtRouteLevelOrder(benchmark::State& state) {
  const lmt::LogisticModelTree& tree = BenchTree();
  std::vector<Vec> xs = RoutingBatch(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    std::vector<size_t> leaf_of = tree.LeafIndicesBatch(xs);
    benchmark::DoNotOptimize(leaf_of.data());
  }
  state.SetItemsProcessed(
      static_cast<int64_t>(state.iterations() * xs.size()));
}
BENCHMARK(LmtRouteWalk)->Arg(256)->Arg(2048);
BENCHMARK(LmtRouteLevelOrder)->Arg(256)->Arg(2048);

// --- PredictBatch crossover sweep (pool-parallel row blocks). ---

void PlnnForwardBatch(benchmark::State& state) {
  static nn::Plnn* net = [] {
    util::Rng rng(kBenchSeed + 5);
    return new nn::Plnn({32, 64, 32, 10}, &rng);
  }();
  const size_t batch = static_cast<size_t>(state.range(0));
  util::Rng rng(kBenchSeed + 6);
  std::vector<Vec> xs;
  xs.reserve(batch);
  for (size_t i = 0; i < batch; ++i) {
    xs.push_back(rng.UniformVector(32, 0.0, 1.0));
  }
  for (auto _ : state) {
    std::vector<Vec> ys = net->PredictBatch(xs);
    benchmark::DoNotOptimize(ys.data());
  }
  state.SetItemsProcessed(
      static_cast<int64_t>(state.iterations() * batch));
}
BENCHMARK(PlnnForwardBatch)->Arg(32)->Arg(128)->Arg(256)->Arg(512)->Arg(2048);

// --- Solver workspace pooling and chunked dispatch. ---

void InterpretLoop(benchmark::State& state, bool pooled_workspace,
                   bool with_deadline) {
  // The paper-scale solver workload: d = 64, C = 10, so one shrink
  // iteration forwards a 65-probe batch through a 64-128-64-10 net and
  // solves a 66 x 65 system for 9 right-hand sides.
  static nn::Plnn* net = [] {
    util::Rng rng(kBenchSeed + 7);
    return new nn::Plnn({64, 128, 64, 10}, &rng);
  }();
  static api::PredictionApi* api = new api::PredictionApi(net);
  interpret::OpenApiInterpreter interpreter;
  // Cross-request workspace, the engine pool's steady state: request 1
  // grows it, every later request runs allocation-free in the solver.
  interpret::SolverWorkspace pooled;
  util::Rng rng(kBenchSeed + 8);
  for (auto _ : state) {
    Vec x0 = rng.UniformVector(64, 0.05, 0.95);
    interpret::RequestOptions options;
    if (with_deadline) {
      // Far enough to never fire, close enough that every batch walks
      // the chunk planner and the predictive deadline gates.
      options.deadline =
          std::chrono::steady_clock::now() + std::chrono::hours(1);
    }
    interpret::RequestCost cost;
    auto result = interpreter.InterpretCounted(
        *api, x0, 0, &rng, &cost, options, nullptr,
        pooled_workspace ? &pooled : nullptr);
    benchmark::DoNotOptimize(result);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
void InterpretWorkspacePooled(benchmark::State& state) {
  InterpretLoop(state, /*pooled_workspace=*/true, /*with_deadline=*/false);
}
void InterpretWorkspacePerRequest(benchmark::State& state) {
  InterpretLoop(state, /*pooled_workspace=*/false, /*with_deadline=*/false);
}
// Chunked dispatch on a fast endpoint: the chunk planner's overhead
// (clock reads, EWMA update, per-chunk gates) against
// InterpretWorkspacePooled must be in the noise (< 3%).
void InterpretDispatchChunked(benchmark::State& state) {
  InterpretLoop(state, /*pooled_workspace=*/true, /*with_deadline=*/true);
}
BENCHMARK(InterpretWorkspacePooled);
BENCHMARK(InterpretWorkspacePerRequest);
BENCHMARK(InterpretDispatchChunked);

}  // namespace
}  // namespace openapi::bench

BENCHMARK_MAIN();
