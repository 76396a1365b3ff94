// OPENAPI_TEST_LABELS: concurrent  (run under TSan in CI: ctest -L concurrent)
// The solver workspace pool: SolverWorkspace::Clear() keeps grown
// buffers, a caller-held workspace serves its second request with ZERO
// solver allocations (heap-counted and pointer-checked), the engine's
// miss path leases pooled workspaces (sequential traffic converges to
// one workspace), and concurrent requests never share one (exclusivity
// CHECKed in the pool, data races caught by the CI TSan job, which runs
// this target).

#include <cstdlib>
#include <new>
#include <vector>

#include <gtest/gtest.h>

#include "grid_plm.h"
#include "interpret/interpretation_engine.h"
#include "nn/plnn.h"

// ---------------------------------------------------------------------------
// Heap instrumentation: count every operator-new on this thread. The
// replacements are binary-global but the counter is thread_local, so
// concurrent gtest machinery never perturbs a test's window.
// ---------------------------------------------------------------------------

namespace {
thread_local uint64_t g_thread_allocs = 0;

// Every replacement delete releases through this one out-of-line call.
// Inlined into a caller of operator new, a bare free() is reported by
// GCC's -Wmismatched-new-delete (at -O1, as in the sanitizer builds),
// although replacing the global new and delete with malloc and free is
// what the standard allows.
[[gnu::noinline]] void ReleaseBlock(void* p) noexcept { std::free(p); }
}  // namespace

void* operator new(std::size_t size) {
  ++g_thread_allocs;
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void* operator new(std::size_t size, std::align_val_t align_val) {
  ++g_thread_allocs;
  const std::size_t align = static_cast<std::size_t>(align_val);
  // aligned_alloc requires the size to be a multiple of the alignment.
  const std::size_t rounded = (size + align - 1) / align * align;
  if (void* p = std::aligned_alloc(align, rounded ? rounded : align))
    return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return ::operator new(size, align);
}
void operator delete(void* p) noexcept { ReleaseBlock(p); }
void operator delete(void* p, std::size_t) noexcept { ReleaseBlock(p); }
void operator delete[](void* p) noexcept { ReleaseBlock(p); }
void operator delete[](void* p, std::size_t) noexcept { ReleaseBlock(p); }
void operator delete(void* p, std::align_val_t) noexcept { ReleaseBlock(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  ReleaseBlock(p);
}
void operator delete[](void* p, std::align_val_t) noexcept {
  ReleaseBlock(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  ReleaseBlock(p);
}

namespace openapi::interpret {
namespace {

/// The heap block of every row of `rows`.
std::vector<const double*> RowPtrs(const std::vector<Vec>& rows) {
  std::vector<const double*> ptrs;
  for (const Vec& row : rows) ptrs.push_back(row.data());
  return ptrs;
}

/// The workspace's screen and round-tail row sets, in a fixed order.
std::vector<std::vector<Vec>*> ScreenRowSets(SolverWorkspace* ws) {
  return {&ws->screen_points, &ws->screen_far, &ws->screen_near,
          &ws->round_tail};
}

/// One locally linear region everywhere: the closed form certifies on
/// the first iteration, so every request costs exactly 1 + (d+1) + 2
/// queries (the anchor, the round, the ray screen's far probes) and the
/// solver's workload is identical across requests — the setup
/// that makes allocation counts comparable.
class OneRegionPlm : public api::Plm {
 public:
  OneRegionPlm(size_t d, size_t num_classes, util::Rng* rng) {
    model_.weights = linalg::Matrix(d, num_classes);
    for (size_t j = 0; j < d; ++j) {
      for (size_t c = 0; c < num_classes; ++c) {
        model_.weights(j, c) = rng->Uniform(-0.5, 0.5);
      }
    }
    model_.bias = rng->UniformVector(num_classes, -0.3, 0.3);
  }
  size_t dim() const override { return model_.weights.rows(); }
  size_t num_classes() const override { return model_.bias.size(); }
  Vec Predict(const Vec& x) const override {
    return api::EvaluateLocalModel(model_, x);
  }

 private:
  api::LocalLinearModel model_;
};

TEST(SolverWorkspaceClearTest, ClearKeepsEveryGrownBuffer) {
  const size_t d = 5;
  util::Rng model_rng(3);
  OneRegionPlm plm(d, 3, &model_rng);
  api::PredictionApi api(&plm);
  OpenApiInterpreter interpreter;
  SolverWorkspace ws;
  util::Rng rng(5);
  Vec x0 = rng.UniformVector(d, 0.2, 0.8);
  RequestCost cost;
  ASSERT_TRUE(interpreter
                  .InterpretCounted(api, x0, 0, &rng, &cost, {}, nullptr, &ws)
                  .ok());
  ASSERT_EQ(ws.probes.size(), d + 1);  // kept: the response got a copy
  std::vector<const double*> probe_ptrs, prediction_ptrs;
  for (const Vec& p : ws.probes) probe_ptrs.push_back(p.data());
  for (const Vec& y : ws.predictions) prediction_ptrs.push_back(y.data());
  const size_t probes_capacity = ws.probes.capacity();
  // The ray screen's rows: k screen points and far/near predictions,
  // and the round's d+1-k unscreened rows.
  std::vector<std::vector<const double*>> screen_ptrs;
  for (const std::vector<Vec>* rows : ScreenRowSets(&ws)) {
    ASSERT_FALSE(rows->empty());
    screen_ptrs.push_back(RowPtrs(*rows));
  }

  ws.Clear();
  // Logical sizes reset...
  for (const Vec& p : ws.probes) EXPECT_TRUE(p.empty());
  for (const Vec& y : ws.predictions) EXPECT_TRUE(y.empty());
  EXPECT_TRUE(ws.rhs.empty());
  // ...except the request state, which a per-iteration Clear must keep.
  EXPECT_EQ(ws.directions.rows(), d + 2);
  // ...but the rows themselves and their heap blocks survive: resizing
  // back within capacity must land on the SAME storage.
  ASSERT_EQ(ws.probes.size(), d + 1);
  EXPECT_EQ(ws.probes.capacity(), probes_capacity);
  for (size_t i = 0; i < ws.probes.size(); ++i) {
    ws.probes[i].resize(d);
    EXPECT_EQ(ws.probes[i].data(), probe_ptrs[i]) << "probe row " << i;
  }
  for (size_t i = 0; i < ws.predictions.size(); ++i) {
    ws.predictions[i].resize(3);
    EXPECT_EQ(ws.predictions[i].data(), prediction_ptrs[i])
        << "prediction row " << i;
  }
  const std::vector<std::vector<Vec>*> screen_rows = ScreenRowSets(&ws);
  for (size_t set = 0; set < screen_rows.size(); ++set) {
    std::vector<Vec>& rows = *screen_rows[set];
    ASSERT_EQ(rows.size(), screen_ptrs[set].size()) << "screen set " << set;
    for (size_t i = 0; i < rows.size(); ++i) {
      EXPECT_TRUE(rows[i].empty()) << "screen set " << set << " row " << i;
      rows[i].resize(1);
      EXPECT_EQ(rows[i].data(), screen_ptrs[set][i])
          << "screen set " << set << " row " << i;
    }
  }
}

TEST(SolverWorkspaceReuseTest, SecondRequestPerformsZeroSolverAllocations) {
  const size_t d = 5;
  util::Rng model_rng(7);
  OneRegionPlm plm(d, 3, &model_rng);
  api::PredictionApi api(&plm);
  OpenApiInterpreter interpreter;
  SolverWorkspace ws;
  util::Rng rng(11);
  Vec a = rng.UniformVector(d, 0.2, 0.8);
  Vec b = rng.UniformVector(d, 0.2, 0.8);
  Vec c = rng.UniformVector(d, 0.2, 0.8);

  auto run = [&](const Vec& x0) {
    RequestCost cost;
    const uint64_t before = g_thread_allocs;
    auto result = interpreter.InterpretCounted(api, x0, 0, &rng, &cost,
                                               {}, nullptr, &ws);
    const uint64_t allocs = g_thread_allocs - before;
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_EQ(result->iterations, 1u);  // alloc counts only compare equal
                                        // for identical workloads
    return allocs;
  };

  const uint64_t first = run(a);

  // Capture the workspace's buffer identities after the growth request.
  std::vector<const double*> probe_ptrs, prediction_ptrs;
  for (const Vec& p : ws.probes) probe_ptrs.push_back(p.data());
  for (const Vec& y : ws.predictions) prediction_ptrs.push_back(y.data());
  const double* rhs_ptr = ws.rhs.data();
  const double* directions_ptr = ws.directions.data().data();
  std::vector<std::vector<const double*>> screen_ptrs;
  for (const std::vector<Vec>* rows : ScreenRowSets(&ws)) {
    screen_ptrs.push_back(RowPtrs(*rows));
  }

  const uint64_t second = run(b);
  const uint64_t third = run(c);

  // The solver's scratch did not regrow: every buffer kept its storage.
  ASSERT_EQ(ws.probes.size(), probe_ptrs.size());
  for (size_t i = 0; i < ws.probes.size(); ++i) {
    EXPECT_EQ(ws.probes[i].data(), probe_ptrs[i]) << "probe row " << i;
  }
  for (size_t i = 0; i < ws.predictions.size(); ++i) {
    EXPECT_EQ(ws.predictions[i].data(), prediction_ptrs[i])
        << "prediction row " << i;
  }
  EXPECT_EQ(ws.rhs.data(), rhs_ptr);
  EXPECT_EQ(ws.directions.data().data(), directions_ptr);
  const std::vector<std::vector<Vec>*> screen_rows = ScreenRowSets(&ws);
  for (size_t set = 0; set < screen_rows.size(); ++set) {
    EXPECT_EQ(RowPtrs(*screen_rows[set]), screen_ptrs[set])
        << "screen set " << set;
  }

  // And the heap agrees: the first request paid the workspace growth on
  // top of the identical per-request work (endpoint response vectors,
  // the response envelope); the second and third paid exactly the same
  // as each other — zero solver allocations left.
  EXPECT_LT(second, first);
  EXPECT_EQ(second, third);
}

TEST(WorkspacePoolTest, SequentialMissesShareOnePooledWorkspace) {
  const size_t d = 5;
  util::Rng model_rng(13);
  OneRegionPlm plm(d, 3, &model_rng);
  api::PredictionApi api(&plm);
  EngineConfig config;
  config.num_threads = 1;
  InterpretationEngine engine(config);
  EXPECT_EQ(engine.workspace_pool_size(), 0u);  // grown on demand
  auto session = engine.OpenSession(api);
  util::Rng rng(17);

  uint64_t second_allocs = 0, third_allocs = 0;
  for (int i = 0; i < 6; ++i) {
    Vec x0 = rng.UniformVector(d, 0.2, 0.8);
    // The one region would serve every later request from the cache;
    // clearing it first makes each request a miss-path solve.
    session->ClearCache();
    const uint64_t before = g_thread_allocs;
    auto response = session->Interpret({x0, 0}, /*seed=*/19, i);
    const uint64_t allocs = g_thread_allocs - before;
    ASSERT_TRUE(response.result.ok())
        << response.result.status().ToString();
    ASSERT_EQ(response.cache_outcome, CacheOutcome::kMiss);
    ASSERT_EQ(response.shrink_iterations, 1u);
    if (i == 1) second_allocs = allocs;
    if (i == 2) third_allocs = allocs;
  }
  // One sequential request at a time -> the pool never grew past one
  // workspace, and every request after the first reused its buffers.
  EXPECT_EQ(engine.workspace_pool_size(), 1u);
  EXPECT_EQ(second_allocs, third_allocs);
}

TEST(WorkspacePoolTest, ConcurrentRequestsNeverShareAWorkspace) {
  // 32 distinct-region misses on a 4-thread private pool: each in-flight
  // request leases its own workspace (the pool's Release CHECKs
  // exclusivity; TSan would flag any shared buffer), and the pool ends
  // no larger than the number of lanes that can run at once. One request
  // per grid cell forces every request through a lease.
  const size_t d = 5;
  util::Rng model_rng(23);
  GridPlm grid(d, 3, /*k=*/6, &model_rng);
  api::PredictionApi api(&grid);
  EngineConfig config;
  config.num_threads = 4;
  InterpretationEngine engine(config);
  auto session = engine.OpenSession(api);
  std::vector<EngineRequest> requests;
  for (size_t i = 0; i < 32; ++i) {
    requests.push_back({grid.NthCellCenter(i), i % 3});
  }
  auto responses = session->InterpretAll(requests, /*seed=*/31);
  for (size_t i = 0; i < responses.size(); ++i) {
    ASSERT_TRUE(responses[i].result.ok()) << "request " << i;
    EXPECT_EQ(responses[i].cache_outcome, CacheOutcome::kMiss)
        << "request " << i;
  }
  EXPECT_GE(engine.workspace_pool_size(), 1u);
  // ParallelFor runs one block inline on the caller plus the workers.
  EXPECT_LE(engine.workspace_pool_size(), 5u);
  EXPECT_EQ(session->stats().queries, api.query_count());
}

}  // namespace
}  // namespace openapi::interpret
