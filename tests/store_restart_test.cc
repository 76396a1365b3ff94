// OPENAPI_TEST_LABELS: concurrent  (run under TSan in CI: ctest -L concurrent)
// The tiered region store's serving contracts, end to end through
// EndpointSession:
//   * warm restart — a session that filled a 10^4-region log is destroyed,
//     the log reopened, and every query point is served with ZERO
//     extraction (kMemoryHit/kDiskHit only) and bit-identical decision
//     features;
//   * the byte budget is a hard ceiling — the cache_bytes gauge never
//     exceeds it through import/eviction churn;
//   * an evicted region comes back as a kDiskHit, not a re-extraction;
//   * a learned box GROWN by traffic is spilled on eviction and still
//     covers its traffic after a restart;
//   * concurrent sessions over one shared store stay coherent (the TSan
//     leg of the suite);
//   * ImportRegion rejects non-finite or negative input before anything
//     reaches the cache or the log.

#include <gtest/gtest.h>

#include <atomic>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "api/plm.h"
#include "grid_plm.h"
#include "interpret/interpretation_engine.h"
#include "store/region_store.h"
#include "util/file_io.h"
#include "util/rng.h"

namespace openapi::interpret {
namespace {

std::string TempPath(const std::string& name) {
  return std::string(::testing::TempDir()) + "/" + name;
}

std::unique_ptr<store::RegionStore> OpenStore(const std::string& path,
                                              size_t dim,
                                              size_t num_classes) {
  auto opened = store::RegionStore::Open(path, dim, num_classes);
  EXPECT_TRUE(opened.ok()) << opened.status().ToString();
  return std::move(*opened);
}

// ---------------------------------------------------------------------------
// Warm restart: the ISSUE acceptance test. Fill >= 10^4 regions through
// ImportRegion with a store attached, destroy the engine AND the store,
// reopen the same log, and serve a sample of query points: every lookup
// must be kMemoryHit or kDiskHit (zero extraction), and the decision
// features must be BIT-identical to what the pre-restart session served.
// ---------------------------------------------------------------------------
TEST(StoreRestartTest, WarmRestartServesHistoryWithoutExtraction) {
  constexpr size_t kGrid = 100;  // 10^4 cells
  constexpr size_t kDim = 4, kClasses = 3, kStep = 7;
  const std::string path = TempPath("warm_restart.rlog");
  (void)util::RemoveFile(path);  // best-effort scratch cleanup

  util::Rng model_rng(2024);
  GridPlm grid(kDim, kClasses, kGrid, &model_rng);
  api::PredictionApi api(&grid);

  // The sample: one perturbed interior point per kStep-th cell, each
  // inside its cell's certified hypercube (distinct cells, so no point
  // memo can shortcut the post-restart lookups).
  std::vector<Vec> sample_points;
  for (size_t i = 0; i < kGrid; i += kStep) {
    for (size_t j = 0; j < kGrid; j += kStep) {
      Vec x = grid.CellCenter(i, j);
      x[0] += 0.3 * grid.CellHalfEdge();
      x[3] -= 0.2 * grid.CellHalfEdge();
      sample_points.push_back(std::move(x));
    }
  }
  std::vector<Vec> expected_dc;

  {  // --- Cold fill: import the whole grid, write-through to the log. ---
    auto store = OpenStore(path, kDim, kClasses);
    EngineConfig config;
    config.num_threads = 1;
    InterpretationEngine engine(config);
    SessionOptions options;
    options.store = store.get();
    auto session = engine.OpenSession(api, options);
    for (size_t i = 0; i < kGrid; ++i) {
      for (size_t j = 0; j < kGrid; ++j) {
        const Result<size_t> slot = session->ImportRegion(
            grid.CellModel(i, j), grid.CellCenter(i, j), grid.CellHalfEdge());
        ASSERT_TRUE(slot.ok()) << slot.status().ToString();
      }
    }
    ASSERT_EQ(session->cache_size(), kGrid * kGrid);
    EXPECT_EQ(store->size(), kGrid * kGrid);
    EXPECT_EQ(session->stats().store_appends, kGrid * kGrid);

    // Pre-restart answers: RAM hits, recorded for bit-exact comparison.
    uint64_t stream = 0;
    for (const Vec& x : sample_points) {
      auto response = session->Interpret({x, 1, {}}, /*seed=*/5, stream++);
      ASSERT_TRUE(response.result.ok())
          << response.result.status().ToString();
      EXPECT_EQ(response.cache_outcome, CacheOutcome::kMemoryHit);
      expected_dc.push_back(response.result->dc);
    }
    session.reset();  // session must die before its store
  }

  {  // --- Restart: fresh engine, fresh store instance, same log file. ---
    auto store = OpenStore(path, kDim, kClasses);
    EXPECT_EQ(store->size(), kGrid * kGrid);
    EXPECT_EQ(store->recovery_stats().records_recovered, kGrid * kGrid);
    EXPECT_EQ(store->recovery_stats().bytes_truncated, 0u);

    EngineConfig config;
    config.num_threads = 1;
    InterpretationEngine engine(config);
    SessionOptions options;
    options.store = store.get();
    auto session = engine.OpenSession(api, options);
    ASSERT_EQ(session->cache_size(), 0u);  // RAM is cold; only disk is warm

    uint64_t stream = 0;
    for (size_t p = 0; p < sample_points.size(); ++p) {
      auto response =
          session->Interpret({sample_points[p], 1, {}}, /*seed=*/5, stream++);
      ASSERT_TRUE(response.result.ok())
          << response.result.status().ToString();
      // Zero extraction: the lookup resolved in RAM or on the log.
      EXPECT_TRUE(response.cache_outcome == CacheOutcome::kMemoryHit ||
                  response.cache_outcome == CacheOutcome::kDiskHit)
          << "sample " << p << " outcome "
          << static_cast<int>(response.cache_outcome);
      EXPECT_EQ(response.queries, 2u);
      // Bit-identical: the log round-trips raw double bits, so the
      // reloaded model — and everything derived from it — is EXACTLY the
      // pre-restart answer, not an approximation of it.
      ASSERT_EQ(response.result->dc.size(), expected_dc[p].size());
      for (size_t j = 0; j < expected_dc[p].size(); ++j) {
        EXPECT_EQ(response.result->dc[j], expected_dc[p][j])
            << "sample " << p << " dim " << j;
      }
    }
    const EngineStats stats = session->stats();
    EXPECT_EQ(stats.cache_misses, 0u);
    EXPECT_EQ(stats.point_memo_hits, 0u);
    EXPECT_EQ(stats.disk_hits + stats.cache_hits, sample_points.size());
    EXPECT_GE(stats.disk_hits, 1u);
    EXPECT_EQ(stats.queries, 2 * sample_points.size());
    session.reset();
  }
}

// ---------------------------------------------------------------------------
// The byte budget is a hard ceiling: through sustained import churn the
// cache_bytes gauge (region payloads + memo keys + index boxes) never
// exceeds the configured budget, evictions spill to the store, and the
// session keeps serving.
// ---------------------------------------------------------------------------
TEST(StoreRestartTest, ByteCeilingIsNeverExceeded) {
  constexpr size_t kGrid = 20, kDim = 4, kClasses = 3;
  constexpr size_t kBudget = 64 * 1024;
  const std::string path = TempPath("byte_ceiling.rlog");
  (void)util::RemoveFile(path);  // best-effort scratch cleanup

  util::Rng model_rng(7);
  GridPlm grid(kDim, kClasses, kGrid, &model_rng);
  api::PredictionApi api(&grid);
  auto store = OpenStore(path, kDim, kClasses);

  EngineConfig config;
  config.num_threads = 1;
  InterpretationEngine engine(config);
  SessionOptions options;
  options.cache_capacity_bytes = kBudget;
  options.store = store.get();
  auto session = engine.OpenSession(api, options);
  EXPECT_EQ(session->cache_capacity_bytes(), kBudget);

  for (size_t i = 0; i < kGrid; ++i) {
    for (size_t j = 0; j < kGrid; ++j) {
      const Result<size_t> slot = session->ImportRegion(
          grid.CellModel(i, j), grid.CellCenter(i, j), grid.CellHalfEdge());
      ASSERT_TRUE(slot.ok()) << slot.status().ToString();
      const EngineStats stats = session->stats();
      ASSERT_LE(stats.cache_bytes, kBudget)
          << "after import " << i << "," << j;
      ASSERT_EQ(stats.cache_bytes,
                stats.region_bytes + stats.memo_bytes + stats.index_bytes);
    }
  }
  // The grid is far bigger than the budget: eviction must have run, and
  // the evicted regions must have landed on the store.
  EngineStats stats = session->stats();
  EXPECT_GT(stats.evictions, 0u);
  EXPECT_LT(session->cache_size(), kGrid * kGrid);
  EXPECT_GT(session->cache_size(), 0u);
  EXPECT_EQ(store->size(), kGrid * kGrid);

  // Serving traffic (RAM hits, disk reloads, insert churn) holds the
  // ceiling too.
  uint64_t stream = 0;
  for (size_t i = 0; i < kGrid; i += 3) {
    for (size_t j = 0; j < kGrid; j += 3) {
      Vec x = grid.CellCenter(i, j);
      x[1] += 0.4 * grid.CellHalfEdge();
      auto response = session->Interpret({x, 0, {}}, /*seed=*/11, stream++);
      ASSERT_TRUE(response.result.ok())
          << response.result.status().ToString();
      ASSERT_LE(session->stats().cache_bytes, kBudget);
    }
  }
  stats = session->stats();
  EXPECT_EQ(stats.cache_misses, 0u);  // everything resolved in RAM or disk
  session.reset();
}

// ---------------------------------------------------------------------------
// A region displaced by capacity pressure is NOT re-extracted: the next
// request that needs it reloads it from the log for the 2 validation
// queries the request already pays.
// ---------------------------------------------------------------------------
TEST(StoreRestartTest, EvictedRegionComesBackAsDiskHit) {
  constexpr size_t kGrid = 4, kDim = 4, kClasses = 3;
  const std::string path = TempPath("evicted_diskhit.rlog");
  (void)util::RemoveFile(path);  // best-effort scratch cleanup

  util::Rng model_rng(17);
  GridPlm grid(kDim, kClasses, kGrid, &model_rng);
  api::PredictionApi api(&grid);
  auto store = OpenStore(path, kDim, kClasses);

  EngineConfig config;
  config.num_threads = 1;
  InterpretationEngine engine(config);
  SessionOptions options;
  options.cache_capacity = 4;  // 16 imports through a 4-slot cache
  options.store = store.get();
  auto session = engine.OpenSession(api, options);
  for (size_t i = 0; i < kGrid; ++i) {
    for (size_t j = 0; j < kGrid; ++j) {
      ASSERT_TRUE(session
                      ->ImportRegion(grid.CellModel(i, j),
                                     grid.CellCenter(i, j),
                                     grid.CellHalfEdge())
                      .ok());
    }
  }
  EXPECT_LE(session->cache_size(), 4u);
  EXPECT_GT(session->stats().evictions, 0u);

  // Touch every cell: the ~4 residents answer from RAM, the evicted
  // majority reload from the log. Nothing re-extracts.
  uint64_t stream = 0;
  for (size_t i = 0; i < kGrid; ++i) {
    for (size_t j = 0; j < kGrid; ++j) {
      Vec x = grid.CellCenter(i, j);
      x[0] -= 0.25 * grid.CellHalfEdge();
      auto response = session->Interpret({x, 2, {}}, /*seed=*/3, stream++);
      ASSERT_TRUE(response.result.ok())
          << response.result.status().ToString();
      EXPECT_TRUE(response.cache_outcome == CacheOutcome::kMemoryHit ||
                  response.cache_outcome == CacheOutcome::kDiskHit);
      EXPECT_EQ(response.queries, 2u);
    }
  }
  const EngineStats stats = session->stats();
  EXPECT_EQ(stats.cache_misses, 0u);
  EXPECT_GE(stats.disk_hits, 1u);
  session.reset();
}

// ---------------------------------------------------------------------------
// Eviction spills LEARNED box growth: a hit outside the certified box
// grows the region's box in RAM; evicting the region re-appends the grown
// box to the log; after a restart the grown box still routes that traffic
// to the record (kDiskHit), while points the box never learned still miss.
// ---------------------------------------------------------------------------
TEST(StoreRestartTest, GrownLearnedBoxSurvivesRestart) {
  constexpr size_t kGrid = 4, kDim = 4, kClasses = 3;
  const std::string path = TempPath("grown_box.rlog");
  (void)util::RemoveFile(path);  // best-effort scratch cleanup

  util::Rng model_rng(29);
  GridPlm grid(kDim, kClasses, kGrid, &model_rng);
  api::PredictionApi api(&grid);

  // p1 sits INSIDE cell (1,1) but OUTSIDE the deliberately tiny
  // certificate the import declares, so serving it must grow the box.
  // p3 mirrors it on the other side: never visited, never learned.
  const double half = grid.CellHalfEdge();
  Vec p1 = grid.CellCenter(1, 1);
  p1[0] += 0.6 * half;
  Vec p3 = grid.CellCenter(1, 1);
  p3[0] -= 0.6 * half;

  {
    auto store = OpenStore(path, kDim, kClasses);
    EngineConfig config;
    config.num_threads = 1;
    InterpretationEngine engine(config);
    SessionOptions options;
    options.cache_capacity = 1;
    options.store = store.get();
    auto session = engine.OpenSession(api, options);
    ASSERT_TRUE(session
                    ->ImportRegion(grid.CellModel(1, 1),
                                   grid.CellCenter(1, 1), 0.1 * half)
                    .ok());
    const uint64_t appends_before = session->stats().store_appends;

    // The index stab misses p1 (tiny box), the fallback scan validates
    // the region, and the hit teaches the box to cover p1.
    auto grow = session->Interpret({p1, 0, {}}, /*seed=*/13, /*stream=*/0);
    ASSERT_TRUE(grow.result.ok()) << grow.result.status().ToString();
    EXPECT_EQ(grow.cache_outcome, CacheOutcome::kMemoryHit);

    // Importing a second region through the 1-slot cache evicts cell
    // (1,1); its spill re-appends the GROWN box to the log.
    ASSERT_TRUE(session
                    ->ImportRegion(grid.CellModel(2, 2),
                                   grid.CellCenter(2, 2), 0.1 * half)
                    .ok());
    EXPECT_GT(session->stats().evictions, 0u);
    EXPECT_GT(session->stats().store_appends, appends_before + 1);
    session.reset();
  }

  {  // Restart on the same log.
    auto store = OpenStore(path, kDim, kClasses);
    EngineConfig config;
    config.num_threads = 1;
    InterpretationEngine engine(config);
    SessionOptions options;
    options.store = store.get();
    auto session = engine.OpenSession(api, options);

    // p1 is covered by the spilled (grown) box: disk hit, no extraction.
    auto hit = session->Interpret({p1, 0, {}}, /*seed=*/13, /*stream=*/1);
    ASSERT_TRUE(hit.result.ok()) << hit.result.status().ToString();
    EXPECT_EQ(hit.cache_outcome, CacheOutcome::kDiskHit);
    EXPECT_EQ(hit.queries, 2u);

    // p3 was never learned: the directory has no covering box, so the
    // request pays extraction — coverage gating is real, not a formality.
    session->ClearCache();
    auto miss = session->Interpret({p3, 0, {}}, /*seed=*/13, /*stream=*/2);
    ASSERT_TRUE(miss.result.ok()) << miss.result.status().ToString();
    EXPECT_EQ(miss.cache_outcome, CacheOutcome::kMiss);
    session.reset();
  }
}

// ---------------------------------------------------------------------------
// The TSan leg: concurrent traffic through one session whose cache is
// small enough to churn (insert/evict/spill) while other threads reload
// from the shared store. Exercises the cache lock against the store's own
// mutex (they must never nest — this test deadlocks if they do).
// ---------------------------------------------------------------------------
TEST(StoreRestartTest, ConcurrentChurnOverSharedStoreStaysCoherent) {
  constexpr size_t kGrid = 8, kDim = 4, kClasses = 3;
  const std::string path = TempPath("concurrent_store.rlog");
  (void)util::RemoveFile(path);  // best-effort scratch cleanup

  util::Rng model_rng(31);
  GridPlm grid(kDim, kClasses, kGrid, &model_rng);
  api::PredictionApi api(&grid);
  auto store = OpenStore(path, kDim, kClasses);

  InterpretationEngine engine;  // shared pool
  SessionOptions options;
  options.cache_capacity = 8;  // 64 cells through 8 slots: constant churn
  options.store = store.get();
  auto session = engine.OpenSession(api, options);
  for (size_t i = 0; i < kGrid; ++i) {
    for (size_t j = 0; j < kGrid; ++j) {
      ASSERT_TRUE(session
                      ->ImportRegion(grid.CellModel(i, j),
                                     grid.CellCenter(i, j),
                                     grid.CellHalfEdge())
                      .ok());
    }
  }

  constexpr size_t kThreads = 4, kPerThread = 48;
  std::atomic<size_t> failures{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t]() {
      util::Rng rng(100 + t);
      for (size_t q = 0; q < kPerThread; ++q) {
        const size_t i = rng.Index(kGrid);
        const size_t j = rng.Index(kGrid);
        Vec x = grid.CellCenter(i, j);
        x[0] += rng.Uniform(-0.4, 0.4) * grid.CellHalfEdge();
        x[1] += rng.Uniform(-0.4, 0.4) * grid.CellHalfEdge();
        auto response =
            session->Interpret({x, q % kClasses, {}}, /*seed=*/t, q);
        if (!response.result.ok()) failures.fetch_add(1);
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(failures.load(), 0u);

  const EngineStats stats = session->stats();
  // Every request resolved without extraction (RAM, memo, or log)...
  EXPECT_EQ(stats.cache_misses, 0u);
  EXPECT_EQ(stats.requests, kThreads * kPerThread);
  // ...and the accounting is exactly conserved across the outcomes.
  EXPECT_EQ(stats.point_memo_hits + stats.cache_hits + stats.disk_hits,
            stats.requests);
  EXPECT_LE(session->cache_size(), 8u);
  session.reset();
}

// ---------------------------------------------------------------------------
// ImportRegion validates its input before the write-through: a NaN or
// negative edge, or a non-finite anchor or model entry, would otherwise
// file a NaN or inverted box into the region index and, through the log,
// into every later restart.
// ---------------------------------------------------------------------------
TEST(StoreRestartTest, ImportRejectsNonFiniteInputBeforeWriteThrough) {
  constexpr size_t kDim = 4, kClasses = 3;
  const std::string path = TempPath("import_validation.rlog");
  (void)util::RemoveFile(path);  // best-effort scratch cleanup
  util::Rng model_rng(31);
  GridPlm grid(kDim, kClasses, 3, &model_rng);
  api::PredictionApi api(&grid);
  auto store = OpenStore(path, kDim, kClasses);
  EngineConfig config;
  config.num_threads = 1;
  InterpretationEngine engine(config);
  SessionOptions options;
  options.store = store.get();
  auto session = engine.OpenSession(api, options);
  ASSERT_TRUE(session
                  ->ImportRegion(grid.NthCellModel(0), grid.NthCellCenter(0),
                                 grid.CellHalfEdge())
                  .ok());
  const size_t cached = session->cache_size();
  const uint64_t appended = store->appended_records();

  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  struct Case {
    const char* what;
    api::LocalLinearModel model;
    Vec anchor;
    double edge;
  };
  // Cell 1's region: a valid import of it would be cached and appended.
  const api::LocalLinearModel& model = grid.NthCellModel(1);
  const Vec anchor = grid.NthCellCenter(1);
  const double edge = grid.CellHalfEdge();
  std::vector<Case> cases = {
      {"NaN edge", model, anchor, nan},
      {"negative edge", model, anchor, -edge},
      {"infinite edge", model, anchor, inf},
      {"NaN anchor", model, anchor, edge},
      {"infinite anchor", model, anchor, edge},
      {"NaN weight", model, anchor, edge},
      {"infinite bias", model, anchor, edge},
  };
  cases[3].anchor[2] = nan;
  cases[4].anchor[0] = -inf;
  cases[5].model.weights(1, 2) = nan;
  cases[6].model.bias[0] = inf;
  for (const Case& c : cases) {
    Result<size_t> slot = session->ImportRegion(c.model, c.anchor, c.edge);
    ASSERT_FALSE(slot.ok()) << c.what;
    EXPECT_TRUE(slot.status().IsInvalidArgument())
        << c.what << ": " << slot.status().ToString();
    EXPECT_EQ(session->cache_size(), cached) << c.what;
    EXPECT_EQ(store->appended_records(), appended) << c.what;
  }
  // The valid import of the same region still goes through.
  EXPECT_TRUE(session->ImportRegion(model, anchor, edge).ok());
  EXPECT_EQ(session->cache_size(), cached + 1);
  EXPECT_EQ(store->appended_records(), appended + 1);
}

}  // namespace
}  // namespace openapi::interpret
