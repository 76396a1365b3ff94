// OPENAPI_TEST_LABELS: concurrent  (run under TSan in CI: ctest -L concurrent)
// RegionIndex: structural unit tests (logarithmic-method shape, learned
// box growth, removal/rebuild, brute-force stab parity) plus the
// session-level integration contracts — ImportRegion warm starts, the
// eviction/index coherence invariant under capacity pressure, and the
// concurrent lookup/insert/evict/ClearCache test the ThreadSanitizer job
// runs.

#include "interpret/region_index.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <set>
#include <thread>
#include <vector>

#include "api/plm.h"
#include "grid_plm.h"
#include "interpret/interpretation_engine.h"
#include "util/rng.h"

namespace openapi::interpret {
namespace {

Vec Box(double a, double b) { return Vec{a, b}; }

/// Unit-cube box centered at (cx, cy) with half-edge r.
struct TestBox {
  Vec lo, hi;
  TestBox(double cx, double cy, double r)
      : lo(Box(cx - r, cy - r)), hi(Box(cx + r, cy + r)) {}
};

TEST(RegionIndexTest, CollectReturnsOnlyContainingBoxes) {
  RegionIndex index(/*dim=*/2);
  TestBox a(0.25, 0.25, 0.1), b(0.75, 0.75, 0.1), c(0.25, 0.3, 0.2);
  index.Insert(0, a.lo, a.hi);
  index.Insert(1, b.lo, b.hi);
  index.Insert(2, c.lo, c.hi);
  std::vector<size_t> out;
  index.Collect(Box(0.25, 0.25), &out);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_TRUE(std::find(out.begin(), out.end(), 0) != out.end());
  EXPECT_TRUE(std::find(out.begin(), out.end(), 2) != out.end());
  out.clear();
  index.Collect(Box(0.75, 0.75), &out);
  EXPECT_EQ(out, std::vector<size_t>({1}));
  index.Remove(2);
  out.clear();
  index.Collect(Box(0.25, 0.25), &out);
  EXPECT_EQ(out, std::vector<size_t>({0}));
  index.CheckConsistent();
}

TEST(RegionIndexTest, ExpandTeachesTheBoxAndRefitsAncestors) {
  RegionIndex index(/*dim=*/2);
  // Enough boxes that the forest has internal nodes whose bounds must be
  // refit when a leaf box grows.
  for (size_t s = 0; s < 64; ++s) {
    TestBox b(0.1 + 0.01 * static_cast<double>(s), 0.2, 0.004);
    index.Insert(s, b.lo, b.hi);
  }
  Vec far = Box(0.9, 0.9);
  std::vector<size_t> out;
  index.Collect(far, &out);
  EXPECT_TRUE(out.empty());
  index.Expand(17, far);
  index.CheckConsistent();  // ancestor bounds must now cover the point
  out.clear();
  index.Collect(far, &out);
  EXPECT_EQ(out, std::vector<size_t>({17}));
  // Box-union expand: slot 3 absorbs a whole certificate elsewhere.
  TestBox cert(0.8, 0.1, 0.05);
  index.Expand(3, cert.lo, cert.hi);
  index.CheckConsistent();
  out.clear();
  index.Collect(Box(0.82, 0.12), &out);
  EXPECT_EQ(out, std::vector<size_t>({3}));
}

TEST(RegionIndexTest, SortedBulkInsertKeepsLogarithmicShape) {
  // The degenerate case for naive incremental k-d insertion: anchors
  // arrive in sorted order. The logarithmic method must keep the forest
  // at O(log n) balanced trees regardless.
  RegionIndex index(/*dim=*/2);
  const size_t n = 1024;
  for (size_t s = 0; s < n; ++s) {
    const double cx = (static_cast<double>(s) + 0.5) / static_cast<double>(n);
    TestBox b(cx, 0.5, 0.4 / static_cast<double>(n));
    index.Insert(s, b.lo, b.hi);
  }
  index.CheckConsistent();
  EXPECT_EQ(index.size(), n);
  // Binary-counter shape: at most ~log2(n) trees.
  EXPECT_LE(index.tree_count(), 11u);
  // Every box is disjoint on dim 0, so each stab returns exactly its cell.
  std::vector<size_t> out;
  for (size_t s = 0; s < n; s += 37) {
    out.clear();
    const double cx = (static_cast<double>(s) + 0.5) / static_cast<double>(n);
    index.Collect(Box(cx, 0.5), &out);
    EXPECT_EQ(out, std::vector<size_t>({s}));
  }
}

TEST(RegionIndexTest, RemovalRebuildsSparseTreesAndClearResets) {
  RegionIndex index(/*dim=*/2);
  const size_t n = 256;
  for (size_t s = 0; s < n; ++s) {
    TestBox b(0.001 * static_cast<double>(s), 0.5, 0.0004);
    index.Insert(s, b.lo, b.hi);
  }
  const size_t nodes_full = index.node_count();
  for (size_t s = 0; s < n; ++s) {
    if (s % 4 != 0) index.Remove(s);  // drop 3/4 of the slots
  }
  index.CheckConsistent();
  EXPECT_EQ(index.size(), n / 4);
  // Sparse trees were rebuilt compactly: dead space is bounded.
  EXPECT_LT(index.node_count(), nodes_full);
  std::vector<size_t> out;
  index.Collect(Box(0.001 * 64.0, 0.5), &out);
  EXPECT_EQ(out, std::vector<size_t>({64}));
  index.Clear();
  EXPECT_EQ(index.size(), 0u);
  EXPECT_EQ(index.tree_count(), 0u);
  out.clear();
  index.Collect(Box(0.001 * 64.0, 0.5), &out);
  EXPECT_TRUE(out.empty());
  index.CheckConsistent();
}

TEST(RegionIndexTest, RandomizedOpsMatchBruteForceStab) {
  // Drive the index with a random op stream (insert / remove / point
  // expand / box-union expand) and after every batch compare Collect
  // against a brute-force scan of the shadow boxes.
  util::Rng rng(2024);
  const size_t d = 3;
  RegionIndex index(d);
  struct Shadow {
    Vec lo, hi;
    bool present = false;
  };
  std::vector<Shadow> shadow(512);
  size_t next_slot = 0;
  for (size_t round = 0; round < 40; ++round) {
    for (size_t op = 0; op < 32; ++op) {
      const double roll = rng.Uniform(0.0, 1.0);
      if (roll < 0.5 && next_slot < shadow.size()) {
        const size_t slot = next_slot++;
        Vec center = rng.UniformVector(d, 0.1, 0.9);
        const double r = rng.Uniform(0.01, 0.15);
        Shadow& s = shadow[slot];
        s.lo = center;
        s.hi = center;
        for (size_t j = 0; j < d; ++j) {
          s.lo[j] -= r;
          s.hi[j] += r;
        }
        s.present = true;
        index.Insert(slot, s.lo, s.hi);
      } else if (roll < 0.65 && next_slot > 0) {
        const size_t slot =
            static_cast<size_t>(rng.Uniform(0.0, 1.0) *
                                static_cast<double>(next_slot));
        if (shadow[slot].present) {
          shadow[slot].present = false;
          index.Remove(slot);
        }
      } else if (roll < 0.85 && next_slot > 0) {
        const size_t slot =
            static_cast<size_t>(rng.Uniform(0.0, 1.0) *
                                static_cast<double>(next_slot));
        if (shadow[slot].present) {
          Vec x = rng.UniformVector(d, 0.0, 1.0);
          index.Expand(slot, x);
          Shadow& s = shadow[slot];
          for (size_t j = 0; j < d; ++j) {
            s.lo[j] = std::min(s.lo[j], x[j]);
            s.hi[j] = std::max(s.hi[j], x[j]);
          }
        }
      } else if (next_slot > 0) {
        const size_t slot =
            static_cast<size_t>(rng.Uniform(0.0, 1.0) *
                                static_cast<double>(next_slot));
        if (shadow[slot].present) {
          // Box-union expand: a small certificate somewhere else.
          Vec center = rng.UniformVector(d, 0.0, 1.0);
          Vec lo = center;
          Vec hi = center;
          for (size_t j = 0; j < d; ++j) {
            lo[j] -= 0.02;
            hi[j] += 0.02;
          }
          index.Expand(slot, lo, hi);
          Shadow& s = shadow[slot];
          for (size_t j = 0; j < d; ++j) {
            s.lo[j] = std::min(s.lo[j], lo[j]);
            s.hi[j] = std::max(s.hi[j], hi[j]);
          }
        }
      }
    }
    index.CheckConsistent();
    size_t live = 0;
    for (const Shadow& s : shadow) live += s.present ? 1 : 0;
    ASSERT_EQ(index.size(), live);
    for (size_t q = 0; q < 8; ++q) {
      Vec x = rng.UniformVector(d, 0.0, 1.0);
      std::vector<size_t> got;
      index.Collect(x, &got);
      std::set<size_t> got_set(got.begin(), got.end());
      ASSERT_EQ(got_set.size(), got.size()) << "Collect returned dupes";
      std::set<size_t> want;
      for (size_t slot = 0; slot < next_slot; ++slot) {
        const Shadow& s = shadow[slot];
        if (!s.present) continue;
        bool inside = true;
        for (size_t j = 0; j < d; ++j) {
          inside = inside && s.lo[j] <= x[j] && x[j] <= s.hi[j];
        }
        if (inside) want.insert(slot);
      }
      ASSERT_EQ(got_set, want);
    }
  }
}

// ---------------------------------------------------------------------------
// Session-level integration
// ---------------------------------------------------------------------------

TEST(RegionIndexSessionTest, ImportRegionWarmStartServesWithoutExtraction) {
  util::Rng model_rng(91);
  GridPlm grid(/*d=*/4, /*num_classes=*/3, /*k=*/8, &model_rng);
  api::PredictionApi api(&grid);
  EngineConfig config;
  config.num_threads = 1;
  InterpretationEngine engine(config);
  auto session = engine.OpenSession(api);
  for (size_t i = 0; i < 8; ++i) {
    for (size_t j = 0; j < 8; ++j) {
      const Result<size_t> slot = session->ImportRegion(
          grid.CellModel(i, j), grid.CellCenter(i, j), grid.CellHalfEdge());
      ASSERT_TRUE(slot.ok()) << slot.status().ToString();
    }
  }
  EXPECT_EQ(session->cache_size(), 64u);

  // Anchor repeat: point memo, zero queries.
  auto memo = session->Interpret({grid.CellCenter(2, 5), 1, {}}, /*seed=*/7);
  ASSERT_TRUE(memo.result.ok());
  EXPECT_EQ(memo.cache_outcome, CacheOutcome::kPointMemo);
  EXPECT_EQ(memo.queries, 0u);

  // Fresh point inside an imported cell (still within the certified
  // hypercube): a 2-query validated hit, no extraction.
  Vec x = grid.CellCenter(3, 3);
  x[0] += 0.3 * grid.CellHalfEdge();
  x[2] += 0.01;
  auto hit = session->Interpret({x, 0, {}}, /*seed=*/8, /*stream=*/1);
  ASSERT_TRUE(hit.result.ok());
  EXPECT_EQ(hit.cache_outcome, CacheOutcome::kMemoryHit);
  EXPECT_EQ(hit.queries, 2u);
  EXPECT_EQ(session->stats().cache_misses, 0u);
}

TEST(RegionIndexSessionTest, ImportRegionRejectsShapeMismatch) {
  util::Rng model_rng(95);
  GridPlm grid(4, 3, 4, &model_rng);
  api::PredictionApi api(&grid);
  InterpretationEngine engine;
  auto session = engine.OpenSession(api);
  // Anchor with the wrong dimensionality.
  const Result<size_t> bad_anchor = session->ImportRegion(
      grid.CellModel(0, 0), Vec{0.0, 0.0}, grid.CellHalfEdge());
  ASSERT_FALSE(bad_anchor.ok());
  EXPECT_TRUE(bad_anchor.status().IsInvalidArgument());
  // Model with the wrong class count.
  api::LocalLinearModel narrow;
  narrow.weights = linalg::Matrix(4, 2, 0.0);
  narrow.bias = Vec{0.0, 0.0};
  const Result<size_t> bad_model = session->ImportRegion(
      std::move(narrow), grid.CellCenter(0, 0), grid.CellHalfEdge());
  ASSERT_FALSE(bad_model.ok());
  EXPECT_TRUE(bad_model.status().IsInvalidArgument());
  EXPECT_EQ(session->cache_size(), 0u);
}

TEST(RegionIndexSessionTest, EvictionKeepsIndexCoherentUnderPressure) {
  // Capacity far below the region count: every insert past capacity
  // evicts. The session CHECKs index size == cache size after each
  // mutation, so mere survival of this loop is the invariant; the
  // assertions confirm the cache still answers correctly afterwards.
  util::Rng model_rng(93);
  GridPlm grid(/*d=*/4, /*num_classes=*/3, /*k=*/10, &model_rng);
  api::PredictionApi api(&grid);
  EngineConfig config;
  config.num_threads = 1;
  InterpretationEngine engine(config);
  auto session = engine.OpenSession(api, /*cache_capacity=*/16);
  size_t stream = 0;
  for (size_t pass = 0; pass < 2; ++pass) {
    for (size_t i = 0; i < 10; ++i) {
      for (size_t j = 0; j < 10; ++j) {
        auto response =
            session->Interpret({grid.CellCenter(i, j), 0, {}}, 17, stream++);
        ASSERT_TRUE(response.result.ok())
            << response.result.status().ToString();
      }
    }
  }
  EXPECT_LE(session->cache_size(), 16u);
  EXPECT_GT(session->stats().evictions, 0u);
  // A resident region still validates via the index after the churn.
  auto stats_before = session->stats();
  Vec x = grid.CellCenter(9, 9);
  x[0] -= 1e-5;
  auto response = session->Interpret({x, 0, {}}, 17, stream++);
  ASSERT_TRUE(response.result.ok());
  EXPECT_EQ(response.cache_outcome, CacheOutcome::kMemoryHit);
  (void)stats_before;
}

TEST(RegionIndexSessionTest, ConcurrentLookupsInsertsEvictionsAndClears) {
  // The ThreadSanitizer target: hammer one session from many threads with
  // lookups (shared-lock index stabs), extractions (writer-lock inserts +
  // evictions at tiny capacity), imports, and periodic ClearCache calls.
  util::Rng model_rng(94);
  GridPlm grid(/*d=*/4, /*num_classes=*/3, /*k=*/12, &model_rng);
  api::PredictionApi api(&grid);
  EngineConfig config;
  config.num_threads = 4;
  InterpretationEngine engine(config);
  auto session = engine.OpenSession(api, /*cache_capacity=*/24);
  std::atomic<size_t> failures{0};
  const size_t kThreads = 6;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      util::Rng rng(1000 + t);
      for (size_t iter = 0; iter < 60; ++iter) {
        const size_t i = static_cast<size_t>(rng.Uniform(0.0, 12.0));
        const size_t j = static_cast<size_t>(rng.Uniform(0.0, 12.0));
        if (t == 0 && iter % 20 == 10) {
          session->ClearCache();
          continue;
        }
        if (t == 1 && iter % 7 == 3) {
          // Best-effort churn: the import may lose to eviction or budget
          // pressure, which is exactly the traffic being simulated.
          (void)session->ImportRegion(grid.CellModel(i, j),
                                      grid.CellCenter(i, j),
                                      grid.CellHalfEdge());
          continue;
        }
        Vec x = grid.CellCenter(i, j);
        x[0] += rng.Uniform(-0.3, 0.3) * grid.CellHalfEdge();
        auto response =
            session->Interpret({x, iter % 3, {}}, 29, t * 1000 + iter);
        if (!response.result.ok()) failures.fetch_add(1);
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(failures.load(), 0u);
  EXPECT_LE(session->cache_size(), 24u);
}

}  // namespace
}  // namespace openapi::interpret
