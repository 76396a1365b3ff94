// OPENAPI_TEST_LABELS: fault
// Drift epochs end to end: the already-paid validation pair doubles as a
// drift detector. Every drift_check_interval-th point-memo hit re-pays
// the 2-query pair against the live endpoint; a mismatch bumps the
// session's (and attached store's) drift epoch, invalidates every cached
// closed form, and re-extracts against the CURRENT model (kStaleRefetch)
// — so a retrained endpoint can never keep serving stale interpretations
// past a detected swap. The store half: entries below the current epoch
// stop being reload candidates, a revalidated region is re-appended even
// when its box didn't grow, and the epoch survives reopen via record
// stamps alone.

#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "api/fault_injecting_api.h"
#include "api/ground_truth.h"
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

constexpr size_t kDim = 4, kClasses = 3, kGrid = 4;

// ---------------------------------------------------------------------------
// The detector catches a mid-run model swap: a memo hit at the check
// cadence re-pays the pair, the mismatch bumps the epoch, the stale cache
// is invalidated, and the SAME request re-extracts against the new model
// (kStaleRefetch) — with exact query accounting across the swap.
// ---------------------------------------------------------------------------
TEST(DriftEpochTest, MemoDriftCheckCatchesSwapAndRefetches) {
  util::Rng rng_a(11), rng_b(12);
  GridPlm grid_a(kDim, kClasses, kGrid, &rng_a);
  GridPlm grid_b(kDim, kClasses, kGrid, &rng_b);
  api::PredictionApi inner_a(&grid_a);
  api::PredictionApi inner_b(&grid_b);
  api::FaultInjectingApi api(&inner_a, api::FaultConfig{});  // no injection

  EngineConfig config;
  config.num_threads = 1;
  config.drift_check_interval = 1;  // every memo hit revalidates
  InterpretationEngine engine(config);
  auto session = engine.OpenSession(api);

  Vec x = grid_a.CellCenter(1, 2);
  x[0] += 0.02;

  auto miss = session->Interpret({x, 0, {}}, /*seed=*/9, /*stream=*/0);
  ASSERT_TRUE(miss.result.ok()) << miss.result.status().ToString();
  EXPECT_EQ(miss.cache_outcome, CacheOutcome::kMiss);
  EXPECT_GT(miss.queries, 2u);

  // Memo hit at interval 1: the drift check pays the pair, the model
  // still matches, and the hit is served as a (2-query) kPointMemo.
  auto hit = session->Interpret({x, 0, {}}, /*seed=*/9, /*stream=*/1);
  ASSERT_TRUE(hit.result.ok()) << hit.result.status().ToString();
  EXPECT_EQ(hit.cache_outcome, CacheOutcome::kPointMemo);
  EXPECT_EQ(hit.queries, 2u);
  EXPECT_EQ(session->drift_epoch(), 0u);
  EXPECT_EQ(session->stats().drift_events, 0u);

  // The retraining event: the endpoint silently swaps models.
  api.SwapInner(&inner_b);

  auto stale = session->Interpret({x, 0, {}}, /*seed=*/9, /*stream=*/2);
  ASSERT_TRUE(stale.result.ok()) << stale.result.status().ToString();
  EXPECT_EQ(stale.cache_outcome, CacheOutcome::kStaleRefetch);
  EXPECT_GT(stale.queries, 2u);  // pair + full re-extraction
  EXPECT_EQ(session->drift_epoch(), 1u);
  EngineStats stats = session->stats();
  EXPECT_EQ(stats.drift_events, 1u);
  EXPECT_GE(stats.stale_invalidations, 1u);

  // The refetched closed form is the NEW model's: a clean session over
  // grid_b serves bit-identical decision features when it replays the
  // same (seed, stream) — probe placement is a pure function of them.
  api::PredictionApi clean_b(&grid_b);
  InterpretationEngine ref_engine(config);
  auto ref_session = ref_engine.OpenSession(clean_b);
  auto ref = ref_session->Interpret({x, 0, {}}, /*seed=*/9, /*stream=*/2);
  ASSERT_TRUE(ref.result.ok()) << ref.result.status().ToString();
  ASSERT_EQ(stale.result->dc.size(), ref.result->dc.size());
  for (size_t j = 0; j < ref.result->dc.size(); ++j) {
    EXPECT_EQ(stale.result->dc[j], ref.result->dc[j]) << "dim " << j;
  }

  // The fresh memo entry serves (and revalidates) against the new model.
  auto fresh = session->Interpret({x, 0, {}}, /*seed=*/9, /*stream=*/3);
  ASSERT_TRUE(fresh.result.ok()) << fresh.result.status().ToString();
  EXPECT_EQ(fresh.cache_outcome, CacheOutcome::kPointMemo);
  EXPECT_EQ(fresh.queries, 2u);
  EXPECT_EQ(session->drift_epoch(), 1u);

  // Accounting holds exactly across the swap: the decorator sums every
  // endpoint it ever fronted.
  stats = session->stats();
  EXPECT_EQ(stats.queries, api.query_count());
}

/// A single-region PLM: one affine softmax classifier everywhere.
class AffinePlm : public api::Plm {
 public:
  explicit AffinePlm(api::LocalLinearModel model) : model_(std::move(model)) {}
  size_t dim() const override { return model_.weights.rows(); }
  size_t num_classes() const override { return model_.bias.size(); }
  Vec Predict(const Vec& x) const override {
    return api::EvaluateLocalModel(model_, x);
  }

 private:
  api::LocalLinearModel model_;
};

// ---------------------------------------------------------------------------
// The detector still sees a swap on a CONFIDENT endpoint. Class 0 wins by
// about 40 nats on both models, so every other probability is below
// 1e-15 before and after the swap and no probability moves by 1e-9; only
// the logit gaps, which the swap doubles, tell the models apart.
// ---------------------------------------------------------------------------
TEST(DriftEpochTest, ConfidentSwapWithSameArgmaxIsCaught) {
  util::Rng rng(13);
  api::LocalLinearModel before;
  before.weights = linalg::Matrix(kDim, kClasses);
  for (size_t j = 0; j < kDim; ++j) {
    for (size_t k = 0; k < kClasses; ++k) {
      before.weights(j, k) = rng.Uniform(-1.0, 1.0);
    }
  }
  before.bias = {40.0, 0.0, 0.0};
  api::LocalLinearModel after = before;
  for (size_t j = 0; j < kDim; ++j) {
    for (size_t k = 1; k < kClasses; ++k) after.weights(j, k) *= 2.0;
  }
  AffinePlm plm_before(before), plm_after(after);
  api::PredictionApi inner_before(&plm_before);
  api::PredictionApi inner_after(&plm_after);
  api::FaultInjectingApi api(&inner_before, api::FaultConfig{});

  EngineConfig config;
  config.num_threads = 1;
  config.drift_check_interval = 1;
  InterpretationEngine engine(config);
  auto session = engine.OpenSession(api);

  const Vec x = rng.UniformVector(kDim, 0.2, 0.8);
  const Vec y_before = plm_before.Predict(x);
  const Vec y_after = plm_after.Predict(x);
  ASSERT_EQ(linalg::ArgMax(y_before), linalg::ArgMax(y_after));
  for (size_t k = 0; k < kClasses; ++k) {
    ASSERT_LT(std::fabs(y_before[k] - y_after[k]), 1e-9) << "class " << k;
  }

  auto miss = session->Interpret({x, 1, {}}, /*seed=*/4, /*stream=*/0);
  ASSERT_TRUE(miss.result.ok()) << miss.result.status().ToString();
  EXPECT_EQ(miss.cache_outcome, CacheOutcome::kMiss);
  auto hit = session->Interpret({x, 1, {}}, /*seed=*/4, /*stream=*/1);
  ASSERT_TRUE(hit.result.ok()) << hit.result.status().ToString();
  EXPECT_EQ(hit.cache_outcome, CacheOutcome::kPointMemo);
  EXPECT_EQ(session->stats().drift_events, 0u);

  api.SwapInner(&inner_after);
  auto stale = session->Interpret({x, 1, {}}, /*seed=*/4, /*stream=*/2);
  ASSERT_TRUE(stale.result.ok()) << stale.result.status().ToString();
  EXPECT_EQ(stale.cache_outcome, CacheOutcome::kStaleRefetch);
  EXPECT_EQ(session->drift_epoch(), 1u);
  EXPECT_EQ(session->stats().drift_events, 1u);
  const Vec truth = api::GroundTruthDecisionFeatures(after, 1);
  ASSERT_EQ(stale.result->dc.size(), truth.size());
  for (size_t j = 0; j < truth.size(); ++j) {
    EXPECT_NEAR(stale.result->dc[j], truth[j], 1e-6) << "dim " << j;
  }
  EXPECT_EQ(session->stats().queries, api.query_count());
}

// ---------------------------------------------------------------------------
// interval = 0 (the default) disables checking: memo hits stay 0-query
// and a swapped endpoint IS served stale — the documented trade the knob
// exists to price. Callers who care pay 2 queries every Nth hit.
// ---------------------------------------------------------------------------
TEST(DriftEpochTest, IntervalZeroKeepsZeroQueryMemoHits) {
  util::Rng rng_a(21), rng_b(22);
  GridPlm grid_a(kDim, kClasses, kGrid, &rng_a);
  GridPlm grid_b(kDim, kClasses, kGrid, &rng_b);
  api::PredictionApi inner_a(&grid_a);
  api::PredictionApi inner_b(&grid_b);
  api::FaultInjectingApi api(&inner_a, api::FaultConfig{});

  EngineConfig config;
  config.num_threads = 1;  // drift_check_interval stays 0
  InterpretationEngine engine(config);
  auto session = engine.OpenSession(api);

  Vec x = grid_a.CellCenter(0, 3);
  x[1] -= 0.03;
  ASSERT_TRUE(session->Interpret({x, 0, {}}, 3, 0).result.ok());
  api.SwapInner(&inner_b);
  auto hit = session->Interpret({x, 0, {}}, 3, 1);
  ASSERT_TRUE(hit.result.ok());
  EXPECT_EQ(hit.cache_outcome, CacheOutcome::kPointMemo);
  EXPECT_EQ(hit.queries, 0u);  // stale, unchecked — by configuration
  EXPECT_EQ(session->drift_epoch(), 0u);
  EXPECT_EQ(session->stats().drift_events, 0u);
}

// ---------------------------------------------------------------------------
// The cadence is exact: with interval N, memo hits 1..N-1 are free and
// hit N pays the 2-query pair, repeating every N hits.
// ---------------------------------------------------------------------------
TEST(DriftEpochTest, ChecksFireEveryNthMemoHit) {
  util::Rng rng(31);
  GridPlm grid(kDim, kClasses, kGrid, &rng);
  api::PredictionApi api(&grid);

  EngineConfig config;
  config.num_threads = 1;
  config.drift_check_interval = 3;
  InterpretationEngine engine(config);
  auto session = engine.OpenSession(api);

  Vec x = grid.CellCenter(2, 2);
  x[0] -= 0.01;
  ASSERT_TRUE(session->Interpret({x, 0, {}}, 5, 0).result.ok());
  for (uint64_t hit = 1; hit <= 6; ++hit) {
    auto response = session->Interpret({x, 0, {}}, 5, hit);
    ASSERT_TRUE(response.result.ok());
    EXPECT_EQ(response.cache_outcome, CacheOutcome::kPointMemo);
    EXPECT_EQ(response.queries, hit % 3 == 0 ? 2u : 0u) << "hit " << hit;
  }
  EXPECT_EQ(session->stats().drift_events, 0u);  // model never moved
}

// ---------------------------------------------------------------------------
// Store-level epoch semantics, no engine involved: a bump filters every
// older entry out of CollectCandidates (Contains still sees them), a
// re-Put of the SAME box after the bump re-appends purely to re-stamp the
// epoch, and a reopen recovers the epoch from record stamps alone.
// ---------------------------------------------------------------------------
TEST(DriftEpochTest, StoreEpochFiltersStaleEntriesAndPersists) {
  constexpr size_t kD = 3, kC = 2;
  const std::string path = TempPath("drift_epoch_store.rlog");
  (void)util::RemoveFile(path);  // best-effort scratch cleanup

  store::RegionRecord record;
  record.fingerprint = 0xfeedULL;
  record.argmax = 1;
  record.anchor.assign(kD, 0.25);
  record.lo.assign(kD, 0.0);
  record.hi.assign(kD, 0.5);
  record.model.weights = linalg::Matrix(kD, kC);
  record.model.bias.assign(kC, 0.125);

  {
    auto opened = store::RegionStore::Open(path, kD, kC);
    ASSERT_TRUE(opened.ok()) << opened.status().ToString();
    auto store = std::move(*opened);
    EXPECT_EQ(store->current_epoch(), 0u);
    ASSERT_TRUE(store->Put(record).ok());

    std::vector<uint64_t> offsets;
    store->CollectCandidates(record.anchor, record.argmax, &offsets);
    EXPECT_EQ(offsets.size(), 1u);

    // Drift detected: everything below the new epoch stops being a
    // reload candidate, but stays present (Contains) — invalidated, not
    // forgotten.
    EXPECT_EQ(store->BumpEpoch(), 1u);
    offsets.clear();
    store->CollectCandidates(record.anchor, record.argmax, &offsets);
    EXPECT_TRUE(offsets.empty());
    EXPECT_TRUE(store->Contains(record.fingerprint));

    // A re-validated region Put at the new epoch must re-append even
    // though its box didn't grow — otherwise it would stay filtered
    // forever.
    auto appended = store->Put(record);
    ASSERT_TRUE(appended.ok());
    EXPECT_TRUE(*appended);
    EXPECT_EQ(store->appended_records(), 2u);
    offsets.clear();
    store->CollectCandidates(record.anchor, record.argmax, &offsets);
    EXPECT_EQ(offsets.size(), 1u);

    // Same box, same epoch: now it really is a duplicate.
    auto duplicate = store->Put(record);
    ASSERT_TRUE(duplicate.ok());
    EXPECT_FALSE(*duplicate);
    ASSERT_TRUE(store->Flush().ok());
  }

  // Reopen: the epoch survives via the stamped record (the header's base
  // epoch is a floor, not the only carrier), and the entry is live.
  auto reopened = store::RegionStore::Open(path, kD, kC);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ((*reopened)->current_epoch(), 1u);
  std::vector<uint64_t> offsets;
  (*reopened)->CollectCandidates(record.anchor, record.argmax, &offsets);
  EXPECT_EQ(offsets.size(), 1u);
}

// ---------------------------------------------------------------------------
// Engine + store: a session's drift event bumps the ATTACHED store's
// epoch (persisted via the refetched region's stamp), and a session
// opened on the reopened store resumes at that epoch instead of trusting
// pre-drift records.
// ---------------------------------------------------------------------------
TEST(DriftEpochTest, DriftBumpPropagatesToStoreAndSurvivesReopen) {
  const std::string path = TempPath("drift_epoch_session.rlog");
  (void)util::RemoveFile(path);  // best-effort scratch cleanup

  util::Rng rng_a(41), rng_b(42);
  GridPlm grid_a(kDim, kClasses, kGrid, &rng_a);
  GridPlm grid_b(kDim, kClasses, kGrid, &rng_b);
  api::PredictionApi inner_a(&grid_a);
  api::PredictionApi inner_b(&grid_b);
  api::FaultInjectingApi api(&inner_a, api::FaultConfig{});

  Vec x = grid_a.CellCenter(3, 1);
  x[0] += 0.015;

  {
    auto opened = store::RegionStore::Open(path, kDim, kClasses);
    ASSERT_TRUE(opened.ok()) << opened.status().ToString();
    auto store = std::move(*opened);

    EngineConfig config;
    config.num_threads = 1;
    config.drift_check_interval = 1;
    InterpretationEngine engine(config);
    SessionOptions options;
    options.store = store.get();
    auto session = engine.OpenSession(api, options);

    ASSERT_TRUE(session->Interpret({x, 0, {}}, 7, 0).result.ok());
    ASSERT_TRUE(session->Interpret({x, 0, {}}, 7, 1).result.ok());

    api.SwapInner(&inner_b);
    auto stale = session->Interpret({x, 0, {}}, 7, 2);
    ASSERT_TRUE(stale.result.ok()) << stale.result.status().ToString();
    EXPECT_EQ(stale.cache_outcome, CacheOutcome::kStaleRefetch);
    EXPECT_EQ(session->drift_epoch(), 1u);
    EXPECT_EQ(store->current_epoch(), 1u);
    ASSERT_TRUE(store->Flush().ok());
    session.reset();
  }

  auto reopened = store::RegionStore::Open(path, kDim, kClasses);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ((*reopened)->current_epoch(), 1u);

  EngineConfig config;
  config.num_threads = 1;
  InterpretationEngine engine(config);
  SessionOptions options;
  options.store = reopened->get();
  api::PredictionApi fresh_b(&grid_b);
  auto session = engine.OpenSession(fresh_b, options);
  EXPECT_EQ(session->drift_epoch(), 1u);

  // The post-drift record (epoch 1) is a live reload candidate: the
  // restarted session serves it as a 2-query disk hit against grid_b.
  auto hit = session->Interpret({x, 0, {}}, 7, 0);
  ASSERT_TRUE(hit.result.ok()) << hit.result.status().ToString();
  EXPECT_EQ(hit.cache_outcome, CacheOutcome::kDiskHit);
  EXPECT_EQ(hit.queries, 2u);
  session.reset();
}

}  // namespace
}  // namespace openapi::interpret
