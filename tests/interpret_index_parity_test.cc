// OPENAPI_TEST_LABELS: concurrent  (run under TSan in CI: ctest -L concurrent)
// Decision-invisibility of the region index: the session's candidate
// lookup (index stab, then the fallback scan) must decide hit vs miss
// exactly like a plain linear scan over every occupied cache slot — the
// oracle below, written here rather than kept as an engine mode — under
// randomized traffic with repeats, nudges, evictions, and interleaved
// ClearCache. Before each request both lookups answer the same (x0, y0,
// probe, y_probe) question; the session then serves the request as
// usual, so the cache evolves exactly as it does in production. Requests
// run sequentially with num_threads = 1, so any divergence is a semantic
// difference in the lookup, not scheduling noise. Both lookups decide
// with the library's one predicate (a model explains the pair in
// log-odds), so every answer the session serves is also checked against
// the white-box ground truth: a predicate that admits the wrong region
// fails there even though both lookups agree.

#include <gtest/gtest.h>

#include <vector>

#include "api/ground_truth.h"
#include "api/plm.h"
#include "data/synthetic.h"
#include "eval/exactness.h"
#include "interpret/interpretation_engine.h"
#include "lmt/lmt.h"
#include "nn/plnn.h"
#include "util/rng.h"

namespace openapi::interpret {

/// Reaches into a session's cache for the lookup checks (declared a
/// friend of EndpointSession).
class EndpointSessionTestPeer {
 public:
  static constexpr size_t kNoSlot = static_cast<size_t>(-1);

  using Pair = EndpointSession::ValidationPair;

  /// The request's validation pair, observed at the session's tolerance.
  static Pair MakePair(const EndpointSession& session, const Vec& x0,
                       const Vec& y0, const Vec& probe, const Vec& y_probe) {
    return Pair{x0, probe, ObservedOdds(y0), ObservedOdds(y_probe),
                session.engine_->config().match_tol, {}};
  }

  /// The session's own lookup: index stab, then the fallback scan.
  static size_t Find(const EndpointSession& session, const Pair& pair) {
    auto hit = session.FindMatchingRegion(pair);
    return hit.has_value() ? hit->slot : kNoSlot;
  }

  /// The oracle: the first occupied, current-epoch slot, in slot order,
  /// whose model explains both points of the pair.
  static size_t LinearScan(const EndpointSession& session, const Pair& pair) {
    util::ReaderMutexLock lock(session.cache_mutex_);
    for (size_t slot = 0; slot < session.regions_.size(); ++slot) {
      const auto& region = session.regions_[slot];
      if (!region.occupied || region.epoch < session.drift_epoch()) continue;
      if (pair.ExplainedBy(region.model)) return slot;
    }
    return kNoSlot;
  }

  static Vec DecisionFeatures(const EndpointSession& session, size_t slot,
                              size_t c) {
    util::ReaderMutexLock lock(session.cache_mutex_);
    return api::GroundTruthDecisionFeatures(session.regions_[slot].model, c);
  }
};

namespace {

using Peer = EndpointSessionTestPeer;

/// One step of the fuzz tape: a request, or a ClearCache marker.
struct Step {
  bool clear_cache = false;
  Vec x0;
  size_t c = 0;
};

std::vector<Step> MakeTape(size_t n, size_t d, size_t num_classes,
                           uint64_t seed) {
  util::Rng rng(seed);
  std::vector<Step> tape;
  std::vector<Vec> seen;
  tape.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    Step step;
    const double roll = rng.Uniform(0.0, 1.0);
    if (roll < 0.03 && i > 10) {
      step.clear_cache = true;
      tape.push_back(std::move(step));
      continue;
    }
    if (roll < 0.35 && !seen.empty()) {
      // Exact repeat of an earlier point: exercises the point memo.
      step.x0 = seen[static_cast<size_t>(
          rng.Uniform(0.0, static_cast<double>(seen.size())))];
    } else if (roll < 0.70 && !seen.empty()) {
      // Nudge of an earlier point: same region, fresh raw bits — the
      // candidate-search path where index/scan parity actually matters.
      step.x0 = seen[static_cast<size_t>(
          rng.Uniform(0.0, static_cast<double>(seen.size())))];
      const size_t j = static_cast<size_t>(
          rng.Uniform(0.0, static_cast<double>(d)));
      step.x0[j] += rng.Uniform(-1e-7, 1e-7);
    } else {
      step.x0 = rng.UniformVector(d, 0.05, 0.95);
      seen.push_back(step.x0);
    }
    step.c = static_cast<size_t>(
        rng.Uniform(0.0, static_cast<double>(num_classes)));
    tape.push_back(std::move(step));
  }
  return tape;
}

template <typename WhiteBoxPlm>
void RunTapeAgainstOracle(const WhiteBoxPlm& model,
                          const std::vector<Step>& tape, size_t capacity,
                          uint64_t seed) {
  EngineConfig config;
  config.num_threads = 1;
  InterpretationEngine engine(config);
  api::PredictionApi api(&model);
  // The lookup checks buy their y values from a second endpoint over the
  // same model, so the served session stays `api`'s only client.
  api::PredictionApi oracle_api(&model);
  auto session = engine.OpenSession(api, capacity);
  util::Rng probe_rng(seed + 1);

  size_t steps = 0;
  size_t checked = 0;
  size_t oracle_hits = 0;
  for (size_t i = 0; i < tape.size(); ++i) {
    const Step& step = tape[i];
    if (step.clear_cache) {
      session->ClearCache();
      continue;
    }
    ++steps;
    const Vec probe = SampleHypercube(step.x0, kValidationEdge,
                                      /*count=*/1, &probe_rng)[0];
    const Vec y0 = oracle_api.Predict(step.x0);
    const Vec y_probe = oracle_api.Predict(probe);
    const Peer::Pair pair = Peer::MakePair(*session, step.x0, y0, probe,
                                           y_probe);
    const size_t found = Peer::Find(*session, pair);
    const size_t expected = Peer::LinearScan(*session, pair);
    ASSERT_EQ(found != Peer::kNoSlot, expected != Peer::kNoSlot)
        << "step " << i << ": index lookup and linear oracle disagree";
    if (expected != Peer::kNoSlot) {
      ++oracle_hits;
      ASSERT_EQ(Peer::DecisionFeatures(*session, found, step.c),
                Peer::DecisionFeatures(*session, expected, step.c))
          << "step " << i;
    }
    ++checked;

    EngineResponse served =
        session->Interpret({step.x0, step.c, {}}, seed, i);
    ASSERT_TRUE(served.result.ok()) << "step " << i << ": "
                                    << served.result.status().ToString();
    EXPECT_LT(eval::L1Dist(model, step.x0, step.c, served.result->dc), 1e-6)
        << "step " << i << " ("
        << CacheOutcomeName(served.cache_outcome) << ")";
  }
  EXPECT_EQ(checked, steps);
  EXPECT_GT(oracle_hits, 0u);
  EXPECT_LT(oracle_hits, checked);

  EngineStats stats = session->stats();
  EXPECT_EQ(stats.queries, api.query_count());
  // The tape must actually have exercised every decision class, or the
  // parity proved nothing.
  EXPECT_GT(stats.point_memo_hits, 0u);
  EXPECT_GT(stats.cache_hits, 0u);
  EXPECT_GT(stats.cache_misses, 0u);
  EXPECT_GT(stats.evictions, 0u);
}

TEST(IndexParityFuzzTest, PlnnRandomTrafficWithEvictionsAndClears) {
  // Irregular random polytopes from a ReLU net: regions of wildly
  // different shapes and sizes, anchors scattered by traffic.
  util::Rng net_rng(77);
  nn::Plnn net({5, 9, 7, 3}, &net_rng);
  auto tape = MakeTape(/*n=*/140, /*d=*/5, /*num_classes=*/3, /*seed=*/41);
  RunTapeAgainstOracle(net, tape, /*capacity=*/6, /*seed=*/1234);
}

TEST(IndexParityFuzzTest, LmtRandomTrafficWithEvictionsAndClears) {
  // Axis-aligned LMT leaves: large flat regions where many nudged points
  // share one region — the workload where the index serves almost every
  // request from its stab and the fallback scan must still agree.
  util::Rng data_rng(5);
  data::Dataset train =
      data::GenerateGaussianBlobs(4, 3, 300, 0.1, &data_rng);
  lmt::LmtConfig lmt_config;
  lmt_config.min_split_size = 50;
  lmt_config.max_depth = 3;
  lmt_config.accuracy_threshold = 1.01;
  lmt_config.leaf_config.max_iters = 60;
  auto tree = lmt::LogisticModelTree::Fit(train, lmt_config);
  auto tape = MakeTape(/*n=*/140, /*d=*/4, /*num_classes=*/3, /*seed=*/43);
  RunTapeAgainstOracle(tree, tape, /*capacity=*/2, /*seed=*/999);
}

}  // namespace
}  // namespace openapi::interpret
