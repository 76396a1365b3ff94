// OPENAPI_TEST_LABELS: fault
// The retry backoff schedule of probe dispatch, pinned draw for draw: a
// refused chunk sleeps the decorrelated-jitter sequence of a generator
// seeded from (kJitterSeed, queries on the books at chunk entry ^ chunk
// rows), recomputed here from a test-side copy of the formula, and a
// chunk served at once sleeps nothing.

#include <gtest/gtest.h>

#include <algorithm>
#include <utility>
#include <vector>

#include "api/fault_injecting_api.h"
#include "api/plm.h"
#include "interpret/probe_dispatch.h"
#include "nn/plnn.h"
#include "util/clock.h"
#include "util/rng.h"

namespace openapi::interpret {
namespace {

// Test-side copies of probe_dispatch.cc's retry tuning.
constexpr uint64_t kJitterSeed = 0xb0ff;
constexpr double kInitialBackoffSeconds = 0.001;
constexpr double kMaxBackoffSeconds = 0.100;

/// The first `refusals` backoff sleeps of a chunk of `rows` rows that
/// entered dispatch with `queries_at_entry` queries on the books.
std::vector<double> ExpectedSleeps(uint64_t queries_at_entry, uint64_t rows,
                                   uint64_t refusals) {
  util::Rng jitter(util::Rng::MixSeed(kJitterSeed, queries_at_entry ^ rows));
  std::vector<double> sleeps;
  double prev_sleep = kInitialBackoffSeconds;
  for (uint64_t i = 0; i < refusals; ++i) {
    prev_sleep = std::min(
        kMaxBackoffSeconds,
        jitter.Uniform(kInitialBackoffSeconds,
                       std::max(kInitialBackoffSeconds, prev_sleep * 3.0)));
    sleeps.push_back(prev_sleep);
  }
  return sleeps;
}

/// A FakeClock that also records every sleep it is asked for.
class RecordingClock final : public util::Clock {
 public:
  TimePoint Now() const override { return clock_.Now(); }
  void SleepFor(double seconds) const override {
    sleeps_.push_back(seconds);
    clock_.SleepFor(seconds);
  }
  std::vector<double> TakeSleeps() const { return std::exchange(sleeps_, {}); }

 private:
  util::FakeClock clock_;
  mutable std::vector<double> sleeps_;
};

TEST(ProbeDispatchBackoffTest, SleepsFollowTheSeededJitterSchedule) {
  util::Rng rng(17);
  nn::Plnn net(std::vector<size_t>{3, 6, 2}, &rng);
  api::PredictionApi inner(&net);
  api::FaultConfig fault;
  fault.transient_rate = 0.6;
  // Forced through on the 4th attempt: every chunk ends served, after
  // 0-3 refusals.
  fault.max_consecutive_failures = 3;
  api::FaultInjectingApi api(&inner, fault);
  RecordingClock clock;
  RequestOptions options;
  options.clock = &clock;

  size_t refused_chunks = 0;
  const size_t calls = 40;
  for (size_t call = 0; call < calls; ++call) {
    // One row is one chunk; a distinct entry position per call gives
    // each its own jitter stream.
    RequestCost cost;
    cost.queries = 3 * call;
    const uint64_t queries_at_entry = cost.queries;
    const std::vector<Vec> points{rng.UniformVector(3, -1.0, 1.0)};
    std::vector<Vec> predictions(1);
    ASSERT_TRUE(DispatchProbes(api, points, options, &cost, &predictions,
                               /*out_offset=*/0)
                    .ok());
    EXPECT_EQ(cost.queries, queries_at_entry + 1);
    // Bit-identical sleeps, compared as exact doubles.
    EXPECT_EQ(clock.TakeSleeps(),
              ExpectedSleeps(queries_at_entry, /*rows=*/1, cost.retries))
        << "call " << call;
    if (cost.retries > 0) ++refused_chunks;
  }
  // The seeded sequence mixes refused and immediately served chunks.
  EXPECT_GT(refused_chunks, 0u);
  EXPECT_LT(refused_chunks, calls);
}

}  // namespace
}  // namespace openapi::interpret
