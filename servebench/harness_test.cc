// Checks of the serving benchmark's own helpers (harness.h). run.py runs
// this before every benchmark run and refuses to report on failure.
//
//   serve_bench_selftest   -> exit 0 and "selftest ok", or the failures

#include <cmath>
#include <cstdio>
#include <thread>
#include <vector>

#include "harness.h"
#include "util/rng.h"

namespace openapi::servebench {
namespace {

int failures = 0;

void Expect(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "selftest FAILED: %s\n", what);
    ++failures;
  }
}

bool Near(double a, double b, double tol) { return std::fabs(a - b) <= tol; }

void QuantileChecks() {
  Expect(Quantile({}, 0.5) == 0.0, "quantile of an empty sample is 0");
  Expect(Quantile({7.0}, 0.99) == 7.0, "quantile of one value");
  Expect(Quantile({3.0, 1.0, 2.0}, 0.5) == 2.0, "median of an odd sample");
  Expect(Quantile({4.0, 1.0, 3.0, 2.0}, 0.5) == 2.5,
         "median interpolates an even sample");
  std::vector<double> ramp;
  for (int i = 0; i <= 100; ++i) ramp.push_back(i);
  Expect(Near(Quantile(ramp, 0.99), 99.0, 1e-12), "p99 of 0..100");
  Expect(Quantile(ramp, 0.0) == 0.0 && Quantile(ramp, 1.0) == 100.0,
         "q = 0 and q = 1 are the extremes");
}

void ZipfChecks() {
  const size_t n = 50;
  ZipfSampler zipf(n, 1.0);
  double harmonic = 0.0;
  for (size_t r = 1; r <= n; ++r) harmonic += 1.0 / static_cast<double>(r);
  Expect(Near(zipf.Probability(0), 1.0 / harmonic, 1e-12),
         "rank 0 has probability 1/H_n");
  Expect(Near(zipf.Probability(9), 0.1 / harmonic, 1e-12),
         "rank 9 has probability 1/(10 H_n)");
  util::Rng rng(17);
  const size_t draws = 200000;
  std::vector<size_t> counts(n, 0);
  bool in_range = true;
  for (size_t i = 0; i < draws; ++i) {
    const size_t r = zipf.Sample(&rng);
    if (r >= n) {
      in_range = false;
      continue;
    }
    ++counts[r];
  }
  Expect(in_range, "samples stay in [0, n)");
  for (size_t r : {0, 1, 4, 20}) {
    const double expected = zipf.Probability(r) * draws;
    // Five binomial standard deviations.
    Expect(std::fabs(counts[r] - expected) <= 5.0 * std::sqrt(expected),
           "sample frequencies follow the law");
  }
  const size_t count = 1000;
  const std::vector<size_t> stratified = zipf.StratifiedSample(count, &rng);
  std::vector<size_t> stratified_counts(n, 0);
  for (size_t r : stratified) ++stratified_counts[r < n ? r : 0];
  bool within_two = stratified.size() == count;
  for (size_t r = 0; r < n; ++r) {
    within_two = within_two && std::fabs(stratified_counts[r] -
                                         zipf.Probability(r) * count) < 2.0;
  }
  Expect(within_two, "stratified counts are within two of count * P(r)");
  size_t ascending = 0;
  for (size_t i = 1; i < count; ++i) ascending += stratified[i] >= stratified[i - 1];
  Expect(ascending < count - 100, "stratified ranks come in random order");
  util::Rng a(5), b(5);
  bool same = true;
  for (int i = 0; i < 100; ++i) same = same && zipf.Sample(&a) == zipf.Sample(&b);
  Expect(same, "one seed gives one sample sequence");
}

void ScheduleChecks() {
  util::Rng rng(23);
  const double rate = 500.0, seconds = 20.0;
  const std::vector<double> due = PoissonSchedule(rate, seconds, &rng);
  bool increasing = !due.empty() && due.front() > 0.0;
  for (size_t i = 1; i < due.size(); ++i) {
    increasing = increasing && due[i] > due[i - 1];
  }
  Expect(increasing, "due times are positive and strictly increasing");
  Expect(due.empty() || due.back() < seconds, "due times end before the run");
  const double expected = rate * seconds;
  Expect(std::fabs(due.size() - expected) <= 5.0 * std::sqrt(expected),
         "arrival count matches the rate");
  // Exponential gaps: the share of gaps above the mean is e^-1.
  size_t long_gaps = 0;
  for (size_t i = 1; i < due.size(); ++i) {
    if (due[i] - due[i - 1] > 1.0 / rate) ++long_gaps;
  }
  Expect(Near(static_cast<double>(long_gaps) / due.size(), std::exp(-1.0),
              0.02),
         "gaps are exponential");
  util::Rng again(23);
  Expect(PoissonSchedule(rate, seconds, &again) == due,
         "one seed gives one schedule");
}

void TracerChecks() {
  Expect(Tracer::Current() == nullptr, "no tracer is active by default");
  { ScopedSpan off("ignored"); }  // must be a no-op without a tracer
  std::vector<Span> spans;
  {
    Tracer tracer;
    tracer.SetRequest(42);
    {
      ScopedSpan outer("request");
      ScopedSpan inner("api");
      inner.set_count(3);
    }
    std::thread other([&] { ScopedSpan span("nn"); });
    other.join();
    spans = tracer.Collect();
  }
  Expect(Tracer::Current() == nullptr, "destroying a tracer deactivates it");
  Expect(spans.size() == 3, "three spans recorded");
  if (spans.size() == 3) {
    Expect(spans[0].parent == -1 && spans[1].parent == 0,
           "nested span points at its parent");
    Expect(spans[0].request == 42 && spans[1].request == 42,
           "spans carry the thread's request id");
    Expect(spans[1].count == 3, "span count is recorded");
    Expect(spans[0].end_ns >= spans[1].end_ns &&
               spans[1].start_ns >= spans[0].start_ns,
           "child lies inside its parent");
    Expect(spans[2].thread != spans[0].thread && spans[2].request == -1,
           "another thread gets its own buffer and no request");
  }
  {
    Tracer second;
    { ScopedSpan span("api"); }
    Expect(second.Collect().size() == 1 && second.Collect()[0].request == -1,
           "a new tracer starts with fresh thread buffers");
  }
}

}  // namespace
}  // namespace openapi::servebench

int main() {
  using namespace openapi::servebench;
  QuantileChecks();
  ZipfChecks();
  ScheduleChecks();
  TracerChecks();
  if (failures > 0) return 1;
  std::printf("selftest ok\n");
  return 0;
}
