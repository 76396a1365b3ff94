// Harness pieces of the serving benchmark (serve_bench.cc) that carry no
// knowledge of the library: quantiles, the Zipf sampler, the open-loop
// arrival schedule, and the span recorder behind `--trace 1`.
//
// Every random draw goes through util::Rng, so one workload seed names one
// input set. harness_test.cc checks these helpers on their own.

#ifndef OPENAPI_SERVEBENCH_HARNESS_H_
#define OPENAPI_SERVEBENCH_HARNESS_H_

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "util/rng.h"

namespace openapi::servebench {

/// Quantile q in [0, 1] of `values` by linear interpolation between the
/// closest ranks (numpy's default); 0 for an empty sample.
inline double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + frac * (values[hi] - values[lo]);
}

/// Zipf law over ranks [0, n): P(r) is proportional to 1 / (r + 1)^s.
/// Sampling inverts a precomputed CDF by binary search.
class ZipfSampler {
 public:
  ZipfSampler(size_t n, double s) : cdf_(n) {
    double sum = 0.0;
    for (size_t r = 0; r < n; ++r) {
      sum += 1.0 / std::pow(static_cast<double>(r + 1), s);
      cdf_[r] = sum;
    }
    for (double& c : cdf_) c /= sum;
    cdf_.back() = 1.0;
  }

  size_t Sample(util::Rng* rng) const {
    const double u = rng->Uniform(0.0, 1.0);
    return static_cast<size_t>(
        std::upper_bound(cdf_.begin(), cdf_.end(), u) - cdf_.begin());
  }

  /// `count` ranks whose counts follow the law as closely as possible:
  /// one uniform draw in each of `count` equal strata of [0, 1), mapped
  /// through the inverse CDF, returned in random order. Rank r appears
  /// within two of count * P(r) times (only the two strata its CDF
  /// interval cuts are left to chance), where independent draws would
  /// scatter by sqrt(count * P(r)).
  std::vector<size_t> StratifiedSample(size_t count, util::Rng* rng) const {
    std::vector<size_t> ranks(count);
    for (size_t i = 0; i < count; ++i) {
      const double u = (static_cast<double>(i) + rng->Uniform(0.0, 1.0)) /
                       static_cast<double>(count);
      ranks[i] = std::min(
          static_cast<size_t>(std::upper_bound(cdf_.begin(), cdf_.end(), u) -
                              cdf_.begin()),
          cdf_.size() - 1);
    }
    rng->Shuffle(&ranks);
    return ranks;
  }

  double Probability(size_t rank) const {
    return rank == 0 ? cdf_[0] : cdf_[rank] - cdf_[rank - 1];
  }

 private:
  std::vector<double> cdf_;
};

/// Due times, in seconds from the start of the run, of Poisson arrivals at
/// `rate` per second over [0, seconds). Strictly increasing.
inline std::vector<double> PoissonSchedule(double rate, double seconds,
                                           util::Rng* rng) {
  std::vector<double> due;
  double t = 0.0;
  for (;;) {
    // 1 - U lies in (0, 1], so the log is finite.
    t += -std::log(1.0 - rng->Uniform(0.0, 1.0)) / rate;
    if (t >= seconds) return due;
    due.push_back(t);
  }
}

/// Nanoseconds on the steady clock since the first call in the process.
inline int64_t NowNs() {
  static const auto origin = std::chrono::steady_clock::now();
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - origin)
      .count();
}

/// One recorded interval at a layer boundary.
struct Span {
  const char* name = "";  // static string: "request", "api", "nn", ...
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int64_t parent = -1;   // index of the enclosing span in the same
                         // thread's buffer; -1 for a root span
  int64_t request = -1;  // request id; -1 when not attributable
  uint32_t thread = 0;   // small per-tracer thread number
  uint32_t count = 0;    // rows or items handled at this boundary

  double duration_ms() const {
    return static_cast<double>(end_ns - start_ns) * 1e-6;
  }
};

/// In-memory span recorder. Constructing one makes it the active tracer;
/// destroying it deactivates it. Each thread appends to its own buffer
/// (registered once per tracer), so recording takes no lock. A thread's
/// current request id tags every span it records until it is changed,
/// which is how spans on engine pool threads are tied to requests.
///
/// Only one tracer may be active at a time, and it must outlive every
/// call that can record into it.
class Tracer {
 public:
  Tracer() : generation_(NextGeneration()) {
    Active().store(this, std::memory_order_release);
  }
  ~Tracer() { Active().store(nullptr, std::memory_order_release); }
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// The active tracer, or nullptr when tracing is off.
  static Tracer* Current() {
    return Active().load(std::memory_order_acquire);
  }

  /// Tags the calling thread's later spans with `request`.
  void SetRequest(int64_t request) { Local()->request = request; }

  /// Opens a span on the calling thread; returns its handle for End.
  int64_t Begin(const char* name) {
    Buffer* b = Local();
    Span span;
    span.name = name;
    span.start_ns = NowNs();
    span.parent = b->open.empty() ? -1 : b->open.back();
    span.request = b->request;
    span.thread = b->thread;
    b->spans.push_back(span);
    const int64_t handle = static_cast<int64_t>(b->spans.size() - 1);
    b->open.push_back(handle);
    return handle;
  }

  /// Closes the span `handle` opened on this thread.
  void End(int64_t handle, uint32_t count) {
    Buffer* b = Local();
    Span& span = b->spans[static_cast<size_t>(handle)];
    span.end_ns = NowNs();
    span.count = count;
    if (!b->open.empty() && b->open.back() == handle) b->open.pop_back();
  }

  /// Every span recorded so far, thread by thread. Call only once the
  /// recording threads are quiet.
  std::vector<Span> Collect() const {
    std::lock_guard<std::mutex> lock(mutex_);
    std::vector<Span> all;
    for (const auto& b : buffers_) {
      all.insert(all.end(), b->spans.begin(), b->spans.end());
    }
    return all;
  }

 private:
  struct Buffer {
    uint32_t thread = 0;
    int64_t request = -1;
    std::vector<Span> spans;
    std::vector<int64_t> open;
  };

  struct ThreadSlot {
    uint64_t generation = 0;
    Buffer* buffer = nullptr;
  };

  static std::atomic<Tracer*>& Active() {
    static std::atomic<Tracer*> active{nullptr};
    return active;
  }

  static uint64_t NextGeneration() {
    static std::atomic<uint64_t> next{1};
    return next.fetch_add(1, std::memory_order_relaxed);
  }

  Buffer* Local() {
    thread_local ThreadSlot slot;
    if (slot.generation != generation_) {
      auto buffer = std::make_unique<Buffer>();
      std::lock_guard<std::mutex> lock(mutex_);
      buffer->thread = static_cast<uint32_t>(buffers_.size());
      buffer->spans.reserve(1 << 14);
      slot.buffer = buffer.get();
      slot.generation = generation_;
      buffers_.push_back(std::move(buffer));
    }
    return slot.buffer;
  }

  const uint64_t generation_;
  mutable std::mutex mutex_;
  std::vector<std::unique_ptr<Buffer>> buffers_;  // guarded by mutex_
};

/// RAII span on the active tracer; a no-op when tracing is off.
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name) : tracer_(Tracer::Current()) {
    if (tracer_ != nullptr) handle_ = tracer_->Begin(name);
  }
  ~ScopedSpan() {
    if (tracer_ != nullptr) tracer_->End(handle_, count_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  void set_count(size_t count) { count_ = static_cast<uint32_t>(count); }

 private:
  Tracer* tracer_;
  int64_t handle_ = -1;
  uint32_t count_ = 0;
};

}  // namespace openapi::servebench

#endif  // OPENAPI_SERVEBENCH_HARNESS_H_
