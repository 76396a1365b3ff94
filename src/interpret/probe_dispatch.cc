#include "interpret/probe_dispatch.h"

#include <algorithm>
#include <cmath>
#include <optional>

#include "util/check.h"
#include "util/rng.h"
#include "util/string_util.h"
#include "util/timer.h"

namespace openapi::interpret {
namespace {

// --- Chunk splitter. ---

/// Weight of the newest chunk observation in the per-endpoint EWMA.
constexpr double kEwmaAlpha = 0.25;

/// Assumed per-row latency while the endpoint has no recorded chunks.
/// Deliberately pessimistic (10 ms/row): a cold endpoint gets a tiny
/// first chunk whose observation immediately corrects the estimate, so a
/// fast endpoint pays one extra round-trip instead of a slow one blowing
/// a deadline by a whole batch. Corollary: a COLD endpoint with a
/// deadline tighter than this prior's first chunk is rejected up front
/// with zero queries — conservative by design.
constexpr double kSeedSecondsPerRow = 0.010;

/// A chunk targets at most this fraction of the time remaining to the
/// deadline, so chunks shrink geometrically as the deadline nears and the
/// final overshoot is a fraction of the remaining window.
constexpr double kDeadlineChunkFraction = 0.25;

/// Chunk duration cap for any CANCELLABLE request: bounds how long a
/// cancellation can go unnoticed mid-batch. With no deadline it is the
/// chunk target outright; with one, the tighter of this and the
/// deadline-fraction target wins (a roomy deadline must not slow the
/// cancel reaction down).
constexpr double kCancelChunkSeconds = 0.010;

// --- Retry policy, applied to every chunk (including the single-chunk
// fast paths), so transient endpoint failures are absorbed here instead
// of surfacing to the solver. ---

/// Attempts per chunk, including the first.
constexpr size_t kMaxAttempts = 4;

/// First backoff sleep, and the lower bound of every jittered draw.
constexpr double kInitialBackoffSeconds = 0.001;

/// Hard cap on any single backoff sleep.
constexpr double kMaxBackoffSeconds = 0.100;

/// Failed attempts allowed per REQUEST (across all its chunks), the bound
/// on retry amplification: once a request has burned this many failed
/// attempts, the next failure degrades to kUnavailable instead of
/// retrying.
constexpr uint64_t kRetryBudget = 16;

/// Jitter stream seed: backoff sleeps are a pure function of (seed,
/// consumed-so-far, chunk size), so a single-threaded run replays its
/// retry schedule bit-identically.
constexpr uint64_t kJitterSeed = 0xb0ff;

/// Rows the next chunk should carry, given the request's controls and
/// the current per-row estimate. `rows_left` > 0; the result is in
/// [1, rows_left].
size_t PlanChunkRows(const RequestOptions& options, double seconds_per_row,
                     size_t rows_left) {
  OPENAPI_CHECK_GT(rows_left, 0u);
  double target_seconds;
  if (options.deadline.has_value()) {
    const double remaining =
        std::chrono::duration<double>(
            *options.deadline - util::EffectiveClock(options.clock)->Now())
            .count();
    target_seconds = std::max(remaining, 0.0) * kDeadlineChunkFraction;
    if (options.cancel.cancellable()) {
      // A roomy deadline must not cost cancellation its reaction bound:
      // the tighter of the two targets wins.
      target_seconds = std::min(target_seconds, kCancelChunkSeconds);
    }
  } else {
    target_seconds = kCancelChunkSeconds;
  }
  const double per_row = std::max(seconds_per_row, 1e-12);
  const double planned = std::floor(target_seconds / per_row);
  if (planned >= static_cast<double>(rows_left)) return rows_left;
  // Never fewer than one row per chunk.
  if (planned <= 1.0) return 1;
  return static_cast<size_t>(planned);
}

/// Sends one chunk, absorbing retryable refusals under the retry policy.
/// Accounting rules (the reason this is the ONLY place a chunk touches
/// the endpoint): cost->queries advances by exactly what each attempt
/// charged — served or refused — so it tracks api.query_count() even
/// through failures; every charged-but-unanswered query additionally
/// lands in cost->wasted_queries, and each refused attempt bumps
/// cost->retries. On success only the WINNING attempt's duration is
/// folded into the endpoint's EWMA — backoff sleeps and refused
/// round-trips are failure costs, not row latency.
Status SendChunkWithRetry(const api::PredictionApi& api,
                          const std::vector<Vec>& rows,
                          const RequestOptions& options, RequestCost* cost,
                          std::vector<Vec>* out) {
  const util::Clock* clock = util::EffectiveClock(options.clock);
  // Decorrelated-jitter stream, a pure function of (seed, position): a
  // single-threaded run replays its backoff schedule bit-identically. The
  // seed is fixed at chunk entry; the generator is built on the first
  // refusal, so a chunk served at once never seeds it.
  const uint64_t jitter_seed = util::Rng::MixSeed(
      kJitterSeed, cost->queries ^ static_cast<uint64_t>(rows.size()));
  std::optional<util::Rng> jitter;
  double prev_sleep = kInitialBackoffSeconds;
  for (size_t attempt = 0;; ++attempt) {
    uint64_t attempt_consumed = 0;
    util::Timer timer(options.clock);
    Result<std::vector<Vec>> batch =
        api.TryPredictBatch(rows, &attempt_consumed);
    cost->queries += attempt_consumed;
    if (batch.ok()) {
      if (attempt_consumed > rows.size()) {
        // A composite endpoint (replica set) reserved extra queries for
        // internal re-dispatch on the way to this answer: charged, but
        // no caller-visible rows came of them.
        cost->wasted_queries += attempt_consumed - rows.size();
      }
      api.row_latency().Record(rows.size(), timer.ElapsedSeconds(),
                               kEwmaAlpha);
      *out = std::move(batch).ValueOrDie();
      return Status::OK();
    }
    cost->wasted_queries += attempt_consumed;
    cost->retries += 1;
    const Status& refusal = batch.status();
    if (!refusal.IsRetryable()) return refusal;
    if (attempt + 1 >= kMaxAttempts) {
      return Status::Unavailable(util::StrFormat(
          "chunk of %llu rows refused %llu consecutive times (last: %s); "
          "%llu queries consumed, %llu wasted, %llu retries this request",
          static_cast<unsigned long long>(rows.size()),
          static_cast<unsigned long long>(kMaxAttempts),
          refusal.message().c_str(),
          static_cast<unsigned long long>(cost->queries),
          static_cast<unsigned long long>(cost->wasted_queries),
          static_cast<unsigned long long>(cost->retries)));
    }
    if (cost->retries >= kRetryBudget) {
      return Status::Unavailable(util::StrFormat(
          "retry budget %llu exhausted (last refusal: %s); %llu queries "
          "consumed, %llu wasted",
          static_cast<unsigned long long>(kRetryBudget),
          refusal.message().c_str(),
          static_cast<unsigned long long>(cost->queries),
          static_cast<unsigned long long>(cost->wasted_queries)));
    }
    if (!jitter.has_value()) jitter.emplace(jitter_seed);
    const double sleep = std::min(
        kMaxBackoffSeconds,
        jitter->Uniform(kInitialBackoffSeconds,
                       std::max(kInitialBackoffSeconds, prev_sleep * 3.0)));
    prev_sleep = sleep;
    // Re-gate before sleeping: the backoff itself must not carry the
    // request past a deadline/cancel a fresh chunk would have honored.
    OPENAPI_RETURN_NOT_OK(
        EnforceRequestOptions(options, cost->queries, rows.size(), sleep));
    clock->SleepFor(sleep);
  }
}

}  // namespace

double EffectiveRowLatency(const api::PredictionApi& api) {
  const double observed = api.row_latency().seconds_per_row();
  return observed > 0.0 ? observed : kSeedSecondsPerRow;
}

Status DispatchProbes(const api::PredictionApi& api,
                      const std::vector<Vec>& points,
                      const RequestOptions& options, RequestCost* cost,
                      std::vector<Vec>* predictions, size_t out_offset) {
  if (points.empty()) return Status::OK();
  OPENAPI_CHECK_GE(predictions->size(), out_offset + points.size());
  // The endpoint's response vectors are its own allocations; assign()
  // copies them into the caller's stable row buffers and lets them go.
  auto emit = [&](const std::vector<Vec>& batch, size_t base) {
    for (size_t i = 0; i < batch.size(); ++i) {
      (*predictions)[out_offset + base + i].assign(batch[i].begin(),
                                                   batch[i].end());
    }
  };

  std::vector<Vec> batch;
  const bool bounded =
      options.deadline.has_value() || options.cancel.cancellable();
  if (!bounded) {
    // Unbounded request: the whole batch is one chunk — but still timed,
    // so deadline-free traffic keeps the endpoint's estimate warm for
    // the deadlined requests that follow it.
    OPENAPI_RETURN_NOT_OK(
        SendChunkWithRetry(api, points, options, cost, &batch));
    emit(batch, 0);
    return Status::OK();
  }

  size_t done = 0;
  std::vector<Vec> chunk;  // sub-batch buffer, reused across chunks
  while (done < points.size()) {
    const double per_row = EffectiveRowLatency(api);
    const size_t rows = PlanChunkRows(options, per_row, points.size() - done);
    // Predictive gate: dispatch only if the chunk's estimated duration
    // still fits before the deadline (and the budget covers it, and no
    // cancellation landed). Queries already charged stay in cost->queries.
    OPENAPI_RETURN_NOT_OK(EnforceRequestOptions(
        options, cost->queries, rows, per_row * static_cast<double>(rows)));
    const bool whole_batch = done == 0 && rows == points.size();
    if (!whole_batch) {
      // Sub-batch rows are copied into the reusable chunk buffer; the
      // whole-batch case (a fast endpoint under a roomy deadline plans
      // one chunk) skips the copy and sends `points` directly.
      chunk.assign(points.begin() + static_cast<ptrdiff_t>(done),
                   points.begin() + static_cast<ptrdiff_t>(done + rows));
    }
    OPENAPI_RETURN_NOT_OK(SendChunkWithRetry(
        api, whole_batch ? points : chunk, options, cost, &batch));
    emit(batch, done);
    done += rows;
  }
  return Status::OK();
}

}  // namespace openapi::interpret
