// Per-request serving controls: query budget, deadline, cancellation.
//
// A serving system in front of a metered black-box API treats queries as
// the first-class resource (cf. Tramèr et al., USENIX Security 2016): the
// closed-form solver is exact, but its shrink loop may legally consume up
// to max_iterations batches before giving up, and a caller needs to say
// "spend at most Q queries / T milliseconds on this request" — or revoke
// work that is no longer needed. RequestOptions carries those three
// controls; the solver and the engine's cached path check them BEFORE
// every probe batch — and, through the chunked dispatch layer
// (probe_dispatch.h), between the latency-sized CHUNKS of each batch,
// with a predictive deadline gate fed by the endpoint's per-row latency
// EWMA — so a request with max_queries = Q never issues more than Q API
// queries, a deadlined request stops within one chunk (not one batch) of
// its deadline, and every rejection reports the exact count it did
// consume (via interpret::EngineResponse::queries and the request's
// RequestCost ledger).
//
// Defaults are "unlimited": zero budget means no budget, no deadline, an
// empty CancelToken. A default RequestOptions therefore reproduces the
// pre-session behavior exactly.

#ifndef OPENAPI_INTERPRET_REQUEST_OPTIONS_H_
#define OPENAPI_INTERPRET_REQUEST_OPTIONS_H_

#include <chrono>
#include <cstdint>
#include <optional>

#include "util/cancellation.h"
#include "util/clock.h"
#include "util/status.h"

namespace openapi::interpret {

struct RequestOptions {
  /// Maximum API queries this request may consume, across the cached
  /// path's validation pair AND the solver's probe batches. 0 = unlimited.
  uint64_t max_queries = 0;

  /// Absolute wall-clock deadline. Checked before every probe chunk
  /// (batches are split into latency-sized chunks when a deadline is
  /// set); work in flight is finished, no new chunk starts past — or is
  /// predicted to finish past — the deadline.
  std::optional<std::chrono::steady_clock::time_point> deadline;

  /// Cooperative cancellation handle (empty = never cancelled).
  util::CancelToken cancel;

  /// Time source for every clock read this request's controls trigger —
  /// deadline checks, chunk planning, retry backoff sleeps. Null means
  /// the real steady clock; tests inject a util::FakeClock to make
  /// deadline and backoff behavior deterministic.
  const util::Clock* clock = nullptr;

  static RequestOptions WithBudget(uint64_t queries) {
    RequestOptions options;
    options.max_queries = queries;
    return options;
  }

  static RequestOptions WithTimeout(std::chrono::milliseconds timeout,
                                    const util::Clock* clock = nullptr) {
    RequestOptions options;
    options.clock = clock;
    options.deadline = util::EffectiveClock(clock)->Now() + timeout;
    return options;
  }
};

/// Gate before spending `next_cost` more queries on a request that has
/// already consumed `consumed`: OK, or Cancelled / DeadlineExceeded /
/// BudgetExhausted (checked in that order) with the exact consumed count
/// in the message. `estimated_seconds` is the PREDICTED duration of the
/// next batch (from the endpoint's per-row latency EWMA — see
/// interpret/probe_dispatch.h): when a deadline is set and the batch is
/// predicted to finish past it, the gate rejects with DeadlineExceeded
/// BEFORE the batch is dispatched, so a request whose very first chunk
/// would already blow the deadline fails with queries == 0 instead of
/// overshooting. estimated_seconds <= 0 disables the predictive part
/// (pure now-vs-deadline check); next_cost == 0 checks only
/// cancellation + deadline.
Status EnforceRequestOptions(const RequestOptions& options,
                             uint64_t consumed, uint64_t next_cost,
                             double estimated_seconds);

/// EnforceRequestOptions without the predictive deadline gate — the
/// non-latency-aware call sites (budget pre-checks, pre-flight).
Status CheckRequestControls(const RequestOptions& options, uint64_t consumed,
                            uint64_t next_cost);

}  // namespace openapi::interpret

#endif  // OPENAPI_INTERPRET_REQUEST_OPTIONS_H_
