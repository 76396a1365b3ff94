// Latency-aware chunked probe dispatch: the tight-deadline story.
//
// RequestOptions deadlines used to be enforced only BETWEEN probe
// batches: the shrink loop gated each d+1-probe batch on
// CheckRequestControls and then handed the whole batch to
// PredictionApi::PredictBatch in one call, so one slow batch against a
// high-latency endpoint overshot the deadline by up to the batch's full
// latency — unboundedly, since the endpoint's speed is not ours to pick.
// That is exactly the per-request cost unpredictability the closed-form
// method's fixed query budget is supposed to eliminate (Cong et al.,
// ICDE 2020), and the failure mode local-approximation baselines pay on
// every instance.
//
// DispatchProbes makes the guarantee tight. A probe batch is split into
// CHUNKS sized from a per-endpoint EWMA of observed per-row latency
// (api::PredictionApi::row_latency(); seeded with a deliberately
// pessimistic prior while the endpoint is cold) and the request's
// controls are re-checked between chunks with a PREDICTIVE gate: a chunk
// is only dispatched when its estimated duration still fits before the
// deadline (EnforceRequestOptions). Consequences:
//
//   * a request now stops within one CHUNK, not one batch, of its
//     deadline — and the chunk was sized at a fraction of the remaining
//     time, so the overshoot is bounded by one (mis)estimated chunk;
//   * a request whose FIRST chunk is already predicted past the deadline
//     is rejected before any endpoint traffic (DeadlineExceeded with
//     queries == 0), closing the old disagreement between the pre-flight
//     and the per-batch check on that boundary case;
//   * cancellation reaction time is bounded by kCancelChunkSeconds for
//     cancellable requests without a deadline;
//   * partial consumption stays exact: every chunk is a real
//     PredictBatch of exactly that many rows, counted into the request's
//     RequestCost as it lands, so a mid-batch rejection reports precisely
//     what api.query_count() saw.
//
// Chunking is semantically invisible: chunks run sequentially in row
// order, so query counts and noise tickets are consumed in exactly the
// batch order and results stay bit-identical to sending the whole batch
// in one call. Requests with no deadline and no cancel token are
// dispatched as a single chunk (one PredictBatch, one timer read pair to
// keep the endpoint's estimate warm), so the fast path pays ~nothing.
//
// Refused chunks (TryPredictBatch returning a retryable failure class —
// kTransient/kThrottled/kTimeout) are retried under capped exponential
// backoff with DECORRELATED JITTER: each sleep is drawn uniformly from
// [initial, 3 x previous sleep], clamped to the cap, so synchronized
// failures de-synchronize instead of thundering back in lockstep. Every
// sleep is re-gated against the request's deadline/budget/cancel first,
// so backing off can never blow a control a fresh chunk would have
// respected.
//
// The EWMA weight, the cold-endpoint seed, the chunk time targets and
// the retry policy are fixed constants of probe_dispatch.cc, each with
// its reasoning; no caller tunes them.

#ifndef OPENAPI_INTERPRET_PROBE_DISPATCH_H_
#define OPENAPI_INTERPRET_PROBE_DISPATCH_H_

#include <vector>

#include "api/prediction_api.h"
#include "interpret/request_options.h"

namespace openapi::interpret {

using linalg::Vec;

/// The cost ledger of one request, passed by pointer from the serving
/// layer down to the dispatcher and surfaced as EngineStats::queries /
/// wasted_queries / retries and EngineResponse::queries /
/// shrink_iterations.
///  * `queries`: every query the endpoint charged for the request, served
///    or refused — always equal to what api.query_count() saw.
///  * `iterations`: shrink iterations the solver attempted — edges
///    visited, screened or sent (0 on a cache hit).
///  * `wasted_queries`: queries charged by attempts that produced no
///    answer (a simple endpoint refuses before consuming — 0; a replica
///    set may have reserved rows before a shard was refused) plus a
///    composite endpoint's internal re-dispatch overhead on success.
///  * `retries`: failed attempts.
struct RequestCost {
  uint64_t queries = 0;
  size_t iterations = 0;
  uint64_t wasted_queries = 0;
  uint64_t retries = 0;
};

/// The per-row latency estimate a dispatcher should plan with: the
/// endpoint's recorded EWMA, or the conservative seed while cold.
///
/// Concurrency: api::LatencyEstimate is LOCK-FREE (a CAS-looped atomic
/// double; protocol documented on the class), so this read — and the
/// Record calls DispatchProbes makes after timing each chunk — take no
/// lock and carry no capability annotation. Concurrent requests chunking
/// against one endpoint fold their observations in some serialization
/// order; a racing read sees either side of a fold, both of which are
/// valid plans (the deadline gate re-checks real clocks before every
/// chunk).
double EffectiveRowLatency(const api::PredictionApi& api);

/// Sends `points` to `api` in latency-aware chunks, writing prediction i
/// into (*predictions)[out_offset + i] (rows are assign()ed, so a
/// workspace's prediction buffers are reused, not reallocated).
/// `predictions` must already be sized to at least out_offset +
/// points.size(). cost->queries is the request's running total (the
/// budget gates count against it) and advances by exactly the queries
/// charged, chunk by chunk — including queries a composite endpoint
/// consumed on a REFUSED attempt — so it always matches
/// api.query_count(); on a mid-batch rejection (Cancelled /
/// DeadlineExceeded / BudgetExhausted / Unavailable) the queries already
/// charged stay counted and the remainder of `points` is never sent.
///
/// Failure handling: a chunk refused with a retryable class is retried
/// under the retry policy above (capped backoff with decorrelated
/// jitter, each sleep re-gated against the request's controls). A
/// non-retryable refusal propagates as-is; exhausting per-chunk attempts
/// or the request's retry budget (counted in cost->retries across calls)
/// degrades to kUnavailable with exact counts in the message.
Status DispatchProbes(const api::PredictionApi& api,
                      const std::vector<Vec>& points,
                      const RequestOptions& options, RequestCost* cost,
                      std::vector<Vec>* predictions, size_t out_offset);

}  // namespace openapi::interpret

#endif  // OPENAPI_INTERPRET_PROBE_DISPATCH_H_
