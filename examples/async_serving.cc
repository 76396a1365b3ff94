// async_serving: the serving-layer tour — endpoint sessions over one
// shared worker pool, per-request budgets/deadlines/cancellation, a
// 4-replica API endpoint, futures for one-off requests, and a result
// stream that is consumed while stragglers still run.
//
// The scenario: an interpretation service sits in front of TWO prediction
// deployments (a 4-replica production endpoint and a canary model) and
// answers "why did the model say that?" requests from many clients. One
// engine serves both through separate EndpointSessions, so their region
// caches never mix; every request carries its own query budget, and every
// EngineResponse reports exactly what the request cost.

#include <chrono>
#include <iostream>

#include "openapi/openapi.h"

using namespace openapi;  // NOLINT: example brevity
using linalg::Vec;

int main() {
  // --- Provider side: a production model on 4 replicas + a canary. ---
  util::Rng rng(42);
  nn::Plnn model({12, 24, 16, 4}, &rng);
  api::ApiReplicaSet endpoint(&model, /*num_replicas=*/4);
  nn::Plnn canary_model({12, 24, 16, 4}, &rng);
  api::PredictionApi canary(&canary_model);

  // --- Interpretation service: one engine, one session per endpoint.
  // Sessions namespace the region cache per endpoint (a capacity bound
  // keeps each under control; evictions show up in the stats). ---
  interpret::InterpretationEngine engine;
  auto prod = engine.OpenSession(endpoint, /*cache_capacity=*/256);
  auto exp = engine.OpenSession(canary, /*cache_capacity=*/64);
  std::cout << "engine on the shared pool (" << engine.num_threads()
            << " threads); sessions: production ("
            << endpoint.num_replicas() << " replicas, capacity "
            << prod->cache_capacity() << ") + canary (capacity "
            << exp->cache_capacity() << ")\n\n";

  // 1. A client fires a single async request — with a hard query budget
  //    and a deadline, the way a metered caller actually talks to a
  //    black-box API — and does other work until the future resolves.
  Vec x0 = rng.UniformVector(12, 0.1, 0.9);
  size_t c = linalg::ArgMax(endpoint.Predict(x0));
  interpret::EngineRequest request{x0, c,
                                   interpret::RequestOptions::WithBudget(500)};
  request.options.deadline = std::chrono::steady_clock::now() +
                             std::chrono::milliseconds(200);
  auto future = prod->SubmitAsync(request, /*seed=*/7);
  interpret::EngineResponse single = future.get();
  if (single.result.ok()) {
    std::cout << "async single request: class " << c << ", "
              << single.queries << "/500 queries ("
              << interpret::CacheOutcomeName(single.cache_outcome) << ", "
              << single.shrink_iterations << " shrink iters, "
              << util::FormatDouble(single.latency_ms, 2)
              << " ms), top |D_c| = "
              << util::FormatDouble(linalg::NormInf(single.result->dc), 4)
              << "\n";
  } else {
    std::cout << "async single request rejected: "
              << single.result.status().ToString() << " after "
              << single.queries << " queries\n";
  }

  // 2. A starved budget is rejected BEFORE the endpoint sees a probe:
  //    BudgetExhausted always reports the exact consumption (here 0).
  Vec fresh = rng.UniformVector(12, 0.1, 0.9);
  interpret::EngineRequest starved{fresh, c,
                                   interpret::RequestOptions::WithBudget(1)};
  interpret::EngineResponse rejected = prod->Interpret(starved, /*seed=*/8);
  std::cout << "1-query budget on a fresh instance: "
            << rejected.result.status().ToString() << " (consumed "
            << rejected.queries << ")\n\n";

  // 3. A dashboard streams a 60-request audit, rendering each result the
  //    moment it completes — no waiting for the slowest request. A shared
  //    CancelToken would let the dashboard abandon the audit wholesale.
  util::CancelToken audit_cancel = util::CancelToken::Cancellable();
  std::vector<interpret::EngineRequest> requests;
  for (size_t i = 0; i < 20; ++i) {
    Vec x = rng.UniformVector(12, 0.05, 0.95);
    for (size_t cls = 0; cls < 3; ++cls) {
      interpret::EngineRequest r{x, cls};
      r.options.cancel = audit_cancel;
      requests.push_back(std::move(r));
    }
  }
  interpret::SessionStream stream =
      prod->InterpretStream(requests, /*seed=*/11);
  size_t ok = 0, shown = 0;
  uint64_t streamed_queries = 0;
  while (auto item = stream.Next()) {
    if (item->response.result.ok()) ++ok;
    streamed_queries += item->response.queries;
    if (++shown % 20 == 0) {
      std::cout << "streamed " << shown << "/" << stream.total()
                << " results (" << ok << " ok, " << streamed_queries
                << " queries so far)\n";
    }
  }

  // 4. The canary session answers the SAME instances without touching
  //    the production cache (distinct endpoint, distinct regions).
  std::vector<interpret::EngineRequest> canary_requests(
      requests.begin(), requests.begin() + 6);
  auto canary_responses = exp->InterpretAll(canary_requests, /*seed=*/13);
  size_t canary_ok = 0;
  for (const auto& response : canary_responses) {
    if (response.result.ok()) ++canary_ok;
  }
  std::cout << "canary session: " << canary_ok << "/"
            << canary_responses.size()
            << " ok, cache holds " << exp->cache_size()
            << " regions (production holds " << prod->cache_size()
            << " — zero cross-endpoint traffic)\n";

  // 5. Accounting: each session's totals, the endpoints' totals, and the
  //    per-replica counters must agree exactly — that is the contract
  //    that makes black-box query budgets auditable.
  interpret::EngineStats stats = prod->stats();
  std::cout << "\nproduction session: " << stats.requests << " requests, "
            << prod->cache_size() << " regions cached, "
            << stats.cache_hits << " scan hits, " << stats.point_memo_hits
            << " memo hits, " << stats.evictions << " evictions\n";
  uint64_t replica_sum = 0;
  util::TablePrinter table({"replica", "queries served"});
  for (size_t r = 0; r < endpoint.num_replicas(); ++r) {
    replica_sum += endpoint.replica_query_count(r);
    table.AddRow({std::to_string(r),
                  std::to_string(endpoint.replica_query_count(r))});
  }
  table.Print(std::cout);
  std::cout << "replica sum = " << replica_sum
            << ", endpoint total = " << endpoint.query_count()
            << ", session total = " << stats.queries + 1  // +1: the
            // client's own Predict(x0) above is endpoint traffic the
            // session never saw.
            << (replica_sum == endpoint.query_count() ? "  [exact]"
                                                      : "  [MISMATCH]")
            << "\n";
  return 0;
}
