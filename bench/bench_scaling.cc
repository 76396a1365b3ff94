// Complexity microbenchmarks (google-benchmark). The paper states OpenAPI
// runs in O(T * C * (d+2)^3) with small T; this solver factors one
// (d+2)x(d+1) matrix per request and solves every shrink iteration
// against it, O((d+2)^3 + T * C * (d+2)^2) outside the probe forwards:
//   * OpenApiVsDim    — sweep input dimensionality d at fixed C, with
//                       avg_shrink_iters (edges visited) and avg_queries
//                       (queries per extraction) counters,
//   * OpenApiVsClasses — sweep class count C at fixed d,
//   * QrFactorVsDim   — the inner (d+2)x(d+1) factorization alone,
//   * NaiveVsDim      — the determined-system baseline for comparison.
// Each iteration interprets one fresh test instance end to end, including
// the API probe queries (which are O(network) and dominate at small d).
//
// Plus the batched-query-plane throughput suite tracked in the perf
// trajectory (items_per_second is the headline number):
//   * PredictSingleLoop / PredictBatched — queries/sec through the API
//     boundary, per-sample loop vs one PredictBatch (matrix-matrix
//     forwards), batch sizes 32..512;
//   * InterpretAuditPerSample / InterpretAuditEngine — interpretations/sec
//     for the full-audit workload (every class of every instance, >= 32
//     requests) on a 2-hidden-layer PLNN: sequential per-sample solve loop
//     vs the concurrent InterpretationEngine with its shared region cache;
//   * StoreColdFill / StoreLogReload — the tiered store's warm-restart
//     pair: regions/sec to build a warm state by importing + writing
//     through to a fresh region log vs regions/sec to reopen that log
//     (recovery replay + directory rebuild) on restart;
//   * RetryOverhead — the audit workload through a FaultInjectingApi at
//     0% / 1% / 5% injected transient failures: what budget-aware
//     retries cost when the endpoint flakes (0% prices the machinery).

#include <benchmark/benchmark.h>

#include "../tests/grid_plm.h"
#include "api/fault_injecting_api.h"
#include "bench_common.h"
#include "linalg/qr.h"
#include "store/region_store.h"
#include "util/check.h"
#include "util/clock.h"
#include "util/file_io.h"

namespace openapi::bench {
namespace {

// A small fixture cache so the same (d, C) model is reused across
// iterations of one benchmark without retraining.
struct NetCache {
  std::unique_ptr<nn::Plnn> net;
  std::unique_ptr<api::PredictionApi> api;
  size_t dim = 0;
  size_t num_classes = 0;

  void Ensure(size_t d, size_t c) {
    if (net && dim == d && num_classes == c) return;
    util::Rng rng(kBenchSeed + d * 131 + c);
    net = std::make_unique<nn::Plnn>(
        std::vector<size_t>{d, 2 * d, d, c}, &rng);
    api = std::make_unique<api::PredictionApi>(net.get());
    dim = d;
    num_classes = c;
  }
};

NetCache& Cache() {
  static NetCache* cache = new NetCache();
  return *cache;
}

void OpenApiVsDim(benchmark::State& state) {
  const size_t d = static_cast<size_t>(state.range(0));
  const size_t c = 10;
  Cache().Ensure(d, c);
  interpret::OpenApiInterpreter interpreter;
  util::Rng rng(1);
  size_t total_iterations = 0;
  uint64_t total_queries = 0;
  for (auto _ : state) {
    Vec x0 = rng.UniformVector(d, 0.05, 0.95);
    interpret::RequestCost cost;
    auto result =
        interpreter.InterpretCounted(*Cache().api, x0, 0, &rng, &cost);
    if (result.ok()) total_iterations += result->iterations;
    total_queries += cost.queries;
    benchmark::DoNotOptimize(result);
  }
  state.counters["avg_shrink_iters"] = benchmark::Counter(
      static_cast<double>(total_iterations),
      benchmark::Counter::kAvgIterations);
  // Queries per extraction, the paper's cost metric: the ray screen
  // sends a round's d+1-2 unscreened rows only at edges it cannot reject.
  state.counters["avg_queries"] = benchmark::Counter(
      static_cast<double>(total_queries), benchmark::Counter::kAvgIterations);
  state.SetComplexityN(static_cast<int64_t>(d));
}
BENCHMARK(OpenApiVsDim)
    ->Arg(8)
    ->Arg(16)
    ->Arg(32)
    ->Arg(64)
    ->Arg(128)
    ->Arg(256)
    ->Complexity();

void OpenApiVsClasses(benchmark::State& state) {
  const size_t d = 16;
  const size_t c = static_cast<size_t>(state.range(0));
  Cache().Ensure(d, c);
  interpret::OpenApiInterpreter interpreter;
  util::Rng rng(2);
  for (auto _ : state) {
    Vec x0 = rng.UniformVector(d, 0.05, 0.95);
    auto result = interpreter.Interpret(*Cache().api, x0, 0, &rng);
    benchmark::DoNotOptimize(result);
  }
  state.SetComplexityN(static_cast<int64_t>(c));
}
BENCHMARK(OpenApiVsClasses)->Arg(2)->Arg(4)->Arg(8)->Arg(16)->Complexity(
    benchmark::oN);

void NaiveVsDim(benchmark::State& state) {
  const size_t d = static_cast<size_t>(state.range(0));
  const size_t c = 10;
  Cache().Ensure(d, c);
  interpret::NaiveInterpreter naive;
  util::Rng rng(3);
  for (auto _ : state) {
    Vec x0 = rng.UniformVector(d, 0.05, 0.95);
    auto result = naive.Interpret(*Cache().api, x0, 0, &rng);
    benchmark::DoNotOptimize(result);
  }
  state.SetComplexityN(static_cast<int64_t>(d));
}
BENCHMARK(NaiveVsDim)->Arg(8)->Arg(16)->Arg(32)->Arg(64)->Complexity();

void QrFactorVsDim(benchmark::State& state) {
  const size_t d = static_cast<size_t>(state.range(0));
  util::Rng rng(4);
  Vec x0 = rng.UniformVector(d, 0, 1);
  auto probes = interpret::SampleHypercube(x0, 1.0, d + 1, &rng);
  linalg::Matrix a = interpret::BuildCoefficientMatrix(x0, probes);
  for (auto _ : state) {
    auto qr = linalg::QrDecomposition::Factor(a);
    benchmark::DoNotOptimize(qr);
  }
  state.SetComplexityN(static_cast<int64_t>(d));
}
BENCHMARK(QrFactorVsDim)
    ->Arg(8)
    ->Arg(16)
    ->Arg(32)
    ->Arg(64)
    ->Arg(128)
    ->Complexity(benchmark::oNCubed);

void ZooVsDim(benchmark::State& state) {
  const size_t d = static_cast<size_t>(state.range(0));
  const size_t c = 10;
  Cache().Ensure(d, c);
  interpret::ZooInterpreter zoo;
  util::Rng rng(5);
  for (auto _ : state) {
    Vec x0 = rng.UniformVector(d, 0.05, 0.95);
    auto result = zoo.Interpret(*Cache().api, x0, 0, &rng);
    benchmark::DoNotOptimize(result);
  }
  state.SetComplexityN(static_cast<int64_t>(d));
}
BENCHMARK(ZooVsDim)->Arg(8)->Arg(16)->Arg(32)->Arg(64)->Complexity();

// --- Batched query plane: queries/sec through the API boundary. ---

void PredictSingleLoop(benchmark::State& state) {
  const size_t d = 16, c = 10;
  Cache().Ensure(d, c);
  const size_t batch = static_cast<size_t>(state.range(0));
  util::Rng rng(6);
  std::vector<Vec> xs;
  for (size_t i = 0; i < batch; ++i) {
    xs.push_back(rng.UniformVector(d, 0, 1));
  }
  for (auto _ : state) {
    for (const Vec& x : xs) {
      Vec y = Cache().api->Predict(x);
      benchmark::DoNotOptimize(y);
    }
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations() * batch));
}
BENCHMARK(PredictSingleLoop)->Arg(32)->Arg(128)->Arg(512);

void PredictBatched(benchmark::State& state) {
  const size_t d = 16, c = 10;
  Cache().Ensure(d, c);
  const size_t batch = static_cast<size_t>(state.range(0));
  util::Rng rng(6);
  std::vector<Vec> xs;
  for (size_t i = 0; i < batch; ++i) {
    xs.push_back(rng.UniformVector(d, 0, 1));
  }
  for (auto _ : state) {
    auto ys = Cache().api->PredictBatch(xs);
    benchmark::DoNotOptimize(ys);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations() * batch));
}
BENCHMARK(PredictBatched)->Arg(32)->Arg(128)->Arg(512);

// --- Interpretation throughput: the full-audit workload. ---
//
// `instances` test points, every class of each interpreted: the paper's
// evaluation shape and the realistic production audit. range(0) is the
// instance count; requests = instances * 10 classes (>= 40 for Arg(4)).

std::vector<interpret::EngineRequest> AuditRequests(size_t instances,
                                                    size_t d, size_t c) {
  util::Rng rng(7);
  std::vector<interpret::EngineRequest> requests;
  requests.reserve(instances * c);
  for (size_t i = 0; i < instances; ++i) {
    Vec x0 = rng.UniformVector(d, 0.05, 0.95);
    for (size_t cls = 0; cls < c; ++cls) requests.push_back({x0, cls});
  }
  return requests;
}

void InterpretAuditPerSample(benchmark::State& state) {
  const size_t d = 16, c = 10;  // {d, 2d, d, c}: 2 hidden layers
  Cache().Ensure(d, c);
  auto requests = AuditRequests(static_cast<size_t>(state.range(0)), d, c);
  interpret::OpenApiInterpreter interpreter;
  for (auto _ : state) {
    for (size_t i = 0; i < requests.size(); ++i) {
      util::Rng rng(util::Rng::MixSeed(11, i));
      auto result = interpreter.Interpret(*Cache().api, requests[i].x0,
                                          requests[i].c, &rng);
      benchmark::DoNotOptimize(result);
    }
  }
  state.SetItemsProcessed(
      static_cast<int64_t>(state.iterations() * requests.size()));
}
BENCHMARK(InterpretAuditPerSample)
    ->Arg(4)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

void InterpretAuditEngine(benchmark::State& state) {
  const size_t d = 16, c = 10;
  Cache().Ensure(d, c);
  auto requests = AuditRequests(static_cast<size_t>(state.range(0)), d, c);
  for (auto _ : state) {
    // Fresh engine + session per iteration: the cache must be earned
    // inside the measured region, not carried over from the previous
    // iteration.
    interpret::InterpretationEngine engine;
    auto session = engine.OpenSession(*Cache().api);
    auto responses = session->InterpretAll(requests, 11);
    benchmark::DoNotOptimize(responses);
  }
  state.SetItemsProcessed(
      static_cast<int64_t>(state.iterations() * requests.size()));
}
// UseRealTime: the engine's work happens on pool threads, so wall clock —
// not the calling thread's CPU time — is the honest comparison basis.
BENCHMARK(InterpretAuditEngine)
    ->Arg(4)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

// --- Retry overhead: the price of the fault-tolerant dispatch path. ---
//
// The full-audit workload from InterpretAuditEngine, served through a
// FaultInjectingApi that refuses a fraction of probe chunks (range(0) is
// the transient-failure percentage: 0 / 1 / 5). The 0% leg prices the
// retry machinery itself against InterpretAuditEngine (same workload,
// bare endpoint); the 1% / 5% legs price realistic flakiness: refused
// chunks are re-sent under capped exponential backoff, so throughput
// degrades by the re-dispatch work while `wasted_queries` stays 0
// (refusals are zero-charge — wasted only counts queries CHARGED by
// attempts that then failed, e.g. partial multi-chunk aborts).
// Requests carry a FakeClock so backoff sleeps advance fake time
// instead of stalling the benchmark: the measured cost is the re-solve
// work, not the sleep schedule. `query_amplification` = charged queries
// over queries-that-served; the fault soak test pins it < 1.2x at 5%.

void RetryOverhead(benchmark::State& state) {
  const size_t d = 16, c = 10;
  Cache().Ensure(d, c);
  const double rate = static_cast<double>(state.range(0)) / 100.0;
  util::FakeClock fake_clock;
  auto requests = AuditRequests(4, d, c);
  for (auto& request : requests) request.options.clock = &fake_clock;
  api::FaultConfig fault;
  fault.seed = kBenchSeed;
  fault.transient_rate = rate;
  fault.clock = &fake_clock;
  uint64_t retries = 0, wasted = 0, charged = 0;
  for (auto _ : state) {
    // Fresh decorator + engine per iteration: the injection schedule and
    // the cache warmup replay identically every iteration.
    api::FaultInjectingApi api(Cache().api.get(), fault);
    interpret::InterpretationEngine engine;
    auto session = engine.OpenSession(api);
    auto responses = session->InterpretAll(requests, 11);
    benchmark::DoNotOptimize(responses);
    retries = session->stats().retries;
    wasted = session->stats().wasted_queries;
    charged = session->stats().queries;
  }
  state.SetItemsProcessed(
      static_cast<int64_t>(state.iterations() * requests.size()));
  state.counters["retries"] = static_cast<double>(retries);
  state.counters["wasted_queries"] = static_cast<double>(wasted);
  state.counters["query_amplification"] =
      charged > wasted
          ? static_cast<double>(charged) / static_cast<double>(charged - wasted)
          : 1.0;
}
BENCHMARK(RetryOverhead)
    ->Arg(0)
    ->Arg(1)
    ->Arg(5)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

// --- Region-cache candidate lookup (region index stab + validation) at
// --- growing cache sizes.
//
// Point location across MANY regions with DIVERSE predicted classes is
// the workload the index's per-class forests target, so the endpoint here
// is the serving tests' grid model (tests/grid_plm.h): [0,1]^2 x R^(d-2)
// split into k x k cells, each its own locally linear region whose
// dominant class cycles through all C classes. (A randomly initialized
// PLNN is useless for this bench: its argmax is one class over
// essentially the whole cube, collapsing every region into a single
// forest.) The cache is warmed with one extraction per cell, then
// the measured loop looks up never-seen-before points inside cached
// cells: the point memo misses (fresh raw bits), the candidate scan runs,
// and a cached model validates — the 2-query hit path whose lookup cost
// the index bounds.

using interpret::GridPlm;

void CandidateScanIndexed(benchmark::State& state) {
  const size_t target_regions = static_cast<size_t>(state.range(0));
  const size_t k = static_cast<size_t>(
      std::llround(std::sqrt(static_cast<double>(target_regions))));
  const size_t d = 8, c = 10;
  util::Rng model_rng(kBenchSeed);
  GridPlm grid(d, c, k, &model_rng);
  api::PredictionApi api(&grid);
  interpret::EngineConfig config;
  config.num_threads = 1;  // measure the lookup, not the pool
  interpret::InterpretationEngine engine(config);
  auto session = engine.OpenSession(api);
  std::vector<Vec> anchors;
  for (size_t i = 0; i < k; ++i) {
    for (size_t j = 0; j < k; ++j) {
      Vec x0 = grid.CellCenter(i, j);
      auto warmed =
          session->Interpret({x0, 0, {}}, /*seed=*/13, anchors.size());
      if (warmed.result.ok()) anchors.push_back(std::move(x0));
    }
  }
  // Each measured lookup nudges an anchor by a fresh sub-1e-8 offset:
  // new raw bits (point-memo miss) in the same cell (candidate-scan
  // hit). The per-anchor counter keeps every probed point distinct.
  size_t next = 0;
  std::vector<uint64_t> salt(anchors.size(), 0);
  for (auto _ : state) {
    const size_t a = next++ % anchors.size();
    Vec x0 = anchors[a];
    x0[0] += 1e-13 * static_cast<double>(++salt[a]);
    auto response = session->Interpret({x0, 0, {}}, /*seed=*/13,
                                       /*stream=*/1'000'000 + next);
    benchmark::DoNotOptimize(response);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
  state.counters["cached_regions"] =
      static_cast<double>(session->cache_size());
  state.counters["scan_hits"] =
      static_cast<double>(session->stats().cache_hits);
}

BENCHMARK(CandidateScanIndexed)->Arg(64)->Arg(256)->Arg(1024);

// Production-scale lookup sweep: 10^3..10^6 cached regions, cache filled
// through the ImportRegion warm-start hook (extracting 10^6 regions
// through the solver would dominate the setup; importing them is how a
// tiered store reloads a cache of this size anyway). Every measured
// request is a never-seen point inside an already-cached region: a
// point-memo miss that the candidate lookup must resolve (a 2-query
// validated hit). The index stabs the learned boxes, so the latency stays
// flat as the cache grows three orders of magnitude.
// The `hot_set` legs cycle the measured traffic over a fixed
// 1024-anchor working set instead of all n anchors — the SAME traffic
// shape at every cache size (the 10^3 cache IS 1024 anchors), so the
// sweep isolates how lookup latency scales with cache size alone: the
// tree path and touched region payloads stay cache-resident, and what
// remains is the stab among n boxes plus validation. The cold-sweep
// legs additionally pull a never-before-touched region's ~1KB payload
// from DRAM every request, which no index can avoid (the exact
// validation must read the matched model). Repeat traffic over hot
// regions is what the cache exists for; the cold sweep is the
// adversarial worst case. Give the hot legs enough --benchmark_min_time
// to make several passes over the working set, or they measure the
// first cold pass.
void CandidateScanAtScale(benchmark::State& state, bool hot_set) {
  const size_t target_regions = static_cast<size_t>(state.range(0));
  const size_t k = static_cast<size_t>(
      std::llround(std::sqrt(static_cast<double>(target_regions))));
  const size_t d = 8, c = 10;
  util::Rng model_rng(kBenchSeed);
  GridPlm grid(d, c, k, &model_rng);
  api::PredictionApi api(&grid);
  interpret::EngineConfig config;
  config.num_threads = 1;  // measure the lookup, not the pool
  interpret::InterpretationEngine engine(config);
  auto session = engine.OpenSession(api);
  for (size_t i = 0; i < k; ++i) {
    for (size_t j = 0; j < k; ++j) {
      OPENAPI_CHECK(session
                        ->ImportRegion(grid.CellModel(i, j),
                                       grid.CellCenter(i, j),
                                       grid.CellHalfEdge())
                        .ok());  // seeding must not silently fail
    }
  }
  // Nudge dim 2 (cells extend over dims 0/1 only): fresh raw bits every
  // iteration, same cell, still inside the imported certificate box.
  // The visited cell index is scattered by a multiplicative hash (odd
  // constant, coprime with every k*k here, so it is a full-period
  // permutation), so traffic does not walk the slot array in import
  // order.
  const size_t span = hot_set ? std::min<size_t>(1024, k * k) : k * k;
  uint64_t next = 0;
  uint64_t salt = 0;
  for (auto _ : state) {
    const size_t a =
        static_cast<size_t>(((next % span + 1) * 2654435761ULL) % (k * k));
    ++next;
    Vec x0 = grid.CellCenter(a / k, a % k);
    x0[2] += 1e-13 * static_cast<double>(++salt);
    auto response = session->Interpret({x0, 0, {}}, /*seed=*/13,
                                       /*stream=*/1'000'000 + next);
    benchmark::DoNotOptimize(response);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
  state.counters["cached_regions"] =
      static_cast<double>(session->cache_size());
  state.counters["scan_hits"] =
      static_cast<double>(session->stats().cache_hits);
}

void CandidateScanAtScaleIndexed(benchmark::State& state) {
  CandidateScanAtScale(state, /*hot_set=*/false);
}
void CandidateScanAtScaleIndexedHot(benchmark::State& state) {
  CandidateScanAtScale(state, /*hot_set=*/true);
}
BENCHMARK(CandidateScanAtScaleIndexed)
    ->Unit(benchmark::kMicrosecond)
    ->Arg(1'000)
    ->Arg(10'000)
    ->Arg(100'000)
    ->Arg(1'000'000);
BENCHMARK(CandidateScanAtScaleIndexedHot)
    ->Unit(benchmark::kMicrosecond)
    ->Arg(1'000)
    ->Arg(10'000)
    ->Arg(100'000)
    ->Arg(1'000'000);

// --- Tiered store warm restart: what does the persistent tier buy? ---
//
// StoreColdFill prices building a warm serving state from NOTHING: one
// iteration opens a fresh log and imports n regions through a session
// with the store attached (RAM insert + index filing + write-through
// append). StoreLogReload prices the restart path the store exists for:
// one iteration reopens an n-region log — crash recovery's streamed
// replay plus the directory rebuild — after which every region serves as
// a kDiskHit without extraction. Both report items_per_second in
// regions/sec, so BENCH_scaling.json carries the cold-fill vs log-reload
// throughput ratio directly; StoreLogReload also reports bytes_per_second
// of log replayed (the 10^5 leg is the servebench tiered_restart scale). (In a real deployment the cold fill pays
// EXTRACTION per region, orders of magnitude above an import; this pair
// therefore UNDERSTATES the restart win — it isolates just the storage
// machinery.)

std::string StoreBenchPath(size_t n) {
  return "/tmp/openapi_bench_store_" + std::to_string(n) + ".rlog";
}

void StoreColdFill(benchmark::State& state) {
  const size_t target_regions = static_cast<size_t>(state.range(0));
  const size_t k = static_cast<size_t>(
      std::llround(std::sqrt(static_cast<double>(target_regions))));
  const size_t d = 8, c = 10;
  util::Rng model_rng(kBenchSeed);
  GridPlm grid(d, c, k, &model_rng);
  api::PredictionApi api(&grid);
  interpret::EngineConfig config;
  config.num_threads = 1;
  interpret::InterpretationEngine engine(config);
  const std::string path = StoreBenchPath(target_regions);
  for (auto _ : state) {
    (void)util::RemoveFile(path);  // best-effort scratch cleanup
    auto store = store::RegionStore::Open(path, d, c);
    if (!store.ok()) {
      state.SkipWithError(store.status().ToString().c_str());
      return;
    }
    interpret::SessionOptions options;
    options.store = store->get();
    auto session = engine.OpenSession(api, options);
    for (size_t i = 0; i < k; ++i) {
      for (size_t j = 0; j < k; ++j) {
        OPENAPI_CHECK(session
                          ->ImportRegion(grid.CellModel(i, j),
                                         grid.CellCenter(i, j),
                                         grid.CellHalfEdge())
                          .ok());  // seeding must not silently fail
      }
    }
    benchmark::DoNotOptimize(session->cache_size());
  }
  state.SetItemsProcessed(
      static_cast<int64_t>(state.iterations() * k * k));
  state.counters["regions"] = static_cast<double>(k * k);
  (void)util::RemoveFile(path);  // best-effort scratch cleanup
}

void StoreLogReload(benchmark::State& state) {
  const size_t target_regions = static_cast<size_t>(state.range(0));
  const size_t k = static_cast<size_t>(
      std::llround(std::sqrt(static_cast<double>(target_regions))));
  const size_t d = 8, c = 10;
  util::Rng model_rng(kBenchSeed);
  GridPlm grid(d, c, k, &model_rng);
  api::PredictionApi api(&grid);
  interpret::EngineConfig config;
  config.num_threads = 1;
  interpret::InterpretationEngine engine(config);
  // Build the log once; the measured loop replays it.
  const std::string path = StoreBenchPath(target_regions);
  (void)util::RemoveFile(path);  // best-effort scratch cleanup
  {
    auto store = store::RegionStore::Open(path, d, c);
    if (!store.ok()) {
      state.SkipWithError(store.status().ToString().c_str());
      return;
    }
    interpret::SessionOptions options;
    options.store = store->get();
    auto session = engine.OpenSession(api, options);
    for (size_t i = 0; i < k; ++i) {
      for (size_t j = 0; j < k; ++j) {
        OPENAPI_CHECK(session
                          ->ImportRegion(grid.CellModel(i, j),
                                         grid.CellCenter(i, j),
                                         grid.CellHalfEdge())
                          .ok());  // seeding must not silently fail
      }
    }
  }
  const Result<uint64_t> log_bytes = util::FileSizeOf(path);
  if (!log_bytes.ok()) {
    state.SkipWithError(log_bytes.status().ToString().c_str());
    return;
  }
  uint64_t recovered = 0;
  for (auto _ : state) {
    auto store = store::RegionStore::Open(path, d, c);
    if (!store.ok()) {
      state.SkipWithError(store.status().ToString().c_str());
      return;
    }
    recovered = store->get()->recovery_stats().records_recovered;
    benchmark::DoNotOptimize(recovered);
  }
  // End-to-end sanity outside the timed loop: a reopened log serves a
  // cold-RAM query as a disk hit (2 queries, zero extraction).
  {
    auto store = store::RegionStore::Open(path, d, c);
    interpret::SessionOptions options;
    options.store = store->get();
    auto session = engine.OpenSession(api, options);
    Vec x0 = grid.CellCenter(k / 2, k / 2);
    x0[2] += 1e-13;
    auto response = session->Interpret({x0, 0}, /*seed=*/13, /*stream=*/1);
    state.counters["disk_hits"] =
        static_cast<double>(session->stats().disk_hits);
    benchmark::DoNotOptimize(response);
  }
  state.SetItemsProcessed(
      static_cast<int64_t>(state.iterations() * recovered));
  state.SetBytesProcessed(
      static_cast<int64_t>(state.iterations() * *log_bytes));
  state.counters["regions"] = static_cast<double>(recovered);
  (void)util::RemoveFile(path);  // best-effort scratch cleanup
}

BENCHMARK(StoreColdFill)
    ->Unit(benchmark::kMillisecond)
    ->Arg(1'000)
    ->Arg(10'000);
BENCHMARK(StoreLogReload)
    ->Unit(benchmark::kMillisecond)
    ->Arg(1'000)
    ->Arg(10'000)
    ->Arg(100'000);

}  // namespace
}  // namespace openapi::bench

BENCHMARK_MAIN();
