// serve_bench: the end-to-end serving benchmark. One process runs one
// workload on one seed against the public serving surface
// (InterpretationEngine::OpenSession -> EndpointSession):
//
//   serve_bench --workload W --seed N --seconds S --trace 0|1 --work-dir D
//
// It prints the environment, one line per metric (name, value, unit,
// sample count), and as its LAST line one JSON object
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// holding the end-to-end metrics with --trace 0 and the per-layer metrics
// with --trace 1. Every input is made from the seed before any clock
// starts; D receives the restart fixture and the span file.
//
// Workloads (why each exists is in the comment above its input maker):
//   cold_extract    closed loop, 2 clients, PLNN {64,128,64,10}
//   zipf_hits       closed loop, 1 client, 10^5-cell grid endpoint
//   tiered_restart  closed loop, 2 clients, grid persisted in a region log
//
// Correctness: after the timed phase every successful answer's decision
// features are compared with the white-box oracle (exact_share), and the
// run is marked incorrect when the summed EngineResponse::queries differ
// from the api's query_count() delta. Inexact answers are reported, not
// failed: the solver is known to return a few at d = 64.
//
// --trace 1 runs the workload twice on fresh state, untraced and traced,
// each for S/2 seconds. The traced run puts benchmark-owned decorators
// (endpoints.h) around the api and the model, records spans around calls
// into each layer from this file, and derives the per-layer metrics. On
// zipf_hits the traced half is split: S/4 of the closed loop, then S/4 of
// an open loop of Poisson arrivals through SubmitAsync into the engine
// pool, which gives the util metrics.

#include <sys/resource.h>
#include <sys/utsname.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <future>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "api/ground_truth.h"
#include "api/prediction_api.h"
#include "endpoints.h"
#include "harness.h"
#include "interpret/decision_features.h"
#include "interpret/interpretation_engine.h"
#include "linalg/qr.h"
#include "nn/plnn.h"
#include "store/region_store.h"
#include "util/rng.h"

namespace openapi::servebench {
namespace {

namespace fs = std::filesystem;
using interpret::CacheOutcome;
using interpret::EngineRequest;
using interpret::EngineResponse;

// --- Workload constants ----------------------------------------------------

// Closed-loop client threads. With 3 on a 4-vCPU host the tails and the
// throughput of cold_extract and tiered_restart followed the host's other
// load (a preempted client, or one holding the store mutex, stalls a
// request for milliseconds); 2 leave room for the rest of the system.
constexpr size_t kClients = 2;
constexpr size_t kZipfClients = 1;  // see MakeZipfInputs
constexpr size_t kCheckThreads = 3;  // oracle checks after the timed phase
constexpr size_t kPoolThreads = 3;  // engine workers behind SubmitAsync
constexpr size_t kClasses = 10;

// cold_extract: the paper-scale extraction path.
constexpr size_t kColdDim = 64;
constexpr size_t kColdCacheRegions = 1024;
constexpr size_t kColdWarmup = 64;  // per client, untimed, distinct inputs

// Grid endpoint of zipf_hits and tiered_restart: 316^2 = 99856 cells.
constexpr size_t kGridDim = 8;
constexpr size_t kGridSide = 316;

// zipf_hits.
constexpr double kZipfExponent = 1.0;
constexpr size_t kZipfHeldOutBlock = 20;  // 5% of cells held out
constexpr double kZipfRepeatShare = 0.20;
constexpr size_t kZipfRepeatMinBack = 256;  // a repeat's original has long
                                            // completed, so its x0 names
                                            // one request in the trace
// Offered load of the traced open loop, fixed once at about half of the
// highest rate the code this benchmark was written against sustained
// without a growing backlog (600-700/s with 3 workers on a 4-vCPU x86 VM;
// at 800/s the median request already queued for 6 ms).
constexpr double kZipfRate = 300.0;

// latency_p99_ms is the median of the p99s of equal windows of the run
// (by request start), so a single stall of a shared host does not decide
// it. Windows hold at least kP99WindowRequests requests each (so each
// p99 has 20 samples beyond it), and there are at most kP99MaxWindows.
constexpr size_t kP99WindowRequests = 2000;
constexpr size_t kP99MaxWindows = 9;

// tiered_restart.
constexpr size_t kTieredHeldOutBlock = 100;  // 1% held out
constexpr double kTieredRamShare = 0.10;  // RAM byte budget / all regions
// Skewed enough that RAM hits are a clear majority (~85%): the median
// request then lies inside the RAM-hit mode instead of at the edge of
// the 3 ms disk-hit mode, while ~15% of requests still reload from disk.
constexpr double kTieredZipfExponent = 1.2;

// Input sizing for closed loops: a client stops early (and says so) only
// if it exhausts these, i.e. runs > 3x faster than the code measured.
constexpr double kColdMaxClientRps = 1500.0;
constexpr double kZipfMaxClientRps = 6000.0;
constexpr double kTieredMaxClientRps = 6000.0;

// In the traced run, interpret.miss_self_ms + api.busy_ms_per_interp should
// account for the traced median miss latency within this share on
// cold_extract, where every request is a miss (medians and means mix, so
// they agree only approximately).
constexpr double kMissAccountingSlack = 0.15;

// Set-up repetitions; setup_s is their median.
constexpr size_t kColdSetupReps = 201;
constexpr size_t kZipfSetupReps = 5;
constexpr size_t kTieredSetupReps = 7;

// Named Rng streams derived from the workload seed.
enum Stream : uint64_t {
  kModelStream = 1,
  kInputStream = 2,
  kPermutationStream = 4,
  kScheduleStream = 5,
  kKernelStream = 6,
  kEngineSeedStream = 7,
};

struct Options {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  std::string work_dir;
};

bool IsMiss(CacheOutcome o) {
  return o == CacheOutcome::kMiss || o == CacheOutcome::kEvictedRefetch ||
         o == CacheOutcome::kStaleRefetch;
}

// --- Inputs ----------------------------------------------------------------

struct Inputs {
  // Closed loop: one request list per client; request id = offset of the
  // client's list + position.
  std::vector<std::vector<EngineRequest>> per_client;
  std::vector<int64_t> client_first_id;
  // Cold-path warm-up requests (untimed; ids are not traced).
  std::vector<std::vector<EngineRequest>> warmup;
  // Open loop: request i is due at due_s[i] seconds after the start and
  // has id scheduled_first_id + i.
  std::vector<EngineRequest> scheduled;
  std::vector<double> due_s;
  int64_t scheduled_first_id = 0;
  // Grid cells left out of the imports / the region log.
  std::vector<char> held_out;
};

size_t ClientCapacity(double max_client_rps, double seconds) {
  return static_cast<size_t>(max_client_rps * seconds) + 256;
}

// cold_extract: every request a fresh uniform x0 and a seeded class. At
// d = 64 no two requests share a region, so almost all are kMiss: the
// solver, api, nn and linalg do the work and the store does none.
Inputs MakeColdInputs(uint64_t seed, double seconds) {
  util::Rng rng(util::Rng::MixSeed(seed, kInputStream));
  Inputs in;
  const size_t per_client = ClientCapacity(kColdMaxClientRps, seconds);
  for (size_t t = 0; t < kClients; ++t) {
    std::vector<EngineRequest> warm(kColdWarmup);
    for (auto& r : warm) {
      r.x0 = rng.UniformVector(kColdDim, 0.0, 1.0);
      r.c = rng.Index(kClasses);
    }
    in.warmup.push_back(std::move(warm));
    std::vector<EngineRequest> list(per_client);
    for (auto& r : list) {
      r.x0 = rng.UniformVector(kColdDim, 0.0, 1.0);
      r.c = rng.Index(kClasses);
    }
    in.client_first_id.push_back(static_cast<int64_t>(t * per_client));
    in.per_client.push_back(std::move(list));
  }
  return in;
}

// Popularity rank -> cell, so popular cells are spread over the grid and
// over the cache's slot order.
std::vector<size_t> CellPermutation(uint64_t seed, size_t cells) {
  util::Rng rng(util::Rng::MixSeed(seed, kPermutationStream));
  std::vector<size_t> perm(cells);
  for (size_t i = 0; i < cells; ++i) perm[i] = i;
  rng.Shuffle(&perm);
  return perm;
}

// Holds out the last cell of every block of `block` popularity ranks: the
// held-out cells are random (the permutation is), but their share of
// traffic is the same on every seed. A held-out cell among the top ranks
// would otherwise swing the miss count by itself.
std::vector<char> HeldOutCells(const std::vector<size_t>& perm,
                               size_t block) {
  std::vector<char> held(perm.size(), 0);
  for (size_t rank = block - 1; rank < perm.size(); rank += block) {
    held[perm[rank]] = 1;
  }
  return held;
}

// Fresh points in Zipf-drawn cells, ~kZipfRepeatShare of them replaced
// by an exact repeat of a point at least kZipfRepeatMinBack earlier.
// Stratified draws keep the traffic share of the held-out ranks close to
// its expected value on every seed.
std::vector<EngineRequest> ZipfRequests(size_t n, const ZipfSampler& zipf,
                                        const std::vector<size_t>& perm,
                                        util::Rng* rng) {
  std::vector<char> repeat(n, 0);
  size_t fresh = 0;
  for (size_t i = 0; i < n; ++i) {
    repeat[i] = i >= kZipfRepeatMinBack && rng->Flip(kZipfRepeatShare);
    if (!repeat[i]) ++fresh;
  }
  const std::vector<size_t> ranks = zipf.StratifiedSample(fresh, rng);
  std::vector<EngineRequest> out(n);
  size_t next_rank = 0;
  for (size_t i = 0; i < n; ++i) {
    EngineRequest& r = out[i];
    if (repeat[i]) {
      r.x0 = out[rng->Index(i - kZipfRepeatMinBack + 1)].x0;
    } else {
      r.x0 = GridEndpoint::PointIn(perm[ranks[next_rank++]], kGridDim,
                                   kGridSide, rng);
    }
    r.c = rng->Index(kClasses);
  }
  return out;
}

// zipf_hits: 95% of the 10^5 cells are imported at set-up. Cells are drawn
// by a Zipf law; ~20% of requests repeat an earlier exact point (memo),
// the rest are fresh points in the drawn cell (index stab + validation
// pair). Held-out cells cause true misses, each paying the fallback scan
// over every cached region before extracting. The hit path carries most
// requests, so a faster miss path should show here while latency_p50_ms
// stays put.
//
// The timed loop is one synchronous client. An open loop through the
// engine pool timed a ~20 us hit mostly as thread wake-ups (submit and
// queue wait), and with more clients a hit waits on the cache lock that
// a concurrent fallback scan holds for ~25 ms: both moved with the host's
// load, not with the code. The pool path is measured in the traced run,
// by an open loop of `open_seconds` (none when 0).
Inputs MakeZipfInputs(uint64_t seed, double seconds, double open_seconds) {
  const size_t cells = kGridSide * kGridSide;
  Inputs in;
  const std::vector<size_t> perm = CellPermutation(seed, cells);
  in.held_out = HeldOutCells(perm, kZipfHeldOutBlock);
  ZipfSampler zipf(cells, kZipfExponent);
  util::Rng rng(util::Rng::MixSeed(seed, kInputStream));
  const size_t per_client = ClientCapacity(kZipfMaxClientRps, seconds);
  for (size_t t = 0; t < kZipfClients; ++t) {
    in.client_first_id.push_back(static_cast<int64_t>(t * per_client));
    in.per_client.push_back(ZipfRequests(per_client, zipf, perm, &rng));
  }
  if (open_seconds > 0.0) {
    util::Rng schedule_rng(util::Rng::MixSeed(seed, kScheduleStream));
    in.due_s = PoissonSchedule(kZipfRate, open_seconds, &schedule_rng);
    in.scheduled = ZipfRequests(in.due_s.size(), zipf, perm, &rng);
    in.scheduled_first_id = static_cast<int64_t>(kZipfClients * per_client);
  }
  return in;
}

// tiered_restart: the whole grid but 1% sits in a region log; the RAM
// tier holds ~10% of it. Zipf traffic over all cells at fresh points:
// RAM misses reload from the store (kDiskHit), evictions spill grown
// boxes back, held-out cells miss and write through. The other two
// workloads never touch the store.
Inputs MakeTieredInputs(uint64_t seed, double seconds) {
  const size_t cells = kGridSide * kGridSide;
  Inputs in;
  const std::vector<size_t> perm = CellPermutation(seed, cells);
  in.held_out = HeldOutCells(perm, kTieredHeldOutBlock);
  ZipfSampler zipf(cells, kTieredZipfExponent);
  util::Rng rng(util::Rng::MixSeed(seed, kInputStream));
  const size_t per_client = ClientCapacity(kTieredMaxClientRps, seconds);
  for (size_t t = 0; t < kClients; ++t) {
    std::vector<EngineRequest> list(per_client);
    for (auto& r : list) {
      r.x0 = GridEndpoint::PointIn(perm[zipf.Sample(&rng)], kGridDim,
                                   kGridSide, &rng);
      r.c = rng.Index(kClasses);
    }
    in.client_first_id.push_back(static_cast<int64_t>(t * per_client));
    in.per_client.push_back(std::move(list));
  }
  return in;
}

RequestKeys KeysOf(const Inputs& in) {
  RequestKeys keys;
  for (size_t t = 0; t < in.per_client.size(); ++t) {
    for (size_t j = 0; j < in.per_client[t].size(); ++j) {
      keys.emplace(PointHash(in.per_client[t][j].x0),
                   in.client_first_id[t] + static_cast<int64_t>(j));
    }
  }
  for (size_t i = 0; i < in.scheduled.size(); ++i) {
    keys.emplace(PointHash(in.scheduled[i].x0),
                 in.scheduled_first_id + static_cast<int64_t>(i));
  }
  return keys;
}

// --- Serving state ---------------------------------------------------------

// Members are destroyed in reverse order: the session before the engine,
// both before the store and the api they borrow, the api before the model.
struct ServingState {
  std::unique_ptr<nn::Plnn> plnn;
  std::unique_ptr<GridEndpoint> grid;
  const api::Plm* model = nullptr;
  const api::PlmOracle* oracle = nullptr;
  std::unique_ptr<TracedPlm> traced_plm;
  std::unique_ptr<api::PredictionApi> base_api;
  std::unique_ptr<TracedApi> traced_api;
  const api::PredictionApi* api = nullptr;
  std::unique_ptr<store::RegionStore> store;
  std::unique_ptr<interpret::InterpretationEngine> engine;
  std::shared_ptr<interpret::EndpointSession> session;
};

// Wires api (+ decorators when `keys` is set) and the engine over `model`.
void WireApi(ServingState* s, const api::Plm* model,
             const api::PlmOracle* oracle, const RequestKeys* keys) {
  s->model = model;
  s->oracle = oracle;
  if (keys != nullptr) {
    s->traced_plm = std::make_unique<TracedPlm>(model);
    s->base_api = std::make_unique<api::PredictionApi>(s->traced_plm.get());
    s->traced_api = std::make_unique<TracedApi>(s->base_api.get(), keys);
    s->api = s->traced_api.get();
  } else {
    s->base_api = std::make_unique<api::PredictionApi>(model);
    s->api = s->base_api.get();
  }
  interpret::EngineConfig config;
  config.num_threads = kPoolThreads;
  s->engine = std::make_unique<interpret::InterpretationEngine>(config);
}

std::unique_ptr<ServingState> SetupCold(uint64_t seed,
                                        const RequestKeys* keys) {
  auto s = std::make_unique<ServingState>();
  util::Rng rng(util::Rng::MixSeed(seed, kModelStream));
  s->plnn = std::make_unique<nn::Plnn>(
      std::vector<size_t>{kColdDim, 128, 64, kClasses}, &rng);
  WireApi(s.get(), s->plnn.get(), s->plnn.get(), keys);
  s->session = s->engine->OpenSession(*s->api, kColdCacheRegions);
  return s;
}

std::unique_ptr<ServingState> SetupZipf(uint64_t seed,
                                        const std::vector<char>& held_out,
                                        const RequestKeys* keys) {
  auto s = std::make_unique<ServingState>();
  util::Rng rng(util::Rng::MixSeed(seed, kModelStream));
  s->grid = std::make_unique<GridEndpoint>(kGridDim, kClasses, kGridSide,
                                           &rng);
  WireApi(s.get(), s->grid.get(), s->grid.get(), keys);
  s->session = s->engine->OpenSession(*s->api);
  for (size_t cell = 0; cell < s->grid->num_cells(); ++cell) {
    if (held_out[cell]) continue;
    Result<size_t> slot = s->session->ImportRegion(
        s->grid->CellModel(cell), s->grid->CellCenter(cell),
        s->grid->HalfEdge());
    if (!slot.ok()) {
      std::fprintf(stderr, "import failed: %s\n",
                   slot.status().ToString().c_str());
      std::exit(1);
    }
  }
  return s;
}

// The tiered_restart fixture: a region log holding every non-held-out
// cell, built once per process; every run restarts from a byte-identical
// copy, since spills and write-throughs append to the log during a run.
struct RestartFixture {
  std::unique_ptr<GridEndpoint> grid;
  std::string master_path;
  std::string run_path;
  size_t ram_budget_bytes = 0;
};

RestartFixture BuildRestartFixture(uint64_t seed,
                                   const std::vector<char>& held_out,
                                   const std::string& work_dir) {
  RestartFixture f;
  util::Rng rng(util::Rng::MixSeed(seed, kModelStream));
  f.grid = std::make_unique<GridEndpoint>(kGridDim, kClasses, kGridSide,
                                          &rng);
  f.master_path = work_dir + "/restart_master.rlog";
  f.run_path = work_dir + "/restart_run.rlog";
  std::error_code ec;
  fs::remove(f.master_path, ec);
  fs::remove(f.run_path, ec);
  const double resolution = interpret::EngineConfig{}.fingerprint_resolution;
  {
    auto opened = store::RegionStore::Open(f.master_path, kGridDim, kClasses);
    if (!opened.ok()) {
      std::fprintf(stderr, "fixture open failed: %s\n",
                   opened.status().ToString().c_str());
      std::exit(1);
    }
    std::unique_ptr<store::RegionStore> st = std::move(opened).ValueOrDie();
    const double h = f.grid->HalfEdge();
    for (size_t cell = 0; cell < f.grid->num_cells(); ++cell) {
      if (held_out[cell]) continue;
      store::RegionRecord record;
      record.model = f.grid->CellModel(cell);
      record.anchor = f.grid->CellCenter(cell);
      record.fingerprint =
          interpret::LocalModelFingerprint(record.model, resolution);
      record.argmax = static_cast<uint32_t>(linalg::ArgMax(
          api::EvaluateLocalModel(record.model, record.anchor)));
      record.lo = record.anchor;
      record.hi = record.anchor;
      for (size_t j = 0; j < kGridDim; ++j) {
        record.lo[j] -= h;
        record.hi[j] += h;
      }
      Result<bool> put = st->Put(record);
      if (!put.ok()) {
        std::fprintf(stderr, "fixture put failed: %s\n",
                     put.status().ToString().c_str());
        std::exit(1);
      }
    }
    if (!st->Flush().ok()) {
      std::fprintf(stderr, "fixture flush failed\n");
      std::exit(1);
    }
  }
  // Resident bytes per imported region, measured on a throwaway session.
  {
    api::PredictionApi api(f.grid.get());
    interpret::InterpretationEngine engine;
    auto session = engine.OpenSession(api);
    constexpr size_t kProbeRegions = 2000;
    for (size_t cell = 0; cell < kProbeRegions; ++cell) {
      if (!session
               ->ImportRegion(f.grid->CellModel(cell),
                              f.grid->CellCenter(cell), f.grid->HalfEdge())
               .ok()) {
        std::fprintf(stderr, "probe import failed\n");
        std::exit(1);
      }
    }
    const double per_region =
        static_cast<double>(session->stats().cache_bytes) / kProbeRegions;
    f.ram_budget_bytes = static_cast<size_t>(
        kTieredRamShare * per_region *
        static_cast<double>(f.grid->num_cells()));
  }
  return f;
}

// Restart = RegionStore::Open + OpenSession on a fresh copy of the log.
// The copy happens before the clock starts. *open_ms gets Open's share.
std::unique_ptr<ServingState> SetupTiered(const RestartFixture& f,
                                          const RequestKeys* keys,
                                          double* setup_s, double* open_ms) {
  std::error_code ec;
  fs::remove(f.run_path, ec);
  fs::copy_file(f.master_path, f.run_path, ec);
  if (ec) {
    std::fprintf(stderr, "fixture copy failed: %s\n", ec.message().c_str());
    std::exit(1);
  }
  auto s = std::make_unique<ServingState>();
  WireApi(s.get(), f.grid.get(), f.grid.get(), keys);
  const int64_t t0 = NowNs();
  int64_t open_end = 0;
  {
    ScopedSpan span("store.open");
    auto opened = store::RegionStore::Open(f.run_path, kGridDim, kClasses);
    if (!opened.ok()) {
      std::fprintf(stderr, "restart open failed: %s\n",
                   opened.status().ToString().c_str());
      std::exit(1);
    }
    s->store = std::move(opened).ValueOrDie();
    span.set_count(s->store->recovery_stats().records_recovered);
    open_end = NowNs();
  }
  interpret::SessionOptions options;
  options.cache_capacity_bytes = f.ram_budget_bytes;
  options.store = s->store.get();
  s->session = s->engine->OpenSession(*s->api, options);
  const int64_t t1 = NowNs();
  *setup_s = static_cast<double>(t1 - t0) * 1e-9;
  *open_ms = static_cast<double>(open_end - t0) * 1e-6;
  return s;
}

// --- Measured phases ---------------------------------------------------------

struct Served {
  int64_t id = -1;
  bool ok = false;
  CacheOutcome outcome = CacheOutcome::kBypass;
  uint64_t queries = 0;
  size_t iterations = 0;
  double latency_ms = 0.0;  // what the client saw
  int64_t start_ns = 0;     // closed: call start; open: submission
  int64_t end_ns = 0;
  Vec dc;
  size_t c = 0;
  const Vec* x0 = nullptr;  // points into the Inputs
};

struct PhaseResult {
  std::vector<Served> served;
  double wall_s = 0.0;
  uint64_t api_queries = 0;
  interpret::EngineStats stats;  // session counters over the phase
  std::vector<double> late_ms;   // open loop: submission - due time
  bool inputs_exhausted = false;
};

Served Record(int64_t id, const EngineRequest& r, EngineResponse&& resp) {
  Served s;
  s.id = id;
  s.ok = resp.result.ok();
  s.outcome = resp.cache_outcome;
  s.queries = resp.queries;
  s.iterations = resp.shrink_iterations;
  s.c = r.c;
  s.x0 = &r.x0;
  if (s.ok) s.dc = std::move(resp.result->dc);
  return s;
}

interpret::EngineStats StatsDelta(const interpret::EngineStats& a,
                                  const interpret::EngineStats& b) {
  interpret::EngineStats d;
  d.requests = b.requests - a.requests;
  d.point_memo_hits = b.point_memo_hits - a.point_memo_hits;
  d.cache_hits = b.cache_hits - a.cache_hits;
  d.disk_hits = b.disk_hits - a.disk_hits;
  d.cache_misses = b.cache_misses - a.cache_misses;
  d.evictions = b.evictions - a.evictions;
  d.store_appends = b.store_appends - a.store_appends;
  return d;
}

PhaseResult RunClosedLoop(const ServingState& s, const Inputs& in,
                          double seconds, uint64_t engine_seed) {
  // Untimed warm-up (cold_extract only), one thread per client so the
  // engine grows one pooled solver workspace per concurrent request and
  // the timed phase starts in the steady state.
  std::vector<std::thread> warmers;
  for (size_t t = 0; t < in.warmup.size(); ++t) {
    warmers.emplace_back([&, t] {
      for (size_t j = 0; j < in.warmup[t].size(); ++j) {
        const uint64_t stream = ~uint64_t{0} - (t * in.warmup[t].size() + j);
        EngineResponse r =
            s.session->Interpret(in.warmup[t][j], engine_seed, stream);
        (void)r;
      }
    });
  }
  for (auto& w : warmers) w.join();
  PhaseResult out;
  const interpret::EngineStats before = s.session->stats();
  const uint64_t queries_before = s.api->query_count();
  std::vector<std::vector<Served>> per_client(in.per_client.size());
  std::vector<int64_t> client_end(in.per_client.size(), 0);
  std::atomic<bool> exhausted{false};
  const int64_t start = NowNs();
  const int64_t deadline = start + static_cast<int64_t>(seconds * 1e9);
  std::vector<std::thread> clients;
  for (size_t t = 0; t < in.per_client.size(); ++t) {
    clients.emplace_back([&, t] {
      const std::vector<EngineRequest>& list = in.per_client[t];
      std::vector<Served>& served = per_client[t];
      served.reserve(list.size());
      Tracer* tracer = Tracer::Current();
      size_t j = 0;
      for (; j < list.size(); ++j) {
        const int64_t t0 = NowNs();
        if (t0 >= deadline) break;
        const int64_t id = in.client_first_id[t] + static_cast<int64_t>(j);
        int64_t handle = -1;
        if (tracer != nullptr) {
          tracer->SetRequest(id);
          handle = tracer->Begin("request");
        }
        EngineResponse resp = s.session->Interpret(
            list[j], engine_seed, static_cast<uint64_t>(id));
        const int64_t t1 = NowNs();
        if (tracer != nullptr) tracer->End(handle, 1);
        Served rec = Record(id, list[j], std::move(resp));
        rec.start_ns = t0;
        rec.end_ns = t1;
        rec.latency_ms = static_cast<double>(t1 - t0) * 1e-6;
        served.push_back(std::move(rec));
      }
      if (j == list.size()) exhausted.store(true);
      client_end[t] = NowNs();
    });
  }
  for (auto& c : clients) c.join();
  const int64_t end = *std::max_element(client_end.begin(), client_end.end());
  out.wall_s = static_cast<double>(end - start) * 1e-9;
  out.api_queries = s.api->query_count() - queries_before;
  out.stats = StatsDelta(before, s.session->stats());
  out.inputs_exhausted = exhausted.load();
  for (auto& v : per_client) {
    for (auto& rec : v) out.served.push_back(std::move(rec));
  }
  return out;
}

PhaseResult RunOpenLoop(const ServingState& s, const Inputs& in,
                        uint64_t engine_seed) {
  PhaseResult out;
  const size_t n = in.scheduled.size();
  std::vector<std::future<EngineResponse>> futures(n);
  std::vector<int64_t> submit_ns(n, 0);
  std::atomic<size_t> submitted{0};
  const interpret::EngineStats before = s.session->stats();
  const uint64_t queries_before = s.api->query_count();
  // Requests are due relative to `start`; a little lead time lets the
  // generator thread come up before the first one.
  const int64_t start = NowNs() + 2'000'000;
  std::thread generator([&] {
    Tracer* tracer = Tracer::Current();
    for (size_t i = 0; i < n; ++i) {
      const int64_t due = start + static_cast<int64_t>(in.due_s[i] * 1e9);
      // Sleep to just before the due time, then spin: the sleep alone
      // overshoots by tens of microseconds, which would count as latency.
      const int64_t wake = due - 200'000;
      int64_t now = NowNs();
      if (now < wake) {
        std::this_thread::sleep_for(std::chrono::nanoseconds(wake - now));
      }
      while ((now = NowNs()) < due) {
      }
      const int64_t id = in.scheduled_first_id + static_cast<int64_t>(i);
      int64_t handle = -1;
      if (tracer != nullptr) {
        tracer->SetRequest(id);
        handle = tracer->Begin("util.submit");
      }
      submit_ns[i] = now;
      futures[i] = s.session->SubmitAsync(in.scheduled[i], engine_seed,
                                          static_cast<uint64_t>(id));
      if (tracer != nullptr) tracer->End(handle, 1);
      submitted.store(i + 1, std::memory_order_release);
      submitted.notify_one();
    }
  });
  out.served.reserve(n);
  out.late_ms.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    size_t seen = submitted.load(std::memory_order_acquire);
    while (seen <= i) {
      submitted.wait(seen, std::memory_order_acquire);
      seen = submitted.load(std::memory_order_acquire);
    }
    EngineResponse resp = futures[i].get();
    const int64_t due = start + static_cast<int64_t>(in.due_s[i] * 1e9);
    const double late_ms = static_cast<double>(submit_ns[i] - due) * 1e-6;
    const double engine_ms = resp.latency_ms;
    Served rec = Record(in.scheduled_first_id + static_cast<int64_t>(i),
                        in.scheduled[i], std::move(resp));
    rec.start_ns = submit_ns[i];
    rec.end_ns = submit_ns[i] + static_cast<int64_t>(engine_ms * 1e6);
    rec.latency_ms = late_ms + engine_ms;
    out.late_ms.push_back(late_ms);
    out.served.push_back(std::move(rec));
  }
  generator.join();
  int64_t end = start;
  for (const Served& rec : out.served) end = std::max(end, rec.end_ns);
  out.wall_s = static_cast<double>(end - start) * 1e-9;
  out.api_queries = s.api->query_count() - queries_before;
  out.stats = StatsDelta(before, s.session->stats());
  return out;
}

// --- Checks and metrics ----------------------------------------------------

struct Check {
  size_t attempted = 0;
  size_t failed = 0;
  size_t exact = 0;
  uint64_t response_queries = 0;
  bool accounting_exact = false;
};

// Oracle comparison of every successful answer, split over a few threads.
Check CheckAnswers(const PhaseResult& phase, const api::PlmOracle& oracle) {
  Check check;
  check.attempted = phase.served.size();
  std::atomic<size_t> exact{0};
  std::vector<std::thread> workers;
  const size_t n = phase.served.size();
  for (size_t w = 0; w < kCheckThreads; ++w) {
    workers.emplace_back([&, w] {
      size_t local = 0;
      for (size_t i = w; i < n; i += kCheckThreads) {
        const Served& rec = phase.served[i];
        if (!rec.ok) continue;
        const Vec truth = api::GroundTruthDecisionFeatures(
            oracle.LocalModelAt(*rec.x0), rec.c);
        if (rec.dc.size() != truth.size()) continue;
        double worst = 0.0, scale = 1.0;
        for (size_t j = 0; j < truth.size(); ++j) {
          worst = std::max(worst, std::fabs(rec.dc[j] - truth[j]));
          scale = std::max(scale, 1.0 + std::fabs(truth[j]));
        }
        if (worst <= 1e-6 * scale) ++local;
      }
      exact.fetch_add(local);
    });
  }
  for (auto& w : workers) w.join();
  check.exact = exact.load();
  for (const Served& rec : phase.served) {
    if (!rec.ok) ++check.failed;
    check.response_queries += rec.queries;
  }
  check.accounting_exact = check.response_queries == phase.api_queries;
  return check;
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
  size_t samples;  // 0 when not a sample statistic
};

std::vector<double> Latencies(const PhaseResult& phase,
                              const std::function<bool(const Served&)>& keep) {
  std::vector<double> v;
  for (const Served& rec : phase.served) {
    if (keep(rec)) v.push_back(rec.latency_ms);
  }
  return v;
}

double MeanLatencyMs(const PhaseResult& phase) {
  double sum = 0.0;
  for (const Served& rec : phase.served) sum += rec.latency_ms;
  return phase.served.empty() ? 0.0
                              : sum / static_cast<double>(phase.served.size());
}

// Median over equal windows of the run (by request start) of each
// window's p99 latency; see kP99WindowRequests.
double WindowedP99(const PhaseResult& phase) {
  std::vector<const Served*> ok;
  for (const Served& rec : phase.served) {
    if (rec.ok) ok.push_back(&rec);
  }
  if (ok.empty()) return 0.0;
  int64_t first = ok.front()->start_ns, last = first;
  for (const Served* rec : ok) {
    first = std::min(first, rec->start_ns);
    last = std::max(last, rec->start_ns);
  }
  const size_t count = std::clamp<size_t>(ok.size() / kP99WindowRequests, 1,
                                          kP99MaxWindows);
  const double width =
      static_cast<double>(last - first + 1) / static_cast<double>(count);
  std::vector<std::vector<double>> windows(count);
  for (const Served* rec : ok) {
    const size_t w = std::min(
        count - 1,
        static_cast<size_t>(static_cast<double>(rec->start_ns - first) / width));
    windows[w].push_back(rec->latency_ms);
  }
  std::vector<double> p99s;
  for (const auto& w : windows) p99s.push_back(Quantile(w, 0.99));
  return Quantile(p99s, 0.5);
}

// End-to-end metrics of one untraced phase.
std::vector<Metric> EndToEnd(const PhaseResult& phase, const Check& check,
                             double setup_s,
                             std::vector<Metric>* extra) {
  const size_t ok = check.attempted - check.failed;
  auto all = Latencies(phase, [](const Served& r) { return r.ok; });
  auto misses = Latencies(
      phase, [](const Served& r) { return r.ok && IsMiss(r.outcome); });
  auto hits = Latencies(phase, [](const Served& r) {
    return r.ok && r.outcome == CacheOutcome::kMemoryHit;
  });
  auto disk = Latencies(phase, [](const Served& r) {
    return r.ok && r.outcome == CacheOutcome::kDiskHit;
  });
  std::vector<Metric> m = {
      {"setup_s", setup_s, "s", 0},
      {"throughput_rps", static_cast<double>(ok) / phase.wall_s, "1/s", ok},
      {"latency_p50_ms", Quantile(all, 0.50), "ms", all.size()},
      {"latency_p99_ms", WindowedP99(phase), "ms", all.size()},
      {"miss_p50_ms", Quantile(misses, 0.50), "ms", misses.size()},
      {"queries_per_interp",
       static_cast<double>(check.response_queries) / static_cast<double>(ok),
       "count", ok},
      {"exact_share",
       static_cast<double>(check.exact) / static_cast<double>(ok), "ratio",
       ok},
      {"peak_rss_mb", PeakRssMb(), "MB", 0},
  };
  // Printed, not gated: each exists only on the workloads where its
  // outcome occurs, or reads 0 by construction.
  if (!hits.empty()) {
    extra->push_back({"hit_p50_ms", Quantile(hits, 0.50), "ms", hits.size()});
  }
  if (!disk.empty()) {
    extra->push_back(
        {"disk_hit_p50_ms", Quantile(disk, 0.50), "ms", disk.size()});
  }
  if (!misses.empty()) {
    extra->push_back(
        {"miss_p99_ms", Quantile(misses, 0.99), "ms", misses.size()});
  }
  extra->push_back({"failed_share",
                    static_cast<double>(check.failed) /
                        static_cast<double>(check.attempted),
                    "ratio", check.attempted});
  return m;
}

// Stores of kernel results go here so the timed calls stay live.
volatile double g_sink = 0.0;

// Median time of one call of `fn`, timed in blocks of `block` calls.
double MedianCallUs(const std::function<void()>& fn, size_t block,
                    size_t blocks) {
  std::vector<double> per_call;
  for (size_t b = 0; b < blocks; ++b) {
    const int64_t t0 = NowNs();
    for (size_t i = 0; i < block; ++i) fn();
    per_call.push_back(static_cast<double>(NowNs() - t0) * 1e-3 /
                       static_cast<double>(block));
  }
  return Quantile(per_call, 0.5);
}

// linalg at the workload's solver shapes: the (d+2) x (d+1) QR the shrink
// loop factors per iteration, and one (d+1)-row forward through the
// endpoint's first layer (the grid's cell model stands in for W2/W3).
void LinalgMetrics(uint64_t seed, size_t d, const linalg::Matrix& layer,
                   std::vector<Metric>* m) {
  util::Rng rng(util::Rng::MixSeed(seed, kKernelStream));
  const Vec x0 = rng.UniformVector(d, 0.0, 1.0);
  const auto probes = interpret::SampleHypercube(x0, 0.1, d + 1, &rng);
  const linalg::Matrix a = interpret::BuildCoefficientMatrix(x0, probes);
  linalg::QrDecomposition qr;
  bool factored = true;
  const double qr_us = MedianCallUs(
      [&] { factored = factored && qr.Refactor(a).ok(); }, 20, 101);
  if (!factored) std::fprintf(stderr, "linalg: QR refactor failed\n");
  const linalg::Matrix x = linalg::Matrix::FromRows(probes);
  const double gemm_us = MedianCallUs(
      [&] { g_sink = x.MultiplyABt(layer)(0, 0); }, 20, 101);
  const double m_rows = static_cast<double>(a.rows());
  const double n_cols = static_cast<double>(a.cols());
  const double qr_flops = 2.0 * n_cols * n_cols * (m_rows - n_cols / 3.0);
  const double rows = static_cast<double>(x.rows());
  const double inner = static_cast<double>(x.cols());
  const double outs = static_cast<double>(layer.rows());
  m->push_back({"linalg.qr_factor_us", qr_us, "us", 101});
  m->push_back({"linalg.qr_flops", qr_flops, "flop", 0});
  m->push_back({"linalg.qr_bytes", 2.0 * 8.0 * m_rows * n_cols, "B", 0});
  m->push_back({"linalg.forward_gemm_us", gemm_us, "us", 101});
  m->push_back({"linalg.gemm_flops", 2.0 * rows * inner * outs, "flop", 0});
  m->push_back({"linalg.gemm_bytes",
                8.0 * (rows * inner + outs * inner + rows * outs), "B", 0});
}

struct StoreReplay {
  double lookup_us = 0.0;
  double candidates_per_lookup = 0.0;
  double read_us = 0.0;
  double useful_ratio = 0.0;
};

// Replays the traced run's RAM-miss points through the store the way a
// reload does: stab the directory, read candidates until one matches the
// endpoint at x0.
StoreReplay ReplayStore(const PhaseResult& phase, const ServingState& s) {
  constexpr size_t kMaxPoints = 2000;
  StoreReplay r;
  std::vector<double> lookup_us, read_us;
  size_t candidates = 0, reads = 0, useful = 0, lookups = 0;
  for (const Served& rec : phase.served) {
    if (lookups == kMaxPoints) break;
    if (rec.outcome != CacheOutcome::kDiskHit && !IsMiss(rec.outcome)) {
      continue;
    }
    ++lookups;
    const Vec y = s.model->Predict(*rec.x0);
    std::vector<uint64_t> offsets;
    {
      ScopedSpan span("store.lookup");
      const int64_t t0 = NowNs();
      s.store->CollectCandidates(*rec.x0, linalg::ArgMax(y), &offsets);
      lookup_us.push_back(static_cast<double>(NowNs() - t0) * 1e-3);
      span.set_count(offsets.size());
    }
    candidates += offsets.size();
    for (uint64_t offset : offsets) {
      ScopedSpan span("store.read");
      const int64_t t0 = NowNs();
      Result<store::RegionRecord> record = s.store->Read(offset);
      read_us.push_back(static_cast<double>(NowNs() - t0) * 1e-3);
      span.set_count(1);
      ++reads;
      if (!record.ok()) continue;
      const Vec predicted = api::EvaluateLocalModel(record->model, *rec.x0);
      double worst = 0.0;
      for (size_t k = 0; k < y.size(); ++k) {
        worst = std::max(worst, std::fabs(predicted[k] - y[k]));
      }
      if (worst <= interpret::EngineConfig{}.match_tol) {
        ++useful;
        break;
      }
    }
  }
  r.lookup_us = Quantile(lookup_us, 0.5);
  r.read_us = Quantile(read_us, 0.5);
  r.candidates_per_lookup =
      lookups == 0 ? 0.0
                   : static_cast<double>(candidates) /
                         static_cast<double>(lookups);
  r.useful_ratio =
      reads == 0 ? 0.0 : static_cast<double>(useful) / static_cast<double>(reads);
  return r;
}

// Writes the spans as CSV (one row per span) for inspection after a run.
void WriteSpans(const std::vector<Span>& spans, const std::string& path) {
  std::ofstream out(path);
  out << "name,thread,request,parent,start_ns,end_ns,count\n";
  for (const Span& s : spans) {
    out << s.name << ',' << s.thread << ',' << s.request << ',' << s.parent
        << ',' << s.start_ns << ',' << s.end_ns << ',' << s.count << '\n';
  }
}

// Time each request spent in the api (summed "api" spans) and the start
// of its first api call, by request id.
std::map<int64_t, std::pair<double, int64_t>> ApiTimeByRequest(
    const std::vector<Span>& spans) {
  std::map<int64_t, std::pair<double, int64_t>> per_request;
  for (const Span& sp : spans) {
    if (std::string_view(sp.name) != "api" || sp.request < 0) continue;
    auto [it, fresh] = per_request.try_emplace(
        sp.request, std::make_pair(0.0, sp.start_ns));
    it->second.first += sp.duration_ms();
    it->second.second = std::min(it->second.second, sp.start_ns);
  }
  return per_request;
}

// The engine pool behind SubmitAsync, from the traced open loop (zipf_hits
// only; 0 elsewhere): the generator's lateness against the schedule,
// SubmitAsync's own cost, and how long a request waited for a worker
// (submission to its first api call; memo hits make none and are left
// out).
void UtilMetrics(const PhaseResult& open, const std::vector<Span>& spans,
                 std::vector<Metric>* m) {
  std::vector<double> submit_us, wait_ms;
  for (const Span& sp : spans) {
    if (std::string_view(sp.name) == "util.submit") {
      submit_us.push_back(sp.duration_ms() * 1e3);
    }
  }
  const auto per_request = ApiTimeByRequest(spans);
  for (const Served& rec : open.served) {
    auto it = per_request.find(rec.id);
    if (!rec.ok || it == per_request.end()) continue;
    wait_ms.push_back(static_cast<double>(it->second.second - rec.start_ns) *
                      1e-6);
  }
  m->push_back({"util.gen_late_p99_ms", Quantile(open.late_ms, 0.99), "ms",
                open.late_ms.size()});
  m->push_back(
      {"util.submit_us", Quantile(submit_us, 0.5), "us", submit_us.size()});
  m->push_back({"util.queue_wait_p50_ms", Quantile(wait_ms, 0.5), "ms",
                wait_ms.size()});
}

// Per-layer metrics of the traced closed-loop phase.
std::vector<Metric> PerLayer(const PhaseResult& traced,
                             const std::vector<Span>& spans,
                             const TracedApi& api, double untraced_mean_ms) {
  const interpret::EngineStats& st = traced.stats;
  const double requests = std::max<double>(1.0, static_cast<double>(st.requests));
  size_t ok = 0, miss_count = 0, miss_iterations = 0;
  for (const Served& rec : traced.served) {
    if (rec.ok) ++ok;
    if (IsMiss(rec.outcome)) {
      ++miss_count;
      miss_iterations += rec.iterations;
    }
  }
  const double interps = std::max<double>(1.0, static_cast<double>(ok));

  // Layer totals.
  size_t api_calls = 0, api_rows = 0, nn_rows = 0;
  double api_ms = 0.0, nn_ms = 0.0;
  for (const Span& sp : spans) {
    const std::string_view name(sp.name);
    if (name == "api") {
      ++api_calls;
      api_rows += sp.count;
      api_ms += sp.duration_ms();
    } else if (name == "nn") {
      nn_rows += sp.count;
      nn_ms += sp.duration_ms();
    }
  }
  // Interpret self time per request: the client's call minus the api time
  // the request spent.
  const auto per_request = ApiTimeByRequest(spans);
  std::vector<double> miss_self_ms, hit_self_us, miss_latency_ms;
  for (const Served& rec : traced.served) {
    if (!rec.ok) continue;
    auto it = per_request.find(rec.id);
    const double req_api_ms = it == per_request.end() ? 0.0 : it->second.first;
    const double service_ms =
        static_cast<double>(rec.end_ns - rec.start_ns) * 1e-6;
    if (IsMiss(rec.outcome)) {
      miss_self_ms.push_back(service_ms - req_api_ms);
      miss_latency_ms.push_back(rec.latency_ms);
    } else if (rec.outcome == CacheOutcome::kMemoryHit) {
      hit_self_us.push_back((service_ms - req_api_ms) * 1e3);
    }
  }
  const double miss_self = Quantile(miss_self_ms, 0.5);
  const double busy_per_interp = api_ms / interps;
  const double traced_miss_p50 = Quantile(miss_latency_ms, 0.5);

  std::vector<Metric> m = {
      {"interpret.memo_share", st.point_memo_hits / requests, "ratio", 0},
      {"interpret.ram_share", st.cache_hits / requests, "ratio", 0},
      {"interpret.disk_share", st.disk_hits / requests, "ratio", 0},
      {"interpret.miss_share", st.cache_misses / requests, "ratio", 0},
      {"interpret.evictions_per_1k", 1e3 * st.evictions / requests, "count",
       0},
      {"interpret.shrink_iters_per_miss",
       miss_count == 0 ? 0.0
                       : static_cast<double>(miss_iterations) /
                             static_cast<double>(miss_count),
       "count", miss_count},
      {"interpret.miss_self_ms", miss_self, "ms", miss_self_ms.size()},
      {"interpret.hit_self_us", Quantile(hit_self_us, 0.5), "us",
       hit_self_us.size()},
      {"api.calls_per_interp", static_cast<double>(api_calls) / interps,
       "count", api_calls},
      {"api.rows_per_call",
       api_calls == 0 ? 0.0
                      : static_cast<double>(api_rows) /
                            static_cast<double>(api_calls),
       "count", api_calls},
      {"api.busy_ms_per_interp", busy_per_interp, "ms", api_calls},
      {"api.refusals", static_cast<double>(api.refusals()), "count", 0},
      {"nn.forward_us_per_row",
       nn_rows == 0 ? 0.0 : 1e3 * nn_ms / static_cast<double>(nn_rows), "us",
       nn_rows},
      {"nn.rows_per_interp", static_cast<double>(nn_rows) / interps, "count",
       nn_rows},
      {"store.appends_per_1k", 1e3 * st.store_appends / requests, "count", 0},
      {"trace.overhead_pct",
       100.0 * (MeanLatencyMs(traced) / untraced_mean_ms - 1.0), "%", 0},
      // (miss self time + api time per interpretation) / traced miss p50:
      // near 1 when the two layers account for a miss.
      {"trace.miss_accounting_ratio",
       traced_miss_p50 == 0.0
           ? 0.0
           : (miss_self + busy_per_interp) / traced_miss_p50,
       "ratio", miss_latency_ms.size()},
  };
  return m;
}

// --- Output ----------------------------------------------------------------

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

void PrintEnvironment(const Options& opt) {
  struct utsname uts {};
  uname(&uts);
  std::printf("env machine=%s kernel=%s nproc=%u compiler=\"%s\" "
              "build_type=%s march=%s\n",
              uts.machine, uts.release, std::thread::hardware_concurrency(),
              __VERSION__, SERVEBENCH_BUILD_TYPE, SERVEBENCH_MARCH);
  std::printf("run workload=%s seed=%llu seconds=%g trace=%d\n",
              opt.workload.c_str(),
              static_cast<unsigned long long>(opt.seed), opt.seconds,
              opt.trace ? 1 : 0);
}

void PrintMetrics(const std::vector<Metric>& metrics, const char* tag) {
  for (const Metric& m : metrics) {
    if (m.samples > 0) {
      std::printf("%s %-34s %14.6g %-6s n=%zu\n", tag, m.name.c_str(),
                  m.value, m.unit.c_str(), m.samples);
    } else {
      std::printf("%s %-34s %14.6g %s\n", tag, m.name.c_str(), m.value,
                  m.unit.c_str());
    }
  }
}

void PrintResult(bool correct, size_t attempted, size_t failed,
                 const std::vector<Metric>& metrics) {
  std::ostringstream json;
  json << "{\"correct\": " << (correct ? "true" : "false")
       << ", \"attempted\": " << attempted << ", \"failed\": " << failed
       << ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) json << ", ";
    json << '"' << metrics[i].name << "\": {\"value\": "
         << JsonNumber(metrics[i].value) << ", \"unit\": \"" << metrics[i].unit
         << "\"}";
  }
  json << "}}";
  std::printf("%s\n", json.str().c_str());
  std::fflush(stdout);
}

bool ParseOptions(int argc, char** argv, Options* opt) {
  std::map<std::string, std::string> flags;
  for (int i = 1; i + 1 < argc; i += 2) flags[argv[i]] = argv[i + 1];
  if (argc % 2 != 1 || !flags.count("--workload") || !flags.count("--seed") ||
      !flags.count("--seconds") || !flags.count("--trace") ||
      !flags.count("--work-dir")) {
    return false;
  }
  opt->workload = flags["--workload"];
  opt->seed = std::strtoull(flags["--seed"].c_str(), nullptr, 10);
  opt->seconds = std::strtod(flags["--seconds"].c_str(), nullptr);
  opt->trace = flags["--trace"] == "1";
  opt->work_dir = flags["--work-dir"];
  return opt->seconds > 0.0 &&
         (opt->workload == "cold_extract" || opt->workload == "zipf_hits" ||
          opt->workload == "tiered_restart");
}

// --- Main flow -------------------------------------------------------------

int Run(const Options& opt) {
  PrintEnvironment(opt);
  const std::string& w = opt.workload;
  const uint64_t engine_seed = util::Rng::MixSeed(opt.seed, kEngineSeedStream);
  const double phase_s = opt.trace ? opt.seconds / 2.0 : opt.seconds;
  // The traced half's share for zipf_hits' open loop through the pool.
  const double open_s =
      opt.trace && w == "zipf_hits" ? opt.seconds / 4.0 : 0.0;

  Inputs in = w == "cold_extract" ? MakeColdInputs(opt.seed, phase_s)
              : w == "zipf_hits"  ? MakeZipfInputs(opt.seed, phase_s, open_s)
                                  : MakeTieredInputs(opt.seed, phase_s);
  std::unique_ptr<RestartFixture> fixture;
  if (w == "tiered_restart") {
    fixture = std::make_unique<RestartFixture>(
        BuildRestartFixture(opt.seed, in.held_out, opt.work_dir));
  }

  // Builds the serving state; *setup_s gets the timed part.
  auto setup = [&](const RequestKeys* keys, double* setup_s,
                   double* open_ms) -> std::unique_ptr<ServingState> {
    if (fixture != nullptr) {
      return SetupTiered(*fixture, keys, setup_s, open_ms);
    }
    const int64_t t0 = NowNs();
    auto s = w == "cold_extract" ? SetupCold(opt.seed, keys)
                                 : SetupZipf(opt.seed, in.held_out, keys);
    *setup_s = static_cast<double>(NowNs() - t0) * 1e-9;
    return s;
  };
  auto teardown = [&](std::unique_ptr<ServingState> s) {
    s.reset();
    if (fixture != nullptr) {
      std::error_code ec;
      fs::remove(fixture->run_path, ec);
    }
  };

  // Untimed set-up repetitions feed setup_s; the last state serves.
  const size_t reps = opt.trace                 ? 1
                      : w == "cold_extract"     ? kColdSetupReps
                      : w == "zipf_hits"        ? kZipfSetupReps
                                                : kTieredSetupReps;
  std::vector<double> setup_times;
  std::unique_ptr<ServingState> state;
  for (size_t r = 0; r < reps; ++r) {
    if (state != nullptr) teardown(std::move(state));
    double setup_s = 0.0, open_ms = 0.0;
    state = setup(nullptr, &setup_s, &open_ms);
    setup_times.push_back(setup_s);
  }

  PhaseResult phase = RunClosedLoop(*state, in, phase_s, engine_seed);
  Check check = CheckAnswers(phase, *state->oracle);
  if (phase.inputs_exhausted) {
    std::fprintf(stderr, "warning: a client ran out of inputs early\n");
  }
  std::printf("phase untraced attempted=%zu failed=%zu exact=%zu "
              "wall_s=%.3f response_queries=%llu api_queries=%llu\n",
              check.attempted, check.failed, check.exact, phase.wall_s,
              static_cast<unsigned long long>(check.response_queries),
              static_cast<unsigned long long>(phase.api_queries));
  bool correct = check.accounting_exact && check.attempted > 0;

  if (!opt.trace) {
    std::vector<Metric> extra;
    std::vector<Metric> metrics =
        EndToEnd(phase, check, Quantile(setup_times, 0.5), &extra);
    PrintMetrics(metrics, "metric");
    PrintMetrics(extra, "info");
    teardown(std::move(state));
    PrintResult(correct, check.attempted, check.failed, metrics);
    return 0;
  }

  // Traced phase on fresh state and the same inputs; on zipf_hits it
  // ends early for the open loop, which records under its own tracer.
  const double untraced_mean_ms = MeanLatencyMs(phase);
  teardown(std::move(state));
  const RequestKeys keys = KeysOf(in);
  std::vector<Span> spans, open_spans;
  PhaseResult traced, open;
  double open_ms = 0.0;
  uint64_t recovered = 0, log_before = 0;
  {
    Tracer tracer;
    double setup_s = 0.0;
    state = setup(&keys, &setup_s, &open_ms);
    if (state->store != nullptr) {
      recovered = state->store->recovery_stats().records_recovered;
      log_before = fs::file_size(fixture->run_path);
    }
    traced = RunClosedLoop(*state, in, phase_s - open_s, engine_seed);
    spans = tracer.Collect();
  }
  if (!in.scheduled.empty()) {
    Tracer tracer;
    open = RunOpenLoop(*state, in, engine_seed);
    open_spans = tracer.Collect();
  }
  const Check traced_check = CheckAnswers(traced, *state->oracle);
  const Check open_check = CheckAnswers(open, *state->oracle);
  std::vector<Metric> metrics =
      PerLayer(traced, spans, *state->traced_api, untraced_mean_ms);
  UtilMetrics(open, open_spans, &metrics);
  StoreReplay replay;
  double log_growth_mb = 0.0;
  if (state->store != nullptr) {
    if (!state->store->Flush().ok()) {
      std::fprintf(stderr, "store flush failed\n");
    }
    log_growth_mb =
        static_cast<double>(fs::file_size(fixture->run_path) - log_before) /
        (1024.0 * 1024.0);
    replay = ReplayStore(traced, *state);
  }
  metrics.push_back({"store.open_ms", state->store ? open_ms : 0.0, "ms", 0});
  metrics.push_back({"store.records_recovered",
                     static_cast<double>(recovered), "count", 0});
  metrics.push_back({"store.lookup_us", replay.lookup_us, "us", 0});
  metrics.push_back({"store.candidates_per_lookup",
                     replay.candidates_per_lookup, "count", 0});
  metrics.push_back({"store.read_us", replay.read_us, "us", 0});
  metrics.push_back({"store.useful_ratio", replay.useful_ratio, "ratio", 0});
  metrics.push_back({"store.log_growth_mb", log_growth_mb, "MB", 0});
  if (state->plnn != nullptr) {
    LinalgMetrics(opt.seed, kColdDim, state->plnn->layer(0).weights(),
                  &metrics);
  } else {
    LinalgMetrics(opt.seed, kGridDim,
                  state->grid != nullptr
                      ? state->grid->CellModel(0).weights.Transposed()
                      : fixture->grid->CellModel(0).weights.Transposed(),
                  &metrics);
  }
  teardown(std::move(state));
  spans.insert(spans.end(), open_spans.begin(), open_spans.end());
  WriteSpans(spans, opt.work_dir + "/spans_" + w + ".csv");
  std::printf("phase traced attempted=%zu failed=%zu exact=%zu wall_s=%.3f "
              "spans=%zu\n",
              traced_check.attempted, traced_check.failed, traced_check.exact,
              traced.wall_s, spans.size());
  if (!in.scheduled.empty()) {
    std::printf("phase open attempted=%zu failed=%zu exact=%zu wall_s=%.3f\n",
                open_check.attempted, open_check.failed, open_check.exact,
                open.wall_s);
  }
  PrintMetrics(metrics, "layer");
  for (const Metric& m : metrics) {
    if (m.name == "trace.miss_accounting_ratio" && w == "cold_extract") {
      std::printf("check miss_self_ms + api.busy_ms_per_interp = %.3f x "
                  "miss p50 (slack %.2f): %s\n",
                  m.value, kMissAccountingSlack,
                  std::fabs(m.value - 1.0) <= kMissAccountingSlack
                      ? "within"
                      : "OUTSIDE");
    }
  }
  correct = correct && traced_check.accounting_exact &&
            open_check.accounting_exact;
  PrintResult(correct,
              check.attempted + traced_check.attempted + open_check.attempted,
              check.failed + traced_check.failed + open_check.failed,
              metrics);
  return 0;
}

}  // namespace
}  // namespace openapi::servebench

int main(int argc, char** argv) {
  openapi::servebench::Options opt;
  if (!openapi::servebench::ParseOptions(argc, argv, &opt)) {
    std::fprintf(stderr,
                 "usage: serve_bench --workload "
                 "cold_extract|zipf_hits|tiered_restart --seed N --seconds S "
                 "--trace 0|1 --work-dir DIR\n");
    return 2;
  }
  return openapi::servebench::Run(opt);
}
