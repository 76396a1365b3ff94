// Fixed-size worker pool with a ParallelFor helper and a process-wide
// shared pool.
//
// The evaluation harnesses interpret hundreds of instances independently;
// ParallelFor shards that loop across cores. Work items must be
// independent — the interpreters are const-callable and each shard gets
// its own util::Rng fork, so results stay deterministic for a fixed shard
// count (the helpers always shard by index block, not by scheduling
// order).
//
// ParallelFor tracks completion with a per-call latch rather than
// ThreadPool::Wait(), so several clients (multiple engines, replica sets,
// concurrent InterpretAll calls) can share one pool without waiting on
// each other's work. Do not call ParallelFor from inside a task running on
// the same pool: the caller would block a worker while its shards sit
// behind it in the queue.
//
// SharedThreadPool() is the lazily constructed process-wide pool the
// serving layer borrows by default. The first caller fixes its size; it is
// intentionally leaked so worker threads live for the whole process.

#ifndef OPENAPI_UTIL_THREAD_POOL_H_
#define OPENAPI_UTIL_THREAD_POOL_H_

#include <functional>
#include <queue>
#include <thread>
#include <vector>

#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace openapi::util {

class ThreadPool {
 public:
  /// Spawns `num_threads` workers (>= 1).
  explicit ThreadPool(size_t num_threads);

  /// Drains the queue and joins all workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueues one task.
  void Submit(std::function<void()> task) EXCLUDES(mutex_);

  /// Blocks until every submitted task has finished. On a shared pool this
  /// includes other clients' tasks; prefer ParallelFor's per-call latch (or
  /// futures) when the pool is shared.
  void Wait() EXCLUDES(mutex_);

  /// True when the CALLING thread is one of this pool's workers. Nested
  /// dispatchers (e.g. api::ApiReplicaSet's batch sharding) use this to
  /// run work inline instead of blocking a worker on its own pool — the
  /// deadlock-free story for pool-on-pool composition.
  bool OnWorkerThread() const;

  size_t num_threads() const { return workers_.size(); }

 private:
  void WorkerLoop() EXCLUDES(mutex_);

  // analyze: unguarded(populated in the constructor before any worker
  // runs and joined in the destructor after shutdown; never touched
  // while workers execute)
  std::vector<std::thread> workers_;
  Mutex mutex_;
  std::queue<std::function<void()>> queue_ GUARDED_BY(mutex_);
  CondVar work_available_;
  CondVar all_done_;
  size_t in_flight_ GUARDED_BY(mutex_) = 0;
  bool shutting_down_ GUARDED_BY(mutex_) = false;
};

/// Runs body(i) for i in [0, count) across `pool`, blocking until done.
/// Iterations are grouped into contiguous blocks (one per thread) so any
/// per-block state (e.g., RNG forks) is deterministic in the thread count.
/// Completion is tracked per call, so concurrent ParallelFor calls on one
/// shared pool do not wait on each other's tasks. The first block runs
/// inline on the calling thread.
void ParallelFor(ThreadPool* pool, size_t count,
                 const std::function<void(size_t)>& body);

/// Hardware concurrency, optionally clamped to [1, cap].
/// cap == 0 means uncapped: use everything the hardware reports.
/// (An earlier revision silently capped at 16 regardless of hardware; the
/// cap is now opt-in and caller-controlled.)
size_t DefaultThreadCount(size_t cap = 0);

/// The process-wide shared pool. Lazily constructed on first use: the
/// first caller fixes the size (num_threads == 0 means
/// DefaultThreadCount()); later calls return the same pool and ignore the
/// argument. Never destroyed — safe to use from static-duration objects.
ThreadPool* SharedThreadPool(size_t num_threads = 0);

}  // namespace openapi::util

#endif  // OPENAPI_UTIL_THREAD_POOL_H_
