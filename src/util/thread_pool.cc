#include "util/thread_pool.h"

#include <algorithm>

#include "util/check.h"
#include "util/mutex.h"

namespace openapi::util {
namespace {

/// The pool whose WorkerLoop owns the current thread, if any. Worker
/// threads live exactly as long as their pool, so a raw pointer is safe.
thread_local const ThreadPool* tls_worker_pool = nullptr;

}  // namespace

ThreadPool::ThreadPool(size_t num_threads) {
  OPENAPI_CHECK_GE(num_threads, 1u);
  workers_.reserve(num_threads);
  for (size_t i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    MutexLock lock(mutex_);
    shutting_down_ = true;
  }
  work_available_.NotifyAll();
  for (std::thread& worker : workers_) worker.join();
}

void ThreadPool::Submit(std::function<void()> task) {
  {
    MutexLock lock(mutex_);
    OPENAPI_CHECK(!shutting_down_);
    queue_.push(std::move(task));
    ++in_flight_;
  }
  work_available_.NotifyOne();
}

void ThreadPool::Wait() {
  MutexLock lock(mutex_);
  while (in_flight_ != 0) all_done_.Wait(mutex_);
}

bool ThreadPool::OnWorkerThread() const {
  return tls_worker_pool == this;
}

void ThreadPool::WorkerLoop() {
  tls_worker_pool = this;
  while (true) {
    std::function<void()> task;
    {
      MutexLock lock(mutex_);
      while (!shutting_down_ && queue_.empty()) {
        work_available_.Wait(mutex_);
      }
      if (queue_.empty()) {
        if (shutting_down_) return;
        continue;
      }
      task = std::move(queue_.front());
      queue_.pop();
    }
    task();
    {
      MutexLock lock(mutex_);
      --in_flight_;
      if (in_flight_ == 0) all_done_.NotifyAll();
    }
  }
}

void ParallelFor(ThreadPool* pool, size_t count,
                 const std::function<void(size_t)>& body) {
  if (count == 0) return;
  const size_t shards = std::min(pool->num_threads(), count);
  const size_t block = (count + shards - 1) / shards;

  // Per-call latch: this call only waits for its own shards, so several
  // clients can interleave work on one shared pool.
  struct Latch {
    Mutex mutex;
    CondVar done;
    size_t pending GUARDED_BY(mutex) = 0;
  } latch;

  size_t num_blocks = 0;
  for (size_t shard = 0; shard < shards; ++shard) {
    if (shard * block < count) ++num_blocks;
  }
  {
    MutexLock lock(latch.mutex);
    latch.pending = num_blocks - 1;  // block 0 runs inline below
  }
  for (size_t shard = 1; shard < num_blocks; ++shard) {
    size_t begin = shard * block;
    size_t end = std::min(begin + block, count);
    pool->Submit([begin, end, &body, &latch] {
      for (size_t i = begin; i < end; ++i) body(i);
      MutexLock lock(latch.mutex);
      if (--latch.pending == 0) latch.done.NotifyAll();
    });
  }
  for (size_t i = 0; i < std::min(block, count); ++i) body(i);
  MutexLock lock(latch.mutex);
  while (latch.pending != 0) latch.done.Wait(latch.mutex);
}

size_t DefaultThreadCount(size_t cap) {
  size_t hw = std::thread::hardware_concurrency();
  if (hw == 0) hw = 1;
  if (cap == 0) return hw;
  return std::clamp<size_t>(hw, 1, cap);
}

ThreadPool* SharedThreadPool(size_t num_threads) {
  // Leaked on purpose: the shared workers must outlive every
  // static-duration client, and joining threads during static destruction
  // is a shutdown hazard. Magic-static initialization makes the
  // first-caller size race-free.
  static ThreadPool* pool =
      new ThreadPool(num_threads > 0 ? num_threads : DefaultThreadCount());
  return pool;
}

}  // namespace openapi::util
