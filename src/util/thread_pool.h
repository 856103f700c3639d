#ifndef CHAMELEON_UTIL_THREAD_POOL_H_
#define CHAMELEON_UTIL_THREAD_POOL_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <mutex>
#include <thread>
#include <vector>

#include "src/util/rng.h"
#include "src/util/thread_annotations.h"

namespace chameleon::util {

/// Cumulative execution counters for one pool, snapshotted by stats().
/// Everything here is load/schedule-sensitive diagnostics — callers
/// exporting these as metrics must treat them as unstable across worker
/// counts (obs::IsStableMetric excludes the `threadpool.` namespace).
struct ThreadPoolStats {
  int64_t tasks_submitted = 0;     ///< Submit() calls
  int64_t parallel_for_calls = 0;  ///< ParallelFor[Seeded] invocations
  int64_t chunks_executed = 0;     ///< chunks across all ParallelFors
  int64_t max_queue_depth = 0;     ///< peak pending tasks in the queue
};

/// Fixed-size worker pool shared by the parallel pipeline stages (MUP
/// frontier counting, OCSVM Gram construction and batch scoring, and per
/// rejection round the guide masks, the batched FM dispatch and the
/// candidate evaluation).
///
/// Determinism contract: `ParallelFor` splits the index range into chunks
/// whose boundaries depend only on (total, grain) — never on the worker
/// count — and `ParallelForSeeded` derives one Rng per chunk from the base
/// seed serially, in chunk order. A body that writes per-index or
/// per-chunk outputs therefore produces bit-identical results at every
/// `num_threads`, including 1 (which runs inline with no pool traffic).
///
/// Ambient pool: a Scope makes a pool the calling thread's Current(), so
/// code behind an unchanged interface (e.g. FoundationModel::GenerateBatch)
/// can fan out on the pool its caller owns. Workers never hold a scope,
/// and ParallelFor clears the caller's for the duration of the loop, so
/// Current() is null inside every ParallelFor body and a nested
/// ParallelFor through it runs inline instead of waiting on helpers that
/// its own pool may be too busy to run.
class ThreadPool {
 public:
  /// Makes `pool` (may be null) the calling thread's Current() until the
  /// scope ends, then restores the previous one. Not movable; scopes nest.
  class Scope {
   public:
    explicit Scope(ThreadPool* pool);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    ThreadPool* previous_;
  };

  /// The calling thread's ambient pool, or null outside every Scope.
  static ThreadPool* Current();

  /// Spawns `num_threads` workers (clamped to >= 1).
  explicit ThreadPool(int num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int num_threads() const { return num_threads_; }

  /// std::thread::hardware_concurrency() clamped to >= 1.
  static int HardwareConcurrency();

  /// Maps the num_threads convention used by the options structs
  /// (0 = hardware concurrency, otherwise the value clamped to >= 1).
  static int ResolveThreadCount(int num_threads);

  /// Enqueues one task; the future resolves when it has run.
  std::future<void> Submit(std::function<void()> task);

  /// Snapshot of the cumulative execution counters (thread-safe).
  ThreadPoolStats stats() const;

  /// Invokes body(begin, end, chunk) for every chunk [begin, end) of
  /// [0, total) with the given grain. At most num_threads() chunks run
  /// concurrently (the calling thread participates); returns once all
  /// chunks finished. The body must only write state disjoint across
  /// chunks (e.g. per-index slots of a preallocated output). Current() is
  /// null inside the body on every participating thread.
  void ParallelFor(
      int64_t total, int64_t grain,
      const std::function<void(int64_t, int64_t, int64_t)>& body);

  /// ParallelFor handing each chunk an independent Rng. Chunk seeds are
  /// drawn serially in chunk order from Rng(seed) — the splitmix64-based
  /// seeding makes the per-chunk streams independent and identical at
  /// every worker count.
  void ParallelForSeeded(
      uint64_t seed, int64_t total, int64_t grain,
      const std::function<void(int64_t, int64_t, int64_t, Rng*)>& body);

 private:
  void WorkerLoop();

  int num_threads_;
  std::vector<std::thread> workers_;
  std::deque<std::packaged_task<void()>> queue_ CHAMELEON_GUARDED_BY(mutex_);
  mutable std::mutex mutex_;
  std::condition_variable cv_;
  bool stop_ CHAMELEON_GUARDED_BY(mutex_) = false;

  // Execution counters. The queue-side pair piggybacks on mutex_ (it is
  // already held where they change); the ParallelFor pair is atomic so
  // stats() never contends with a running loop.
  int64_t tasks_submitted_ CHAMELEON_GUARDED_BY(mutex_) = 0;
  int64_t max_queue_depth_ CHAMELEON_GUARDED_BY(mutex_) = 0;
  std::atomic<int64_t> parallel_for_calls_{0};
  std::atomic<int64_t> chunks_executed_{0};
};

}  // namespace chameleon::util

#endif  // CHAMELEON_UTIL_THREAD_POOL_H_
