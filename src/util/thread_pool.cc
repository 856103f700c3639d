#include "src/util/thread_pool.h"

#include <algorithm>
#include <atomic>

namespace chameleon::util {
namespace {

thread_local ThreadPool* current_pool = nullptr;

}  // namespace

ThreadPool::Scope::Scope(ThreadPool* pool) : previous_(current_pool) {
  current_pool = pool;
}

ThreadPool::Scope::~Scope() { current_pool = previous_; }

ThreadPool* ThreadPool::Current() { return current_pool; }

ThreadPool::ThreadPool(int num_threads)
    : num_threads_(std::max(1, num_threads)) {
  workers_.reserve(num_threads_);
  for (int i = 0; i < num_threads_; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  cv_.notify_all();
  for (auto& worker : workers_) worker.join();
}

int ThreadPool::HardwareConcurrency() {
  const unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : static_cast<int>(n);
}

int ThreadPool::ResolveThreadCount(int num_threads) {
  if (num_threads == 0) return HardwareConcurrency();
  return std::max(1, num_threads);
}

std::future<void> ThreadPool::Submit(std::function<void()> task) {
  std::packaged_task<void()> packaged(std::move(task));
  std::future<void> future = packaged.get_future();
  {
    std::lock_guard<std::mutex> lock(mutex_);
    queue_.push_back(std::move(packaged));
    ++tasks_submitted_;
    max_queue_depth_ = std::max<int64_t>(max_queue_depth_,
                                         static_cast<int64_t>(queue_.size()));
  }
  cv_.notify_one();
  return future;
}

ThreadPoolStats ThreadPool::stats() const {
  ThreadPoolStats stats;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stats.tasks_submitted = tasks_submitted_;
    stats.max_queue_depth = max_queue_depth_;
  }
  stats.parallel_for_calls = parallel_for_calls_.load(std::memory_order_relaxed);
  stats.chunks_executed = chunks_executed_.load(std::memory_order_relaxed);
  return stats;
}

void ThreadPool::WorkerLoop() {
  for (;;) {
    std::packaged_task<void()> task;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stop_ and drained
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    task();
  }
}

void ThreadPool::ParallelFor(
    int64_t total, int64_t grain,
    const std::function<void(int64_t, int64_t, int64_t)>& body) {
  if (total <= 0) return;
  if (grain < 1) grain = 1;
  const int64_t num_chunks = (total + grain - 1) / grain;
  parallel_for_calls_.fetch_add(1, std::memory_order_relaxed);
  chunks_executed_.fetch_add(num_chunks, std::memory_order_relaxed);
  // The caller's chunks run without its ambient pool, as workers' do.
  const Scope no_ambient_pool(nullptr);
  auto run_chunk = [&](int64_t chunk) {
    const int64_t begin = chunk * grain;
    const int64_t end = std::min(total, begin + grain);
    body(begin, end, chunk);
  };

  // The calling thread is one of the num_threads() participants, so only
  // num_threads() - 1 helpers are borrowed from the pool.
  const int64_t helpers =
      std::min<int64_t>(num_threads_ - 1, num_chunks - 1);
  if (helpers <= 0) {
    for (int64_t chunk = 0; chunk < num_chunks; ++chunk) run_chunk(chunk);
    return;
  }

  std::atomic<int64_t> next_chunk{0};
  auto drain = [&] {
    for (;;) {
      const int64_t chunk = next_chunk.fetch_add(1, std::memory_order_relaxed);
      if (chunk >= num_chunks) return;
      run_chunk(chunk);
    }
  };
  std::vector<std::future<void>> futures;
  futures.reserve(helpers);
  for (int64_t h = 0; h < helpers; ++h) futures.push_back(Submit(drain));
  drain();
  for (auto& future : futures) future.get();
}

void ThreadPool::ParallelForSeeded(
    uint64_t seed, int64_t total, int64_t grain,
    const std::function<void(int64_t, int64_t, int64_t, Rng*)>& body) {
  if (total <= 0) return;
  if (grain < 1) grain = 1;
  const int64_t num_chunks = (total + grain - 1) / grain;
  // Drawn serially so every worker count sees the same chunk streams.
  std::vector<uint64_t> chunk_seeds(num_chunks);
  Rng seeder(seed);
  for (auto& s : chunk_seeds) s = seeder.NextU64();
  ParallelFor(total, grain,
              [&](int64_t begin, int64_t end, int64_t chunk) {
                Rng rng(chunk_seeds[chunk]);
                body(begin, end, chunk, &rng);
              });
}

}  // namespace chameleon::util
