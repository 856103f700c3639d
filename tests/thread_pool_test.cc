#include <atomic>
#include <chrono>
#include <cstdint>
#include <numeric>
#include <thread>
#include <vector>

#include "gtest/gtest.h"
#include "src/util/rng.h"
#include "src/util/thread_pool.h"

namespace chameleon::util {
namespace {

TEST(ThreadPoolTest, ClampsWorkerCount) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.num_threads(), 1);
  ThreadPool negative(-3);
  EXPECT_EQ(negative.num_threads(), 1);
  EXPECT_GE(ThreadPool::HardwareConcurrency(), 1);
  EXPECT_EQ(ThreadPool::ResolveThreadCount(0),
            ThreadPool::HardwareConcurrency());
  EXPECT_EQ(ThreadPool::ResolveThreadCount(3), 3);
  EXPECT_EQ(ThreadPool::ResolveThreadCount(-1), 1);
}

TEST(ThreadPoolTest, SubmitRunsEveryTask) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  std::vector<std::future<void>> futures;
  for (int i = 0; i < 100; ++i) {
    futures.push_back(pool.Submit([&counter] {
      counter.fetch_add(1, std::memory_order_relaxed);
    }));
  }
  for (auto& f : futures) f.get();
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPoolTest, ParallelForCoversEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  const int64_t total = 1001;
  std::vector<std::atomic<int>> touched(total);
  for (auto& t : touched) t.store(0);
  pool.ParallelFor(total, 7, [&](int64_t begin, int64_t end, int64_t) {
    for (int64_t i = begin; i < end; ++i) {
      touched[i].fetch_add(1, std::memory_order_relaxed);
    }
  });
  for (int64_t i = 0; i < total; ++i) {
    EXPECT_EQ(touched[i].load(), 1) << "index " << i;
  }
}

TEST(ThreadPoolTest, ParallelForHandlesEdgeCases) {
  ThreadPool pool(4);
  int calls = 0;
  pool.ParallelFor(0, 8, [&](int64_t, int64_t, int64_t) { ++calls; });
  EXPECT_EQ(calls, 0);
  // A single chunk runs inline on the calling thread.
  pool.ParallelFor(3, 100, [&](int64_t begin, int64_t end, int64_t chunk) {
    EXPECT_EQ(begin, 0);
    EXPECT_EQ(end, 3);
    EXPECT_EQ(chunk, 0);
    ++calls;
  });
  EXPECT_EQ(calls, 1);
  // Non-positive grain is clamped to 1.
  std::atomic<int64_t> sum{0};
  pool.ParallelFor(5, 0, [&](int64_t begin, int64_t end, int64_t) {
    for (int64_t i = begin; i < end; ++i) {
      sum.fetch_add(i, std::memory_order_relaxed);
    }
  });
  EXPECT_EQ(sum.load(), 0 + 1 + 2 + 3 + 4);
}

TEST(ThreadPoolTest, CurrentIsNullByDefaultAndRestoredWhenScopeEnds) {
  EXPECT_EQ(ThreadPool::Current(), nullptr);
  ThreadPool outer(2);
  ThreadPool inner(2);
  {
    const ThreadPool::Scope outer_scope(&outer);
    EXPECT_EQ(ThreadPool::Current(), &outer);
    {
      const ThreadPool::Scope inner_scope(&inner);
      EXPECT_EQ(ThreadPool::Current(), &inner);
      {
        const ThreadPool::Scope cleared(nullptr);
        EXPECT_EQ(ThreadPool::Current(), nullptr);
      }
      EXPECT_EQ(ThreadPool::Current(), &inner);
    }
    EXPECT_EQ(ThreadPool::Current(), &outer);
    // The scope is the calling thread's alone.
    ThreadPool* seen_elsewhere = &outer;
    std::thread other([&] { seen_elsewhere = ThreadPool::Current(); });
    other.join();
    EXPECT_EQ(seen_elsewhere, nullptr);
  }
  EXPECT_EQ(ThreadPool::Current(), nullptr);
}

TEST(ThreadPoolTest, CurrentIsNullInsideParallelForBodies) {
  ThreadPool pool(4);
  const ThreadPool::Scope scope(&pool);
  const int64_t total = 32;
  std::vector<ThreadPool*> seen(total, &pool);
  std::vector<std::thread::id> ran_on(total);
  pool.ParallelFor(total, 1, [&](int64_t begin, int64_t end, int64_t) {
    for (int64_t i = begin; i < end; ++i) {
      seen[i] = ThreadPool::Current();
      ran_on[i] = std::this_thread::get_id();
      // Long enough that the helpers take chunks too.
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  });
  int64_t on_workers = 0;
  for (int64_t i = 0; i < total; ++i) {
    EXPECT_EQ(seen[i], nullptr) << "index " << i;
    if (ran_on[i] != std::this_thread::get_id()) ++on_workers;
  }
  EXPECT_GT(on_workers, 0);
  // The caller's scope is back once the loop returns.
  EXPECT_EQ(ThreadPool::Current(), &pool);

  // Workers never hold a scope, whatever the submitting thread holds.
  ThreadPool* seen_by_task = &pool;
  pool.Submit([&] { seen_by_task = ThreadPool::Current(); }).get();
  EXPECT_EQ(seen_by_task, nullptr);
}

TEST(ThreadPoolTest, ChunkDecompositionIndependentOfWorkerCount) {
  // The determinism contract: chunk boundaries depend only on
  // (total, grain), so per-chunk outputs are identical at every
  // num_threads.
  const int64_t total = 237;
  const int64_t grain = 10;
  auto chunks_of = [&](int workers) {
    ThreadPool pool(workers);
    std::vector<std::pair<int64_t, int64_t>> bounds((total + grain - 1) /
                                                    grain);
    pool.ParallelFor(total, grain,
                     [&](int64_t begin, int64_t end, int64_t chunk) {
                       bounds[chunk] = {begin, end};
                     });
    return bounds;
  };
  const auto serial = chunks_of(1);
  EXPECT_EQ(serial, chunks_of(2));
  EXPECT_EQ(serial, chunks_of(4));
  EXPECT_EQ(serial, chunks_of(8));
}

TEST(ThreadPoolTest, SeededStreamsIdenticalAcrossWorkerCounts) {
  // ParallelForSeeded draws chunk seeds serially in chunk order, so the
  // per-index values must be bit-identical at every worker count.
  const int64_t total = 512;
  const int64_t grain = 16;
  auto draws_of = [&](int workers) {
    ThreadPool pool(workers);
    std::vector<uint64_t> values(total, 0);
    pool.ParallelForSeeded(
        1234, total, grain,
        [&](int64_t begin, int64_t end, int64_t, Rng* rng) {
          for (int64_t i = begin; i < end; ++i) values[i] = rng->NextU64();
        });
    return values;
  };
  const auto serial = draws_of(1);
  EXPECT_EQ(serial, draws_of(2));
  EXPECT_EQ(serial, draws_of(4));
  EXPECT_EQ(serial, draws_of(7));
}

TEST(ThreadPoolTest, SeededChunksGetDistinctStreams) {
  ThreadPool pool(4);
  const int64_t total = 64;
  const int64_t grain = 8;
  std::vector<uint64_t> first_draw(total / grain, 0);
  pool.ParallelForSeeded(99, total, grain,
                         [&](int64_t, int64_t, int64_t chunk, Rng* rng) {
                           first_draw[chunk] = rng->NextU64();
                         });
  for (size_t a = 0; a < first_draw.size(); ++a) {
    for (size_t b = a + 1; b < first_draw.size(); ++b) {
      EXPECT_NE(first_draw[a], first_draw[b]);
    }
  }
}

TEST(ThreadPoolTest, ParallelForMatchesSerialReduction) {
  const int64_t total = 100000;
  std::vector<double> input(total);
  Rng rng(5);
  for (auto& v : input) v = rng.NextDouble();

  double serial_sum = 0.0;
  for (double v : input) serial_sum += v;

  // Chunked reduction merged in chunk order is deterministic; with
  // fixed chunking it is also identical at every worker count.
  ThreadPool pool(4);
  const int64_t grain = 4096;
  std::vector<double> partial((total + grain - 1) / grain, 0.0);
  pool.ParallelFor(total, grain,
                   [&](int64_t begin, int64_t end, int64_t chunk) {
                     double s = 0.0;
                     for (int64_t i = begin; i < end; ++i) s += input[i];
                     partial[chunk] = s;
                   });
  double chunked_sum = 0.0;
  for (double v : partial) chunked_sum += v;
  EXPECT_NEAR(chunked_sum, serial_sum, 1e-9);
}

TEST(ThreadPoolTest, ConcurrentSubmittersDoNotRace) {
  // TSan target: several threads submitting work into one pool while it
  // drains must be clean.
  ThreadPool pool(4);
  std::atomic<int64_t> sum{0};
  std::vector<std::thread> submitters;
  std::vector<std::future<void>> futures[4];
  std::mutex futures_mutex;
  for (int t = 0; t < 4; ++t) {
    submitters.emplace_back([&, t] {
      for (int i = 0; i < 50; ++i) {
        auto f = pool.Submit(
            [&sum] { sum.fetch_add(1, std::memory_order_relaxed); });
        std::lock_guard<std::mutex> lock(futures_mutex);
        futures[t].push_back(std::move(f));
      }
    });
  }
  for (auto& s : submitters) s.join();
  for (auto& per_thread : futures) {
    for (auto& f : per_thread) f.get();
  }
  EXPECT_EQ(sum.load(), 200);
}

}  // namespace
}  // namespace chameleon::util
