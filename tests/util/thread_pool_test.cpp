#include "util/thread_pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <functional>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "util/metrics.hpp"
#include "util/trace.hpp"

namespace tpi {
namespace {

TEST(ThreadPoolTest, RunsSubmittedTasks) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.size(), 4u);
  std::vector<std::future<int>> futs;
  for (int i = 0; i < 32; ++i) {
    futs.push_back(pool.submit([i] { return i * i; }));
  }
  for (int i = 0; i < 32; ++i) EXPECT_EQ(futs[static_cast<std::size_t>(i)].get(), i * i);
}

TEST(ThreadPoolTest, DefaultsToHardwareConcurrency) {
  ThreadPool pool;
  EXPECT_EQ(pool.size(), ThreadPool::default_concurrency());
  EXPECT_GE(pool.size(), 1u);
}

TEST(ThreadPoolTest, SingleWorkerPreservesSubmissionOrder) {
  // One worker = deterministic serial execution; the equivalence tests for
  // the sweep runner rely on this degenerate mode.
  ThreadPool pool(1);
  std::vector<int> order;
  std::vector<std::future<void>> futs;
  for (int i = 0; i < 16; ++i) {
    futs.push_back(pool.submit([i, &order] { order.push_back(i); }));
  }
  for (auto& f : futs) f.get();
  ASSERT_EQ(order.size(), 16u);
  for (int i = 0; i < 16; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(ThreadPoolTest, PropagatesExceptionsThroughFutures) {
  ThreadPool pool(2);
  auto ok = pool.submit([] { return 7; });
  auto bad = pool.submit([]() -> int { throw std::runtime_error("boom"); });
  EXPECT_EQ(ok.get(), 7);
  EXPECT_THROW(bad.get(), std::runtime_error);
  // The pool survives a throwing task.
  EXPECT_EQ(pool.submit([] { return 1; }).get(), 1);
}

TEST(ThreadPoolTest, DestructorDrainsQueuedTasks) {
  std::atomic<int> done{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 64; ++i) {
      pool.submit([&done] {
        std::this_thread::sleep_for(std::chrono::microseconds(100));
        ++done;
      });
    }
  }  // destructor must wait for all 64
  EXPECT_EQ(done.load(), 64);
}

TEST(ThreadPoolTest, HigherPriorityJumpsTheQueue) {
  // Occupy the single worker with a gated task, queue work at mixed
  // priorities, then release: the backlog must drain highest-first with
  // FIFO order inside each priority level.
  ThreadPool pool(1);
  std::promise<void> gate;
  std::shared_future<void> open = gate.get_future().share();
  auto blocker = pool.submit([open] { open.wait(); });

  std::vector<int> order;
  std::vector<std::future<void>> futs;
  for (const int tag : {0, 1, 2}) {
    futs.push_back(
        pool.submit_prioritized(0, [tag, &order] { order.push_back(tag); }));
  }
  futs.push_back(pool.submit_prioritized(5, [&order] { order.push_back(50); }));
  futs.push_back(pool.submit_prioritized(1, [&order] { order.push_back(10); }));
  futs.push_back(pool.submit_prioritized(5, [&order] { order.push_back(51); }));
  gate.set_value();

  blocker.get();
  for (auto& f : futs) f.get();
  EXPECT_EQ(order, (std::vector<int>{50, 51, 10, 0, 1, 2}));
}

TEST(ThreadPoolTest, ExecutesConcurrentlyWithMultipleWorkers) {
  // Two tasks that each wait for the other to start can only finish if the
  // pool really runs them on distinct threads.
  ThreadPool pool(2);
  std::atomic<int> started{0};
  auto wait_for_peer = [&started] {
    ++started;
    const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(5);
    while (started.load() < 2) {
      if (std::chrono::steady_clock::now() > deadline) return false;
      std::this_thread::yield();
    }
    return true;
  };
  auto a = pool.submit(wait_for_peer);
  auto b = pool.submit(wait_for_peer);
  EXPECT_TRUE(a.get());
  EXPECT_TRUE(b.get());
}

TEST(ParallelForTest, CurrentIsThePoolOfTheCallingWorker) {
  EXPECT_EQ(ThreadPool::current(), nullptr);
  ThreadPool pool(2);
  EXPECT_EQ(pool.submit([] { return ThreadPool::current(); }).get(), &pool);
}

TEST(ParallelForTest, RunsEveryItemOnceOnAndOffPool) {
  const auto run = [] {
    std::vector<std::atomic<int>> hits(100);
    ThreadPool::parallel_for(hits.size(), [&](std::size_t i) { ++hits[i]; });
    for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
  };
  run();  // off any pool: inline
  ThreadPool pool(4);
  pool.submit(run).get();
  ThreadPool::parallel_for(0, [](std::size_t) { FAIL(); });
}

// A forking worker never waits on a queued task, so forks nested three
// deep complete even when the pool has a single worker to run them.
TEST(ParallelForTest, NestedThreeLevelsCompleteAtAnyPoolSize) {
  for (const unsigned workers : {1u, 4u}) {
    SCOPED_TRACE(workers);
    ThreadPool pool(workers);
    std::atomic<int> leaves{0};
    pool.submit([&] {
          ThreadPool::parallel_for(3, [&](std::size_t) {
            ThreadPool::parallel_for(3, [&](std::size_t) {
              ThreadPool::parallel_for(3, [&](std::size_t) { ++leaves; });
            });
          });
        })
        .get();
    EXPECT_EQ(leaves.load(), 27);
  }
}

TEST(ParallelForTest, LowestIndexExceptionWins) {
  const auto run = [] {
    std::atomic<int> ran{0};
    try {
      ThreadPool::parallel_for(8, [&](std::size_t i) {
        ++ran;
        if (i == 5 || i == 2 || i == 7) throw std::runtime_error(std::to_string(i));
      });
      ADD_FAILURE() << "no exception";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "2");
    }
    EXPECT_EQ(ran.load(), 8);  // a throwing item does not cancel the rest
  };
  run();
  ThreadPool pool(4);
  pool.submit(run).get();
}

// The helper queued for a fork can be dequeued after its caller returned:
// here the only other worker is parked, so the forking worker itself
// dequeues the helper once its task is done. The helper must find nothing
// left to run and touch none of the caller's state; fn lives on the heap
// and is freed first, so a stray call trips ASan.
TEST(ParallelForTest, HelperDequeuedAfterCallerReturnedIsHarmless) {
  ThreadPool pool(2);
  std::promise<void> parked;
  std::promise<void> gate;
  std::shared_future<void> open = gate.get_future().share();
  auto blocker = pool.submit([&parked, open] {
    parked.set_value();
    open.wait();
  });
  parked.get_future().wait();

  std::atomic<int> ran{0};
  pool.submit([&ran] {
        auto fn = std::make_unique<std::function<void(std::size_t)>>(
            [&ran](std::size_t) { ++ran; });
        ThreadPool::parallel_for(2, *fn);
      })
      .get();
  pool.submit([] {}).get();  // queued behind the helper, so it ran first
  EXPECT_EQ(ran.load(), 2);
  gate.set_value();
  blocker.get();
}

// Items record into the forking thread's trace sink and metrics registry
// whichever thread runs them.
TEST(ParallelForTest, ItemsInheritTheCallersTraceSinkAndRegistry) {
  ThreadPool pool(4);
  TraceSink sink(7, "fork");
  MetricsRegistry registry;
  pool.submit([&] {
        const ScopedTraceSink trace(sink);
        const ScopedMetricsRegistry scope(registry);
        ThreadPool::parallel_for(64, [](std::size_t) {
          TPI_SPAN("fork.item");
          metrics().add("fork.items");
          std::this_thread::sleep_for(std::chrono::microseconds(50));
        });
      })
      .get();
  EXPECT_EQ(sink.event_count(), 64u);
  const MetricsSnapshot snap = registry.snapshot();
  const MetricValue* items = snap.find("fork.items");
  ASSERT_NE(items, nullptr);
  EXPECT_EQ(items->count, 64u);
  const MetricsSnapshot global = MetricsRegistry::global().snapshot();
  EXPECT_EQ(global.find("fork.items"), nullptr);
}

}  // namespace
}  // namespace tpi
