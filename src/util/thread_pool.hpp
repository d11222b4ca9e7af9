// Fixed-size thread pool: the one executor of an entry point (the sweep
// runner and the flow server each own one). A single priority queue
// (stable FIFO within one priority level), futures for results and
// exception propagation. Plain submit() enqueues at priority 0;
// submit_prioritized() lets the flow server run urgent tenants ahead of
// queued batch work. With one worker the pool degrades to deterministic
// serial execution, which the parallel-vs-serial equivalence tests rely on.
//
// Nested parallelism (fault-sim chunks inside a flow, core flows inside
// an SOC chip) goes through the fork-join parallel_for(), never through
// submit() + future::get() from a worker: a worker blocking on a task
// queued behind it on its own pool can deadlock, while parallel_for's
// caller only ever waits on items that a running thread has claimed.
//
// Every task's queue wait (submit -> dequeue) and run latency are recorded
// into MetricsRegistry::global() as the rt.threadpool.* histograms, so the
// pool is no longer a scheduling black box.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <future>
#include <limits>
#include <memory>
#include <mutex>
#include <queue>
#include <stdexcept>
#include <thread>
#include <type_traits>
#include <vector>

namespace tpi {

class ThreadPool {
 public:
  /// Spawns `num_threads` workers (0 = default_concurrency()).
  explicit ThreadPool(unsigned num_threads = 0);

  /// Drains every queued task, then joins the workers: all futures returned
  /// by submit() are ready once the destructor returns.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  unsigned size() const { return static_cast<unsigned>(workers_.size()); }

  /// std::thread::hardware_concurrency() with a floor of 1 (the standard
  /// allows it to return 0 when unknowable).
  static unsigned default_concurrency();

  /// The pool whose worker is running the calling thread; nullptr on any
  /// other thread.
  static ThreadPool* current();

  /// Fork-join: run fn(i) for every i in [0, n) and return once all have
  /// finished. On a worker thread the items are shared with current()'s
  /// other workers: the calling thread claims items itself from a shared
  /// atomic index, and up to size()-1 helper tasks queued at kForkPriority
  /// claim the rest. The caller waits only for items already running, so
  /// nested forks cannot deadlock at any pool size (1 included); a helper
  /// that runs after every item was claimed returns at once. On any other
  /// thread the items run inline, in index order. Every item runs under
  /// the calling thread's ScopedTraceSink and ScopedMetricsRegistry, so
  /// what it records never depends on which thread ran it. When items
  /// throw, all items still run and the exception of the lowest-index
  /// throwing item is rethrown.
  static void parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn);

  /// Fork helpers run ahead of every queued job (job priorities are
  /// bounded well below this).
  static constexpr int kForkPriority = std::numeric_limits<int>::max();

  /// Enqueue `fn` at priority 0 and return a future for its result. An
  /// exception thrown by the task is captured and rethrown from
  /// future::get().
  template <typename F>
  auto submit(F&& fn) -> std::future<std::invoke_result_t<F>> {
    return submit_prioritized(0, std::forward<F>(fn));
  }

  /// Enqueue `fn` with an explicit priority: higher runs first; equal
  /// priorities run in submission order (stable via a sequence number).
  template <typename F>
  auto submit_prioritized(int priority, F&& fn) -> std::future<std::invoke_result_t<F>> {
    using R = std::invoke_result_t<F>;
    auto task = std::make_shared<std::packaged_task<R()>>(std::forward<F>(fn));
    std::future<R> fut = task->get_future();
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (stopping_) throw std::runtime_error("ThreadPool: submit() after shutdown");
      push_locked(priority, [task] { (*task)(); });
    }
    cv_.notify_one();
    return fut;
  }

 private:
  struct Task {
    std::function<void()> fn;
    std::chrono::steady_clock::time_point enqueued;
    int priority = 0;
    std::uint64_t seq = 0;

    /// std::priority_queue is a max-heap on operator<: higher priority
    /// wins, lower sequence number (earlier submit) breaks ties.
    bool operator<(const Task& o) const {
      if (priority != o.priority) return priority < o.priority;
      return seq > o.seq;
    }
  };

  void push_locked(int priority, std::function<void()> fn);
  void worker_loop();

  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::priority_queue<Task> queue_;
  std::vector<std::thread> workers_;
  std::uint64_t next_seq_ = 0;
  bool stopping_ = false;
};

}  // namespace tpi
