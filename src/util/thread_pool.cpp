#include "util/thread_pool.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
#include <optional>

#include "util/metrics.hpp"
#include "util/trace.hpp"

namespace tpi {
namespace {

thread_local ThreadPool* t_pool = nullptr;

/// Shared state of one parallel_for. Helpers hold it by shared_ptr, so a
/// helper that runs after the caller returned touches only this, never
/// the caller's frame: `fn`, `sink` and `registry` point into that frame
/// and are used only by a thread holding a claimed, unfinished item.
struct ForkGroup {
  ForkGroup(std::size_t n, const std::function<void(std::size_t)>& fn)
      : n(n), fn(&fn), sink(current_trace_sink()), registry(&metrics()) {}

  /// Run item `i`, then keep claiming until none are left.
  void run_from(std::size_t i) {
    for (; i < n; i = next.fetch_add(1)) {
      std::exception_ptr err;
      try {
        (*fn)(i);
      } catch (...) {
        err = std::current_exception();
      }
      std::lock_guard<std::mutex> lock(mu);
      if (err != nullptr && i < error_index) {
        error_index = i;
        error = err;
      }
      if (++done == n) cv.notify_all();
    }
  }

  const std::size_t n;
  const std::function<void(std::size_t)>* fn;
  TraceSink* sink;
  MetricsRegistry* registry;
  std::atomic<std::size_t> next{0};
  std::mutex mu;
  std::condition_variable cv;
  std::size_t done = 0;  // guarded by mu, like the two below
  std::size_t error_index = std::numeric_limits<std::size_t>::max();
  std::exception_ptr error;
};

}  // namespace

unsigned ThreadPool::default_concurrency() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? hw : 1u;
}

ThreadPool::ThreadPool(unsigned num_threads) {
  if (num_threads == 0) num_threads = default_concurrency();
  workers_.reserve(num_threads);
  for (unsigned i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stopping_ = true;
  }
  cv_.notify_all();
  for (std::thread& w : workers_) w.join();
}

ThreadPool* ThreadPool::current() { return t_pool; }

void ThreadPool::parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn) {
  if (n == 0) return;
  const auto group = std::make_shared<ForkGroup>(n, fn);
  if (ThreadPool* pool = current(); pool != nullptr) {
    const std::size_t helpers = std::min<std::size_t>(n - 1, pool->size() - 1);
    {
      // No stopping_ check: the caller is a live worker of this pool, so a
      // worker is still around to drain these even during shutdown.
      std::lock_guard<std::mutex> lock(pool->mu_);
      for (std::size_t h = 0; h < helpers; ++h) {
        pool->push_locked(kForkPriority, [group] {
          const std::size_t i = group->next.fetch_add(1);
          if (i >= group->n) return;  // all claimed; the caller may be gone
          std::optional<ScopedTraceSink> trace;
          if (group->sink != nullptr) trace.emplace(*group->sink);
          const ScopedMetricsRegistry scope(*group->registry);
          group->run_from(i);
        });
      }
    }
    for (std::size_t h = 0; h < helpers; ++h) pool->cv_.notify_one();
  }
  group->run_from(group->next.fetch_add(1));
  std::unique_lock<std::mutex> lock(group->mu);
  group->cv.wait(lock, [&] { return group->done == n; });
  if (group->error != nullptr) std::rethrow_exception(group->error);
}

void ThreadPool::push_locked(int priority, std::function<void()> fn) {
  queue_.push(Task{std::move(fn), std::chrono::steady_clock::now(), priority, next_seq_++});
}

void ThreadPool::worker_loop() {
  using Clock = std::chrono::steady_clock;
  t_pool = this;
  for (;;) {
    Task task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stopping_ and fully drained
      // priority_queue::top() is const; moving from it is safe because the
      // element is popped before anything else can observe it.
      task = std::move(const_cast<Task&>(queue_.top()));
      queue_.pop();
    }
    const Clock::time_point start = Clock::now();
    task.fn();  // packaged_task and fork helpers capture their exceptions
    const Clock::time_point done = Clock::now();
    // Scheduling is nondeterministic by nature, so these are rt.* metrics
    // in the process-global registry (never in per-flow snapshots).
    MetricsRegistry& g = MetricsRegistry::global();
    g.observe("rt.threadpool.queue_wait_us",
              std::chrono::duration<double, std::micro>(start - task.enqueued).count());
    g.observe("rt.threadpool.run_ms",
              std::chrono::duration<double, std::milli>(done - start).count());
    g.add("rt.threadpool.tasks");
  }
}

}  // namespace tpi
