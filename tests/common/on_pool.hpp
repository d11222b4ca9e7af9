// Run a test body on a ThreadPool worker, so the ThreadPool::parallel_for
// forks inside it (fault-sim chunks, SOC core flows) really run
// concurrently; on the test's main thread they would run inline.
#pragma once

#include <utility>

#include "util/thread_pool.hpp"

namespace tpi::test {

/// fn() on a worker of a fresh pool of `workers` threads (0 = hardware
/// concurrency); returns its result, rethrows its exception.
template <typename F>
auto on_pool(unsigned workers, F&& fn) {
  ThreadPool pool(workers);
  return pool.submit(std::forward<F>(fn)).get();
}

}  // namespace tpi::test
