// Fixed-size thread pool for the embarrassingly parallel hot paths
// (profile-corpus collection, DSE candidate scoring, per-batch subgraph
// construction).
//
// Design rules that keep the rest of the codebase simple:
//   - Determinism is the caller's contract: parallel work must be
//     index-disjoint and seeded via `task_seed(base, index)`, never via a
//     shared Rng. Under that contract results are bit-identical whether
//     the pool runs 1 or 64 threads (see test_parallel.cpp).
//   - Nested safety: `parallel_for` called from inside a worker runs
//     inline on that worker, and `submit` from a worker executes eagerly
//     and returns a ready future. Neither can deadlock the pool.
//   - Exceptions thrown by tasks propagate: `submit` through the future,
//     `parallel_for` by rethrowing the first worker exception on the
//     calling thread (remaining indices are abandoned).
#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <thread>
#include <type_traits>
#include <vector>

#include "support/thread_safety.hpp"

namespace gnav::support {

class ThreadPool {
 public:
  /// `num_threads == 0` picks `default_thread_count()`.
  explicit ThreadPool(std::size_t num_threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t size() const { return workers_.size(); }

  /// Runs `fn` on a worker and returns a future for its result. Called
  /// from inside a worker, executes `fn` immediately (nested safety).
  template <typename F>
  auto submit(F&& fn) -> std::future<std::invoke_result_t<std::decay_t<F>>> {
    using R = std::invoke_result_t<std::decay_t<F>>;
    auto task =
        std::make_shared<std::packaged_task<R()>>(std::forward<F>(fn));
    std::future<R> fut = task->get_future();
    if (in_worker()) {
      (*task)();
    } else {
      enqueue([task] { (*task)(); });
    }
    return fut;
  }

  /// Calls `body(i)` for every i in [begin, end), distributed over the
  /// workers in contiguous dynamically-claimed chunks. Blocks until every
  /// index ran (or one threw — then rethrows that exception here).
  void parallel_for(std::size_t begin, std::size_t end,
                    const std::function<void(std::size_t)>& body);

  /// Jobs enqueued but not yet claimed by a worker — a backlog snapshot
  /// for load diagnostics (bench_e2e samples it during serve-mixed's drain
  /// as support.pool_peak_pending). Instantaneous and racy by nature: by
  /// the time the caller looks, workers may already have drained it.
  std::size_t pending() const GNAV_EXCLUDES(mutex_);

  /// True on a thread owned by any ThreadPool (or inside an
  /// InlineExecutionScope).
  static bool in_worker();

 private:
  void enqueue(std::function<void()> job) GNAV_EXCLUDES(mutex_);
  void worker_loop(std::size_t worker_index);

  std::vector<std::thread> workers_;  // written only by the constructor
  mutable Mutex mutex_;
  std::condition_variable cv_;
  std::deque<std::function<void()>> queue_ GNAV_GUARDED_BY(mutex_);
  bool stop_ GNAV_GUARDED_BY(mutex_) = false;
};

/// Marks the current thread as self-executing while alive: parallel_for
/// runs its body inline and submit executes eagerly, exactly as on a pool
/// worker. Dedicated stage threads (the pipelined epoch executor,
/// runtime/pipeline.hpp) hold one so they never wait on pool capacity —
/// the pool's workers may themselves be blocked inside nested
/// backend runs that are waiting on those very stage threads. Inline
/// execution is bit-identical by the pool's determinism contract.
class InlineExecutionScope {
 public:
  InlineExecutionScope();
  ~InlineExecutionScope();

  InlineExecutionScope(const InlineExecutionScope&) = delete;
  InlineExecutionScope& operator=(const InlineExecutionScope&) = delete;

 private:
  bool previous_;
};

/// Worker count from the GNAV_THREADS environment variable (the library's
/// one environment input) if set, otherwise
/// std::thread::hardware_concurrency(). GNAV_THREADS must be a whole
/// base-10 integer >= 1; anything else (0, trailing junk, garbage) logs
/// one warning per process and falls back to the hardware concurrency.
std::size_t default_thread_count();

/// Process-wide pool, constructed lazily with `default_thread_count()`
/// workers. The hot paths use it unless handed an explicit pool.
ThreadPool& global_pool();

/// Deterministic per-task seed: a splitmix64 mix of the caller's base
/// seed and the task index. Adjacent indices yield statistically
/// independent streams, and the value never depends on which worker or
/// in what order the task runs.
std::uint64_t task_seed(std::uint64_t base_seed, std::uint64_t task_index);

}  // namespace gnav::support
