#include "support/parallel.hpp"

#include <atomic>
#include <cstdlib>
#include <exception>
#include <memory>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "support/error.hpp"
#include "support/log.hpp"

namespace gnav::support {
namespace {
thread_local bool t_in_worker = false;

/// Pool instruments. One process-wide pair shared by every pool: the
/// gauge reflects the most recently active pool's backlog (a process
/// diagnostic, not per-pool accounting), the counter totals across all
/// pools.
struct PoolInstruments {
  obs::Gauge& pending;
  obs::Counter& jobs;
};

PoolInstruments& pool_instruments() {
  auto& reg = obs::MetricsRegistry::global();
  static PoolInstruments ins{
      reg.gauge("gnav_pool_pending_jobs", {},
                "Jobs enqueued but unclaimed on the most recently active "
                "thread pool"),
      reg.counter("gnav_pool_jobs_total", {},
                  "Jobs enqueued across every thread pool"),
  };
  return ins;
}
}  // namespace

ThreadPool::ThreadPool(std::size_t num_threads) {
  if (num_threads == 0) num_threads = default_thread_count();
  workers_.reserve(num_threads);
  for (std::size_t i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this, i] { worker_loop(i); });
  }
}

ThreadPool::~ThreadPool() {
  {
    MutexLock lock(mutex_);
    stop_ = true;
  }
  cv_.notify_all();
  for (std::thread& w : workers_) w.join();
}

std::size_t ThreadPool::pending() const {
  MutexLock lock(mutex_);
  return queue_.size();
}

bool ThreadPool::in_worker() { return t_in_worker; }

InlineExecutionScope::InlineExecutionScope() : previous_(t_in_worker) {
  t_in_worker = true;
}

InlineExecutionScope::~InlineExecutionScope() { t_in_worker = previous_; }

void ThreadPool::enqueue(std::function<void()> job) {
  std::size_t backlog = 0;
  {
    MutexLock lock(mutex_);
    GNAV_CHECK(!stop_, "submit on a stopped ThreadPool");
    queue_.push_back(std::move(job));
    backlog = queue_.size();
  }
  cv_.notify_one();
  auto& ins = pool_instruments();
  ins.jobs.add(1);
  ins.pending.set(static_cast<double>(backlog));
}

void ThreadPool::worker_loop(std::size_t worker_index) {
  obs::set_thread_name("gnav-pool-" + std::to_string(worker_index));
  t_in_worker = true;
  for (;;) {
    std::function<void()> job;
    std::size_t backlog = 0;
    {
      // Explicit wait loop (not the predicate overload): the predicate
      // lambda cannot carry a REQUIRES annotation, so the analysis would
      // flag its guarded-field reads; the loop body runs with the scoped
      // capability visibly held.
      UniqueLock lock(mutex_);
      while (!stop_ && queue_.empty()) lock.wait(cv_);
      if (queue_.empty()) return;  // stop_ && drained
      job = std::move(queue_.front());
      queue_.pop_front();
      backlog = queue_.size();
    }
    pool_instruments().pending.set(static_cast<double>(backlog));
    job();  // packaged_task-style jobs never throw out of operator()
  }
}

void ThreadPool::parallel_for(std::size_t begin, std::size_t end,
                              const std::function<void(std::size_t)>& body) {
  if (end <= begin) return;
  const std::size_t n = end - begin;
  // Nested call from a worker (or a degenerate range): run inline. This
  // keeps nested parallel_for deadlock-free with zero coordination.
  if (in_worker() || n == 1) {
    for (std::size_t i = begin; i < end; ++i) body(i);
    return;
  }

  struct SharedState {
    std::atomic<std::size_t> next;
    std::size_t end = 0;
    std::size_t chunk = 1;
    std::atomic<std::size_t> jobs_left;
    std::mutex done_mutex;
    std::condition_variable done_cv;
    std::mutex error_mutex;
    std::exception_ptr error;
  };
  auto state = std::make_shared<SharedState>();
  state->next = begin;
  state->end = end;
  // A few chunks per worker balances load without starving the atomic.
  state->chunk = std::max<std::size_t>(1, n / (size() * 8));
  const std::size_t jobs = std::min(size(), n);
  state->jobs_left = jobs;

  auto run_chunks = [state, &body] {
    for (;;) {
      const std::size_t start =
          state->next.fetch_add(state->chunk, std::memory_order_relaxed);
      if (start >= state->end) break;
      const std::size_t stop = std::min(start + state->chunk, state->end);
      try {
        for (std::size_t i = start; i < stop; ++i) body(i);
      } catch (...) {
        {
          std::lock_guard<std::mutex> lock(state->error_mutex);
          if (!state->error) state->error = std::current_exception();
        }
        state->next.store(state->end, std::memory_order_relaxed);
        break;
      }
    }
    if (state->jobs_left.fetch_sub(1) == 1) {
      std::lock_guard<std::mutex> lock(state->done_mutex);
      state->done_cv.notify_all();
    }
  };

  for (std::size_t j = 0; j < jobs; ++j) enqueue(run_chunks);
  {
    std::unique_lock<std::mutex> lock(state->done_mutex);
    state->done_cv.wait(lock, [&state] { return state->jobs_left == 0; });
  }
  if (state->error) std::rethrow_exception(state->error);
}

std::size_t default_thread_count() {
  const unsigned hw = std::thread::hardware_concurrency();
  const auto fallback = hw == 0 ? std::size_t{1} : static_cast<std::size_t>(hw);
  const char* raw = std::getenv("GNAV_THREADS");
  if (raw == nullptr) return fallback;
  char* end = nullptr;
  const long v = std::strtol(raw, &end, 10);
  if (end != raw && *end == '\0' && v >= 1) return static_cast<std::size_t>(v);
  // Reject 0 and garbage loudly, but once: every auto-sized pool and
  // async epoch asks again.
  static std::atomic<bool> warned{false};
  if (!warned.exchange(true)) {
    log_warn("GNAV_THREADS='", raw,
             "' is invalid (need an integer >= 1); falling back to ",
             fallback);
  }
  return fallback;
}

ThreadPool& global_pool() {
  static ThreadPool pool(default_thread_count());
  return pool;
}

std::uint64_t task_seed(std::uint64_t base_seed, std::uint64_t task_index) {
  // splitmix64 on the combined value; the odd multiplier decorrelates
  // adjacent indices before the finalizer.
  std::uint64_t z = base_seed + 0x9E3779B97F4A7C15ULL * (task_index + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

}  // namespace gnav::support
