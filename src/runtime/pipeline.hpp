// Epoch executor — the real (wall-clock) counterpart of the cost model's
// Eq. 4, and the only place a training epoch's stages are driven and
// timed. It has two shapes of the same sample -> prepare -> consume
// contract:
//
//   sync   the degenerate inline shape: the calling thread runs
//          sample(i) -> prepare(i) -> consume(i) for each batch in order.
//          No threads, no queues, no gate, no InlineExecutionScope (so
//          nested pool work inside the callbacks fans out exactly as it
//          would for any caller); one sampler, prefetch depth 0.
//   async  a staged producer/consumer pipeline over bounded StagedQueues:
//
//   [sampler worker xN] --> sampled queue --> [transfer/cache stage]
//        --> prepared queue --> [compute stage, calling thread]
//
//   - N sampler workers draw mini-batches concurrently. Batch i always
//     draws from Rng(task_seed(epoch_seed, i)) (the pool's determinism
//     contract), so the mini-batch stream is independent of worker count
//     and scheduling order.
//   - The transfer stage reorders out-of-order arrivals and applies
//     device-cache admissions, cost-model accounting, and feature
//     staging in STRICT batch order — the cache hit/miss sequence is
//     bit-identical to the inline shape.
//   - The compute stage (the caller's thread) trains on batch i while
//     batches i+1..i+depth are in flight; optimizer steps and the
//     dropout RNG stream stay serialized by batch index.
//
// A TicketGate bounds the total number of claimed-but-unconsumed batch
// indices to the prefetch depth: workers claim consecutive tickets, and a
// ticket is released only when the transfer stage consumed that batch in
// order. Claims are consecutive and consumption is in-order, so the
// in-flight window is always {next_consumed .. next_consumed+depth-1} —
// the reorder ring needs exactly `depth` slots and the index the transfer
// stage waits for is always in flight (no deadlock). No more tickets than
// the epoch's batches can be in flight, so the executor sizes the gate,
// the ring and both queues by min(depth, num_batches): any depth >= 1 is
// safe, however large.
//
// Cache-aware biased sampling couples batch i's sampling to batch i-1's
// cache update through the residency bitmap, so its sample+transfer
// stages cannot parallelize; `chain_sample_and_prepare` collapses them
// into one producer thread (sample(i) observes exactly the post-update
// residency of batch i-1, as in the inline shape) that still overlaps
// the compute stage.
//
// Determinism contract: only wall-clock observables (stage busy seconds,
// stall counts, queue occupancy) depend on the shape, thread count and
// prefetch depth. Everything data-bearing — batches, cache state
// sequence, loss trajectory, profiler phase sums — is bit-identical
// across shapes because every side-effecting callback runs in strict
// batch order on a single stage.
//
// Each callback is timed exactly once, here; the PipelineEpochStats this
// returns is the one measured stage-wall record (the report, the corpus
// and the obs gauges are all sums of it).
#pragma once

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "obs/trace.hpp"
#include "support/error.hpp"
#include "support/parallel.hpp"
#include "support/staged_queue.hpp"
#include "support/thread_safety.hpp"

namespace gnav::runtime {

enum class PipelineMode { kSync, kAsync };

std::string to_string(PipelineMode mode);
/// Throws gnav::Error on anything but "sync" / "async".
PipelineMode pipeline_mode_from_string(const std::string& s);

struct PipelineConfig {
  PipelineMode mode = PipelineMode::kSync;
  /// Async only: bound on in-flight mini-batches (claimed but not yet
  /// consumed by the transfer stage) and on each inter-stage queue.
  std::size_t prefetch_depth = 4;
  /// Async only: sampler worker threads; 0 resolves to
  /// default_thread_count(). The executor additionally clamps to
  /// min(prefetch_depth, num_batches).
  std::size_t sampler_workers = 0;
};

/// Measured (real wall-clock, NOT simulated) execution profile of one
/// epoch. Busy seconds are summed over the calls each stage made, in both
/// shapes: inline, the three sums plus loop overhead make up the wall.
struct PipelineEpochStats {
  std::uint64_t batches = 0;
  std::size_t sampler_workers = 0;
  std::size_t prefetch_depth = 0;
  /// Queue-full waits across both hand-off queues (backpressure: the
  /// downstream stage was the bottleneck).
  std::uint64_t push_stalls = 0;
  /// Queue-empty waits across both hand-off queues (starvation: the
  /// upstream stage was the bottleneck).
  std::uint64_t pop_stalls = 0;
  /// Mean backlog of the compute-facing (prepared) queue, sampled before
  /// every push (the just-pushed item never counts) — near depth-1 means
  /// compute-bound (always full), 0 means compute drained every batch
  /// immediately (sample/transfer-bound).
  double mean_prepared_occupancy = 0.0;

  double sample_busy_s = 0.0;
  double transfer_busy_s = 0.0;
  double compute_busy_s = 0.0;
  double wall_s = 0.0;

  /// What a strictly serial execution of the same stage work would cost.
  double sequential_s() const {
    return sample_busy_s + transfer_busy_s + compute_busy_s;
  }
  /// Measured pipeline speedup: serial stage work over actual wall time.
  double measured_speedup() const {
    return wall_s > 0.0 ? sequential_s() / wall_s : 1.0;
  }
  /// Fraction of the theoretically hideable time that was actually
  /// hidden: 1 when wall == bottleneck stage (perfect overlap), 0 when
  /// wall == sum of stages (fully serial).
  double overlap_efficiency() const;

  /// Accumulate (epoch totals -> run totals). Counters and busy seconds
  /// sum; mean occupancy stays a mean over the accumulated epochs.
  void accumulate(const PipelineEpochStats& e);

 private:
  std::uint64_t occupancy_epochs_ = 0;
};

namespace detail {

/// Bounded dispenser of consecutive batch indices: acquire() hands out
/// 0,1,2,... but blocks while `depth` tickets are claimed-and-unreleased;
/// release() marks the next in-order batch consumed. abort() wakes every
/// waiter and makes further acquires fail (error shutdown).
class TicketGate {
 public:
  TicketGate(std::size_t num_tickets, std::size_t depth);

  std::optional<std::size_t> acquire() GNAV_EXCLUDES(mutex_);
  void release() GNAV_EXCLUDES(mutex_);
  void abort() GNAV_EXCLUDES(mutex_);

 private:
  support::Mutex mutex_;
  std::condition_variable cv_;
  const std::size_t num_tickets_;
  const std::size_t depth_;
  std::size_t next_ GNAV_GUARDED_BY(mutex_) = 0;
  std::size_t released_ GNAV_GUARDED_BY(mutex_) = 0;
  bool aborted_ GNAV_GUARDED_BY(mutex_) = false;
};

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  // gnav-lint(wall-clock): profiler wall — measured stage seconds are
  // wall-clock observables by definition, never data-bearing state.
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// First-error-wins collector; fire() also runs the caller's shutdown
/// hook exactly once so queues close and stages unwind.
class ErrorLatch {
 public:
  template <typename Shutdown>
  void fire(std::exception_ptr error, Shutdown&& shutdown)
      GNAV_EXCLUDES(mutex_) {
    bool run_shutdown = false;
    {
      const support::MutexLock lock(mutex_);
      if (!error_) {
        error_ = std::move(error);
        run_shutdown = true;
      }
    }
    if (run_shutdown) shutdown();
  }

  void rethrow_if_set() GNAV_EXCLUDES(mutex_) {
    const support::MutexLock lock(mutex_);
    if (error_) std::rethrow_exception(error_);
  }

 private:
  support::Mutex mutex_;
  std::exception_ptr error_ GNAV_GUARDED_BY(mutex_);
};

/// Publishes one epoch's measured stats to the obs metrics registry
/// (stage busy-second gauges, stall counters, occupancy histogram,
/// wall/overlap gauges). No-op cost when metrics are disabled beyond a
/// relaxed load per instrument.
void publish_epoch_metrics(const PipelineEpochStats& stats);

}  // namespace detail

/// Runs one epoch of `num_batches` mini-batches in the shape
/// `config.mode` selects, publishes its measured stats to the metrics
/// registry, and returns them.
///
///   sample:  (std::size_t i) -> Sampled.   Thread-safe; called from
///            dedicated worker threads in arbitrary index order (must
///            seed per index, never from shared state).
///   prepare: (std::size_t i, Sampled&&) -> Prepared.  Called in strict
///            batch order from one transfer thread (cache updates,
///            profiler accounting, feature staging).
///   consume: (std::size_t i, Prepared&&) -> void.  Called in strict
///            batch order on the calling thread (train step).
///
/// Inline (kSync) every callback runs on the calling thread and
/// exceptions propagate directly. Async, with `chain_sample_and_prepare`
/// the sample and prepare callbacks run back-to-back on one producer
/// thread (required when sampling batch i reads state written by
/// prepare(i-1), e.g. cache-aware bias — the inline shape satisfies it by
/// construction); exceptions from any stage shut the pipeline down and
/// rethrow here.
template <typename Sampled, typename Prepared, typename SampleFn,
          typename PrepareFn, typename ConsumeFn>
PipelineEpochStats run_pipelined_epoch(std::size_t num_batches,
                                       const PipelineConfig& config,
                                       bool chain_sample_and_prepare,
                                       SampleFn&& sample, PrepareFn&& prepare,
                                       ConsumeFn&& consume) {
  using namespace detail;
  struct IndexedSampled {
    std::size_t index;
    Sampled value;
  };
  struct IndexedPrepared {
    std::size_t index;
    Prepared value;
  };

  PipelineEpochStats stats;
  stats.batches = num_batches;
  const bool inline_shape = config.mode == PipelineMode::kSync;
  const std::size_t depth = std::max<std::size_t>(1, config.prefetch_depth);
  stats.prefetch_depth = inline_shape ? 0 : depth;
  if (num_batches == 0) return stats;

  if (inline_shape) {
    stats.sampler_workers = 1;
    // gnav-lint(wall-clock): profiler wall
    const auto epoch_start = Clock::now();
    for (std::size_t i = 0; i < num_batches; ++i) {
      // gnav-lint(wall-clock): profiler wall
      auto t0 = Clock::now();
      Sampled s = sample(i);
      stats.sample_busy_s += seconds_since(t0);
      // gnav-lint(wall-clock): profiler wall
      t0 = Clock::now();
      Prepared p = prepare(i, std::move(s));
      stats.transfer_busy_s += seconds_since(t0);
      // gnav-lint(wall-clock): profiler wall
      t0 = Clock::now();
      consume(i, std::move(p));
      stats.compute_busy_s += seconds_since(t0);
    }
    stats.wall_s = seconds_since(epoch_start);
    detail::publish_epoch_metrics(stats);
    return stats;
  }

  // The in-flight window (see the file comment); stats keep reporting
  // the configured depth.
  const std::size_t window = std::min(depth, num_batches);
  support::StagedQueue<IndexedSampled> sampled(window);
  support::StagedQueue<IndexedPrepared> prepared(window);
  TicketGate gate(num_batches, window);
  ErrorLatch latch;
  auto shutdown = [&] {
    gate.abort();
    sampled.close();
    prepared.close();
  };

  std::mutex busy_mutex;  // folds per-thread busy timers into `stats`
  std::vector<std::thread> threads;
  const auto epoch_start = Clock::now();  // gnav-lint(wall-clock): profiler wall

  if (chain_sample_and_prepare) {
    // Two stages: one producer runs the serial sample->prepare chain (so
    // sampling batch i observes prepare(i-1)'s side effects), compute
    // overlaps on the caller thread.
    stats.sampler_workers = 1;
    threads.emplace_back([&] {
      // Self-execute nested pool work: the global pool's workers may be
      // blocked inside nested runs waiting on this very pipeline.
      const support::InlineExecutionScope inline_scope;
      obs::set_thread_name("gnav-stage-producer");
      try {
        double sample_busy = 0.0;
        double transfer_busy = 0.0;
        for (std::size_t i = 0; i < num_batches; ++i) {
          auto t0 = Clock::now();  // gnav-lint(wall-clock): profiler wall
          Sampled s = sample(i);
          sample_busy += seconds_since(t0);
          t0 = Clock::now();  // gnav-lint(wall-clock): profiler wall
          Prepared p = prepare(i, std::move(s));
          transfer_busy += seconds_since(t0);
          if (!prepared.push({i, std::move(p)})) break;  // shut down
        }
        prepared.close();
        std::lock_guard<std::mutex> lock(busy_mutex);
        stats.sample_busy_s += sample_busy;
        stats.transfer_busy_s += transfer_busy;
      } catch (...) {
        latch.fire(std::current_exception(), shutdown);
      }
    });
  } else {
    // Three stages: N sampler workers feed the transfer thread through
    // the bounded sampled queue; the gate caps total in-flight batches.
    const std::size_t workers = std::min(
        {config.sampler_workers == 0 ? support::default_thread_count()
                                     : config.sampler_workers,
         window});
    stats.sampler_workers = std::max<std::size_t>(1, workers);
    for (std::size_t w = 0; w < stats.sampler_workers; ++w) {
      threads.emplace_back([&, w] {
        const support::InlineExecutionScope inline_scope;
        obs::set_thread_name("gnav-stage-sample-" + std::to_string(w));
        try {
          double sample_busy = 0.0;
          while (const auto ticket = gate.acquire()) {
            const auto t0 = Clock::now();  // gnav-lint(wall-clock): profiler wall
            Sampled s = sample(*ticket);
            sample_busy += seconds_since(t0);
            if (!sampled.push({*ticket, std::move(s)})) break;
          }
          std::lock_guard<std::mutex> lock(busy_mutex);
          stats.sample_busy_s += sample_busy;
        } catch (...) {
          latch.fire(std::current_exception(), shutdown);
        }
      });
    }
    threads.emplace_back([&] {
      const support::InlineExecutionScope inline_scope;
      obs::set_thread_name("gnav-stage-transfer");
      try {
        // Reorder ring: in-flight indices form a consecutive window of at
        // most `window` (TicketGate invariant), so residues mod window are
        // unique and `window` slots suffice.
        std::vector<std::optional<IndexedSampled>> ring(window);
        double transfer_busy = 0.0;
        std::size_t next = 0;
        while (next < num_batches) {
          auto item = sampled.pop();
          if (!item) break;  // shut down
          auto& slot = ring[item->index % window];
          GNAV_CHECK(!slot.has_value(),
                     "pipeline reorder ring slot collision");
          slot = std::move(*item);
          while (next < num_batches && ring[next % window].has_value()) {
            GNAV_CHECK(ring[next % window]->index == next,
                       "pipeline reorder ring out of window");
            const auto t0 = Clock::now();  // gnav-lint(wall-clock): profiler wall
            Prepared p = prepare(next, std::move(ring[next % window]->value));
            transfer_busy += seconds_since(t0);
            ring[next % window].reset();
            if (!prepared.push({next, std::move(p)})) {
              next = num_batches;  // shut down
              break;
            }
            gate.release();
            ++next;
          }
        }
        prepared.close();
        std::lock_guard<std::mutex> lock(busy_mutex);
        stats.transfer_busy_s += transfer_busy;
      } catch (...) {
        latch.fire(std::current_exception(), shutdown);
      }
    });
  }

  // Compute stage on the calling thread.
  std::size_t consumed = 0;
  try {
    std::size_t expect = 0;
    while (auto item = prepared.pop()) {
      GNAV_CHECK(item->index == expect,
                 "pipeline delivered batches out of order");
      const auto t0 = Clock::now();  // gnav-lint(wall-clock): profiler wall
      consume(item->index, std::move(item->value));
      stats.compute_busy_s += seconds_since(t0);
      ++expect;
      ++consumed;
    }
  } catch (...) {
    latch.fire(std::current_exception(), shutdown);
  }

  for (auto& t : threads) t.join();
  latch.rethrow_if_set();
  GNAV_CHECK(consumed == num_batches,
             "pipeline finished without consuming every batch");

  const auto sq = sampled.stats();
  const auto pq = prepared.stats();
  stats.push_stalls = sq.push_stalls + pq.push_stalls;
  stats.pop_stalls = sq.pop_stalls + pq.pop_stalls;
  stats.mean_prepared_occupancy = pq.mean_occupancy();
  stats.wall_s = seconds_since(epoch_start);
  detail::publish_epoch_metrics(stats);
  return stats;
}

}  // namespace gnav::runtime
